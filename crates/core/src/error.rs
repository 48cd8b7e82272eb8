//! Error domain of the DDR library.

use std::fmt;

/// Errors reported by DDR setup and redistribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdrError {
    /// A block description is malformed (zero extent, wrong dimensionality).
    InvalidBlock(String),
    /// Two ranks claim ownership of overlapping data, violating the paper's
    /// "mutually exclusive" sender-side requirement (§III-B).
    OwnershipOverlap {
        /// First owning rank.
        rank_a: usize,
        /// Its chunk index.
        chunk_a: usize,
        /// Second owning rank.
        rank_b: usize,
        /// Its chunk index.
        chunk_b: usize,
    },
    /// The union of all owned chunks does not cover the full domain,
    /// violating the paper's "complete" sender-side requirement (§III-B).
    OwnershipIncomplete {
        /// Elements in the bounding-box domain.
        domain_elems: u64,
        /// Elements actually owned (disjoint, so a plain sum).
        owned_elems: u64,
    },
    /// A receive block reaches outside the owned domain; those elements
    /// would never be filled.
    NeedOutsideDomain {
        /// Rank whose need block escapes the domain.
        rank: usize,
    },
    /// A buffer handed to `reorganize` does not match the registered layout.
    BufferMismatch {
        /// Human-readable description.
        detail: String,
    },
    /// The number of processes in the descriptor does not match the
    /// communicator or the mapping call.
    ProcessCountMismatch {
        /// Processes declared in the descriptor.
        descriptor: usize,
        /// Processes observed at the call site.
        actual: usize,
    },
    /// A plan, or the call that builds one, names a rank other than the
    /// calling process's.
    RankMismatch {
        /// Rank the plan names.
        plan: usize,
        /// Rank of the calling process.
        actual: usize,
    },
    /// A rank outside `0..nprocs`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Number of processes.
        nprocs: usize,
    },
    /// A descriptor for zero processes: there is nobody to redistribute
    /// between.
    NoProcesses,
    /// Failure in the underlying message-passing runtime, a dead or
    /// unresponsive peer among them.
    Mpi(minimpi::Error),
}

impl fmt::Display for DdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdrError::InvalidBlock(d) => write!(f, "invalid block: {d}"),
            DdrError::OwnershipOverlap { rank_a, chunk_a, rank_b, chunk_b } => write!(
                f,
                "ownership overlap: rank {rank_a} chunk {chunk_a} intersects rank {rank_b} chunk {chunk_b} (owned data must be mutually exclusive)"
            ),
            DdrError::OwnershipIncomplete { domain_elems, owned_elems } => write!(
                f,
                "ownership incomplete: {owned_elems} of {domain_elems} domain elements owned (owned data must cover the domain)"
            ),
            DdrError::NeedOutsideDomain { rank } => {
                write!(f, "rank {rank}'s needed block extends outside the owned domain")
            }
            DdrError::BufferMismatch { detail } => write!(f, "buffer mismatch: {detail}"),
            DdrError::ProcessCountMismatch { descriptor, actual } => write!(
                f,
                "process count mismatch: descriptor says {descriptor}, call site has {actual}"
            ),
            DdrError::RankMismatch { plan, actual } => {
                write!(f, "rank mismatch: plan was built for rank {plan}, called on rank {actual}")
            }
            DdrError::RankOutOfRange { rank, nprocs } => {
                write!(f, "rank {rank} is out of range for {nprocs} processes")
            }
            DdrError::NoProcesses => write!(f, "a descriptor needs at least one process"),
            DdrError::Mpi(e) => write!(f, "mpi error: {e}"),
        }
    }
}

impl std::error::Error for DdrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DdrError::Mpi(e) => Some(e),
            _ => None,
        }
    }
}

impl From<minimpi::Error> for DdrError {
    fn from(e: minimpi::Error) -> Self {
        DdrError::Mpi(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DdrError>;
