//! Error type for runtime failures.

use std::fmt;

/// Errors surfaced by the minimpi runtime.
///
/// Programming errors (rank out of range, datatype/buffer mismatch) are
/// reported as dedicated variants rather than panics so that library layers
/// above (e.g. `ddr-core`) can translate them into their own error domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A destination or source rank is outside `0..size`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Communicator size.
        size: usize,
    },
    /// A blocking receive did not complete within the watchdog timeout: almost always a deadlock or a mismatched send/recv pair.
    /// Carries the full pending op so the hang is diagnosable: who waited, on
    /// whom, for what tag, on which communicator.
    Timeout {
        /// Waiting rank (communicator-local).
        rank: usize,
        /// The source the receive waited on (communicator-local).
        src: usize,
        /// Raw key tag of the awaited message. User tags are `< 2^32`;
        /// larger values are internal collective sequence numbers (the
        /// `Display` impl decodes both).
        tag: u64,
        /// Communicator the wait was posted on.
        comm_id: u64,
    },
    /// A peer rank is known to be dead — fault-killed, panicked, or already
    /// exited — so the awaited message can never arrive. Reported by the
    /// liveness registry well before the watchdog timeout would fire.
    PeerDead {
        /// The dead rank (communicator-local). When a fault plan kills the
        /// *calling* rank, this is the caller's own rank.
        rank: usize,
    },
    /// A typed receive found a message whose byte length is not a multiple
    /// of the element size, or that does not fit the caller's buffer.
    SizeMismatch {
        /// What the receiver expected, in bytes.
        expected: usize,
        /// What actually arrived, in bytes.
        got: usize,
    },
    /// A datatype does not fit the buffer it is applied to, or the two sides
    /// of a transfer disagree on its shape: a loan's parts against the
    /// receive parts (count, bytes, element size), or a typed receive's
    /// element size against the sender's.
    DatatypeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Collective called with inconsistent arguments across ranks
    /// (detected where cheaply possible).
    CollectiveMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A runtime invariant was violated (e.g. a rendezvous protocol state
    /// that should be unreachable). Converted from what used to be panics in
    /// hot paths, so a broken invariant on one rank fails that rank's
    /// operation instead of aborting the process.
    Internal {
        /// Which invariant broke, and where.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            Error::Timeout { rank, src, tag, comm_id } => {
                let op = crate::comm::describe_key_tag(*tag);
                write!(
                    f,
                    "rank {rank}: waiting on rank {src} ({op} on comm {comm_id:#x}) timed out — likely deadlock"
                )
            }
            Error::PeerDead { rank } => {
                write!(f, "rank {rank} is dead (fault-killed, panicked, or exited) — failing fast")
            }
            Error::SizeMismatch { expected, got } => {
                write!(f, "message size mismatch: expected {expected} bytes, got {got}")
            }
            Error::DatatypeMismatch { detail } => write!(f, "datatype mismatch: {detail}"),
            Error::CollectiveMismatch { detail } => write!(f, "collective mismatch: {detail}"),
            Error::Internal { detail } => {
                write!(f, "internal runtime invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
