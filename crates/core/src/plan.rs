//! Redistribution plans: the per-rank product of `setup_data_mapping`.

use crate::block::Block;
use minimpi::Subarray;
use std::ops::Range;

/// One rectangular transfer between this rank and a peer within one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Peer rank (sender or receiver depending on direction).
    pub peer: usize,
    /// The transferred region, in global coordinates.
    pub region: Block,
    /// Subarray selecting `region` inside the local buffer: the owned
    /// chunk's buffer for sends, the needed block's buffer for receives.
    pub subarray: Subarray,
}

impl Transfer {
    /// Bytes moved by this transfer.
    pub fn bytes(&self) -> u64 {
        self.subarray.packed_len() as u64
    }
}

/// All transfers of one communication round (one `MPI_Alltoallw` call in the
/// paper: round `r` exchanges every rank's `r`-th owned chunk).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundPlan {
    /// Outgoing transfers from this rank's round-`r` chunk, ordered by peer.
    pub sends: Vec<Transfer>,
    /// Incoming transfers into this rank's needed block, ordered by peer.
    pub recvs: Vec<Transfer>,
}

impl RoundPlan {
    /// Bytes this rank ships to *other* ranks this round.
    pub fn sent_bytes(&self, self_rank: usize) -> u64 {
        self.sends.iter().filter(|t| t.peer != self_rank).map(Transfer::bytes).sum()
    }

    /// Bytes this rank receives from *other* ranks this round.
    pub fn recv_bytes(&self, self_rank: usize) -> u64 {
        self.recvs.iter().filter(|t| t.peer != self_rank).map(Transfer::bytes).sum()
    }

    /// Bytes kept local (self-overlap) this round.
    pub fn local_bytes(&self, self_rank: usize) -> u64 {
        self.sends.iter().filter(|t| t.peer == self_rank).map(Transfer::bytes).sum()
    }
}

/// A complete redistribution plan for one rank.
///
/// Computed once by [`crate::Descriptor::setup_data_mapping`]; reusable for
/// any number of [`Plan::reorganize`] calls while the layout stays the same —
/// the "dynamic data" property of paper §III-C.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub(crate) rank: usize,
    pub(crate) nprocs: usize,
    pub(crate) elem_size: usize,
    pub(crate) owned: Vec<Block>,
    /// `None` only inside a [`crate::MultiPlan`], for a rank that declared
    /// fewer needed blocks than its peers: such a plan only sends.
    pub(crate) need: Option<Block>,
    pub(crate) rounds: Vec<RoundPlan>,
    /// Per round, the largest chunk any rank owns in it, in bytes: no
    /// message of that round can be larger.
    pub(crate) round_bytes: Vec<u64>,
    /// The bound the universe a setup call built this plan on groups its
    /// rounds by ([`Plan::exchanges`]); `None` from
    /// [`crate::compute_local_plan`], which meets no universe.
    pub(crate) exchange_bound: Option<usize>,
}

impl Plan {
    /// The most bytes a shared staged exchange stages per message:
    /// consecutive rounds share a staged exchange while their largest chunks
    /// sum to at most this, so a fault plan or `DDR_NO_ZEROCOPY` still
    /// bounds staging memory as the paper's rounds do, in fewer exchanges
    /// (16 KiB chunks go four to an exchange). A universe that loans stages
    /// nothing and runs every round in one exchange instead.
    pub const STAGING_BOUND: usize = 64 << 10;

    /// Rank this plan belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes participating in the redistribution.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Element size in bytes.
    pub fn elem_size(&self) -> usize {
        self.elem_size
    }

    /// Blocks this rank declared as owned.
    pub fn owned(&self) -> &[Block] {
        &self.owned
    }

    /// Block this rank receives into.
    pub fn need(&self) -> &Block {
        self.need.as_ref().expect("a plan handed out by a setup call has a needed block")
    }

    /// Number of logical communication rounds (the paper's `MPI_Alltoallw`
    /// calls): the maximum number of chunks owned by any one rank (paper
    /// §III-C). [`Plan::exchanges`] says how many exchanges carry them.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Per-round transfer descriptions.
    pub fn rounds(&self) -> &[RoundPlan] {
        &self.rounds
    }

    /// The physical exchanges that carry the logical rounds under a bound
    /// of `bound` bytes: consecutive rounds share one exchange while the sum
    /// of their largest chunks stays within it. A message is never larger
    /// than its chunk, so no message of a shared exchange exceeds the bound.
    /// A round whose largest chunk exceeds the bound runs alone, bound 0
    /// gives one exchange per round and `usize::MAX` gives one exchange.
    /// [`Plan::reorganize`] groups by `usize::MAX` when its universe loans
    /// and by [`Plan::STAGING_BOUND`] when it stages. Every plan of a
    /// mapping holds every rank's chunk sizes, so every rank derives the
    /// same boundaries.
    pub fn exchanges(&self, bound: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let bytes = &self.round_bytes;
        let mut start = 0;
        std::iter::from_fn(move || {
            let mut sum = *bytes.get(start)?;
            let mut end = start + 1;
            while let Some(&b) = bytes.get(end) {
                sum = sum.saturating_add(b);
                if sum > bound as u64 {
                    break;
                }
                end += 1;
            }
            let group = start..end;
            start = end;
            Some(group)
        })
    }

    /// Total bytes this rank sends to other ranks across all rounds.
    pub fn total_sent_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.sent_bytes(self.rank)).sum()
    }

    /// Total bytes this rank receives from other ranks across all rounds.
    pub fn total_recv_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.recv_bytes(self.rank)).sum()
    }

    /// Total bytes satisfied locally (owned ∩ needed overlap).
    pub fn total_local_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.local_bytes(self.rank)).sum()
    }

    /// Ranks this plan actually exchanges data with (excluding self) — how
    /// sparse the mapping is from this rank's side.
    pub fn neighbor_count(&self) -> usize {
        let mut peers: Vec<usize> = self
            .rounds
            .iter()
            .flat_map(|r| r.sends.iter().chain(r.recvs.iter()).map(|t| t.peer))
            .filter(|&p| p != self.rank)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers.len()
    }
}
