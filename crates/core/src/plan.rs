//! Redistribution plans: the per-rank product of `setup_data_mapping`.

use crate::block::Block;
use minimpi::{Datatype, Subarray};

#[cfg(test)]
mod facts;

/// One rectangular transfer between this rank and a peer within one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Peer rank (sender or receiver depending on direction).
    pub peer: usize,
    /// Index of the needed block it fills, among the receiving rank's
    /// (the peer's for sends, this rank's for receives).
    pub need: usize,
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
    /// Outgoing transfers from this rank's round-`r` chunk, ordered by
    /// (peer, need index).
    pub sends: Vec<Transfer>,
    /// Incoming transfers into this rank's needed blocks, ordered by
    /// (peer, need index).
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

/// A plan's `alltoallw` part lists, built once with the plan: its one
/// exchange passes each peer's whole list, so running it only binds
/// buffers. Each peer's parts sit in (round, need index) order, so a chunk
/// that meets two of a receiver's needs in one round is two parts of one
/// message.
///
/// Built once per plan, because rebuilding them cost every call. On 2 cores
/// with 2 ranks, ten alternating pairs of the benchmark's
/// `--workload rounds_small_2d --seed 1 --seconds 16 --trace 0`, lists
/// rebuilt per call against these: `op_ms_p50` median 22.5 → 17.7 µs
/// (quartiles 21.4–22.7 → 17.0–18.5 µs, parent IQR 1.3 µs, −21 %, lower in
/// 10 of 10 pairs); held-out seed 7, 4 pairs, 20.9 → 17.5 µs (4 of 4).
/// Traced, 3 pairs: `exec.reorganize_ms` 18.9 → 14.6 µs, the same 4 µs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Parts {
    /// Per peer, the `(owned-chunk index, selection)` send parts.
    pub(crate) sends: Vec<Vec<(usize, Datatype)>>,
    /// Per peer, the `(need index, selection)` receive parts.
    pub(crate) recvs: Vec<Vec<(usize, Datatype)>>,
}

impl Parts {
    fn new(nprocs: usize, rounds: &[RoundPlan]) -> Parts {
        let mut parts = Parts { sends: vec![Vec::new(); nprocs], recvs: vec![Vec::new(); nprocs] };
        for (r, round) in rounds.iter().enumerate() {
            for t in &round.sends {
                parts.sends[t.peer].push((r, Datatype::Subarray(t.subarray)));
            }
            for t in &round.recvs {
                parts.recvs[t.peer].push((t.need, Datatype::Subarray(t.subarray)));
            }
        }
        parts
    }
}

/// A complete redistribution plan for one rank.
///
/// Computed once by [`crate::Descriptor::setup_data_mapping`] (the paper's
/// one needed block) or [`crate::Descriptor::setup_multi_mapping`] (zero or
/// more); reusable for any number of [`Plan::reorganize`] calls while the
/// layout stays the same — the "dynamic data" property of paper §III-C.
/// Everything a call could know in advance — the exchange's part lists,
/// whether the receives tile each needed block — is derived once, when the
/// plan is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub(crate) rank: usize,
    pub(crate) nprocs: usize,
    pub(crate) elem_size: usize,
    pub(crate) owned: Vec<Block>,
    /// The blocks this rank receives into, in declaration order: one in the
    /// paper's mapping, none for a rank that only sends.
    pub(crate) needs: Vec<Block>,
    pub(crate) rounds: Vec<RoundPlan>,
    /// `rounds` as `alltoallw` part lists.
    pub(crate) parts: Parts,
    /// Per need, whether its receive regions, across all rounds, tile it:
    /// pairwise disjoint, their counts summing to the block's. Each lies
    /// inside the block, so then every element is received exactly once.
    pub(crate) tiled: Vec<bool>,
}

impl Plan {
    /// The one constructor: derives the part lists and the tilings from
    /// `rounds`, so they cannot disagree with it. The tiling check compares
    /// every pair of one need's receive regions: `k(k − 1)/2` block
    /// intersections for `k` regions, about 8 000 for the 128 regions a rank
    /// of a 2-rank, 128-image stack load receives.
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        elem_size: usize,
        owned: Vec<Block>,
        needs: Vec<Block>,
        rounds: Vec<RoundPlan>,
    ) -> Plan {
        let tiled = (0..needs.len())
            .map(|k| {
                let into_k = rounds.iter().flat_map(|r| &r.recvs).filter(|t| t.need == k);
                let regions: Vec<&Block> = into_k.map(|t| &t.region).collect();
                regions.iter().map(|b| b.count()).sum::<u64>() == needs[k].count()
                    && regions
                        .iter()
                        .enumerate()
                        .all(|(i, a)| regions[i + 1..].iter().all(|b| a.intersect(b).is_none()))
            })
            .collect();
        let parts = Parts::new(nprocs, &rounds);
        Plan { rank, nprocs, elem_size, owned, needs, rounds, parts, tiled }
    }

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

    /// The block this rank receives into, in a plan with the paper's one
    /// needed block.
    ///
    /// # Panics
    /// If the plan has zero or several needed blocks, as a
    /// [`crate::Descriptor::setup_multi_mapping`] plan may; read
    /// [`Plan::needs`] there.
    pub fn need(&self) -> &Block {
        match self.needs.as_slice() {
            [need] => need,
            needs => panic!("Plan::need on a plan with {} needed blocks", needs.len()),
        }
    }

    /// The blocks this rank receives into, in declaration order.
    pub fn needs(&self) -> &[Block] {
        &self.needs
    }

    /// Number of logical communication rounds (the paper's `MPI_Alltoallw`
    /// calls): the maximum number of chunks owned by any one rank (paper
    /// §III-C). [`Plan::reorganize`] carries them all in one exchange.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Per-round transfer descriptions.
    pub fn rounds(&self) -> &[RoundPlan] {
        &self.rounds
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
