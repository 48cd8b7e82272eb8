//! Degraded-mode redistribution and shrink-and-remap recovery.
//!
//! When a producer dies mid-`reorganize`, the survivors should neither hang
//! nor lose the data that *did* arrive. This module provides the two halves
//! of DDR's recovery story:
//!
//! 1. **Accounting** — [`PartialCompletion`]: a structured, per-peer,
//!    per-round report of what was delivered and what was lost, derived from
//!    the plan's transfer introspection (the plan knows exactly how many
//!    bytes each peer owed each round). Because minimpi sends are buffered
//!    and fault kills fire on deterministic op counts, the same fault plan
//!    yields byte-identical reports on every run.
//! 2. **Recovery** — [`crate::Descriptor::recover_mapping`]: the
//!    shrink-and-remap loop. Survivors agree on a shrunken communicator
//!    ([`minimpi::Comm::shrink`]), build a fresh descriptor sized to the
//!    survivor count, and set up a new mapping under
//!    [`ValidationPolicy::Degraded`] (dead producers' chunks are gone, so
//!    coverage is allowed to be incomplete). A retried `reorganize` on the
//!    new plan then redistributes everything the survivors still hold.

use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::plan::Plan;
use crate::validate::ValidationPolicy;
use crate::Block;
use minimpi::Comm;

/// What one communication round delivered and lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// Round index.
    pub round: usize,
    /// Bytes landed in the need buffer this round (peer transfers that
    /// completed, plus the local self-overlap copy).
    pub delivered_bytes: u64,
    /// Bytes this round's plan expected but never received.
    pub missing_bytes: u64,
    /// Peers (communicator-local ranks) whose transfer failed this round.
    pub failed_sources: Vec<usize>,
}

/// Structured result of a redistribution that lost data to failed peers.
///
/// Built entirely from [`Plan`] introspection: for every round the plan
/// records which peer owed which rectangular transfer, so the report can
/// state byte-exact delivered/missing counts without any extra protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialCompletion {
    /// Rank the report belongs to.
    pub rank: usize,
    /// All peers that failed to deliver (died, timed out, or had a message
    /// dropped), deduplicated and sorted.
    pub dead_peers: Vec<usize>,
    /// Per-round accounting.
    pub rounds: Vec<RoundReport>,
}

impl PartialCompletion {
    /// Build the report from the plan and the peers whose message a
    /// salvaged reorganize lost: one exchange carries every round, so each
    /// is lost in every round that received from it.
    pub(crate) fn from_failures(plan: &Plan, failed: &[usize]) -> Self {
        let rank = plan.rank();
        let rounds = plan
            .rounds()
            .iter()
            .enumerate()
            .map(|(r, round)| {
                let lost = || round.recvs.iter().filter(|t| failed.contains(&t.peer));
                let missing_bytes: u64 = lost().map(|t| t.bytes()).sum();
                let expected: u64 = round.recv_bytes(rank) + round.local_bytes(rank);
                RoundReport {
                    round: r,
                    delivered_bytes: expected - missing_bytes,
                    missing_bytes,
                    failed_sources: lost().map(|t| t.peer).collect(),
                }
            })
            .collect::<Vec<_>>();
        let mut dead_peers = failed.to_vec();
        dead_peers.sort_unstable();
        dead_peers.dedup();
        PartialCompletion { rank, dead_peers, rounds }
    }

    /// Fold in the report of another need's plan run over the same rounds
    /// (a [`crate::MultiPlan`] reports all its needs as one).
    pub(crate) fn merge(&mut self, other: PartialCompletion) {
        fn union(into: &mut Vec<usize>, from: Vec<usize>) {
            into.extend(from);
            into.sort_unstable();
            into.dedup();
        }
        for (mine, theirs) in self.rounds.iter_mut().zip(other.rounds) {
            mine.delivered_bytes += theirs.delivered_bytes;
            mine.missing_bytes += theirs.missing_bytes;
            union(&mut mine.failed_sources, theirs.failed_sources);
        }
        union(&mut self.dead_peers, other.dead_peers);
    }

    /// Total bytes that landed in the need buffer.
    pub fn delivered_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.delivered_bytes).sum()
    }

    /// Total bytes the plan expected but that never arrived.
    pub fn missing_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.missing_bytes).sum()
    }

    /// True when nothing was lost.
    pub fn is_complete(&self) -> bool {
        self.dead_peers.is_empty()
    }
}

impl std::fmt::Display for PartialCompletion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {}: {} of {} bytes delivered, {} missing from peers {:?}",
            self.rank,
            self.delivered_bytes(),
            self.delivered_bytes() + self.missing_bytes(),
            self.missing_bytes(),
            self.dead_peers
        )
    }
}

impl Descriptor {
    /// Shrink-and-remap recovery — collective over the *surviving* ranks.
    ///
    /// After a [`crate::DdrError::Incomplete`] redistribution, each survivor
    /// calls this with the chunks it still owns and the block it still
    /// needs. The survivors agree on a shrunken communicator, and a new
    /// mapping is computed over it under [`ValidationPolicy::Degraded`]
    /// (coverage holes where dead producers' data used to live are
    /// accepted). Returns the new communicator and the new plan; a retried
    /// [`Plan::reorganize`] on them moves everything the survivors hold.
    ///
    /// The descriptor's process count is replaced by the survivor count; its
    /// data kind and element size carry over.
    pub fn recover_mapping(
        &self,
        comm: &Comm,
        owned: &[Block],
        need: Block,
    ) -> Result<(Comm, Plan)> {
        let survivors = comm.shrink().map_err(crate::DdrError::Mpi)?;
        let desc = Descriptor::new(survivors.size(), self.kind(), self.elem_size())?;
        let plan =
            desc.setup_data_mapping_with(&survivors, owned, need, ValidationPolicy::Degraded)?;
        Ok((survivors, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::DataKind;
    use crate::layout::Layout;
    use crate::mapping::compute_local_plan;

    /// E1 layouts (paper Fig. 1): 4 ranks, two rows each, quadrant needs.
    fn e1_layouts() -> Vec<Layout> {
        (0..4usize)
            .map(|rank| Layout {
                owned: vec![
                    Block::d2([0, rank], [8, 1]).unwrap(),
                    Block::d2([0, rank + 4], [8, 1]).unwrap(),
                ],
                need: Block::d2([4 * (rank % 2), 4 * (rank / 2)], [4, 4]).unwrap(),
            })
            .collect()
    }

    #[test]
    fn report_accounts_for_failed_peer_bytes() {
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        let plan = compute_local_plan(0, &e1_layouts(), &desc).unwrap();
        // Rank 0's round-0 receives: one 4x1 half-row (16 bytes) from each
        // of ranks 0..4; round 1 sends it nothing. Lose rank 2.
        let pc = PartialCompletion::from_failures(&plan, &[2]);
        assert_eq!(pc.dead_peers, vec![2]);
        assert_eq!(pc.rounds[0].missing_bytes, 16);
        assert_eq!(pc.rounds[0].delivered_bytes, 48);
        assert_eq!(pc.rounds[0].failed_sources, vec![2]);
        assert_eq!(pc.rounds[1].missing_bytes, 0);
        assert_eq!(pc.missing_bytes(), 16);
        assert_eq!(pc.delivered_bytes(), 48);
        assert!(!pc.is_complete());
    }

    #[test]
    fn empty_failures_is_complete() {
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        let plan = compute_local_plan(0, &e1_layouts(), &desc).unwrap();
        let pc = PartialCompletion::from_failures(&plan, &[]);
        assert!(pc.is_complete());
        assert_eq!(pc.missing_bytes(), 0);
        // Everything the plan promised arrived: 16 elems * 4 bytes.
        assert_eq!(pc.delivered_bytes(), 64);
    }

    #[test]
    fn display_reads_naturally() {
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        let plan = compute_local_plan(0, &e1_layouts(), &desc).unwrap();
        let pc = PartialCompletion::from_failures(&plan, &[2]);
        let s = pc.to_string();
        assert!(s.contains("48 of 64 bytes delivered"), "{s}");
        assert!(s.contains("[2]"), "{s}");
    }
}
