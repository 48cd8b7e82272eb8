//! Global communication statistics — the numbers behind the paper's
//! Table III ("communication scheduling of `MPI_Alltoallw` according to the
//! data redistribution technique").
//!
//! These are *exact* byte counts derived from the geometric mapping, computed
//! without running any communication, so the reproduction harness can
//! evaluate paper-scale configurations (216 ranks, 128 GB) analytically.

use crate::layout::Layout;
use crate::plan::Plan;

/// Per-rank accounting of one successful [`Plan::reorganize`].
///
/// Derived from the plan's transfer list, never from wire observations, so
/// every successful execution of a plan reports the same stats on any
/// universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedistStats {
    /// Number of logical communication rounds executed (the paper's
    /// `MPI_Alltoallw` calls).
    pub rounds: usize,
    /// Number of physical exchanges that carried them: one when there are
    /// rounds.
    pub exchanges: usize,
    /// Bytes shipped to other ranks.
    pub sent_bytes: u64,
    /// Bytes received from other ranks.
    pub recv_bytes: u64,
    /// Bytes satisfied locally (owned ∩ needed overlap).
    pub local_bytes: u64,
    /// Non-empty per-round transfers sent to other ranks (one exchange's
    /// message to a peer carries one of these from each of its rounds).
    pub messages_sent: u64,
    /// Non-empty per-round transfers received from other ranks.
    pub messages_recv: u64,
}

impl RedistStats {
    /// Account a successful [`Plan::reorganize`] of `plan`: every round in
    /// one exchange.
    pub fn from_plan(plan: &Plan) -> RedistStats {
        let mut s = RedistStats {
            rounds: plan.rounds.len(),
            exchanges: usize::from(!plan.rounds.is_empty()),
            ..RedistStats::default()
        };
        for round in &plan.rounds {
            for t in &round.sends {
                if t.peer == plan.rank {
                    s.local_bytes += t.bytes();
                } else {
                    s.sent_bytes += t.bytes();
                    s.messages_sent += 1;
                }
            }
            for t in &round.recvs {
                if t.peer == plan.rank {
                    continue; // the self-overlap is counted on the send side
                }
                s.recv_bytes += t.bytes();
                s.messages_recv += 1;
            }
        }
        s
    }

    /// Total bytes this rank moved (network + local) on the receive side.
    pub fn delivered_bytes(&self) -> u64 {
        self.recv_bytes + self.local_bytes
    }
}

/// Exact per-round, per-rank communication volumes for a redistribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalStats {
    /// Number of participating ranks.
    pub nprocs: usize,
    /// Number of communication rounds (`MPI_Alltoallw` calls).
    pub num_rounds: usize,
    /// `sent[r][s]`: bytes rank `s` ships to *other* ranks in round `r`.
    pub sent: Vec<Vec<u64>>,
    /// `recv[r][d]`: bytes rank `d` receives from *other* ranks in round `r`.
    pub recv: Vec<Vec<u64>>,
    /// `local[r][s]`: bytes rank `s` keeps for itself in round `r`
    /// (owned ∩ needed overlap).
    pub local: Vec<Vec<u64>>,
    /// `messages[r][s]`: number of non-empty messages rank `s` sends to
    /// other ranks in round `r`.
    pub messages: Vec<Vec<u64>>,
}

impl GlobalStats {
    /// Compute exact statistics from the full layout set.
    ///
    /// Cost is `O(rounds × nprocs²)` block intersections.
    pub fn compute(layouts: &[Layout], elem_size: usize) -> GlobalStats {
        let nprocs = layouts.len();
        let num_rounds = layouts.iter().map(|l| l.owned.len()).max().unwrap_or(0);
        let mut sent = vec![vec![0u64; nprocs]; num_rounds];
        let mut recv = vec![vec![0u64; nprocs]; num_rounds];
        let mut local = vec![vec![0u64; nprocs]; num_rounds];
        let mut messages = vec![vec![0u64; nprocs]; num_rounds];
        for (r, (sent_r, recv_r, local_r, msgs_r)) in
            itertools_zip4(&mut sent, &mut recv, &mut local, &mut messages).enumerate()
        {
            for (s, src) in layouts.iter().enumerate() {
                let Some(chunk) = src.owned.get(r) else { continue };
                for (d, dst) in layouts.iter().enumerate() {
                    if let Some(region) = chunk.intersect(&dst.need) {
                        // Saturating: a count near u64::MAX times the element
                        // size must clamp, not wrap to a tiny byte total.
                        let bytes = region.count().saturating_mul(elem_size as u64);
                        if s == d {
                            local_r[s] = local_r[s].saturating_add(bytes);
                        } else {
                            sent_r[s] = sent_r[s].saturating_add(bytes);
                            recv_r[d] = recv_r[d].saturating_add(bytes);
                            msgs_r[s] += 1;
                        }
                    }
                }
            }
        }
        GlobalStats { nprocs, num_rounds, sent, recv, local, messages }
    }

    /// Bytes rank `s` sends to rank `d` in round `r` (0 when `s == d`).
    /// Exposed for network-model integration where the full matrix matters.
    pub fn pair_bytes(layouts: &[Layout], elem_size: usize, round: usize) -> Vec<u64> {
        let nprocs = layouts.len();
        let mut m = vec![0u64; nprocs * nprocs];
        for (s, src) in layouts.iter().enumerate() {
            let Some(chunk) = src.owned.get(round) else { continue };
            for (d, dst) in layouts.iter().enumerate() {
                if s == d {
                    continue;
                }
                if let Some(region) = chunk.intersect(&dst.need) {
                    m[s * nprocs + d] = region.count().saturating_mul(elem_size as u64);
                }
            }
        }
        m
    }

    /// Mean bytes sent per rank per round, over ranks that send anything —
    /// the paper's Table III "Data Size per process per round" metric.
    pub fn mean_sent_per_rank_per_round(&self) -> f64 {
        let mut total = 0u64;
        let mut cells = 0u64;
        for round in &self.sent {
            for &b in round {
                if b > 0 {
                    total += b;
                    cells += 1;
                }
            }
        }
        if cells == 0 {
            0.0
        } else {
            total as f64 / cells as f64
        }
    }

    /// Largest bytes any single rank sends in any single round (drives the
    /// network-contention term of the cost model).
    pub fn max_sent_per_rank_per_round(&self) -> u64 {
        self.sent.iter().flat_map(|r| r.iter().copied()).max().unwrap_or(0)
    }

    /// Total bytes crossing the network over all rounds.
    pub fn total_network_bytes(&self) -> u64 {
        self.sent.iter().flat_map(|r| r.iter()).sum()
    }

    /// Total bytes satisfied locally.
    pub fn total_local_bytes(&self) -> u64 {
        self.local.iter().flat_map(|r| r.iter()).sum()
    }
}

/// Zip four mutable slices (avoiding an itertools dependency).
fn itertools_zip4<'a, A, B, C, D>(
    a: &'a mut [A],
    b: &'a mut [B],
    c: &'a mut [C],
    d: &'a mut [D],
) -> impl Iterator<Item = (&'a mut A, &'a mut B, &'a mut C, &'a mut D)> {
    a.iter_mut()
        .zip(b.iter_mut())
        .zip(c.iter_mut())
        .zip(d.iter_mut())
        .map(|(((a, b), c), d)| (a, b, c, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;

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
    fn e1_stats_balance() {
        let s = GlobalStats::compute(&e1_layouts(), 4);
        assert_eq!(s.num_rounds, 2);
        // Every element moves exactly once: 64 elements * 4 bytes total.
        assert_eq!(s.total_network_bytes() + s.total_local_bytes(), 64 * 4);
        // Each rank keeps exactly one 4x1 half-row (16 bytes).
        assert_eq!(s.total_local_bytes(), 4 * 16);
        // Sent equals received globally, round by round.
        for r in 0..s.num_rounds {
            let sent: u64 = s.sent[r].iter().sum();
            let recv: u64 = s.recv[r].iter().sum();
            assert_eq!(sent, recv);
        }
    }

    #[test]
    fn e1_each_rank_sends_one_half_row_per_peer_per_round() {
        let s = GlobalStats::compute(&e1_layouts(), 4);
        // Round 0: rank r's row r intersects the two top or bottom quadrants;
        // exactly one of the two 4x1 pieces stays local when the quadrant is
        // its own. Every rank sends at least one 16-byte piece per round.
        for r in 0..2 {
            for rank in 0..4 {
                assert!(s.sent[r][rank] == 16 || s.sent[r][rank] == 32);
                assert!(s.messages[r][rank] >= 1);
            }
        }
    }

    #[test]
    fn pair_matrix_matches_aggregates() {
        let layouts = e1_layouts();
        let s = GlobalStats::compute(&layouts, 4);
        for round in 0..s.num_rounds {
            let m = GlobalStats::pair_bytes(&layouts, 4, round);
            for rank in 0..4 {
                let row: u64 = m[rank * 4..(rank + 1) * 4].iter().sum();
                let col: u64 = (0..4).map(|srow| m[srow * 4 + rank]).sum();
                assert_eq!(row, s.sent[round][rank]);
                assert_eq!(col, s.recv[round][rank]);
                assert_eq!(m[rank * 4 + rank], 0);
            }
        }
    }

    #[test]
    fn mean_and_max_metrics() {
        let s = GlobalStats::compute(&e1_layouts(), 4);
        assert!(s.mean_sent_per_rank_per_round() >= 16.0);
        assert!(s.max_sent_per_rank_per_round() <= 32);
    }

    #[test]
    fn byte_totals_saturate_instead_of_wrapping() {
        // 2^21 cells per axis -> 2^63 elements; at 16 bytes per element the
        // byte count exceeds u64 and must clamp to u64::MAX, not wrap (the
        // unchecked multiply used to panic in debug and wrap to 0 in
        // release).
        let huge = Block::d3([0, 0, 0], [1 << 21, 1 << 21, 1 << 21]).unwrap();
        let tiny = Block::d3([0, 0, 0], [1, 1, 1]).unwrap();
        let layouts = vec![
            Layout { owned: vec![huge], need: huge },
            Layout { owned: vec![tiny], need: huge },
        ];
        let s = GlobalStats::compute(&layouts, 16);
        // Rank 0 satisfies its own need locally and sends the same region to
        // rank 1 — both accumulations overflow and must saturate.
        assert_eq!(s.local[0][0], u64::MAX);
        assert_eq!(s.sent[0][0], u64::MAX);
        assert_eq!(s.recv[0][1], u64::MAX);
        let m = GlobalStats::pair_bytes(&layouts, 16, 0);
        assert_eq!(m[1], u64::MAX);
    }

    #[test]
    fn empty_layout_set() {
        let s = GlobalStats::compute(&[], 4);
        assert_eq!(s.num_rounds, 0);
        assert_eq!(s.total_network_bytes(), 0);
        assert_eq!(s.mean_sent_per_rank_per_round(), 0.0);
    }
}
