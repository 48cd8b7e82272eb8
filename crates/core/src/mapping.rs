//! Mapping computation — the geometric core of `DDR_SetupDataMapping`.
//!
//! Given every rank's declared layout, each rank computes which rectangular
//! subsections of its owned chunks must be shipped to which peers, and which
//! subsections of its needed block arrive from which peers, per communication
//! round (paper §III-B: "a geometric overlap is computed to detect which
//! subsections of the data chunks should be sent to and received from other
//! processes").

use crate::block::Block;
use crate::descriptor::Descriptor;
use crate::error::{DdrError, Result};
use crate::layout::{exchange_layouts, Layout};
use crate::plan::{Plan, RoundPlan, Transfer};
use crate::validate::{validate, ValidationPolicy};
use minimpi::Comm;

/// Pure function: compute rank `rank`'s plan from the full set of layouts.
///
/// Round `r` exchanges every rank's `r`-th owned chunk; the number of rounds
/// is the maximum chunk count over all ranks, matching the paper's
/// "the number of `MPI_Alltoallw` calls is equivalent to the maximum number
/// of chunks that any one process owns".
pub fn compute_local_plan(rank: usize, layouts: &[Layout], desc: &Descriptor) -> Result<Plan> {
    let owned: Vec<&[Block]> = layouts.iter().map(|l| l.owned.as_slice()).collect();
    let needs: Vec<&[Block]> = layouts.iter().map(|l| std::slice::from_ref(&l.need)).collect();
    plan_core(rank, &owned, &needs, desc)
}

/// The one geometry loop. `owned[r]` are rank `r`'s chunks and `needs[r]`
/// the blocks it receives into, zero or more: each round intersects every
/// rank's chunk with every declared need once.
fn plan_core(
    rank: usize,
    owned: &[&[Block]],
    needs: &[&[Block]],
    desc: &Descriptor,
) -> Result<Plan> {
    let nprocs = owned.len();
    if nprocs != desc.nprocs() {
        return Err(DdrError::ProcessCountMismatch { descriptor: desc.nprocs(), actual: nprocs });
    }
    if rank >= nprocs {
        return Err(DdrError::RankOutOfRange { rank, nprocs });
    }
    let elem_size = desc.elem_size();
    let ndims = desc.kind().ndims();
    for (r, (chunks, needs)) in owned.iter().zip(needs).enumerate() {
        for b in chunks.iter().chain(needs.iter()) {
            if b.ndims != ndims {
                return Err(DdrError::InvalidBlock(format!(
                    "rank {r}: block has {} dims but descriptor declares {}",
                    b.ndims, ndims
                )));
            }
        }
    }

    let (my_owned, my_needs) = (owned[rank], needs[rank]);
    let num_rounds = owned.iter().map(|chunks| chunks.len()).max().unwrap_or(0);
    let mut rounds = Vec::with_capacity(num_rounds);
    for r in 0..num_rounds {
        let mut round = RoundPlan::default();
        // Sends: my r-th chunk intersected with every rank's needs.
        if let Some(chunk) = my_owned.get(r) {
            for (d, peer_needs) in needs.iter().enumerate() {
                for (k, peer_need) in peer_needs.iter().enumerate() {
                    if let Some(region) = chunk.intersect(peer_need) {
                        let subarray = chunk.subarray_for(&region, elem_size)?;
                        round.sends.push(Transfer { peer: d, need: k, region, subarray });
                    }
                }
            }
        }
        // Receives: every rank's r-th chunk intersected with my needs.
        for (s, chunk) in owned.iter().enumerate().filter_map(|(s, c)| Some((s, c.get(r)?))) {
            for (k, my_need) in my_needs.iter().enumerate() {
                if let Some(region) = chunk.intersect(my_need) {
                    let subarray = my_need.subarray_for(&region, elem_size)?;
                    round.recvs.push(Transfer { peer: s, need: k, region, subarray });
                }
            }
        }
        rounds.push(round);
    }

    Ok(Plan::new(rank, nprocs, elem_size, my_owned.to_vec(), my_needs.to_vec(), rounds))
}

impl Descriptor {
    /// Collective: declare this rank's owned chunks and needed block and
    /// receive a reusable redistribution [`Plan`] — the paper's
    /// `DDR_SetupDataMapping` (§III-B), with [`ValidationPolicy::Strict`].
    ///
    /// Every rank of `comm` must call this with its own layout. Internally
    /// the layouts are allgathered and each rank computes its plan locally.
    pub fn setup_data_mapping(&self, comm: &Comm, owned: &[Block], need: Block) -> Result<Plan> {
        self.setup_data_mapping_with(comm, owned, need, ValidationPolicy::Strict)
    }

    /// [`Descriptor::setup_data_mapping`] with an explicit validation policy.
    pub fn setup_data_mapping_with(
        &self,
        comm: &Comm,
        owned: &[Block],
        need: Block,
        policy: ValidationPolicy,
    ) -> Result<Plan> {
        self.setup_multi_mapping(comm, owned, &[need], policy)
    }

    /// Collective: [`Descriptor::setup_data_mapping_with`] for any number of
    /// needed blocks per rank, zero included (the paper's "more data
    /// patterns" future work, §V): a rank's own slab plus its halos, or a
    /// rank that only sends. [`Plan::reorganize_needs`] fills them all in one
    /// exchange.
    ///
    /// Ownership is validated like the base API; needed blocks may overlap
    /// freely (including with this rank's own needs), and under
    /// [`ValidationPolicy::Strict`] every one of them must lie inside the
    /// domain.
    pub fn setup_multi_mapping(
        &self,
        comm: &Comm,
        owned: &[Block],
        needs: &[Block],
        policy: ValidationPolicy,
    ) -> Result<Plan> {
        let _setup = ddrtrace::span("redist", "setup_mapping");
        if comm.size() != self.nprocs() {
            return Err(DdrError::ProcessCountMismatch {
                descriptor: self.nprocs(),
                actual: comm.size(),
            });
        }
        let all = {
            let _x = ddrtrace::span("redist", "layout_exchange");
            exchange_layouts(comm, owned, needs)?
        };
        let owned: Vec<&[Block]> = all.owned.iter().map(Vec::as_slice).collect();
        let needs: Vec<&[Block]> = all.needs.iter().map(Vec::as_slice).collect();
        {
            let _v = ddrtrace::span("redist", "validate_layouts");
            validate(&owned, &needs, policy)?;
        }
        let _p = ddrtrace::span("redist", "compute_plan");
        plan_core(comm.rank(), &owned, &needs, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::DataKind;

    /// Layouts for the paper's running example E1 (Fig. 1 / Table I).
    pub(crate) fn e1_layouts() -> Vec<Layout> {
        (0..4usize)
            .map(|rank| {
                let right = rank % 2;
                let bottom = rank / 2;
                Layout {
                    owned: vec![
                        Block::d2([0, rank], [8, 1]).unwrap(),
                        Block::d2([0, rank + 4], [8, 1]).unwrap(),
                    ],
                    need: Block::d2([4 * right, 4 * bottom], [4, 4]).unwrap(),
                }
            })
            .collect()
    }

    #[test]
    fn e1_has_two_rounds() {
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        let plan = compute_local_plan(0, &e1_layouts(), &desc).unwrap();
        assert_eq!(plan.num_rounds(), 2);
    }

    #[test]
    fn e1_rank0_sends_match_figure_1b() {
        // Figure 1, panel B: rank 0 owns rows 0 and 4. Row 0 feeds the two
        // top quadrants (ranks 0, 1); row 4 feeds the two bottom quadrants
        // (ranks 2, 3). Each transfer is an 4x1 half-row.
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        let plan = compute_local_plan(0, &e1_layouts(), &desc).unwrap();

        let r0: Vec<(usize, Block)> =
            plan.rounds()[0].sends.iter().map(|t| (t.peer, t.region)).collect();
        assert_eq!(
            r0,
            vec![(0, Block::d2([0, 0], [4, 1]).unwrap()), (1, Block::d2([4, 0], [4, 1]).unwrap()),]
        );
        let r1: Vec<(usize, Block)> =
            plan.rounds()[1].sends.iter().map(|t| (t.peer, t.region)).collect();
        assert_eq!(
            r1,
            vec![(2, Block::d2([0, 4], [4, 1]).unwrap()), (3, Block::d2([4, 4], [4, 1]).unwrap()),]
        );
    }

    #[test]
    fn e1_rank0_receives_from_ranks_0_to_3() {
        // Rank 0 needs the top-left 4x4 quadrant: rows 0-3 left half, which
        // are owned by ranks 0..3 (first chunk each).
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        let plan = compute_local_plan(0, &e1_layouts(), &desc).unwrap();
        let r0: Vec<(usize, Block)> =
            plan.rounds()[0].recvs.iter().map(|t| (t.peer, t.region)).collect();
        assert_eq!(r0, (0..4).map(|s| (s, Block::d2([0, s], [4, 1]).unwrap())).collect::<Vec<_>>());
        // Second chunks are rows 4..8 — none touch rank 0's quadrant.
        assert!(plan.rounds()[1].recvs.is_empty());
    }

    #[test]
    fn e1_byte_accounting() {
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        for rank in 0..4 {
            let plan = compute_local_plan(rank, &e1_layouts(), &desc).unwrap();
            // Each rank owns 16 elements and needs 16; exactly 4 of its own
            // elements (one half-row from one of its two rows) stay local.
            assert_eq!(plan.total_local_bytes(), 4 * 4);
            assert_eq!(plan.total_sent_bytes(), 12 * 4);
            assert_eq!(plan.total_recv_bytes(), 12 * 4);
            assert_eq!(plan.neighbor_count(), 3);
        }
    }

    #[test]
    fn ragged_chunk_counts_pad_later_rounds() {
        // Rank 0 owns two 1-D chunks, rank 1 owns one; rounds = 2 and in
        // round 1 rank 1 sends nothing.
        let layouts = vec![
            Layout {
                owned: vec![Block::d1(0, 2).unwrap(), Block::d1(4, 2).unwrap()],
                need: Block::d1(0, 3).unwrap(),
            },
            Layout { owned: vec![Block::d1(2, 2).unwrap()], need: Block::d1(3, 3).unwrap() },
        ];
        let desc = Descriptor::new(2, DataKind::D1, 8).unwrap();
        let p0 = compute_local_plan(0, &layouts, &desc).unwrap();
        let p1 = compute_local_plan(1, &layouts, &desc).unwrap();
        assert_eq!(p0.num_rounds(), 2);
        assert_eq!(p1.num_rounds(), 2);
        assert!(p1.rounds()[1].sends.is_empty());
        // Rank 1 still receives in round 1 (rank 0's second chunk overlaps
        // its need 3..6 at element 4..6).
        assert_eq!(p1.rounds()[1].recvs.len(), 1);
        assert_eq!(p1.rounds()[1].recvs[0].region, Block::d1(4, 2).unwrap());
    }

    #[test]
    fn mismatched_dimensionality_rejected() {
        let layouts = vec![Layout {
            owned: vec![Block::d2([0, 0], [4, 4]).unwrap()],
            need: Block::d2([0, 0], [4, 4]).unwrap(),
        }];
        let desc = Descriptor::new(1, DataKind::D3, 4).unwrap();
        assert!(matches!(
            compute_local_plan(0, &layouts, &desc).unwrap_err(),
            DdrError::InvalidBlock(_)
        ));
    }

    #[test]
    fn process_count_mismatch_rejected() {
        let desc = Descriptor::new(8, DataKind::D2, 4).unwrap();
        assert!(matches!(
            compute_local_plan(0, &e1_layouts(), &desc).unwrap_err(),
            DdrError::ProcessCountMismatch { descriptor: 8, actual: 4 }
        ));
    }

    #[test]
    fn rank_outside_the_layouts_rejected() {
        let desc = Descriptor::new(4, DataKind::D2, 4).unwrap();
        assert_eq!(
            compute_local_plan(5, &e1_layouts(), &desc),
            Err(DdrError::RankOutOfRange { rank: 5, nprocs: 4 })
        );
    }
}
