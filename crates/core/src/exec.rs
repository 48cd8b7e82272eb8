//! Execution of a redistribution plan — the paper's `DDR_ReorganizeData`.

use crate::error::{DdrError, Result};
use crate::plan::Plan;
use crate::stats::RedistStats;
use minimpi::{bytes_of, uninit_bytes_of_mut, Comm, Pod};
use std::mem::MaybeUninit;

/// Marker trait for element types DDR can move: any plain-old-data type.
pub use minimpi::Pod as Element;

impl Plan {
    /// What every call checks before the first message: this plan's
    /// communicator, rank and element size, the owned chunks' count and
    /// lengths, and the need buffers' count.
    fn check_call<T: Pod, C: AsRef<[T]>>(
        &self,
        comm: &Comm,
        owned: &[C],
        needs: usize,
    ) -> Result<()> {
        if comm.size() != self.nprocs {
            return Err(DdrError::ProcessCountMismatch {
                descriptor: self.nprocs,
                actual: comm.size(),
            });
        }
        if comm.rank() != self.rank {
            return Err(DdrError::RankMismatch { plan: self.rank, actual: comm.rank() });
        }
        if std::mem::size_of::<T>() != self.elem_size {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "element type is {} bytes but descriptor declared {}",
                    std::mem::size_of::<T>(),
                    self.elem_size
                ),
            });
        }
        if owned.len() != self.owned.len() {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "{} owned buffers passed but {} chunks registered",
                    owned.len(),
                    self.owned.len()
                ),
            });
        }
        if needs != self.needs.len() {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "{needs} need buffers passed but {} blocks registered",
                    self.needs.len()
                ),
            });
        }
        for (c, (chunk, block)) in owned.iter().zip(&self.owned).enumerate() {
            let len = chunk.as_ref().len();
            if len as u64 != block.count() {
                return Err(DdrError::BufferMismatch {
                    detail: format!(
                        "round {c}: chunk has {len} elements but chunk {block:?} holds {}",
                        block.count()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Collective: move this rank's `owned` chunks, in owned-chunk order,
    /// into its needed block in `need` — the paper's `DDR_ReorganizeData`
    /// (§III-C). May be called any number of times with fresh data; the
    /// mapping is reused (the paper's "dynamic data" property), and so is
    /// `need`'s allocation.
    ///
    /// This is [`Plan::reorganize_needs`] with one buffer, for a plan with
    /// one needed block; its notes on the exchange, the buffers and the
    /// errors hold here.
    pub fn reorganize<T: Element, C: AsRef<[T]>>(
        &self,
        comm: &Comm,
        owned: &[C],
        need: &mut Vec<T>,
    ) -> Result<()> {
        self.reorganize_needs(comm, owned, std::slice::from_mut(need))
    }

    /// Collective: move this rank's `owned` chunks into its needed blocks,
    /// `needs[k]` receiving the `k`-th block the plan was set up with,
    /// whatever their count — none for a rank that only sends.
    ///
    /// The paper runs one `alltoallw` per round because MPI stages every
    /// message, so rounds bound staging memory. A zero-copy loan stages
    /// nothing, so every round rides one exchange, passing the part lists
    /// the setup call built with the plan: a call only binds its buffers to
    /// them. A chunk that meets several of a peer's needs is that many parts
    /// of one message. A caller that must bound its memory splits the work
    /// into several plans, as the stack loader does with its z-slabs.
    ///
    /// Each buffer is cleared, written through its spare capacity and given
    /// its block's element count only after the exchange. When this rank's
    /// receive regions into a need tile it — pairwise disjoint, their counts
    /// summing to the block's, a fact of the plan — every element is written
    /// exactly once and nothing zeroes the buffer first. Otherwise (a need
    /// overhanging the domain or owned blocks overlapping, both admitted
    /// only under [`crate::ValidationPolicy::Skip`]) it is zeroed first, so
    /// an element no round delivers reads 0.
    ///
    /// A buffer count other than the plan's need count is
    /// [`DdrError::BufferMismatch`], and every error leaves every buffer
    /// empty. A peer that fails to deliver — it died, its loan was dropped,
    /// the watchdog expired — is [`DdrError::Mpi`] of
    /// [`minimpi::Error::PeerDead`] or [`minimpi::Error::Timeout`] naming it,
    /// returned only after the exchange drained every other peer, so a
    /// survivor never fails naming another survivor. There is no partial
    /// result and no recovery: a caller that must go on with fewer ranks
    /// sets up a fresh mapping.
    pub fn reorganize_needs<T: Element, C: AsRef<[T]>>(
        &self,
        comm: &Comm,
        owned: &[C],
        needs: &mut [Vec<T>],
    ) -> Result<()> {
        needs.iter_mut().for_each(Vec::clear);
        self.check_call::<T, C>(comm, owned, needs.len())?;
        let mut bytes: Vec<&mut [MaybeUninit<u8>]> = (needs.iter_mut().zip(&self.needs))
            .zip(&self.tiled)
            .map(|((buf, block), &tiled)| {
                let n = block.count() as usize;
                buf.reserve(n);
                let bytes = uninit_bytes_of_mut(&mut buf.spare_capacity_mut()[..n]);
                if !tiled {
                    bytes.fill(MaybeUninit::new(0));
                }
                bytes
            })
            .collect();
        self.exchange_rounds(comm, owned, &mut bytes)?;
        for (buf, block) in needs.iter_mut().zip(&self.needs) {
            // SAFETY: all of the block's elements are initialized, and any
            // bytes are a valid `T: Pod`. Untiled, the buffer was zeroed
            // above. Tiled, the tiling proof, which holds for each need on
            // its own: the receive regions into this need are pairwise
            // disjoint subsets of its block whose counts sum to its count,
            // so their selections — the receive parts naming this buffer —
            // cover every byte, and `alltoallw_parts_uninit` returned `Ok`,
            // so it stored every byte of every selection.
            unsafe { buf.set_len(block.count() as usize) };
        }
        if ddrtrace::enabled() {
            let stats = RedistStats::from_plan(self);
            ddrtrace::metrics::add("redist", "sent_bytes", stats.sent_bytes);
            ddrtrace::metrics::add("redist", "local_bytes", stats.local_bytes);
            ddrtrace::metrics::add("redist", "messages_sent", stats.messages_sent);
            ddrtrace::metrics::add("redist", "rounds", stats.rounds as u64);
            ddrtrace::metrics::add("redist", "exchanges", stats.exchanges as u64);
        }
        Ok(())
    }

    /// Every round in one `alltoallw` into the needs' bytes, passing the
    /// chunks and each peer's part lists; none when there are no rounds.
    fn exchange_rounds<T: Pod, C: AsRef<[T]>>(
        &self,
        comm: &Comm,
        owned: &[C],
        needs: &mut [&mut [MaybeUninit<u8>]],
    ) -> Result<()> {
        let rounds = self.rounds.len() as i64;
        let _reorg = ddrtrace::span_arg("redist", "reorganize", "rounds", rounds);
        if rounds == 0 {
            return Ok(());
        }
        let _exchange = ddrtrace::span_arg("redist", "exchange", "rounds", rounds);
        let bufs: Vec<&[u8]> = owned.iter().map(|c| bytes_of(c.as_ref())).collect();
        Ok(comm.alltoallw_parts_uninit(&bufs, &self.parts.sends, needs, &self.parts.recvs)?)
    }
}

#[cfg(test)]
mod tests {
    use crate::decompose::{brick, near_cubic_grid};
    use crate::{
        compute_local_plan, Block, DataKind, Descriptor, Layout, Plan, RoundPlan, ValidationPolicy,
    };
    use minimpi::Universe;

    fn d1(offset: usize, len: usize) -> Block {
        Block::d1(offset, len).unwrap()
    }

    /// Every rank's plan for `layouts`, over 4-byte elements.
    fn plans(kind: DataKind, layouts: &[Layout]) -> Vec<Plan> {
        let desc = Descriptor::for_type::<u32>(layouts.len(), kind).unwrap();
        (0..layouts.len()).map(|r| compute_local_plan(r, layouts, &desc).unwrap()).collect()
    }

    /// The stack loader's shape: z-planes dealt round-robin, each rank
    /// needing its brick of an x-split volume.
    #[test]
    fn planes_dealt_round_robin_tile_an_x_split_brick() {
        let (vol, n) = ([8, 4, 6], 2);
        let domain = Block::d3([0, 0, 0], vol).unwrap();
        let layouts: Vec<Layout> = (0..n)
            .map(|r| Layout {
                owned: (r..vol[2])
                    .step_by(n)
                    .map(|z| Block::d3([0, 0, z], [vol[0], vol[1], 1]).unwrap())
                    .collect(),
                need: brick(&domain, near_cubic_grid(n), r).unwrap(),
            })
            .collect();
        for plan in plans(DataKind::D3, &layouts) {
            assert_eq!(plan.need().dims, [4, 4, 6]);
            assert_eq!(plan.tiled, [true]);
        }
    }

    /// A need overhanging the domain, as `Skip` admits, leaves a hole.
    #[test]
    fn a_need_past_the_domain_is_a_hole() {
        let layouts = [
            Layout { owned: vec![d1(0, 8)], need: d1(4, 8) },
            Layout { owned: vec![d1(8, 8)], need: d1(10, 10) },
        ];
        let tiled: Vec<bool> = plans(DataKind::D1, &layouts).iter().map(|p| p.tiled[0]).collect();
        assert_eq!(tiled, [true, false]);
    }

    /// Owned blocks that overlap, as `Skip` admits, deliver a cell twice.
    #[test]
    fn overlapping_owners_are_not_a_tiling() {
        let layouts = [
            Layout { owned: vec![d1(0, 10)], need: d1(0, 16) },
            Layout { owned: vec![d1(6, 10)], need: d1(6, 4) },
        ];
        let tiled: Vec<bool> = plans(DataKind::D1, &layouts).iter().map(|p| p.tiled[0]).collect();
        assert_eq!(tiled, [false, false]);
        // Ten cells and six overlapping them sum to the sixteen needed, but
        // leave [10, 16) unfilled: the count alone would pass, disjointness
        // does not.
        let layouts = [
            Layout { owned: vec![d1(0, 10)], need: d1(0, 16) },
            Layout { owned: vec![d1(4, 6)], need: d1(0, 1) },
        ];
        let plan = &plans(DataKind::D1, &layouts)[0];
        let regions = plan.rounds.iter().flat_map(|r| &r.recvs).map(|t| t.region.count());
        assert_eq!(regions.sum::<u64>(), plan.need().count());
        assert_eq!(plan.tiled, [false]);
    }

    /// A plan without a needed block (a rank that only sends) receives
    /// nothing: no need, so nothing to tile. Alone, its chunk has nobody to
    /// go to either, and the call takes no buffer and succeeds.
    #[test]
    fn an_empty_need_is_tiled() {
        let plan = Plan::new(0, 1, 4, vec![d1(0, 4)], vec![], vec![RoundPlan::default()]);
        assert!(plan.tiled.iter().all(|&t| t));
        let got = Universe::run(1, |comm| {
            let mut needs: [Vec<u32>; 0] = [];
            plan.reorganize_needs(comm, &[[7u32; 4]], &mut needs).map(|()| needs)
        });
        assert_eq!(got[0], Ok([]));
    }

    /// One rank, two chunks, into buffers reused from a longer call: a tiled
    /// need is written once, through the spare capacity, and an overhanging
    /// one reads 0 only where nothing lands — each alone, and both in one
    /// plan, where only the overhanging one is zeroed. Small enough for
    /// Miri, which reports any byte read before a write.
    #[test]
    fn one_rank_fills_tiled_and_untiled_needs() {
        let owned = [d1(0, 6), d1(6, 4)];
        let chunks: Vec<Vec<u32>> = owned
            .iter()
            .map(|b| (b.offset[0] as u32..(b.offset[0] + b.dims[0]) as u32).collect())
            .collect();
        let (tiled, overhang) = (d1(2, 8), d1(6, 8));
        // The domain is 0..10: a cell past it is a hole, and reads 0.
        let want = |need: &Block| -> Vec<u32> {
            let cells = need.offset[0]..need.offset[0] + need.dims[0];
            cells.map(|x| if x < 10 { x as u32 } else { 0 }).collect()
        };
        assert_eq!(want(&overhang), (6..10).chain([0; 4]).collect::<Vec<u32>>());
        for need in [tiled, overhang] {
            let layouts = [Layout { owned: owned.to_vec(), need }];
            let plan = plans(DataKind::D1, &layouts).remove(0);
            assert_eq!(plan.tiled[0], need.offset[0] == 2);
            let got = Universe::run(1, |comm| {
                let mut need = vec![u32::MAX; 12];
                plan.reorganize(comm, &chunks, &mut need).map(|()| need)
            });
            assert_eq!(got[0], Ok(want(&need)));
        }
        let needs = [tiled, overhang];
        let got = Universe::run(1, |comm| {
            let desc = Descriptor::for_type::<u32>(1, DataKind::D1).unwrap();
            let skip = ValidationPolicy::Skip;
            let plan = desc.setup_multi_mapping(comm, &owned, &needs, skip).unwrap();
            assert_eq!(plan.tiled, [true, false]);
            let mut bufs = vec![vec![u32::MAX; 12]; 2];
            plan.reorganize_needs(comm, &chunks, &mut bufs).map(|()| bufs)
        });
        assert_eq!(got[0], Ok(needs.iter().map(want).collect()));
    }
}
