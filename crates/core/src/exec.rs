//! Execution of a redistribution plan — the paper's `DDR_ReorganizeData`.

use crate::error::{DdrError, Result};
use crate::plan::Plan;
use crate::recover::PartialCompletion;
use crate::stats::RedistStats;
use minimpi::{bytes_of, uninit_bytes_of_mut, Comm, Datatype, Pod};
use std::mem::MaybeUninit;

/// Marker trait for element types DDR can move: any plain-old-data type.
pub use minimpi::Pod as Element;

impl Plan {
    /// What every call checks before the first message: this plan's
    /// communicator, rank and element size, and the owned chunks' count and
    /// lengths.
    fn check_call<T: Pod, C: AsRef<[T]>>(&self, comm: &Comm, owned: &[C]) -> Result<()> {
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
    /// The paper runs one `alltoallw` per round because MPI stages every
    /// message, so rounds bound staging memory. A zero-copy loan stages
    /// nothing, so every round rides one exchange, passing the part lists
    /// the setup call built with the plan: a call only binds its buffers to
    /// them. A caller that must bound its memory splits the work into
    /// several plans, as the stack loader does with its z-slabs.
    ///
    /// `need` is cleared, written through its spare capacity and given the
    /// needed block's element count only after the exchange. When this
    /// rank's receive regions tile its needed block — pairwise disjoint,
    /// their counts summing to the block's, a fact of the plan — every
    /// element is written exactly once and nothing zeroes `need` first.
    /// Otherwise (a need overhanging the domain under
    /// [`crate::ValidationPolicy::Relaxed`], owned blocks overlapping under
    /// [`crate::ValidationPolicy::Skip`]) it is zeroed first, so an element
    /// no round delivers reads 0.
    ///
    /// On peer failure (a rank died, or its loan was dropped) the exchange
    /// is still drained, so every byte that can arrive does. The receive
    /// regions lost read 0, `need` has its full length, and the call
    /// returns [`DdrError::Incomplete`] carrying a [`PartialCompletion`] of
    /// what was delivered and lost, per peer and per round: a lost source
    /// is lost in every round that received from it. Any other error — a
    /// mismatched buffer, this rank fault-killed — leaves `need` empty.
    pub fn reorganize<T: Element, C: AsRef<[T]>>(
        &self,
        comm: &Comm,
        owned: &[C],
        need: &mut Vec<T>,
    ) -> Result<()> {
        need.clear();
        self.check_call::<T, C>(comm, owned)?;
        let n = self.need.map_or(0, |b| b.count()) as usize;
        need.reserve(n);
        let bytes = uninit_bytes_of_mut(&mut need.spare_capacity_mut()[..n]);
        if !self.tiled {
            bytes.fill(MaybeUninit::new(0));
        }
        let failed = self.exchange_rounds(comm, owned, bytes)?;
        let lost = (!failed.is_empty()).then(|| PartialCompletion::from_failures(self, &failed));
        if let Some(report) = &lost {
            self.zero_lost(report, bytes);
        }
        // SAFETY: all `n` elements are initialized, and any bytes are a valid
        // `T: Pod`. Untiled, the buffer was zeroed above. Tiled, the tiling
        // proof: the receive regions are pairwise disjoint subsets of the
        // needed block whose counts sum to its count, so their selections
        // cover every byte. `alltoallw_parts_uninit` stores every byte of the
        // selections of each source it does not report lost, and
        // `zero_lost` every byte of those it does.
        unsafe { need.set_len(n) };
        if ddrtrace::enabled() {
            let stats = RedistStats::from_plan(self, lost.as_ref());
            ddrtrace::metrics::add("redist", "sent_bytes", stats.sent_bytes);
            ddrtrace::metrics::add("redist", "local_bytes", stats.local_bytes);
            ddrtrace::metrics::add("redist", "messages_sent", stats.messages_sent);
            ddrtrace::metrics::add("redist", "rounds", stats.rounds as u64);
            ddrtrace::metrics::add("redist", "exchanges", stats.exchanges as u64);
            ddrtrace::metrics::add("redist", "failed_recvs", stats.failed_recvs);
        }
        match lost {
            None => Ok(()),
            Some(report) => Err(DdrError::Incomplete(Box::new(report))),
        }
    }

    /// The [`RedistStats`] a fully successful run of this plan accounts
    /// for, on any universe.
    pub fn expected_stats(&self) -> RedistStats {
        RedistStats::from_plan(self, None)
    }

    /// Zero every receive region from a peer `report` names as lost in a
    /// tiled need buffer: the exchange left them unwritten. An untiled
    /// buffer was zeroed in full before the exchange, and a lost region
    /// there may overlap a delivered one, so it is left as it is.
    fn zero_lost(&self, report: &PartialCompletion, need: &mut [MaybeUninit<u8>]) {
        if !self.tiled {
            return;
        }
        let recvs = self.rounds.iter().flat_map(|r| &r.recvs);
        for t in recvs.filter(|t| report.dead_peers.contains(&t.peer)) {
            for (offset, len) in t.subarray.byte_runs() {
                need[offset..offset + len].fill(MaybeUninit::new(0));
            }
        }
    }

    /// Every round in one salvaging `alltoallw` into `need`, passing the
    /// chunks and each peer's part lists; none when there are no rounds.
    /// Drains every source, so the maximum amount of data survives a peer
    /// death. Returns the peers whose message was lost.
    fn exchange_rounds<T: Pod, C: AsRef<[T]>>(
        &self,
        comm: &Comm,
        owned: &[C],
        need: &mut [MaybeUninit<u8>],
    ) -> Result<Vec<usize>> {
        let rounds = self.rounds.len() as i64;
        let _reorg = ddrtrace::span_arg("redist", "reorganize", "rounds", rounds);
        if rounds == 0 {
            return Ok(Vec::new());
        }
        let _exchange = ddrtrace::span_arg("redist", "exchange", "rounds", rounds);
        let bufs: Vec<&[u8]> = owned.iter().map(|c| bytes_of(c.as_ref())).collect();
        let sends: Vec<&[(usize, Datatype)]> = self.parts.sends.iter().map(Vec::as_slice).collect();
        let recvs: Vec<&[Datatype]> = self.parts.recvs.iter().map(Vec::as_slice).collect();
        let report = comm.alltoallw_parts_uninit(&bufs, &sends, need, &recvs)?;
        Ok(report.failed.into_iter().map(|(peer, _)| peer).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::decompose::{brick, near_cubic_grid};
    use crate::recover::PartialCompletion;
    use crate::{compute_local_plan, Block, DataKind, Descriptor, Layout, Plan, RoundPlan};
    use minimpi::Universe;
    use std::mem::MaybeUninit;

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
            assert!(plan.tiled);
        }
    }

    /// A need overhanging the domain, as `Relaxed` admits, leaves a hole.
    #[test]
    fn a_need_past_the_domain_is_a_hole() {
        let layouts = [
            Layout { owned: vec![d1(0, 8)], need: d1(4, 8) },
            Layout { owned: vec![d1(8, 8)], need: d1(10, 10) },
        ];
        let tiled: Vec<bool> = plans(DataKind::D1, &layouts).iter().map(|p| p.tiled).collect();
        assert_eq!(tiled, [true, false]);
    }

    /// Owned blocks that overlap, as `Skip` admits, deliver a cell twice.
    #[test]
    fn overlapping_owners_are_not_a_tiling() {
        let layouts = [
            Layout { owned: vec![d1(0, 10)], need: d1(0, 16) },
            Layout { owned: vec![d1(6, 10)], need: d1(6, 4) },
        ];
        let tiled: Vec<bool> = plans(DataKind::D1, &layouts).iter().map(|p| p.tiled).collect();
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
        assert!(!plan.tiled);
    }

    /// A plan without a needed block (a multi-need rank that declared fewer
    /// blocks than its peers) receives nothing: an empty tiling. Alone, its
    /// chunk has nobody to go to either, and a buffer handed in comes back
    /// empty.
    #[test]
    fn an_empty_need_is_tiled() {
        let plan = Plan::new(0, 1, 4, vec![d1(0, 4)], None, vec![RoundPlan::default()]);
        assert!(plan.tiled);
        let got = Universe::run(1, |comm| {
            let mut need = vec![9u32; 3];
            plan.reorganize(comm, &[[7u32; 4]], &mut need).map(|()| need)
        });
        assert_eq!(got[0].as_deref(), Ok(&[][..]));
    }

    /// One rank, two chunks, into a buffer reused from a longer call: the
    /// tiled need is written once, through the spare capacity, and the
    /// overhanging one reads 0 where nothing lands. Small enough for Miri,
    /// which reports any byte read before a write.
    #[test]
    fn one_rank_fills_tiled_and_untiled_needs() {
        for (need, want) in
            [(d1(2, 8), (2..10).collect::<Vec<u32>>()), (d1(6, 8), (6..10).chain([0; 4]).collect())]
        {
            let layouts = [Layout { owned: vec![d1(0, 6), d1(6, 4)], need }];
            let plan = plans(DataKind::D1, &layouts).remove(0);
            assert_eq!(plan.tiled, need.offset[0] == 2);
            let chunk = |r: usize| {
                let b = layouts[0].owned[r];
                (b.offset[0] as u32..(b.offset[0] + b.dims[0]) as u32).collect::<Vec<u32>>()
            };
            let got = Universe::run(1, |comm| {
                let mut need = vec![u32::MAX; 12];
                plan.reorganize(comm, &[chunk(0), chunk(1)], &mut need).map(|()| need)
            });
            assert_eq!(got[0], Ok(want));
        }
    }

    /// A buffer poisoned with `0xA5` bytes, as the exchange would leave
    /// the unwritten parts of a need of `len` bytes.
    fn poisoned(len: usize) -> Vec<MaybeUninit<u8>> {
        vec![MaybeUninit::new(0xA5); len]
    }

    /// Each byte of `buf`, read back as an element index of 4-byte
    /// elements: `Some(i)` where it reads 0, `None` where it is poisoned.
    fn zeroed_elements(buf: &[MaybeUninit<u8>]) -> Vec<usize> {
        // SAFETY: every byte was initialized by `poisoned` or `zero_lost`.
        let bytes: Vec<u8> = buf.iter().map(|b| unsafe { b.assume_init() }).collect();
        let zero = |e: &[u8]| e.iter().all(|&b| b == 0);
        bytes.chunks(4).enumerate().filter(|(_, e)| zero(e)).map(|(i, _)| i).collect()
    }

    /// Rank 0 of two needs [2, 10) from a chunk of its own, [0, 6), and
    /// one of rank 1's, [6, 10): tiled. Losing rank 1 zeroes exactly the
    /// four elements rank 1 would have delivered; losing nobody zeroes
    /// nothing.
    #[test]
    fn a_lost_source_zeroes_exactly_its_regions_of_a_tiled_need() {
        let layouts = [
            Layout { owned: vec![d1(0, 6)], need: d1(2, 8) },
            Layout { owned: vec![d1(6, 4)], need: d1(0, 1) },
        ];
        let plan = plans(DataKind::D1, &layouts).remove(0);
        assert!(plan.tiled);
        for (failures, want) in [(vec![1], vec![4, 5, 6, 7]), (vec![], vec![])] {
            let report = PartialCompletion::from_failures(&plan, &failures);
            let mut buf = poisoned(8 * 4);
            plan.zero_lost(&report, &mut buf);
            assert_eq!(zeroed_elements(&buf), want, "failures {failures:?}");
        }
    }

    /// An untiled need was zeroed in full before its exchange; a lost
    /// region may overlap a delivered one there, so nothing is zeroed
    /// again.
    #[test]
    fn a_lost_source_leaves_an_untiled_need_as_it_is() {
        let layouts = [
            Layout { owned: vec![d1(0, 6)], need: d1(2, 12) },
            Layout { owned: vec![d1(6, 4)], need: d1(0, 1) },
        ];
        let plan = plans(DataKind::D1, &layouts).remove(0);
        assert!(!plan.tiled);
        let report = PartialCompletion::from_failures(&plan, &[1]);
        let mut buf = poisoned(12 * 4);
        plan.zero_lost(&report, &mut buf);
        assert_eq!(zeroed_elements(&buf), Vec::<usize>::new());
    }
}
