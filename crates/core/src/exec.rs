//! Execution of a redistribution plan — the paper's `DDR_ReorganizeData`.

use crate::block::Block;
use crate::error::{DdrError, Result};
use crate::plan::Plan;
use crate::recover::PartialCompletion;
use crate::stats::RedistStats;
use minimpi::{bytes_of, bytes_of_mut, uninit_bytes_of_mut, Comm, Datatype, ExchangeReport, Pod};
use std::mem::MaybeUninit;
use std::ops::Range;

/// Marker trait for element types DDR can move: any plain-old-data type.
pub use minimpi::Pod as Element;

/// Where the round loop gets an exchange's owned chunks from. Asked once
/// per exchange, in round order, and only for rounds this rank owns a chunk
/// in.
trait ChunkSource<T> {
    /// What fetching a chunk can fail with; the loop's own errors convert
    /// into it.
    type Error: From<DdrError>;
    /// How many consecutive rounds one exchange carries.
    const ROUNDS_PER_EXCHANGE: usize;
    fn chunks(&mut self, rounds: Range<usize>) -> std::result::Result<Vec<&[T]>, Self::Error>;
}

/// The trivial source: every chunk already sits in the caller's memory, so
/// every round rides one exchange.
impl<T> ChunkSource<T> for &[&[T]] {
    type Error = DdrError;
    const ROUNDS_PER_EXCHANGE: usize = usize::MAX;
    fn chunks(&mut self, rounds: Range<usize>) -> Result<Vec<&[T]>> {
        Ok(self[rounds].to_vec())
    }
}

/// A source that makes each chunk when its round comes, in one buffer that
/// every round reuses — so it runs one round per exchange.
struct Produced<T, F> {
    fill: F,
    buf: Vec<T>,
}

impl<T, E, F> ChunkSource<T> for Produced<T, F>
where
    E: From<DdrError>,
    F: FnMut(usize, &mut Vec<T>) -> std::result::Result<(), E>,
{
    type Error = E;
    const ROUNDS_PER_EXCHANGE: usize = 1;
    fn chunks(&mut self, rounds: Range<usize>) -> std::result::Result<Vec<&[T]>, E> {
        debug_assert_eq!(rounds.len(), 1, "one buffer holds one round's chunk");
        (self.fill)(rounds.start, &mut self.buf)?;
        Ok(vec![&self.buf])
    }
}

impl Plan {
    /// What every entry point checks before the first message.
    fn check_call<T: Pod>(&self, comm: &Comm) -> Result<()> {
        if comm.size() != self.nprocs || comm.rank() != self.rank {
            return Err(DdrError::ProcessCountMismatch {
                descriptor: self.nprocs,
                actual: comm.size(),
            });
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
        Ok(())
    }

    /// Elements of the needed block (0 for a plan that only sends).
    fn need_count(&self) -> u64 {
        self.need.map_or(0, |b| b.count())
    }

    /// [`Plan::check_call`], plus the need buffer's and every owned chunk's
    /// length: a mismatch found here never leaves peers waiting inside a
    /// round.
    pub(crate) fn check_buffers<T: Pod>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &[T],
    ) -> Result<()> {
        self.check_call::<T>(comm)?;
        let need_count = self.need_count();
        if need.len() as u64 != need_count {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "need buffer has {} elements but block {:?} holds {need_count}",
                    need.len(),
                    self.need,
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
        for (c, (buf, blk)) in owned.iter().zip(self.owned.iter()).enumerate() {
            if buf.len() as u64 != blk.count() {
                return Err(DdrError::BufferMismatch {
                    detail: format!(
                        "owned buffer {c} has {} elements but chunk {:?} holds {}",
                        buf.len(),
                        blk,
                        blk.count()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Collective: move data from each rank's owned-chunk buffers into its
    /// needed-block buffer according to this plan — the paper's
    /// `DDR_ReorganizeData` (§III-C). The paper runs one `alltoallw` per
    /// round because MPI stages every message, so rounds bound staging
    /// memory. A zero-copy loan stages nothing, so every round rides one
    /// exchange.
    ///
    /// May be called any number of times with fresh data; the mapping is
    /// reused (the paper's "dynamic data" property).
    ///
    /// On peer failure (a rank died or dropped out mid-exchange) the
    /// remaining exchanges are still drained so every byte that can arrive
    /// does, and the call returns [`DdrError::Incomplete`] carrying a
    /// [`PartialCompletion`] report of exactly what was delivered and lost,
    /// per peer and per round. Salvage is per exchange: a source lost in an
    /// exchange is lost in every round of it that received from that
    /// source. Held chunks ride one exchange, so a peer that dies or whose
    /// message is dropped loses everything it would have sent.
    pub fn reorganize<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<()> {
        let (report, _) = self.reorganize_with_stats(comm, owned, need)?;
        complete(report)
    }

    /// Degraded-mode redistribution: like [`Plan::reorganize`], but a
    /// lossy exchange is an `Ok` outcome — the returned
    /// [`PartialCompletion`] says what arrived, and the [`RedistStats`]
    /// account for what this call moved. Hard errors (mismatched buffers,
    /// this rank itself fault-killed) are still `Err`. The stats are
    /// derived from the plan and the recorded failures — never from wire
    /// observations — so a run that loses nothing reports
    /// [`Plan::expected_stats`].
    pub fn reorganize_with_stats<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<(PartialCompletion, RedistStats)> {
        self.check_buffers(comm, owned, need)?;
        let need = bytes_of_mut(need);
        self.run_rounds(owned, |s, r| comm.alltoallw_parts(s, need, r))
    }

    /// [`Plan::reorganize`] for chunks that are produced rather than held,
    /// returning the need buffer it fills: right before round `r`'s
    /// exchange, `produce(r, &mut chunk)` must leave exactly owned chunk
    /// `r`'s elements in `chunk` (anything else is
    /// [`DdrError::BufferMismatch`] naming the round). `chunk` is one buffer,
    /// handed back as the previous round left it, so a rank that owns many
    /// chunks — a reader walking a stack of images — keeps one of them in
    /// memory instead of all. `produce` is called once per owned chunk, in
    /// round order, and never for the padded rounds of a rank that owns
    /// fewer chunks than its peers. Each round is an exchange of its own,
    /// because the one buffer holds one round's chunk.
    ///
    /// When this rank's receive regions tile its needed block — pairwise
    /// disjoint, their element counts summing to the block's — the exchange
    /// writes each element exactly once, straight into the returned
    /// buffer's fresh allocation, and nothing zeroes it first. Otherwise
    /// (a need overhanging the domain under [`crate::ValidationPolicy::Relaxed`],
    /// owned blocks overlapping under [`crate::ValidationPolicy::Skip`]) the
    /// buffer is zeroed before the first round, so an element no round
    /// delivers reads 0. The tiling check compares every pair of this rank's
    /// receive regions, across all rounds, once per call: `k(k − 1)/2` block
    /// intersections for `k` regions, about 8 000 for the 128 regions a
    /// rank of a 2-rank, 128-image stack load receives.
    ///
    /// Any error returns no buffer: a producer's error, a
    /// [`DdrError::BufferMismatch`], a lossy exchange
    /// ([`DdrError::Incomplete`]) or a hard transport error. Salvaging what
    /// a lossy exchange did deliver is [`Plan::reorganize_with_stats`]'s job,
    /// over a buffer the caller holds.
    ///
    /// A producer's own failure `E` returns at once. The peers are then
    /// inside that round, and see this rank's exit as any other dead peer:
    /// a structured error, within the watchdog.
    pub fn reorganize_from<T: Element, E: From<DdrError>>(
        &self,
        comm: &Comm,
        produce: impl FnMut(usize, &mut Vec<T>) -> std::result::Result<(), E>,
    ) -> std::result::Result<Vec<T>, E> {
        self.check_call::<T>(comm)?;
        let n = self.need_count() as usize;
        let tiled = self.recvs_tile_need();
        let mut need = Vec::with_capacity(n);
        let bytes = uninit_bytes_of_mut(&mut need.spare_capacity_mut()[..n]);
        if !tiled {
            bytes.fill(MaybeUninit::new(0));
        }
        let source = Produced { fill: produce, buf: Vec::new() };
        let (report, _) =
            self.run_rounds(source, |s, r| comm.alltoallw_parts_uninit(s, bytes, r))?;
        complete(report)?;
        // SAFETY: all `n` elements are initialized, and any bytes are a valid
        // `T: Pod`. Untiled, the buffer was zeroed above. Tiled, the tiling
        // proof: the receive regions are pairwise disjoint subsets of the
        // needed block whose counts sum to its count, so their selections
        // cover every byte. And the completion check: `complete` found no
        // receive lost, and `alltoallw_parts_uninit` stores every byte of the
        // selections of each source it does not report lost.
        unsafe { need.set_len(n) };
        Ok(need)
    }

    /// Whether this rank's receive regions, across all rounds, tile its
    /// needed block: pairwise disjoint, and their counts sum to the block's.
    /// Each region lies inside the block, so then every element is received
    /// exactly once. Pairwise, so `k(k − 1)/2` intersections for `k`
    /// regions.
    fn recvs_tile_need(&self) -> bool {
        let regions: Vec<&Block> =
            self.rounds.iter().flat_map(|r| r.recvs.iter().map(|t| &t.region)).collect();
        let total: u64 = regions.iter().map(|b| b.count()).sum();
        total == self.need_count()
            && regions
                .iter()
                .enumerate()
                .all(|(i, a)| regions[i + 1..].iter().all(|b| a.intersect(b).is_none()))
    }

    /// The [`RedistStats`] a fully successful execution of this plan will
    /// report: what [`Plan::reorganize_with_stats`] returns when nothing
    /// fails, on any universe.
    pub fn expected_stats(&self) -> RedistStats {
        RedistStats::from_plan(self, &[])
    }

    /// The one round loop behind every entry point. `exchange(sends, recvs)`
    /// runs one salvaging `alltoallw` into the need buffer the entry point
    /// holds. Drains every exchange so the maximum amount of data survives a
    /// peer death. A source lost in an exchange is lost in every round of it
    /// that received from that source.
    ///
    /// Exchange-synchronous: one blocking exchange per
    /// [`ChunkSource::ROUNDS_PER_EXCHANGE`] consecutive rounds — all of
    /// them for held chunks, one for produced ones.
    fn run_rounds<T: Pod, S: ChunkSource<T>>(
        &self,
        mut source: S,
        mut exchange: impl FnMut(
            &[Vec<(&[u8], Datatype)>],
            &[Vec<Datatype>],
        ) -> minimpi::Result<ExchangeReport>,
    ) -> std::result::Result<(PartialCompletion, RedistStats), S::Error> {
        let _reorg = ddrtrace::span_arg("redist", "reorganize", "rounds", self.rounds.len() as i64);
        let (n, step) = (self.rounds.len(), S::ROUNDS_PER_EXCHANGE);
        let mut failures = Vec::new();
        let mut exchanges = 0;
        for group in (0..n).step_by(step).map(|start| start..start.saturating_add(step).min(n)) {
            exchanges += 1;
            let _exchange = ddrtrace::span_arg("redist", "exchange", "rounds", group.len() as i64);
            let owned = group.start.min(self.owned.len())..group.end.min(self.owned.len());
            let chunks = if owned.is_empty() { Vec::new() } else { source.chunks(owned)? };
            let mut sends: Vec<Vec<(&[u8], Datatype)>> = vec![Vec::new(); self.nprocs];
            let mut recvs: Vec<Vec<Datatype>> = vec![Vec::new(); self.nprocs];
            for r in group.clone() {
                if let Some(block) = self.owned.get(r) {
                    let chunk = chunks[r - group.start];
                    if chunk.len() as u64 != block.count() {
                        return Err(DdrError::BufferMismatch {
                            detail: format!(
                                "round {r}: chunk has {} elements but chunk {:?} holds {}",
                                chunk.len(),
                                block,
                                block.count()
                            ),
                        }
                        .into());
                    }
                    for t in &self.rounds[r].sends {
                        sends[t.peer].push((bytes_of(chunk), Datatype::Subarray(t.subarray)));
                    }
                }
                for t in &self.rounds[r].recvs {
                    recvs[t.peer].push(Datatype::Subarray(t.subarray));
                }
            }
            let report = exchange(&sends, &recvs).map_err(DdrError::from)?;
            for (peer, _) in report.failed {
                let lost =
                    group.clone().filter(|&r| self.rounds[r].recvs.iter().any(|t| t.peer == peer));
                failures.extend(lost.map(|r| (r, peer)));
            }
        }
        let stats = RedistStats { exchanges, ..RedistStats::from_plan(self, &failures) };
        if ddrtrace::enabled() {
            ddrtrace::metrics::add("redist", "sent_bytes", stats.sent_bytes);
            ddrtrace::metrics::add("redist", "local_bytes", stats.local_bytes);
            ddrtrace::metrics::add("redist", "messages_sent", stats.messages_sent);
            ddrtrace::metrics::add("redist", "rounds", stats.rounds as u64);
            ddrtrace::metrics::add("redist", "exchanges", stats.exchanges as u64);
            ddrtrace::metrics::add("redist", "failed_recvs", stats.failed_recvs);
        }
        Ok((PartialCompletion::from_failures(self, &failures), stats))
    }
}

/// A lossy exchange as the error [`Plan::reorganize`] promises.
pub(crate) fn complete(report: PartialCompletion) -> Result<()> {
    if report.is_complete() {
        Ok(())
    } else {
        Err(DdrError::Incomplete(Box::new(report)))
    }
}

#[cfg(test)]
mod tests {
    use crate::decompose::{brick, near_cubic_grid};
    use crate::{
        compute_local_plan, Block, DataKind, DdrError, Descriptor, Layout, Plan, RoundPlan,
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
            assert!(plan.recvs_tile_need());
        }
    }

    /// A need overhanging the domain, as `Relaxed` admits, leaves a hole.
    #[test]
    fn a_need_past_the_domain_is_a_hole() {
        let layouts = [
            Layout { owned: vec![d1(0, 8)], need: d1(4, 8) },
            Layout { owned: vec![d1(8, 8)], need: d1(10, 10) },
        ];
        let tiled: Vec<bool> =
            plans(DataKind::D1, &layouts).iter().map(Plan::recvs_tile_need).collect();
        assert_eq!(tiled, [true, false]);
    }

    /// Owned blocks that overlap, as `Skip` admits, deliver a cell twice.
    #[test]
    fn overlapping_owners_are_not_a_tiling() {
        let layouts = [
            Layout { owned: vec![d1(0, 10)], need: d1(0, 16) },
            Layout { owned: vec![d1(6, 10)], need: d1(6, 4) },
        ];
        let tiled: Vec<bool> =
            plans(DataKind::D1, &layouts).iter().map(Plan::recvs_tile_need).collect();
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
        assert!(!plan.recvs_tile_need());
    }

    /// A plan without a needed block (a multi-need rank that declared fewer
    /// blocks than its peers) receives nothing: an empty tiling. Alone, its
    /// chunk has nobody to go to either.
    #[test]
    fn an_empty_need_is_tiled() {
        let layouts = [Layout { owned: vec![d1(0, 4)], need: d1(0, 4) }];
        let mut plan = plans(DataKind::D1, &layouts).remove(0);
        plan.need = None;
        plan.rounds = vec![RoundPlan::default()];
        assert!(plan.recvs_tile_need());
        let got = Universe::run(1, |comm| {
            plan.reorganize_from(comm, |_, chunk: &mut Vec<u32>| {
                *chunk = vec![7; 4];
                Ok::<_, DdrError>(())
            })
        });
        assert_eq!(got[0].as_deref(), Ok(&[][..]));
    }

    /// One rank, two produced chunks: the tiled need is written once, into
    /// fresh storage, and the overhanging one reads 0 where nothing lands.
    /// Small enough for Miri, which reports any byte read before a write.
    #[test]
    fn one_rank_fills_tiled_and_untiled_needs() {
        for (need, want) in
            [(d1(2, 8), (2..10).collect::<Vec<u32>>()), (d1(6, 8), (6..10).chain([0; 4]).collect())]
        {
            let layouts = [Layout { owned: vec![d1(0, 6), d1(6, 4)], need }];
            let plan = plans(DataKind::D1, &layouts).remove(0);
            assert_eq!(plan.recvs_tile_need(), need.offset[0] == 2);
            let got = Universe::run(1, |comm| {
                plan.reorganize_from(comm, |r, chunk: &mut Vec<u32>| {
                    let b = layouts[0].owned[r];
                    *chunk = (b.offset[0] as u32..(b.offset[0] + b.dims[0]) as u32).collect();
                    Ok::<_, DdrError>(())
                })
            });
            assert_eq!(got[0].as_ref(), Ok(&want));
        }
    }
}
