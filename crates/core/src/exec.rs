//! Execution of a redistribution plan — the paper's `DDR_ReorganizeData`.

use crate::error::{DdrError, Result};
use crate::plan::Plan;
use crate::recover::PartialCompletion;
use crate::stats::RedistStats;
use minimpi::{bytes_of, bytes_of_mut, Comm, Datatype, Pod};
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
    fn chunks(&mut self, rounds: Range<usize>) -> std::result::Result<Vec<&[T]>, Self::Error>;
}

/// The trivial source: every chunk already sits in the caller's memory.
impl<T> ChunkSource<T> for &[&[T]] {
    type Error = DdrError;
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
    fn chunks(&mut self, rounds: Range<usize>) -> std::result::Result<Vec<&[T]>, E> {
        debug_assert_eq!(rounds.len(), 1, "one buffer holds one round's chunk");
        (self.fill)(rounds.start, &mut self.buf)?;
        Ok(vec![&self.buf])
    }
}

impl Plan {
    /// What every entry point checks before the first message.
    fn check_call<T: Pod>(&self, comm: &Comm, need: &[T]) -> Result<()> {
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
        let need_count = self.need.map_or(0, |b| b.count());
        if need.len() as u64 != need_count {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "need buffer has {} elements but block {:?} holds {need_count}",
                    need.len(),
                    self.need,
                ),
            });
        }
        Ok(())
    }

    /// [`Plan::check_call`], plus every owned chunk's length: a mismatch
    /// found here never leaves peers waiting inside a round.
    pub(crate) fn check_buffers<T: Pod>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &[T],
    ) -> Result<()> {
        self.check_call(comm, need)?;
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
    /// memory. A zero-copy loan stages nothing, so when the universe loans
    /// every round rides one exchange; when it stages, consecutive rounds
    /// share one while their chunks fit under [`Plan::STAGING_BOUND`]
    /// ([`Plan::exchanges`]).
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
    /// source. Under loans that is one exchange, so a peer that dies loses
    /// everything it would have sent; under a fault plan (which stages)
    /// the rounds group under [`Plan::STAGING_BOUND`] and salvage stays per
    /// group.
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
    /// observations — so every field but [`RedistStats::exchanges`] is
    /// identical whichever data-movement path (zero-copy or staged) carried
    /// the bytes. `exchanges` counts the physical exchanges, which depend on
    /// the path (one when the universe loans), and equals
    /// [`Plan::expected_stats`] on the same universe.
    pub fn reorganize_with_stats<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<(PartialCompletion, RedistStats)> {
        self.check_buffers(comm, owned, need)?;
        self.run_rounds(comm, owned, need, exchange_bound(comm))
    }

    /// [`Plan::reorganize`] for chunks that are produced rather than held:
    /// right before round `r`'s exchange, `produce(r, &mut chunk)` must leave
    /// exactly owned chunk `r`'s elements in `chunk` (anything else is
    /// [`DdrError::BufferMismatch`] naming the round). `chunk` is one buffer,
    /// handed back as the previous round left it, so a rank that owns many
    /// chunks — a reader walking a stack of images — keeps one of them in
    /// memory instead of all. `produce` is called once per owned chunk, in
    /// round order, and never for the padded rounds of a rank that owns
    /// fewer chunks than its peers. Each round is an exchange of its own,
    /// because the one buffer holds one round's chunk.
    ///
    /// A producer's own failure `E` returns at once. The peers are then
    /// inside that round, and see this rank's exit as any other dead peer:
    /// a structured error, within the watchdog.
    pub fn reorganize_from<T: Element, E: From<DdrError>>(
        &self,
        comm: &Comm,
        produce: impl FnMut(usize, &mut Vec<T>) -> std::result::Result<(), E>,
        need: &mut [T],
    ) -> std::result::Result<(), E> {
        self.check_call(comm, need)?;
        let (report, _) =
            self.run_rounds(comm, Produced { fill: produce, buf: Vec::new() }, need, 0)?;
        Ok(complete(report)?)
    }

    /// The [`RedistStats`] a fully successful execution of this plan will
    /// report (what [`Plan::reorganize_with_stats`] returns when nothing
    /// fails) on the universe it was set up on. A plan from
    /// [`crate::compute_local_plan`] has met no universe, so its count of
    /// exchanges is the paper's: one per round.
    pub fn expected_stats(&self) -> RedistStats {
        RedistStats::from_plan(self, self.exchange_bound.unwrap_or(0), &[])
    }

    /// The one round loop behind every entry point. Drains every exchange
    /// so the maximum amount of data survives a peer death. A source lost in
    /// an exchange is lost in every round of it that received from that
    /// source.
    ///
    /// Exchange-synchronous: one blocking exchange per group of
    /// [`Plan::exchanges`] under `bound`. Loaned, `bound` is `usize::MAX`
    /// and every round rides one exchange. Staged, a round whose chunks
    /// exceed `bound` is an exchange of its own, as in the paper, and stages
    /// at most that round's bytes; a shared exchange stages at most `bound`
    /// bytes per message.
    fn run_rounds<T: Pod, S: ChunkSource<T>>(
        &self,
        comm: &Comm,
        mut source: S,
        need: &mut [T],
        bound: usize,
    ) -> std::result::Result<(PartialCompletion, RedistStats), S::Error> {
        let _reorg = ddrtrace::span_arg("redist", "reorganize", "rounds", self.rounds.len() as i64);
        let need_bytes = bytes_of_mut(need);
        let mut failures = Vec::new();
        for group in self.exchanges(bound) {
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
            let report =
                comm.alltoallw_parts(&sends, need_bytes, &recvs).map_err(DdrError::from)?;
            for (peer, _) in report.failed {
                let lost =
                    group.clone().filter(|&r| self.rounds[r].recvs.iter().any(|t| t.peer == peer));
                failures.extend(lost.map(|r| (r, peer)));
            }
        }
        let stats = RedistStats::from_plan(self, bound, &failures);
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

/// The bound `comm`'s universe groups held rounds by. A universe that loans
/// stages nothing, so every round rides one exchange; otherwise
/// [`Plan::STAGING_BOUND`] caps what a shared exchange stages.
pub(crate) fn exchange_bound(comm: &Comm) -> usize {
    if comm.zerocopy_active() {
        usize::MAX
    } else {
        Plan::STAGING_BOUND
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
