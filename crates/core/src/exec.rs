//! Execution of a redistribution plan — the paper's `DDR_ReorganizeData`.

use crate::error::{DdrError, Result};
use crate::plan::Plan;
use crate::recover::{LossKind, PartialCompletion};
use crate::stats::RedistStats;
use minimpi::{bytes_of, bytes_of_mut, Comm, Datatype, Pod};

/// Marker trait for element types DDR can move: any plain-old-data type.
pub use minimpi::Pod as Element;

/// Where the round loop gets round `r`'s owned chunk from. Only asked for
/// rounds this rank owns a chunk in, once each, in round order.
trait ChunkSource<T> {
    /// What fetching a chunk can fail with; the loop's own errors convert
    /// into it.
    type Error: From<DdrError>;
    fn chunk(&mut self, round: usize) -> std::result::Result<&[T], Self::Error>;
}

/// The trivial source: every chunk already sits in the caller's memory.
impl<T> ChunkSource<T> for &[&[T]] {
    type Error = DdrError;
    fn chunk(&mut self, round: usize) -> Result<&[T]> {
        Ok(self[round])
    }
}

/// A source that makes each chunk when its round comes, in one buffer that
/// every round reuses.
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
    fn chunk(&mut self, round: usize) -> std::result::Result<&[T], E> {
        (self.fill)(round, &mut self.buf)?;
        Ok(&self.buf)
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
    /// `DDR_ReorganizeData` (§III-C), using one `alltoallw` per round.
    ///
    /// May be called any number of times with fresh data; the mapping is
    /// reused (the paper's "dynamic data" property).
    ///
    /// On peer failure (a rank died or dropped out mid-exchange) the
    /// remaining rounds are still drained so every byte that can arrive
    /// does, and the call returns [`DdrError::Incomplete`] carrying a
    /// [`PartialCompletion`] report of exactly what was delivered and lost,
    /// per peer and per round.
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
    /// observations — so they are identical whichever data-movement path
    /// (zero-copy or staged) carried the bytes.
    pub fn reorganize_with_stats<T: Element>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<(PartialCompletion, RedistStats)> {
        self.check_buffers(comm, owned, need)?;
        self.run_rounds(comm, owned, need)
    }

    /// [`Plan::reorganize`] for chunks that are produced rather than held:
    /// right before round `r`'s exchange, `produce(r, &mut chunk)` must leave
    /// exactly owned chunk `r`'s elements in `chunk` (anything else is
    /// [`DdrError::BufferMismatch`] naming the round). `chunk` is one buffer,
    /// handed back as the previous round left it, so a rank that owns many
    /// chunks — a reader walking a stack of images — keeps one of them in
    /// memory instead of all. `produce` is called once per owned chunk, in
    /// round order, and never for the padded rounds of a rank that owns
    /// fewer chunks than its peers.
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
            self.run_rounds(comm, Produced { fill: produce, buf: Vec::new() }, need)?;
        Ok(complete(report)?)
    }

    /// The [`RedistStats`] a fully successful execution of this plan will
    /// report (what [`Plan::reorganize_with_stats`] returns when nothing
    /// fails).
    pub fn expected_stats(&self) -> RedistStats {
        RedistStats::from_plan(self, &[])
    }

    /// The one round loop behind every entry point. Drains every round so
    /// the maximum amount of data survives a peer death, and classifies each
    /// receive failure so retransmit exhaustion (the peer is alive but its
    /// data never verified) is reported distinctly from death.
    ///
    /// Round-synchronous, like the paper: one blocking `alltoallw` per
    /// round, so at most one round's bytes are ever staged.
    fn run_rounds<T: Pod, S: ChunkSource<T>>(
        &self,
        comm: &Comm,
        mut source: S,
        need: &mut [T],
    ) -> std::result::Result<(PartialCompletion, RedistStats), S::Error> {
        let _reorg = ddrtrace::span_arg("redist", "reorganize", "rounds", self.rounds.len() as i64);
        let need_bytes = bytes_of_mut(need);
        let mut send_types = vec![Datatype::Empty; self.nprocs];
        let mut recv_types = vec![Datatype::Empty; self.nprocs];
        let mut failures = Vec::new();
        for (r, round) in self.rounds.iter().enumerate() {
            let _round = ddrtrace::span_arg("redist", "round", "round", r as i64);
            let chunk: &[T] = match self.owned.get(r) {
                Some(block) => {
                    let chunk = source.chunk(r)?;
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
                    chunk
                }
                None => &[],
            };
            send_types.fill(Datatype::Empty);
            recv_types.fill(Datatype::Empty);
            for t in &round.sends {
                send_types[t.peer] = Datatype::Subarray(t.subarray);
            }
            for t in &round.recvs {
                recv_types[t.peer] = Datatype::Subarray(t.subarray);
            }
            let report = comm
                .alltoallw_salvage(bytes_of(chunk), &send_types, need_bytes, &recv_types)
                .map_err(DdrError::from)?;
            failures.extend(
                report.failed.into_iter().map(|(peer, e)| (r, peer, LossKind::from_error(&e))),
            );
        }
        let stats = RedistStats::from_plan(self, &failures);
        if ddrtrace::enabled() {
            ddrtrace::metrics::add("redist", "sent_bytes", stats.sent_bytes);
            ddrtrace::metrics::add("redist", "local_bytes", stats.local_bytes);
            ddrtrace::metrics::add("redist", "messages_sent", stats.messages_sent);
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
