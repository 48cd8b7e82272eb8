//! Execution of a redistribution plan — the paper's `DDR_ReorganizeData`.

use crate::error::{DdrError, Result};
use crate::plan::Plan;
use crate::recover::{LossKind, PartialCompletion};
use crate::stats::RedistStats;
use minimpi::{bytes_of, bytes_of_mut, Comm, Datatype, Pod};

/// Marker trait for element types DDR can move: any plain-old-data type.
pub use minimpi::Pod as Element;

impl Plan {
    fn check_buffers<T: Pod>(&self, owned: &[&[T]], need: &[T]) -> Result<()> {
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
        if need.len() as u64 != self.need.count() {
            return Err(DdrError::BufferMismatch {
                detail: format!(
                    "need buffer has {} elements but block {:?} holds {}",
                    need.len(),
                    self.need,
                    self.need.count()
                ),
            });
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
        if report.is_complete() {
            Ok(())
        } else {
            Err(DdrError::Incomplete(Box::new(report)))
        }
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
        if comm.size() != self.nprocs || comm.rank() != self.rank {
            return Err(DdrError::ProcessCountMismatch {
                descriptor: self.nprocs,
                actual: comm.size(),
            });
        }
        self.check_buffers(owned, need)?;
        let _reorg = ddrtrace::span_arg("redist", "reorganize", "rounds", self.rounds.len() as i64);
        let failures = self.reorganize_alltoallw(comm, owned, need)?;
        let stats = RedistStats::from_plan(self, &failures);
        if ddrtrace::enabled() {
            ddrtrace::metrics::add("redist", "sent_bytes", stats.sent_bytes);
            ddrtrace::metrics::add("redist", "local_bytes", stats.local_bytes);
            ddrtrace::metrics::add("redist", "messages_sent", stats.messages_sent);
            ddrtrace::metrics::add("redist", "failed_recvs", stats.failed_recvs);
        }
        Ok((PartialCompletion::from_failures(self, &failures), stats))
    }

    /// The [`RedistStats`] a fully successful execution of this plan will
    /// report (what [`Plan::reorganize_with_stats`] returns when nothing
    /// fails).
    pub fn expected_stats(&self) -> RedistStats {
        RedistStats::from_plan(self, &[])
    }

    /// Returns `(round, peer, loss kind)` receive failures; drains every
    /// round so the maximum amount of data survives a peer death, and
    /// classifies each loss so retransmit exhaustion (the peer is alive but
    /// its data never verified) is reported distinctly from death.
    ///
    /// Round-synchronous, like the paper: one blocking `alltoallw` per
    /// round, so at most one round's bytes are ever staged.
    fn reorganize_alltoallw<T: Pod>(
        &self,
        comm: &Comm,
        owned: &[&[T]],
        need: &mut [T],
    ) -> Result<Vec<(usize, usize, LossKind)>> {
        let n = self.nprocs;
        let need_bytes = bytes_of_mut(need);
        let mut failures = Vec::new();
        for (r, round) in self.rounds.iter().enumerate() {
            let _round = ddrtrace::span_arg("redist", "round", "round", r as i64);
            let send_buf: &[u8] = owned.get(r).map(|b| bytes_of(b)).unwrap_or(&[]);
            let mut send_types = vec![Datatype::Empty; n];
            let mut recv_types = vec![Datatype::Empty; n];
            for t in &round.sends {
                send_types[t.peer] = Datatype::Subarray(t.subarray);
            }
            for t in &round.recvs {
                recv_types[t.peer] = Datatype::Subarray(t.subarray);
            }
            let report = comm.alltoallw_salvage(send_buf, &send_types, need_bytes, &recv_types)?;
            failures.extend(
                report.failed.into_iter().map(|(peer, e)| (r, peer, LossKind::from_error(&e))),
            );
        }
        Ok(failures)
    }
}
