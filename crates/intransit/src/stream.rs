//! Loss-tolerant frame reception: per-frame deadlines, skip-ahead, and
//! bounded retry.
//!
//! [`crate::recv_frames`] blocks until every source delivers — correct for a
//! healthy pipeline, but one stalled or dead producer freezes the whole
//! analysis resource for the watchdog timeout. A [`FrameReceiver`] instead
//! gives each source a *deadline per frame*: a frame that does not arrive in
//! time is retried a bounded number of times with backoff (recovering
//! transient delays), and then **skipped** — the consumer logs the loss,
//! records it in [`FrameStats`], and renders the next step rather than
//! stalling. A source known to be dead is skipped immediately.
//!
//! Frames that arrive out of step are handled too: stale frames (older than
//! the step being assembled) are discarded and counted, while a *future*
//! frame proves the expected one was lost (per-source delivery is ordered),
//! so it is stashed for its own step and the current one is skipped without
//! waiting out the deadline.

use crate::frame::{Frame, FRAME_TAG};
use minimpi::{Comm, Result};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Tuning for deadline-based frame reception.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecvConfig {
    /// How long one attempt waits for a frame from one source.
    pub deadline: Duration,
    /// Extra attempts after the first deadline miss (0 = single attempt).
    pub retries: u32,
    /// Sleep before retry `k` (1-based) is `backoff * k` — linear backoff.
    pub backoff: Duration,
    /// Polling interval while waiting within a deadline.
    pub poll: Duration,
}

impl Default for FrameRecvConfig {
    fn default() -> Self {
        FrameRecvConfig {
            deadline: Duration::from_millis(250),
            retries: 2,
            backoff: Duration::from_millis(50),
            poll: Duration::from_micros(500),
        }
    }
}

/// Counters describing how a stream has fared so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames delivered on time (including via retry or from the stash).
    pub received: u64,
    /// Frames given up on: the consumer skipped ahead without them.
    pub skipped: u64,
    /// Skips caused by a source known to be dead (subset of `skipped`).
    pub dead_sources: u64,
    /// Retry attempts performed (each preceded by a backoff sleep).
    pub retries: u64,
    /// Frames older than the step being assembled, discarded on arrival.
    pub stale: u64,
}

impl fmt::Display for FrameStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} received, {} skipped ({} from dead sources), {} retries, {} stale",
            self.received, self.skipped, self.dead_sources, self.retries, self.stale
        )
    }
}

impl FrameStats {
    /// Accumulate another rank's counters (for whole-resource summaries).
    pub fn merge(&mut self, other: &FrameStats) {
        self.received += other.received;
        self.skipped += other.skipped;
        self.dead_sources += other.dead_sources;
        self.retries += other.retries;
        self.stale += other.stale;
    }
}

/// Deadline-based, skip-ahead receiver for one consumer's sources.
///
/// Call [`FrameReceiver::recv_step`] once per output step; it returns the
/// frames that made it (possibly fewer than `sources.len()`) and keeps
/// running totals in [`FrameReceiver::stats`]. Pair it with a
/// [`crate::Repartitioner`] in degraded mode so redistribution accepts the
/// incomplete coverage.
#[derive(Debug)]
pub struct FrameReceiver {
    sources: Vec<usize>,
    cfg: FrameRecvConfig,
    stats: FrameStats,
    /// Future frames that arrived while an earlier one was lost, per source.
    stash: HashMap<usize, Frame>,
}

impl FrameReceiver {
    /// Receiver pulling from `sources` (ranks on the communicator passed to
    /// [`FrameReceiver::recv_step`]) with the given tuning.
    pub fn new(sources: Vec<usize>, cfg: FrameRecvConfig) -> Self {
        FrameReceiver { sources, cfg, stats: FrameStats::default(), stash: HashMap::new() }
    }

    /// Replace the source list after the producer or consumer group was
    /// resized (ranks may have been renumbered by a shrink).
    /// Stashed frames from sources no longer present are dropped.
    pub fn set_sources(&mut self, sources: Vec<usize>) {
        self.stash.retain(|s, _| sources.contains(s));
        self.sources = sources;
    }

    /// Running totals across all `recv_step` calls so far.
    pub fn stats(&self) -> &FrameStats {
        &self.stats
    }

    /// Collect step `step`'s frames from every source, waiting at most
    /// `deadline × (retries + 1)` (plus backoff) per source. Missing frames
    /// are logged, counted, and omitted from the result — the caller renders
    /// what it has. Errors are reserved for real faults on *this* rank
    /// (death, garbled payloads), never for peer loss.
    pub fn recv_step(&mut self, comm: &Comm, step: u64) -> Result<Vec<Frame>> {
        let sources = self.sources.clone();
        let mut frames = Vec::with_capacity(sources.len());
        for src in sources {
            if let Some(frame) = self.recv_one(comm, src, step)? {
                frames.push(frame);
            }
        }
        Ok(frames)
    }

    fn recv_one(&mut self, comm: &Comm, src: usize, step: u64) -> Result<Option<Frame>> {
        let _wait = ddrtrace::span_arg("intransit", "frame_wait", "src", src as i64);
        // A frame stashed during an earlier skip may already settle this step.
        if let Some(stashed) = self.stash.get(&src) {
            if stashed.step == step {
                self.stats.received += 1;
                return Ok(self.stash.remove(&src));
            }
            if stashed.step < step {
                self.stash.remove(&src);
                self.stats.stale += 1;
            } else {
                // A future frame is already queued: per-source delivery is
                // ordered, so this step's frame can never arrive.
                return Ok(self.skip(comm, src, step, "a later frame already arrived"));
            }
        }

        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                self.stats.retries += 1;
                ddrtrace::instant_arg("intransit", "frame_retry", "attempt", attempt as i64);
                std::thread::sleep(self.cfg.backoff * attempt);
            }
            let deadline = Instant::now() + self.cfg.deadline;
            loop {
                match comm.try_recv_bytes(src, FRAME_TAG)? {
                    Some(bytes) => {
                        let frame = Frame::decode(&bytes);
                        // The payload is copied out by decode; recycle the
                        // wire buffer so the producer's next send reuses it.
                        comm.release_staging(bytes);
                        let frame = frame?;
                        if frame.step == step {
                            self.stats.received += 1;
                            return Ok(Some(frame));
                        }
                        if frame.step < step {
                            self.stats.stale += 1;
                            continue;
                        }
                        self.stash.insert(src, frame);
                        return Ok(self.skip(comm, src, step, "a later frame arrived instead"));
                    }
                    None => {
                        if !comm.is_alive(src) {
                            self.stats.dead_sources += 1;
                            return Ok(self.skip(comm, src, step, "source is dead"));
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                        std::thread::sleep(self.cfg.poll);
                    }
                }
            }
        }
        Ok(self.skip(comm, src, step, "deadline exceeded on every attempt"))
    }

    /// Record and log a skipped frame; always yields `None`.
    fn skip(&mut self, comm: &Comm, src: usize, step: u64, why: &str) -> Option<Frame> {
        self.stats.skipped += 1;
        ddrtrace::instant_arg("intransit", "frame_skip", "src", src as i64);
        eprintln!(
            "[intransit] rank {}: no frame from rank {src} for step {step} ({why}) — skipping ahead",
            comm.rank()
        );
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::send_frame;
    use ddr_core::Block;
    use minimpi::{FaultPlan, Universe};

    fn blk() -> Block {
        Block::d1(0, 4).unwrap()
    }

    fn fast_cfg() -> FrameRecvConfig {
        FrameRecvConfig {
            deadline: Duration::from_millis(200),
            retries: 2,
            backoff: Duration::from_millis(20),
            poll: Duration::from_micros(200),
        }
    }

    /// Producer rank 0 streams steps 1..=3 to rank 1 under `plan`; rank 1
    /// collects with a `FrameReceiver`. Returns (per-step frame presence,
    /// stats).
    fn run_stream(plan: FaultPlan) -> (Vec<bool>, FrameStats) {
        let out =
            Universe::builder().timeout(Duration::from_secs(20)).fault_plan(plan).run(2, |comm| {
                if comm.rank() == 0 {
                    for step in 1..=3u64 {
                        let _ = send_frame(comm, 1, step, blk(), vec![step as f32; 4]);
                    }
                    (Vec::new(), FrameStats::default())
                } else {
                    let mut rx = FrameReceiver::new(vec![0], fast_cfg());
                    let mut got = Vec::new();
                    for step in 1..=3u64 {
                        let frames = rx.recv_step(comm, step).unwrap();
                        assert!(frames.iter().all(|f| f.step == step));
                        got.push(!frames.is_empty());
                    }
                    (got, *rx.stats())
                }
            });
        out[1].clone()
    }

    #[test]
    fn healthy_stream_delivers_everything() {
        let (got, stats) = run_stream(FaultPlan::new());
        assert_eq!(got, vec![true, true, true]);
        assert_eq!(stats.received, 3);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.stale, 0);
    }

    #[test]
    fn dropped_frame_is_skipped_and_stream_continues() {
        // Drop the 2nd frame (step 2). The consumer, waiting for step 2,
        // sees step 3 arrive instead — proof of loss — so it skips without
        // burning the deadline, stashes step 3, and serves it next.
        let start = Instant::now();
        let (got, stats) = run_stream(FaultPlan::new().drop_message(0, 1, Some(FRAME_TAG), 1));
        assert_eq!(got, vec![true, false, true]);
        assert_eq!(stats.received, 2);
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.dead_sources, 0);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn delayed_frame_is_recovered_by_retry() {
        // Stall frame 1 (step 1) past one deadline but well inside the
        // retry budget (200 + 20 + 200 = 420 ms of patience vs 300 ms).
        let (got, stats) = run_stream(FaultPlan::new().delay_message(
            0,
            1,
            Some(FRAME_TAG),
            0,
            Duration::from_millis(300),
        ));
        assert_eq!(got, vec![true, true, true]);
        assert_eq!(stats.received, 3);
        assert_eq!(stats.skipped, 0);
        assert!(stats.retries >= 1);
    }

    #[test]
    fn dead_producer_is_skipped_fast() {
        // The producer dies on its very first op; the consumer must not wait
        // out deadline × retries for each of the 3 steps.
        let start = Instant::now();
        let (got, stats) = run_stream(FaultPlan::new().kill_rank_at_op(0, 0));
        assert_eq!(got, vec![false, false, false]);
        assert_eq!(stats.skipped, 3);
        assert_eq!(stats.dead_sources, 3);
        assert!(start.elapsed() < Duration::from_secs(3));
    }

    #[test]
    fn stale_frames_are_discarded() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for step in 1..=2u64 {
                    send_frame(comm, 1, step, blk(), vec![step as f32; 4]).unwrap();
                }
                FrameStats::default()
            } else {
                let mut rx = FrameReceiver::new(vec![0], fast_cfg());
                // Ask straight for step 2: step 1's frame arrives first and
                // must be discarded as stale, not returned.
                let frames = rx.recv_step(comm, 2).unwrap();
                assert_eq!(frames.len(), 1);
                assert_eq!(frames[0].step, 2);
                *rx.stats()
            }
        });
        assert_eq!(out[1].stale, 1);
        assert_eq!(out[1].received, 1);
    }

    #[test]
    fn stats_display_and_merge() {
        let mut a = FrameStats { received: 3, skipped: 1, dead_sources: 1, retries: 2, stale: 0 };
        let b = FrameStats { received: 5, skipped: 0, dead_sources: 0, retries: 0, stale: 2 };
        a.merge(&b);
        assert_eq!(a.received, 8);
        assert_eq!(a.stale, 2);
        let s = a.to_string();
        assert!(s.contains("8 received") && s.contains("1 skipped"), "{s}");
    }
}
