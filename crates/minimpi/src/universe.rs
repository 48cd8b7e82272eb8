//! Launching a set of ranks.

use crate::comm::{default_timeout, Comm, WorldState};
use crate::counters::{Counts, NAMES};
use crate::error::{Error, Result};
use crate::fault::FaultPlan;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Entry point: runs an "MPI job" as `n` rank-threads inside this process.
pub struct Universe;

/// Stack size given to rank threads. Simulation kernels keep their state on
/// the heap, but deep recursion in user closures should still have room.
const RANK_STACK_BYTES: usize = 8 * 1024 * 1024;

/// Configures a universe before launch: watchdog timeout and an optional
/// deterministic [`FaultPlan`].
///
/// ```
/// use minimpi::Universe;
/// use std::time::Duration;
///
/// let sums = Universe::builder()
///     .timeout(Duration::from_secs(10))
///     .run(4, |comm| comm.allreduce(&[comm.rank() as u64], |a, b| a + b).unwrap()[0]);
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UniverseBuilder {
    timeout: Option<Duration>,
    fault_plan: Option<FaultPlan>,
    trace: Option<PathBuf>,
    flow: Option<(usize, usize)>,
}

impl UniverseBuilder {
    /// Watchdog timeout applied to every blocking receive. Defaults to
    /// `DDR_TIMEOUT_MS` (ms), else 120 s.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Install a deterministic fault plan, replayed identically every run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Resize every `(sender, receiver)` pair's mailbox bound: at most
    /// `msgs` messages and `bytes` staged payload bytes queued per pair
    /// (default 1024 messages, 32 MiB; `0` lifts the respective bound). A
    /// sender whose pair is full parks until the receiver pops (or a
    /// [`crate::Comm::shrink`] discards) enough envelopes. A single message larger than the
    /// byte bound is still admitted when the pair is empty (stop-and-wait),
    /// so oversize transfers degrade instead of erroring. The defaults are
    /// out of reach of DDR traffic; this setter exists for the suites that
    /// must reach the bound.
    pub fn flow_control(mut self, msgs: usize, bytes: usize) -> Self {
        self.flow = Some((msgs, bytes));
        self
    }

    /// Capture a trace of this universe run and write it to `path` as
    /// Chrome trace-event JSON (loadable in Perfetto). Equivalent to setting
    /// `DDR_TRACE=<path>`; the builder takes precedence. When tracing is off,
    /// the instrumentation compiles down to one relaxed atomic load per site.
    ///
    /// If a [`ddrtrace::capture`] window is already active (e.g. a bench
    /// harness tracing across several universes), this run contributes its
    /// events to that window instead of writing its own file.
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Run `f` on `n` ranks, each on its own thread with a world [`Comm`].
    /// Returns the per-rank results in rank order.
    ///
    /// When a rank's closure returns or panics, the rank is marked dead in
    /// the liveness registry, so peers still blocked on it fail fast with
    /// [`crate::Error::PeerDead`] rather than waiting out the watchdog.
    /// A panic on any rank propagates to the caller after all ranks joined.
    ///
    /// # Panics
    /// Panics if `n == 0` or if a rank thread cannot be spawned.
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        assert!(n > 0, "Universe::run requires at least one rank");
        let timeout = self.timeout.unwrap_or_else(default_timeout);
        let world = Arc::new(WorldState::new(
            n,
            timeout,
            self.fault_plan.clone(),
            self.flow.unwrap_or((crate::mailbox::PAIR_MSGS, crate::mailbox::PAIR_BYTES)),
        ));
        // Tracing: the builder's path wins over `DDR_TRACE`. If a capture
        // window is already open (a bench tracing across several universes),
        // this run only contributes events — the window's owner writes them.
        let trace_path =
            self.trace.clone().or_else(|| crate::env::path_var("DDR_TRACE").map(PathBuf::from));
        let own_capture = trace_path.is_some() && !ddrtrace::capture::active();
        if own_capture {
            ddrtrace::capture::start();
        }
        // Rank tracks are pinned at their rank number; auto-assigned tracks
        // (main thread, copy workers) start at AUTO_TRACK_BASE. A world big
        // enough for the two ranges to overlap would silently merge
        // unrelated threads onto one track, so refuse it loudly.
        if ddrtrace::enabled() {
            assert!(
                n <= ddrtrace::AUTO_TRACK_BASE as usize,
                "tracing supports at most {} ranks per universe: rank {} would collide \
                 with auto-assigned helper-thread tracks",
                ddrtrace::AUTO_TRACK_BASE,
                n - 1,
            );
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let world = Arc::clone(&world);
                let f = &f;
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(RANK_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        ddrtrace::set_track(rank as u32, &format!("rank-{rank}"));
                        let _body = ddrtrace::span("rank", "rank_body");
                        let comm = Comm::world_comm(Arc::clone(&world), rank);
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        world.mark_dead(rank);
                        match out {
                            Ok(v) => v,
                            Err(payload) => std::panic::resume_unwind(payload),
                        }
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            // Collect every rank's outcome before re-raising any panic, so
            // the trace below is written either way.
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            if ddrtrace::enabled() {
                record_world_metrics(&world);
            }
            if own_capture {
                let trace = ddrtrace::capture::stop();
                if let Some(path) = &trace_path {
                    match trace.write_chrome(path) {
                        Ok(()) => eprintln!(
                            "minimpi: wrote trace ({} events, {} tracks) to {}\n{}",
                            trace.events.len(),
                            trace.tracks.len(),
                            path.display(),
                            trace.summary()
                        ),
                        Err(e) => {
                            eprintln!("minimpi: failed to write trace to {}: {e}", path.display())
                        }
                    }
                }
            }
            outcomes
                .into_iter()
                .map(|o| o.unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    }

    /// Like [`UniverseBuilder::run`] but for fallible rank bodies: returns
    /// all results or the error that explains the failure
    /// ([`Error::root_cause`]), not a peer's [`Error::PeerDead`] fallout.
    pub fn try_run<R, F>(&self, n: usize, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&Comm) -> Result<R> + Sync,
    {
        Error::root_cause(self.run(n, f))
    }
}

/// Add this world's counter table, summed over its ranks, to the metrics
/// registry, one row per counter. Within one capture window the rows
/// accumulate across universes; each window reports only its own.
fn record_world_metrics(world: &WorldState) {
    let counts = Counts::sum(&world.counters);
    for ((scope, name, _), value) in NAMES.iter().zip(counts.0) {
        ddrtrace::metrics::add(scope, name, value);
    }
}

impl Universe {
    /// Configure timeout and fault injection before launching.
    pub fn builder() -> UniverseBuilder {
        UniverseBuilder::default()
    }

    /// Run `f` on `n` ranks with default configuration. See
    /// [`UniverseBuilder::run`].
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Sync,
    {
        Self::builder().run(n, f)
    }

    /// Like [`Universe::run`] but for fallible rank bodies. See
    /// [`UniverseBuilder::try_run`].
    pub fn try_run<R, F>(n: usize, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&Comm) -> Result<R> + Sync,
    {
        Self::builder().try_run(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_ranks_and_orders_results() {
        let out = Universe::run(5, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_world() {
        let out = Universe::run(1, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn try_run_propagates_errors() {
        let boom = Error::Internal { detail: "boom".into() };
        let r =
            Universe::try_run(3, |comm| if comm.rank() == 1 { Err(boom.clone()) } else { Ok(()) });
        assert_eq!(r, Err(boom));
        assert_eq!(Universe::try_run(2, |comm| Ok(comm.rank())), Ok(vec![0, 1]));
    }

    #[test]
    fn try_run_reports_the_cause_not_the_peer_dead_fallout() {
        // Rank 0 hands rank 1 a message and blocks receiving the reply; rank
        // 1 fails instead of replying, so rank 0 fails with PeerDead. Rank
        // order alone would report rank 0's fallout.
        let r = Universe::try_run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 0, b"go")?;
                comm.recv_bytes(1, 1).map(|_| ())
            } else {
                comm.recv_bytes(0, 0)?;
                comm.send_bytes(2, 1, b"reply")
            }
        });
        assert_eq!(r, Err(Error::RankOutOfRange { rank: 2, size: 2 }));
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = Universe::run(0, |_| ());
    }

    #[test]
    fn builder_timeout_is_applied() {
        let out =
            Universe::builder().timeout(Duration::from_millis(1234)).run(1, |comm| comm.timeout());
        assert_eq!(out, vec![Duration::from_millis(1234)]);
    }

    #[test]
    fn departed_rank_fails_peers_fast() {
        use std::time::Instant;
        // Rank 1 exits immediately; rank 0 blocks on a receive from it and
        // must fail with PeerDead well before the 30 s watchdog.
        let start = Instant::now();
        let out = Universe::builder().timeout(Duration::from_secs(30)).run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_bytes(1, 0).map(|_| ())
            } else {
                Ok(())
            }
        });
        assert_eq!(out[0], Err(crate::Error::PeerDead { rank: 1 }));
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
