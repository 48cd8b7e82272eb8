//! Deterministic schedule exploration: run a closure under a sweep of
//! scheduler seeds and report the first seed that makes it fail.
//!
//! minimpi's seeded scheduler (see [`minimpi::UniverseBuilder::sched_seed`])
//! perturbs every wait/poll point as a pure function of `(seed, rank, op
//! count)`, so one seed is one reproducible schedule. The explorer sweeps
//! seeds `1..=budget`, catches panics and errors, and stops at the first
//! violation — printing the seed so the exact failing schedule can be
//! replayed with `DDR_SCHED_SEED=<seed>` (or `.sched_seed(seed)`). A clean
//! sweep runs the whole budget: seeds differ in timing, not in which message
//! a receive gets, so no seed can be skipped as already seen.
//!
//! ```no_run
//! use minimpi::Universe;
//!
//! let report = ddrcheck::explore::explore(64, |seed| {
//!     // `try_run` reports the cause, not a peer's `PeerDead` fallout from it.
//!     let out = Universe::builder().check(true).sched_seed(seed).try_run(2, |c| c.barrier());
//!     out.map(|_| ()).map_err(|e| e.to_string())
//! });
//! assert!(report.passed(), "{}", ddrcheck::explore::render_explore_report("barrier", &report));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

/// First failure found by a sweep: which seed, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreFailure {
    /// The scheduler seed that produced the violation. Replay with
    /// `DDR_SCHED_SEED=<seed>` or `UniverseBuilder::sched_seed(seed)`.
    pub seed: u64,
    /// The error message (or panic payload) of the failing run.
    pub message: String,
}

/// Outcome of a seed sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Seeds run: the whole budget unless a failure ended the sweep.
    pub seeds_run: u64,
    /// The first violating seed, if any.
    pub failure: Option<ExploreFailure>,
}

impl ExploreReport {
    /// True when every explored schedule ran clean.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Seed budget for explorer-driven suites: `DDR_SCHED_SEEDS`, default 64.
pub fn default_seed_budget() -> u64 {
    std::env::var("DDR_SCHED_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

/// Run `f` under seeds `1..=seeds` and report the first failure.
///
/// The closure receives the seed and must thread it into every universe it
/// launches (`Universe::builder().sched_seed(seed)`); it reports a violation
/// by returning `Err` or panicking — both are caught and recorded with the
/// seed. Each seed run adds 1 to the `check.schedules_explored` metric
/// (visible in `ddr-trace report` when tracing is on).
pub fn explore(seeds: u64, f: impl Fn(u64) -> Result<(), String>) -> ExploreReport {
    for seed in 1..=seeds {
        ddrtrace::metrics::add("check", "schedules_explored", 1);
        let message = match catch_unwind(AssertUnwindSafe(|| f(seed))) {
            Ok(Ok(())) => continue,
            Ok(Err(msg)) => msg,
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked with a non-string payload".into()),
        };
        return ExploreReport { seeds_run: seed, failure: Some(ExploreFailure { seed, message }) };
    }
    ExploreReport { seeds_run: seeds, failure: None }
}

/// Render a sweep's outcome for humans: one line for a clean sweep, and for
/// a failure the seed, the replay instruction, and the violation.
pub fn render_explore_report(name: &str, report: &ExploreReport) -> String {
    match &report.failure {
        None => format!("{name}: ok — {} seed(s)", report.seeds_run),
        Some(f) => format!(
            "{name}: FAILED at seed {s}\n  replay with DDR_SCHED_SEED={s}\n  {m}",
            s = f.seed,
            m = f.message
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// `explore` writes the process-global metrics registry whenever a trace
    /// capture is open, so every test that sweeps holds this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn clean_closure_passes_all_seeds() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let report = explore(5, |_seed| Ok(()));
        assert!(report.passed());
        assert_eq!(report.seeds_run, 5);
    }

    /// One seed is one explored schedule: the universe the closure runs does
    /// not count itself a second time.
    #[test]
    fn schedules_explored_counts_each_seed_once() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        ddrtrace::capture::start();
        let report = explore(3, |seed| {
            let out =
                minimpi::Universe::builder().sched_seed(seed).try_run(2, |comm| comm.barrier());
            out.map(|_| ()).map_err(|e| e.to_string())
        });
        let trace = ddrtrace::capture::stop();
        assert!(report.passed(), "{}", render_explore_report("barrier", &report));
        let explored = trace.metrics.iter().find(|(k, _)| k == "check.schedules_explored");
        assert_eq!(explored.map(|(_, v)| *v), Some(3));
    }

    #[test]
    fn first_failing_seed_is_reported_and_stops_the_sweep() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let report = explore(64, |seed| if seed == 3 { Err("boom".into()) } else { Ok(()) });
        let failure = report.failure.clone().unwrap();
        assert_eq!(failure.seed, 3);
        assert_eq!(failure.message, "boom");
        assert_eq!(report.seeds_run, 3);
        let rendered = render_explore_report("case", &report);
        assert!(rendered.contains("DDR_SCHED_SEED=3"), "got: {rendered}");
    }

    #[test]
    fn panics_are_caught_with_their_message() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let report = explore(8, |seed| {
            if seed == 2 {
                panic!("planted panic at seed {seed}");
            }
            Ok(())
        });
        let failure = report.failure.unwrap();
        assert_eq!(failure.seed, 2);
        assert!(failure.message.contains("planted panic"), "got: {}", failure.message);
    }

    #[test]
    fn budget_env_parses_with_default() {
        // Only exercise the default path: mutating the environment would
        // race parallel tests.
        assert!(default_seed_budget() >= 1);
    }
}
