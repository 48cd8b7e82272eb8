//! Deterministic schedule exploration: run a closure under a sweep of
//! scheduler seeds and report the first seed that makes it fail.
//!
//! minimpi's seeded scheduler (see [`minimpi::UniverseBuilder::sched_seed`])
//! perturbs every wait/poll point as a pure function of `(seed, rank, op
//! count)`, so one seed is one reproducible schedule. The explorer sweeps
//! seeds `1..=budget`, catches panics and errors, and stops at the first
//! violation — printing the seed so the exact failing schedule can be
//! replayed with `DDR_SCHED_SEED=<seed>` (or `.sched_seed(seed)`).
//!
//! Schedules are pruned sleep-set-style: each universe run folds the
//! per-rank delivery orders it observed into a seed-independent fingerprint
//! ([`minimpi::take_last_fingerprint`]). Two seeds with the same fingerprint
//! delivered every message in the same order to every rank — running the
//! second one cannot observe anything new — so after
//! [`STALE_SEEDS_BEFORE_STOP`] consecutive already-seen fingerprints the
//! sweep stops early.
//!
//! ```no_run
//! use minimpi::{Error, Universe};
//!
//! let report = ddrcheck::explore::explore(64, |seed| {
//!     let out = Universe::builder().check(true).sched_seed(seed).run(2, |comm| comm.barrier());
//!     // The cause, not a peer's `PeerDead` fallout from it.
//!     Error::root_cause(out).map(|_| ()).map_err(|e| e.to_string())
//! });
//! assert!(report.passed(), "{}", ddrcheck::explore::render_explore_report("barrier", &report));
//! ```

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Consecutive seeds whose schedule fingerprint was already seen before the
/// sweep stops early. High enough that a couple of coincidentally equivalent
/// schedules don't end the sweep, low enough that a test whose schedule
/// space is exhausted (e.g. two ranks with one message) doesn't burn the
/// whole budget re-running it.
pub const STALE_SEEDS_BEFORE_STOP: u64 = 8;

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
    /// Seeds actually run (≤ the budget when pruning stopped the sweep
    /// early or a failure ended it).
    pub seeds_run: u64,
    /// Distinct schedule fingerprints observed (0 when the closure never
    /// ran a seeded universe, so no fingerprints were published).
    pub distinct_schedules: u64,
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
/// seed. Each seed's count is also added to the `check.schedules_explored`
/// metric (visible in `ddr-trace report` when tracing is on).
pub fn explore(seeds: u64, f: impl Fn(u64) -> Result<(), String>) -> ExploreReport {
    let mut fingerprints: HashSet<u64> = HashSet::new();
    let mut stale = 0u64;
    let mut seeds_run = 0u64;
    let mut failure = None;
    for seed in 1..=seeds {
        // Drop a stale fingerprint from an earlier (non-explorer) run so it
        // cannot be misattributed to this seed.
        let _ = minimpi::take_last_fingerprint();
        seeds_run += 1;
        ddrtrace::metrics::add("check", "schedules_explored", 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| f(seed)));
        let err = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some(msg),
            Err(payload) => Some(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panicked with a non-string payload".into()),
            ),
        };
        if let Some(message) = err {
            failure = Some(ExploreFailure { seed, message });
            break;
        }
        match minimpi::take_last_fingerprint() {
            // No fingerprint published: the closure ran no seeded universe,
            // so there is no equivalence signal to prune on — keep sweeping.
            None => stale = 0,
            Some(fp) => {
                if fingerprints.insert(fp) {
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= STALE_SEEDS_BEFORE_STOP {
                        break;
                    }
                }
            }
        }
    }
    ExploreReport { seeds_run, distinct_schedules: fingerprints.len() as u64, failure }
}

/// Render a sweep's outcome for humans: one line for a clean sweep, and for
/// a failure the seed, the replay instruction, and the violation.
pub fn render_explore_report(name: &str, report: &ExploreReport) -> String {
    match &report.failure {
        None => format!(
            "{name}: ok — {} seed(s), {} distinct schedule(s)",
            report.seeds_run, report.distinct_schedules
        ),
        Some(f) => format!(
            "{name}: FAILED at seed {} (after {} seed(s), {} distinct schedule(s))\n  \
             replay with DDR_SCHED_SEED={}\n  {}",
            f.seed, report.seeds_run, report.distinct_schedules, f.seed, f.message
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_closure_passes_all_seeds() {
        let report = explore(5, |_seed| Ok(()));
        assert!(report.passed());
        assert_eq!(report.seeds_run, 5);
        assert_eq!(report.distinct_schedules, 0);
    }

    #[test]
    fn first_failing_seed_is_reported_and_stops_the_sweep() {
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
