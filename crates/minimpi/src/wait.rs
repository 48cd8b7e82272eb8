//! The data path's one wait discipline: *check, spin for about one wake-up's
//! worth, then park*. [`crate::mailbox::Mailbox`] (receivers and parked
//! senders) and [`crate::zerocopy::ZcCell`] (lenders) both wait this way;
//! this module holds what they share — the budget, the rule that decides
//! whether a universe spins at all, the spin itself, and the per-rank
//! [`Waiter`] that carries the policy and tallies how each wait resolved.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a blocked rank spins before it parks: about what a park + wake
/// costs, so a wait never burns more CPU than the sleep it avoids would have
/// taken. The measurement that sized it is in DESIGN.md ("Waiting: check,
/// spin, park"). A constant, not a knob: only a different wake-up cost
/// should change it, and [`spin_budget`] already turns it off where spinning
/// cannot help.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// The spin budget of a universe of `ranks` rank threads: [`SPIN_BUDGET`]
/// when every rank can have a core to itself, zero — park at once, exactly
/// the pre-spin behaviour — when ranks outnumber cores, where a spinner
/// would only hold the core its peer needs to make progress.
pub(crate) fn spin_budget(ranks: usize) -> Duration {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if ranks <= cores {
        SPIN_BUDGET
    } else {
        Duration::ZERO
    }
}

/// Spin until `hit()` holds or `until` passes.
pub(crate) fn spin_until(until: Instant, hit: impl Fn() -> bool) {
    while !hit() && Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// How a blocking wait ended up resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolved {
    /// What it waited for was already there on the first check.
    Immediate = 0,
    /// It arrived while the waiter was spinning: no sleep, no wake-up.
    SpinHit = 1,
    /// The waiter slept on its condvar at least once.
    Park = 2,
}

/// One rank's wait policy and the tally of how its waits resolved. The
/// policy is a value handed to whoever waits, not a global, so a test can
/// drive both sides of it.
///
/// The tally is statistics only (hence `Relaxed`), surfaced as
/// `wait.{immediate,spin_hits,parks}` in the trace's metrics registry when a
/// traced universe ends.
#[derive(Debug, Default)]
pub(crate) struct Waiter {
    /// Spin this long before parking; zero (the `Default`) parks at once.
    pub spin: Duration,
    resolved: [AtomicU64; 3],
}

impl Waiter {
    pub fn new(spin: Duration) -> Self {
        Waiter { spin, ..Default::default() }
    }

    pub fn note(&self, how: Resolved) {
        self.resolved[how as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self, how: Resolved) -> u64 {
        self.resolved[how as usize].load(Ordering::Relaxed)
    }
}
