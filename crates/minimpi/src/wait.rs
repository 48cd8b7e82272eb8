//! The data path's one wait discipline: *check, spin for about one wake-up's
//! worth, then park*. [`crate::mailbox::Mailbox`] (receivers) and
//! [`crate::zerocopy::ZcCell`] (lenders) both wait this way;
//! this module holds what they share — the budget, the rule that decides
//! whether a universe spins at all, the spin itself, and the [`Waiter`]
//! that carries the policy and the slot each wait's resolution is tallied in.

use crate::counters::Slot;
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

/// One waiting rank's policy, and the slot it tallies each wait's
/// resolution in: `wait.immediate` (what it waited for was already there on
/// the first check), `wait.spin_hits` (it arrived during the spin) or
/// `wait.parks` (the waiter slept at least once). The policy is a value
/// handed to whoever waits, not a global, so a test can drive both sides of
/// it.
#[derive(Clone, Copy)]
pub(crate) struct Waiter<'a> {
    /// Spin this long before parking; zero parks at once.
    pub spin: Duration,
    /// The waiting rank's own counter slot.
    pub tally: &'a Slot,
}
