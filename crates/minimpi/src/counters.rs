//! The one counter table: every statistic a universe keeps, a [`Slot`] per
//! rank. Each rank adds only to its own slot, so a count is an uncontended
//! add whether or not a trace is recording, and no universe sees another's
//! counts. [`crate::Comm::counters`] sums the slots, and a traced universe
//! adds the same sums to the ddrtrace registry under [`NAMES`]: a test and a
//! trace read one number under one name.

use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every counter a rank keeps; the discriminant indexes the name table and the
/// slot. The sender counts its deposits, the lender its revoked loans, every
/// waiter its waits, and the copying rank its exchange copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `alltoallw` messages lent zero-copy (a withheld loan is not counted).
    ZerocopyMsgs,
    /// Messages that carried owned bytes: eager sends, other collectives.
    StagedMsgs,
    /// Loans revoked, or refused by their receiver, instead of copied.
    RevokedMsgs,
    /// Blocking waits whose object was there on the first check.
    WaitImmediate,
    /// Blocking waits resolved while spinning: no sleep, no wake-up.
    WaitSpinHits,
    /// Blocking waits that slept on their condvar at least once.
    WaitParks,
    /// Exchange copies of one run into one run.
    PackFusedRuns,
    /// Exchange bytes moved by the 64-byte run loop.
    PackVectorBytes,
    /// Exchange bytes moved by one runtime-length copy per run: every other
    /// width, and a copy strided on both sides.
    PackScalarBytes,
}

const N: usize = 9;

/// Registry scope and name of each counter, in [`Counter`] order.
/// `benchmark/` and `ddr-trace` read several of these rows by name.
pub(crate) const NAMES: [(&str, &str); N] = [
    ("minimpi.transport", "zerocopy_msgs"),
    ("minimpi.transport", "staged_msgs"),
    ("minimpi.transport", "revoked_msgs"),
    ("wait", "immediate"),
    ("wait", "spin_hits"),
    ("wait", "parks"),
    ("pack", "fused_runs"),
    ("pack", "vector_bytes"),
    ("pack", "scalar_bytes"),
];

/// One rank's counters. Aligned to two cache lines, the unit adjacent-line
/// prefetch moves, so no two ranks' slots share one.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct Slot([AtomicU64; N]);

impl Slot {
    /// Add `n` to counter `c`. Statistics only, hence `Relaxed`.
    pub fn add(&self, c: Counter, n: u64) {
        self.0[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }
}

/// A universe's counters so far, summed over its ranks. Index it with a
/// [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts(pub(crate) [u64; N]);

impl Counts {
    pub(crate) fn sum(slots: &[Slot]) -> Counts {
        Counts(std::array::from_fn(|i| slots.iter().map(|s| s.0[i].load(Ordering::Relaxed)).sum()))
    }
}

impl Index<Counter> for Counts {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `benchmark/capture.rs` and `ddr-trace` look these rows up by string,
    /// and traces already written carry them: a rename would turn their
    /// columns null without an error.
    #[test]
    fn names_are_the_registry_rows_readers_look_up() {
        let names: Vec<String> = NAMES.iter().map(|(s, n)| format!("{s}.{n}")).collect();
        assert_eq!(
            names,
            [
                "minimpi.transport.zerocopy_msgs",
                "minimpi.transport.staged_msgs",
                "minimpi.transport.revoked_msgs",
                "wait.immediate",
                "wait.spin_hits",
                "wait.parks",
                "pack.fused_runs",
                "pack.vector_bytes",
                "pack.scalar_bytes",
            ]
        );
        assert_eq!(NAMES[Counter::PackScalarBytes as usize].1, "scalar_bytes");
    }

    #[test]
    fn counts_sum_the_ranks() {
        let slots = [Slot::default(), Slot::default()];
        slots[0].add(Counter::RevokedMsgs, 2);
        slots[1].add(Counter::RevokedMsgs, 3);
        slots[0].add(Counter::PackScalarBytes, 700);
        slots[1].add(Counter::PackScalarBytes, 800);
        let counts = Counts::sum(&slots);
        assert_eq!((counts[Counter::RevokedMsgs], counts[Counter::PackScalarBytes]), (5, 1500));
        assert_eq!(counts[Counter::ZerocopyMsgs], 0);
    }
}
