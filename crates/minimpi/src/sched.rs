//! Seeded schedule perturbation for deterministic interleaving exploration.
//!
//! The OS scheduler picks one interleaving per test run; bugs that need a
//! different one survive indefinitely. When a schedule seed is set
//! ([`crate::UniverseBuilder::sched_seed`] or `DDR_SCHED_SEED`), every
//! wait/poll point in the runtime — mailbox sends and receives, zero-copy
//! lend/claim/drain handshakes, the reconfigure rendezvous, and the two
//! halves of an `alltoallw` (post, wait) — calls [`SchedState::perturb`],
//! which deterministically decides from `(seed, rank, per-rank op count, point name)` whether to do
//! nothing, yield, or sleep briefly. That shifts the relative timing of
//! ranks without changing any program semantics, so a sweep over seeds (see
//! `ddrcheck`'s explorer) drives the same program through many distinct
//! interleavings, and any failure replays by re-running with the printed
//! seed.
//!
//! When no seed is set the scheduler is absent (`Option::None`) and every
//! hook is a single branch.
//!
//! Every receive names its source, so a rank's delivery order is fixed by
//! program order: a seed varies timing, not which message a receive gets,
//! and no two seeds can be told apart as "the same schedule" in advance.

use crate::fault::mix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-universe scheduler state, present in [`crate::comm::WorldState`] only
/// when a schedule seed is set.
pub(crate) struct SchedState {
    seed: u64,
    /// Per-rank perturbation-point counters (how many hooks this rank hit).
    ops: Vec<AtomicU64>,
}

/// FNV-1a over a point name, so distinct hook sites perturb independently
/// even at the same op count.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl SchedState {
    pub fn new(seed: u64, n: usize) -> Self {
        SchedState { seed, ops: (0..n).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Maybe delay `rank` at hook site `point`. The decision is a pure
    /// function of the seed, the rank, the rank's running op count, and the
    /// point name — deterministic for a fixed thread schedule, which is what
    /// makes a failing seed replayable. Distribution per call: 11/16 nothing,
    /// 2/16 yield, 1/16 short sleep (≤ 50 µs), 2/16 adversarial sleep
    /// (100–500 µs) — long enough to push a peer through the window the
    /// current rank would otherwise close first.
    pub fn perturb(&self, rank: usize, point: &'static str) {
        let n = self.ops[rank].fetch_add(1, Ordering::Relaxed);
        let h = mix64(
            mix64(self.seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                ^ mix64(n)
                ^ fnv(point),
        );
        match h % 16 {
            0..=10 => {}
            11 | 12 => std::thread::yield_now(),
            13 => std::thread::sleep(Duration::from_micros((h >> 8) % 50)),
            _ => std::thread::sleep(Duration::from_micros(100 + (h >> 8) % 400)),
        }
    }
}

/// `DDR_SCHED_SEED` supplies a schedule seed when the builder did not.
pub(crate) fn sched_seed_env_default() -> Option<u64> {
    crate::env::u64_var("DDR_SCHED_SEED")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturb_is_deterministic_per_seed() {
        // Same seed → same op-count stream → same decisions; we can't observe
        // sleeps directly, so check the op counters the hash is keyed on.
        let a = SchedState::new(7, 2);
        let b = SchedState::new(7, 2);
        for _ in 0..100 {
            a.perturb(0, "send");
            b.perturb(0, "send");
        }
        assert_eq!(a.ops[0].load(Ordering::Relaxed), b.ops[0].load(Ordering::Relaxed));
    }
}
