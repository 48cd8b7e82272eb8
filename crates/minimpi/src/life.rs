//! Rank liveness tracking.
//!
//! Every world rank has a liveness flag. A rank is marked dead when a
//! [`crate::FaultPlan`] kill fires, when its closure panics, or when it
//! returns while peers are still running. Marking a rank dead interrupts
//! every mailbox so blocked receivers re-check their abort conditions and
//! fail fast with [`crate::Error::PeerDead`] instead of waiting out the
//! watchdog.

use std::sync::atomic::{AtomicBool, Ordering};

/// Per-world-rank liveness: one alive flag per rank, which only ever goes
/// from alive to dead.
pub(crate) struct Liveness {
    alive: Vec<AtomicBool>,
}

impl Liveness {
    pub fn new(n: usize) -> Self {
        Liveness { alive: (0..n).map(|_| AtomicBool::new(true)).collect() }
    }

    pub fn is_alive(&self, world_rank: usize) -> bool {
        self.alive[world_rank].load(Ordering::Acquire)
    }

    /// Mark the rank dead. Returns `true` if this call performed the
    /// transition (idempotent).
    pub fn mark_dead(&self, world_rank: usize) -> bool {
        self.alive[world_rank].swap(false, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_dead_is_idempotent() {
        let l = Liveness::new(2);
        assert!(l.is_alive(1));
        assert!(l.mark_dead(1));
        assert!(!l.mark_dead(1));
        assert!(!l.is_alive(1));
        assert!(l.is_alive(0));
    }
}
