//! Rank liveness tracking and the shrink consensus barrier.
//!
//! Every world rank has a liveness flag. A rank is marked dead when a
//! [`crate::FaultPlan`] kill fires, when its closure panics, or when it
//! returns while peers are still running. Marking a rank dead interrupts
//! every mailbox so blocked receivers re-check their abort conditions and
//! fail fast with [`crate::Error::PeerDead`] instead of waiting out the
//! watchdog.
//!
//! [`ShrinkBarrier`] implements the agreement step of `Comm::shrink()`: all
//! *surviving* members of a communicator rendezvous (keyed by communicator
//! id and per-handle shrink generation) and agree on the ordered survivor
//! list. Completion is re-evaluated whenever a rank dies, so survivors are
//! never stuck waiting for a casualty to arrive.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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

/// Key for one shrink round: (communicator id, per-communicator generation).
type ShrinkKey = (u64, u64);

struct PendingShrink {
    /// Parent communicator members (world ranks, parent rank order).
    members: Vec<usize>,
    /// World ranks that have entered this round.
    entered: Vec<usize>,
}

#[derive(Default)]
struct BarrierState {
    pending: HashMap<ShrinkKey, PendingShrink>,
    /// Completed rounds: ordered survivor world-rank lists. Kept for the
    /// lifetime of the universe — shrink rounds are rare and small.
    done: HashMap<ShrinkKey, Arc<Vec<usize>>>,
}

/// Rendezvous used by `Comm::shrink`. See module docs.
#[derive(Default)]
pub(crate) struct ShrinkBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl ShrinkBarrier {
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enter the shrink round `key` as `world_rank`, a member of `members`.
    /// Blocks until every *alive* member has entered, then returns the
    /// ordered survivor list (identical Arc on every member). Returns `None`
    /// on timeout.
    pub fn enter(
        &self,
        key: ShrinkKey,
        members: &[usize],
        world_rank: usize,
        liveness: &Liveness,
        timeout: Duration,
    ) -> Option<Arc<Vec<usize>>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        if !st.done.contains_key(&key) {
            let p = st.pending.entry(key).or_insert_with(|| PendingShrink {
                members: members.to_vec(),
                entered: Vec::new(),
            });
            if !p.entered.contains(&world_rank) {
                p.entered.push(world_rank);
            }
            Self::try_complete(&mut st, key, liveness);
            self.cv.notify_all();
        }
        loop {
            if let Some(survivors) = st.done.get(&key) {
                return Some(Arc::clone(survivors));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) =
                self.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Re-evaluate every pending round after a death (a round completes once
    /// all still-alive members have entered — which a death can trigger).
    pub fn on_death(&self, liveness: &Liveness) {
        let mut st = self.lock();
        let keys: Vec<ShrinkKey> = st.pending.keys().copied().collect();
        for key in keys {
            Self::try_complete(&mut st, key, liveness);
        }
        self.cv.notify_all();
    }

    fn try_complete(st: &mut BarrierState, key: ShrinkKey, liveness: &Liveness) {
        let Some(p) = st.pending.get(&key) else { return };
        let complete = p.members.iter().all(|&w| !liveness.is_alive(w) || p.entered.contains(&w));
        if complete {
            let p = st.pending.remove(&key).expect("checked above");
            let survivors: Vec<usize> =
                p.members.into_iter().filter(|&w| liveness.is_alive(w)).collect();
            st.done.insert(key, Arc::new(survivors));
        }
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

    #[test]
    fn shrink_completes_when_survivors_enter() {
        let l = Arc::new(Liveness::new(3));
        l.mark_dead(1);
        let b = Arc::new(ShrinkBarrier::default());
        let members = vec![0, 1, 2];
        let (b2, l2, m2) = (Arc::clone(&b), Arc::clone(&l), members.clone());
        let h = std::thread::spawn(move || b2.enter((7, 0), &m2, 2, &l2, Duration::from_secs(5)));
        let s0 = b.enter((7, 0), &members, 0, &l, Duration::from_secs(5)).unwrap();
        let s2 = h.join().unwrap().unwrap();
        assert_eq!(*s0, vec![0, 2]);
        assert_eq!(s0, s2);
    }

    #[test]
    fn death_after_entering_unblocks_round() {
        let l = Arc::new(Liveness::new(2));
        let b = Arc::new(ShrinkBarrier::default());
        let members = vec![0, 1];
        let (b2, l2, m2) = (Arc::clone(&b), Arc::clone(&l), members.clone());
        let h = std::thread::spawn(move || b2.enter((1, 0), &m2, 0, &l2, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        // Rank 1 dies without ever entering; rank 0's round must complete.
        l.mark_dead(1);
        b.on_death(&l);
        assert_eq!(*h.join().unwrap().unwrap(), vec![0]);
    }

    #[test]
    fn timeout_when_peer_never_arrives() {
        let l = Liveness::new(2);
        let b = ShrinkBarrier::default();
        assert!(b.enter((0, 0), &[0, 1], 0, &l, Duration::from_millis(30)).is_none());
    }
}
