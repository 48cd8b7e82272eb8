//! The zero-copy data-movement plane.
//!
//! minimpi ranks are threads in one address space, so a non-contiguous
//! message does not need MPI's pack → send → unpack staging: the *receiver*
//! can copy each part of the message straight out of the sender's source
//! buffers into its own destination buffer, with zero intermediate
//! allocations. [`ZcCell`] / [`ZcHandle`] make that safe: a rendezvous
//! protocol for lending borrowed send buffers across threads. The sender
//! deposits a handle (pointers to its own buffer table and `(buffer index,
//! datatype)` part list, both borrowed like the buffers, and a completion
//! cell) and **blocks at the end of the collective** until the loan was
//! either copied (`Done`) or provably never will be (`Revoked`). The
//! receiver must *claim* the loan before it reads anything through the
//! handle, the part list included, so a sender that gives up (peer death,
//! watchdog) can revoke safely: either the claim wins and the sender waits
//! out the (bounded) memcpy, or the revoke wins and the receiver never
//! dereferences a pointer. A claimed loan whose parts do not pair with the
//! receiver's is refused uncopied, which the sender also reads as `Revoked`.
//!
//! The copy itself always runs on the claiming rank's own thread, part by
//! part (`datatype::copy_selection`): one thread per rank moves that rank's
//! bytes. Every `alltoallw` message loans, whatever its size or number of
//! parts, and fault rules (drop, delay) act on the loan itself. The staged
//! arm a loan replaced, and the per-size measurement that retired it, are in
//! the README's zero-copy section.

use crate::counters::Counter;
use crate::datatype::Datatype;
use crate::wait::{spin_until, Waiter};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Rendezvous cells
// ---------------------------------------------------------------------------

const PENDING: u8 = 0;
const COPYING: u8 = 1;
const DONE: u8 = 2;
const REVOKED: u8 = 3;

/// Completion state of one loan, shared between the sending and receiving
/// rank. State machine: `Pending → Copying → Done` (receiver copies),
/// `Pending → Copying → Revoked` (receiver refuses what it claimed) or
/// `Pending → Revoked` (sender giving up). The claim CAS makes the two
/// races — revoke-vs-claim and wait-vs-finish — well ordered.
#[derive(Debug, Default)]
pub(crate) struct ZcCell {
    state: AtomicU8,
    /// The lender is asleep on `cv`, or about to be under `lock`: only then
    /// does settling the loan take the lock and wake it.
    parked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Outcome of a sender's wait on a lent region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZcWait {
    /// The receiver copied the region.
    Done,
    /// The loan was revoked, or refused by the receiver that claimed it; the
    /// region was never (and will never be) copied.
    Revoked,
}

impl ZcCell {
    /// Receiver side: claim the region for copying. Returns `false` if the
    /// sender already revoked it (the payload is lost).
    pub fn try_claim(&self) -> bool {
        self.state.compare_exchange(PENDING, COPYING, Ordering::Acquire, Ordering::Acquire).is_ok()
    }

    /// Receiver side: mark the copy complete and wake the sender.
    pub fn finish(&self) {
        self.state.store(DONE, Ordering::SeqCst);
        self.wake();
    }

    /// Receiver side: give a claimed loan back uncopied; the sender reads `Revoked`.
    pub fn refuse(&self) {
        self.state.store(REVOKED, Ordering::SeqCst);
        self.wake();
    }

    /// Wake a parked lender after a terminal store. With both sides `SeqCst`
    /// either the lender's re-check sees the new state or this sees it
    /// parked; a lender that is spinning costs no lock and no futex call.
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) {
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Sender side: block until the region is copied, revoking the loan if
    /// `deadline` passes or `abort()` reports the receiver can no longer
    /// claim it. Never returns while the receiver might still dereference
    /// the lent pointer — that is the zero-copy soundness invariant.
    ///
    /// Check, spin, then park, under the lender's `waiter`: the spin watches
    /// `state` alone and takes no lock, so a copy that finishes inside the
    /// budget (never past `deadline`) costs the lender no sleep.
    pub fn wait(&self, waiter: Waiter, deadline: Instant, abort: impl Fn() -> bool) -> ZcWait {
        let spin_end = (Instant::now() + waiter.spin).min(deadline);
        let mut how = Counter::WaitImmediate;
        let outcome = loop {
            match self.state.load(Ordering::Acquire) {
                DONE => break ZcWait::Done,
                // A third party revoked the loan (the queued envelope was
                // discarded — shrink, aborted exchange, teardown), or the
                // receiver refused it.
                REVOKED => break ZcWait::Revoked,
                // Expired or aborted: revoke. Losing the CAS race means the
                // receiver just claimed it — its memcpy is in flight and
                // bounded, so fall through, loop, and wait for Done.
                PENDING
                    if (abort() || Instant::now() >= deadline)
                        && self
                            .state
                            .compare_exchange(PENDING, REVOKED, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok() =>
                {
                    break ZcWait::Revoked;
                }
                _ => {}
            }
            if Instant::now() < spin_end {
                how = Counter::WaitSpinHits;
                spin_until(spin_end, || self.is_terminal());
                continue;
            }
            how = Counter::WaitParks;
            let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.parked.store(true, Ordering::SeqCst);
            if !self.is_terminal() {
                // Re-check after announcing the park so a settle cannot slot
                // between the state load and the wait. Bounded wait keeps
                // the abort condition live even if no notification comes.
                let _ = self
                    .cv
                    .wait_timeout(guard, Duration::from_millis(25))
                    .unwrap_or_else(|e| e.into_inner());
            }
            self.parked.store(false, Ordering::SeqCst);
        };
        waiter.tally.add(how, 1);
        outcome
    }

    /// Third party (a discarded envelope): revoke the loan if it was never
    /// claimed, so its sender reads `Revoked` at once instead of waiting out
    /// the watchdog. A claimed loan is left alone.
    pub fn revoke_if_pending(&self) {
        let cas =
            self.state.compare_exchange(PENDING, REVOKED, Ordering::SeqCst, Ordering::Acquire);
        if cas.is_ok() {
            self.wake();
        }
    }

    /// Whether the loan reached a terminal state (`Done` or `Revoked`) — i.e.
    /// its sender is no longer (or never was) on the hook.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.load(Ordering::SeqCst), DONE | REVOKED)
    }
}

/// A loan travelling through a mailbox: the sender's buffer table and part
/// list, borrowed, not copied, and the completion cell the sender waits on.
pub(crate) struct ZcHandle {
    bufs: *const [&'static [u8]],
    parts: *const [(usize, Datatype)],
    /// Completion cell shared with the sender.
    pub cell: Arc<ZcCell>,
}

// SAFETY: the raw pointers cross threads by design: `ZcHandle::new`'s
// contract keeps what they point to alive, and the receiver reads it only
// between a successful try_claim() and finish() or refuse().
unsafe impl Send for ZcHandle {}

impl ZcHandle {
    /// Lend every `(buffer index, selection)` part of `parts`, each
    /// selecting from `bufs[index]`, reporting completion through `cell`.
    ///
    /// # Safety
    /// `bufs`, `parts` and every buffer in `bufs` must stay alive and
    /// unwritten until `cell` is `Done` or `Revoked` (the lender waits for
    /// that in [`ZcCell::wait`]), and every index in `parts` must be in
    /// `bufs`.
    pub unsafe fn new(bufs: &[&[u8]], parts: &[(usize, Datatype)], cell: Arc<ZcCell>) -> Self {
        let bufs = std::ptr::slice_from_raw_parts(bufs.as_ptr().cast(), bufs.len());
        ZcHandle { bufs, parts, cell }
    }

    /// The lent table: the sender's buffers and its parts, in message order.
    ///
    /// # Safety
    /// Callable only between a successful [`ZcCell::try_claim`] and the
    /// matching [`ZcCell::finish`] or [`ZcCell::refuse`] (the sender is
    /// blocked in [`ZcCell::wait`] until then), and the slices must not be
    /// used after that.
    pub unsafe fn lent(&self) -> (&[&[u8]], &[(usize, Datatype)]) {
        // SAFETY: `new`'s contract keeps the tables alive until the settle.
        unsafe { (&*self.bufs, &*self.parts) }
    }
}

/// Dropping a handle that was never claimed revokes the loan, so any path
/// that throws a queued `Shared` message away (shrink, aborted exchange,
/// universe teardown) releases the sender blocked on the cell.
impl Drop for ZcHandle {
    fn drop(&mut self) {
        self.cell.revoke_if_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Slot;

    const LONG: Duration = Duration::from_secs(10);

    /// Both sides of the wait policy: park at once, and a spin long enough
    /// that whatever the test does next lands inside it. Every cell outcome
    /// below must be the same under either.
    const POLICIES: [Duration; 2] = [Duration::ZERO, LONG];

    /// What a lender's wait on a claimed loan returns when this thread
    /// settles it; `expired` starts the wait past its deadline, aborting. A
    /// lender with no spin budget is settled once parked and must wake within
    /// 5 ms, far inside its 25 ms backstop: no settle may skip its wake.
    fn settle_claimed(waiter: Waiter, expired: bool, settle: fn(&ZcCell)) -> ZcWait {
        let cell = ZcCell::default();
        assert!(cell.try_claim());
        let deadline = Instant::now() + if expired { Duration::ZERO } else { LONG };
        let (out, late) = std::thread::scope(|s| {
            let h = s.spawn(|| (cell.wait(waiter, deadline, || expired), Instant::now()));
            while waiter.spin.is_zero() && !cell.parked.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let settled = Instant::now();
            settle(&cell);
            let (out, woke) = h.join().unwrap();
            (out, woke - settled)
        });
        assert!(cell.is_terminal() && !cell.try_claim());
        assert!(!waiter.spin.is_zero() || late < Duration::from_millis(5), "woke {late:?} late");
        out
    }

    /// The done path, spinning or parked. A settle skips the lock and the
    /// futex wake unless the lender is parked, so no wake-up may be lost: 50
    /// parked lenders in a row must each be woken by `finish`.
    #[test]
    fn parked_lender_is_woken_by_finish() {
        for spin in POLICIES {
            let tally = Slot::default();
            for _ in 0..50 {
                let waiter = Waiter { spin, tally: &tally };
                assert_eq!(settle_claimed(waiter, false, ZcCell::finish), ZcWait::Done);
            }
            assert_eq!(tally.get(Counter::WaitParks), if spin.is_zero() { 50 } else { 0 });
        }
    }

    /// A copy that finishes inside the budget releases the lender from its
    /// spin: neither it nor `finish` touches the cell's mutex (held here
    /// throughout — either side locking would hang) and it never parks.
    #[test]
    fn done_inside_the_spin_returns_without_locking() {
        let (cell, tally) = (ZcCell::default(), Slot::default());
        let waiter = Waiter { spin: LONG, tally: &tally };
        let spinning = std::sync::atomic::AtomicBool::new(false);
        let held = cell.lock.lock().unwrap();
        // The abort check runs right before the spin starts.
        let watch = || {
            spinning.store(true, Ordering::Release);
            false
        };
        let out = std::thread::scope(|s| {
            let h = s.spawn(|| cell.wait(waiter, Instant::now() + LONG, watch));
            while !spinning.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert!(cell.try_claim());
            cell.finish();
            h.join().unwrap()
        });
        drop(held);
        assert_eq!(out, ZcWait::Done);
        assert_eq!((tally.get(Counter::WaitSpinHits), tally.get(Counter::WaitParks)), (1, 0));
    }

    #[test]
    fn cell_revoke_on_timeout_blocks_claim() {
        for spin in POLICIES {
            let (cell, tally) = (ZcCell::default(), Slot::default());
            let waiter = Waiter { spin, tally: &tally };
            assert_eq!(cell.wait(waiter, Instant::now(), || false), ZcWait::Revoked);
            assert!(!cell.try_claim());
            assert_eq!(tally.get(Counter::WaitImmediate), 1, "an expired wait spins for nothing");
        }
    }

    /// The deadline race: a loan claimed before the deadline passed is being
    /// copied, so an expired lender still waits for `Done` — it may not
    /// return while the receiver can dereference the pointer.
    #[test]
    fn expired_wait_on_a_claimed_loan_waits_for_done() {
        for spin in POLICIES {
            let tally = Slot::default();
            let waiter = Waiter { spin, tally: &tally };
            assert_eq!(settle_claimed(waiter, true, ZcCell::finish), ZcWait::Done);
        }
    }

    /// The revoke-vs-claim race has exactly two outcomes, spinning or not:
    /// the claim wins and the lender waits out the copy, or the revoke wins
    /// and the receiver never touches the loan.
    #[test]
    fn revoke_racing_claim_has_one_winner() {
        for spin in POLICIES {
            let tally = Slot::default();
            let waiter = Waiter { spin, tally: &tally };
            for _ in 0..if cfg!(miri) { 4 } else { 200 } {
                let cell = ZcCell::default();
                std::thread::scope(|s| {
                    let h = s.spawn(|| {
                        let claimed = cell.try_claim();
                        if claimed {
                            cell.finish();
                        }
                        claimed
                    });
                    let out = cell.wait(waiter, Instant::now() + LONG, || true);
                    let claimed = h.join().unwrap();
                    assert_eq!(out, if claimed { ZcWait::Done } else { ZcWait::Revoked });
                });
            }
        }
    }

    #[test]
    fn dropping_unclaimed_handle_revokes_loan() {
        for spin in POLICIES {
            let tally = Slot::default();
            let waiter = Waiter { spin, tally: &tally };
            let cell = Arc::new(ZcCell::default());
            let buf = vec![0u8; 16];
            let dt = Datatype::Contiguous { len_bytes: 16, offset: 0 };
            // SAFETY: the handle dies in this statement, before its tables.
            drop(unsafe { ZcHandle::new(&[&buf], &[(0, dt)], Arc::clone(&cell)) });
            // The loan is dead: the receiver can no longer claim it, and a
            // sender blocked in wait() observes the revocation immediately.
            assert!(!cell.try_claim());
            assert_eq!(cell.wait(waiter, Instant::now() + LONG, || false), ZcWait::Revoked);
        }
    }

    #[test]
    fn dropping_claimed_handle_does_not_disturb_copy() {
        for spin in POLICIES {
            let tally = Slot::default();
            let waiter = Waiter { spin, tally: &tally };
            let cell = Arc::new(ZcCell::default());
            assert!(cell.try_claim());
            let buf = vec![0u8; 4];
            let dt = Datatype::Contiguous { len_bytes: 4, offset: 0 };
            // SAFETY: the handle dies in this statement, before its tables.
            drop(unsafe { ZcHandle::new(&[&buf], &[(0, dt)], Arc::clone(&cell)) });
            cell.finish();
            assert_eq!(cell.wait(waiter, Instant::now(), || false), ZcWait::Done);
        }
    }

    /// A three-part loan over two buffers, lent from one thread and claimed,
    /// copied part by part and finished on another: the receiver reads the
    /// lent table and every part through its raw pointers, in message order,
    /// while the lender is blocked, and the lender wakes to `Done`.
    #[test]
    fn three_part_loan_over_two_buffers_is_copied_in_order() {
        let a: Vec<u8> = (0..32).collect();
        let b: Vec<u8> = (100..116).collect();
        let contig = |offset, len_bytes| Datatype::Contiguous { len_bytes, offset };
        let (bufs, parts): ([&[u8]; 2], _) =
            ([&a, &b], [(1, contig(8, 8)), (0, contig(0, 4)), (0, contig(28, 4))]);
        for spin in POLICIES {
            let tally = Slot::default();
            let waiter = Waiter { spin, tally: &tally };
            let cell = Arc::new(ZcCell::default());
            // SAFETY: the tables outlive the loop; `wait` below sees `Done`.
            let handle = unsafe { ZcHandle::new(&bufs, &parts, Arc::clone(&cell)) };
            let got = std::thread::scope(|s| {
                let copier = s.spawn(move || {
                    assert!(handle.cell.try_claim());
                    let mut out = Vec::new();
                    // SAFETY: the claim succeeded and the lender is blocked in
                    // wait() until finish() below; the slices die first.
                    let (lent, lent_parts) = unsafe { handle.lent() };
                    assert!(lent_parts.iter().map(|p| p.1.packed_len()).eq([8, 4, 4]));
                    for (i, dt) in lent_parts {
                        dt.pack_into(lent[*i], &mut out).unwrap();
                    }
                    handle.cell.finish();
                    out
                });
                assert_eq!(cell.wait(waiter, Instant::now() + LONG, || false), ZcWait::Done);
                copier.join().unwrap()
            });
            let want: Vec<u8> =
                b[8..16].iter().chain(&a[0..4]).chain(&a[28..32]).copied().collect();
            assert_eq!(got, want);
        }
    }

    /// A receiver that claims a loan and then refuses it (its parts do not
    /// pair) ends it `Revoked`, uncopied: the lender's wait reads `Revoked`,
    /// parked or spinning, and nobody can claim the loan again.
    #[test]
    fn claimed_then_refused_loan_is_revoked() {
        for spin in POLICIES {
            let tally = Slot::default();
            let waiter = Waiter { spin, tally: &tally };
            assert_eq!(settle_claimed(waiter, false, ZcCell::refuse), ZcWait::Revoked);
        }
    }

    #[test]
    fn cell_abort_revokes() {
        for spin in POLICIES {
            let tally = Slot::default();
            let waiter = Waiter { spin, tally: &tally };
            let cell = ZcCell::default();
            assert_eq!(cell.wait(waiter, Instant::now() + LONG, || true), ZcWait::Revoked);
        }
    }
}
