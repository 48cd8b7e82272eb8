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
//! cell) and **blocks at the end of the collective** until each loan was
//! either copied (`Done`) or provably never will be (`Revoked`). The
//! receiver must *claim* the loan before it reads anything through the
//! handle, the part list included, so a sender that gives up (peer death,
//! watchdog) can revoke safely: either the claim wins and the sender waits
//! out the (bounded) memcpy, or the revoke wins and the receiver never
//! dereferences a pointer. A claimed loan whose parts do not pair with the
//! receiver's is refused uncopied, which the sender also reads as `Revoked`.
//!
//! The sender waits for all its loans at once, on its own mailbox, in the
//! mailbox's one blocking loop ([`await_loans`]). Whoever settles a loan —
//! the receiver finishing or refusing it (a [`Claim`] dropped unsettled, as
//! by a receiver that unwinds mid-copy, refuses it), a third party revoking
//! a discarded handle — stores the new state first and then notifies the
//! *lender's* mailbox, and the lender reads the states under that mailbox's
//! lock: the same lost-wake-up argument a receiver relies on for deposits. A
//! death notifies every mailbox, so a lender whose receiver died wakes too.
//! A cell is one atomic and holds no reference to a mailbox or the world.
//!
//! The copy itself always runs on the claiming rank's own thread, part by
//! part (`datatype::copy_selection`): one thread per rank moves that rank's
//! bytes. Every `alltoallw` message loans, whatever its size or number of
//! parts, and fault rules (drop, delay) act on the loan itself. The staged
//! arm a loan replaced, and the per-size measurement that retired it, are in
//! the README's zero-copy section.

use crate::datatype::Datatype;
use crate::mailbox::Mailbox;
use crate::wait::Waiter;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Rendezvous cells
// ---------------------------------------------------------------------------

/// The state of one loan, shared between the sending and receiving rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Loan {
    /// Queued, unclaimed.
    Pending,
    /// Claimed: the receiver may be reading the lent buffers.
    Copying,
    /// The receiver copied the loan.
    Done,
    /// Revoked, or refused by the receiver that claimed it: never (and never
    /// again) copied.
    Revoked,
}

impl Loan {
    /// By discriminant, as the cell stores them.
    const ALL: [Loan; 4] = [Loan::Pending, Loan::Copying, Loan::Done, Loan::Revoked];

    /// Whether the lender is off the hook: the loan was copied, or never
    /// will be.
    pub fn is_terminal(self) -> bool {
        matches!(self, Loan::Done | Loan::Revoked)
    }
}

/// Everything that moves a loan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The receiver, before it reads anything through the handle.
    Claim,
    /// The receiver, once every part is copied.
    Finish,
    /// The receiver, giving a claimed loan back uncopied.
    Refuse,
    /// The lender giving up (deadline, dead receiver), or a third party
    /// dropping the queued handle.
    Revoke,
}

impl Step {
    /// The one transition function: the state `step` takes a loan in state
    /// `from` to, or `None` where it does not apply and the loan stays put.
    /// `Pending → Copying → Done` (copied), `Pending → Copying → Revoked`
    /// (refused) and `Pending → Revoked` (revoked); `Done` and `Revoked` are
    /// final. A revoke and a claim both leave only `Pending`, so exactly one
    /// of them wins.
    pub const fn next(self, from: Loan) -> Option<Loan> {
        match (self, from) {
            (Step::Claim, Loan::Pending) => Some(Loan::Copying),
            (Step::Finish, Loan::Copying) => Some(Loan::Done),
            (Step::Refuse, Loan::Copying) | (Step::Revoke, Loan::Pending) => Some(Loan::Revoked),
            _ => None,
        }
    }
}

/// One loan's [`Loan`] state: an atomic that only [`Step::next`] moves.
#[derive(Debug, Default)]
pub(crate) struct ZcCell(AtomicU8);

impl ZcCell {
    /// The loan's state now.
    pub fn state(&self) -> Loan {
        Loan::ALL[usize::from(self.0.load(Ordering::SeqCst))]
    }

    /// Take `step` if it applies to the loan's current state; whether it did.
    /// A settling step must be followed by a notify of the lender's mailbox.
    pub fn take(&self, step: Step) -> bool {
        let next = |s: u8| step.next(Loan::ALL[usize::from(s)]).map(|l| l as u8);
        self.0.fetch_update(Ordering::SeqCst, Ordering::SeqCst, next).is_ok()
    }

    /// The receiver's claim, before it reads anything through the handle:
    /// `None` if the loan was revoked first. The guard settles the loan when
    /// it drops, notifying `lender`, the lender's mailbox.
    pub fn claim<'a>(&'a self, lender: &'a Mailbox) -> Option<Claim<'a>> {
        self.take(Step::Claim).then_some(Claim { cell: self, lender, step: Step::Refuse })
    }

    /// The lender's check, under its mailbox lock: whether the loan is
    /// settled, revoking it first if it is still pending and `give_up` (the
    /// deadline passed, or its receiver died). Losing that revoke to a claim
    /// means the copy is in flight, and bounded: the lender waits for it.
    pub fn settled(&self, give_up: bool) -> bool {
        if give_up {
            self.take(Step::Revoke);
        }
        self.state().is_terminal()
    }
}

/// A claimed loan, settled when it drops: its step (`Refuse` until
/// [`Claim::settle`] names another), then a notify of the lender's mailbox.
/// A receiver that unwinds mid-copy thus refuses the loan, and its lender,
/// blocked in [`await_loans`] on a claimed loan, wakes to `Revoked` instead
/// of waiting for a finish that never comes.
pub(crate) struct Claim<'a> {
    cell: &'a ZcCell,
    lender: &'a Mailbox,
    step: Step,
}

impl Claim<'_> {
    /// Settle the loan with `step`: `Finish` once every part is copied.
    pub fn settle(mut self, step: Step) {
        self.step = step;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // Store, then tell the lender, which waits on its own mailbox and so
        // sees the store on its next check.
        self.cell.take(self.step);
        self.lender.notify();
    }
}

/// A lender's one wait for all of `loans`, each lent to the receiver its
/// `usize` names: block on the lender's own mailbox `mb` until every loan is
/// settled, revoking each still-pending loan whose receiver is `dead`, or all
/// of them once `deadline` passes. Never returns while a receiver might still
/// dereference a lent pointer — the zero-copy soundness invariant. One wait,
/// however many loans: it tallies one resolution in `waiter`.
pub(crate) fn await_loans(
    mb: &Mailbox,
    waiter: Waiter,
    deadline: Instant,
    loans: &[(usize, Arc<ZcCell>)],
    dead: impl Fn(usize) -> bool,
) {
    mb.wait(deadline, waiter, |_, expired| {
        // Every loan is checked, so each pending one sees its give-up.
        let out = loans.iter().filter(|(to, cell)| !cell.settled(expired || dead(*to))).count();
        (out == 0).then_some(())
    })
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
// between a successful claim and its finish or refuse.
unsafe impl Send for ZcHandle {}

impl ZcHandle {
    /// Lend every `(buffer index, selection)` part of `parts`, each
    /// selecting from `bufs[index]`, reporting completion through `cell`.
    ///
    /// # Safety
    /// `bufs`, `parts` and every buffer in `bufs` must stay alive and
    /// unwritten until `cell` is `Done` or `Revoked` (the lender waits for
    /// that in [`await_loans`]), and every index in `parts` must be in
    /// `bufs`.
    pub unsafe fn new(bufs: &[&[u8]], parts: &[(usize, Datatype)], cell: Arc<ZcCell>) -> Self {
        let bufs = std::ptr::slice_from_raw_parts(bufs.as_ptr().cast(), bufs.len());
        ZcHandle { bufs, parts, cell }
    }

    /// The lent table: the sender's buffers and its parts, in message order.
    ///
    /// # Safety
    /// Callable only between a successful [`Step::Claim`] and the matching
    /// [`Step::Finish`] or [`Step::Refuse`] (the sender is blocked in
    /// [`await_loans`] until then), and the slices must not be used after
    /// that.
    pub unsafe fn lent(&self) -> (&[&[u8]], &[(usize, Datatype)]) {
        // SAFETY: `new`'s contract keeps the tables alive until the settle.
        unsafe { (&*self.bufs, &*self.parts) }
    }
}

/// Dropping a handle that was never claimed revokes the loan, so any path
/// that throws a queued `Shared` message away (an exchange left early,
/// universe teardown) releases the sender. An exchange's sweep, which drops
/// the handles of senders still waiting, then notifies their mailboxes.
impl Drop for ZcHandle {
    fn drop(&mut self) {
        self.cell.take(Step::Revoke);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Counter, Slot};
    use std::collections::HashMap;
    use std::time::Duration;

    const LONG: Duration = Duration::from_secs(10);

    /// Both sides of the wait policy: park at once, and a spin long enough
    /// that whatever the test does next lands inside it. Every loan outcome
    /// below must be the same under either.
    const POLICIES: [Duration; 2] = [Duration::ZERO, LONG];

    /// A lender: the mailbox it waits on, the spin its wait runs under and
    /// the slot it tallies in.
    #[derive(Default)]
    struct Lender {
        mb: Mailbox,
        spin: Duration,
        tally: Slot,
    }

    impl Lender {
        fn new(spin: Duration) -> Lender {
            Lender { spin, ..Lender::default() }
        }

        /// Wait for `cell`, lent to a receiver that `dead` reports on, until
        /// `deadline`; the state the wait left it in.
        fn wait(&self, cell: &Arc<ZcCell>, deadline: Instant, dead: impl Fn() -> bool) -> Loan {
            let waiter = Waiter { spin: self.spin, tally: &self.tally };
            await_loans(&self.mb, waiter, deadline, &[(1, Arc::clone(cell))], |_| dead());
            cell.state()
        }

        /// A receiver's settle: the step, then a notify of this mailbox.
        fn settle(&self, cell: &ZcCell, step: Step) {
            assert!(cell.take(step));
            self.mb.notify();
        }

        /// How its waits resolved so far: (immediate, spin hits, parks).
        fn resolved(&self) -> (u64, u64, u64) {
            let w = &self.tally;
            (w.get(Counter::WaitImmediate), w.get(Counter::WaitSpinHits), w.get(Counter::WaitParks))
        }
    }

    /// What a lender's wait on a claimed loan returns when this thread
    /// settles it; `expired` starts the wait past its deadline. A lender with
    /// no spin budget is settled once asleep on its mailbox and must wake
    /// long before its 10 s deadline — past an expired one, nothing but the
    /// settle's notify wakes it.
    fn settle_claimed(spin: Duration, expired: bool, step: Step) -> Loan {
        let (lender, cell) = (Lender::new(spin), Arc::new(ZcCell::default()));
        assert!(cell.take(Step::Claim));
        let deadline = Instant::now() + if expired { Duration::ZERO } else { LONG };
        let (out, late) = std::thread::scope(|s| {
            let h = s.spawn(|| (lender.wait(&cell, deadline, || expired), Instant::now()));
            while spin.is_zero() && lender.mb.sleepers() == 0 {
                std::thread::yield_now();
            }
            let settled = Instant::now();
            lender.settle(&cell, step);
            let (out, woke) = h.join().unwrap();
            (out, woke.saturating_duration_since(settled))
        });
        assert!(!cell.take(Step::Claim));
        assert!(late < Duration::from_secs(1), "woke {late:?} late");
        let parks = lender.resolved().2;
        assert_eq!(parks, u64::from(spin.is_zero()), "parked iff no spin budget");
        out
    }

    /// The done path, spinning or parked. A settle skips the futex wake
    /// unless the lender is asleep, so no wake-up may be lost: 50 parked
    /// lenders in a row must each be woken by a finish.
    #[test]
    fn parked_lender_is_woken_by_finish() {
        for spin in POLICIES {
            for _ in 0..50 {
                assert_eq!(settle_claimed(spin, false, Step::Finish), Loan::Done);
            }
        }
    }

    /// A copy that finishes inside the budget releases the lender from its
    /// spin: one spin hit, no park.
    #[test]
    fn done_inside_the_spin_is_a_spin_hit() {
        let (lender, cell) = (Lender::new(LONG), Arc::new(ZcCell::default()));
        let spinning = std::sync::atomic::AtomicBool::new(false);
        // The liveness check runs under the lock right before the spin.
        let watch = || {
            spinning.store(true, Ordering::Release);
            false
        };
        let out = std::thread::scope(|s| {
            let h = s.spawn(|| lender.wait(&cell, Instant::now() + LONG, watch));
            while !spinning.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert!(cell.take(Step::Claim));
            lender.settle(&cell, Step::Finish);
            h.join().unwrap()
        });
        assert_eq!(out, Loan::Done);
        assert_eq!(lender.resolved(), (0, 1, 0));
    }

    #[test]
    fn cell_revoke_on_timeout_blocks_claim() {
        for spin in POLICIES {
            let (lender, cell) = (Lender::new(spin), Arc::new(ZcCell::default()));
            assert_eq!(lender.wait(&cell, Instant::now(), || false), Loan::Revoked);
            assert!(!cell.take(Step::Claim));
            assert_eq!(lender.resolved(), (1, 0, 0), "an expired wait spins for nothing");
        }
    }

    /// Nothing polls: a lender that parks at once on an unclaimed loan
    /// sleeps until its 5 ms deadline and revokes right then. Under Miri the
    /// interpreter's own pace eats the 5 ms, so there only the outcome holds.
    #[test]
    fn a_parked_lender_revokes_at_its_deadline() {
        let (lender, cell) = (Lender::new(Duration::ZERO), Arc::new(ZcCell::default()));
        let start = Instant::now();
        assert_eq!(lender.wait(&cell, start + Duration::from_millis(5), || false), Loan::Revoked);
        let took = start.elapsed();
        if !cfg!(miri) {
            assert!(took < Duration::from_millis(20), "revoked after {took:?}");
            assert_eq!(lender.resolved(), (0, 0, 1));
        }
    }

    /// The deadline race: a loan claimed before the deadline passed is being
    /// copied, so an expired lender still waits for `Done` — it may not
    /// return while the receiver can dereference the pointer.
    #[test]
    fn expired_wait_on_a_claimed_loan_waits_for_done() {
        for spin in POLICIES {
            assert_eq!(settle_claimed(spin, true, Step::Finish), Loan::Done);
        }
    }

    /// The revoke-vs-claim race has exactly two outcomes, spinning or not:
    /// the claim wins and the lender waits out the copy, or the revoke wins
    /// and the receiver never touches the loan.
    #[test]
    fn revoke_racing_claim_has_one_winner() {
        for spin in POLICIES {
            let lender = Lender::new(spin);
            for _ in 0..if cfg!(miri) { 4 } else { 200 } {
                let cell = Arc::new(ZcCell::default());
                std::thread::scope(|s| {
                    let h = s.spawn(|| {
                        let claimed = cell.take(Step::Claim);
                        if claimed {
                            lender.settle(&cell, Step::Finish);
                        }
                        claimed
                    });
                    let out = lender.wait(&cell, Instant::now() + LONG, || true);
                    let claimed = h.join().unwrap();
                    assert_eq!(out, if claimed { Loan::Done } else { Loan::Revoked });
                });
            }
        }
    }

    #[test]
    fn dropping_unclaimed_handle_revokes_loan() {
        for spin in POLICIES {
            let (lender, cell) = (Lender::new(spin), Arc::new(ZcCell::default()));
            let buf = vec![0u8; 16];
            let dt = Datatype::Contiguous { len_bytes: 16, offset: 0 };
            // SAFETY: the handle dies in this statement, before its tables.
            drop(unsafe { ZcHandle::new(&[&buf], &[(0, dt)], Arc::clone(&cell)) });
            // The loan is dead: the receiver can no longer claim it, and its
            // lender reads the revocation on its first check.
            assert!(!cell.take(Step::Claim));
            assert_eq!(lender.wait(&cell, Instant::now() + LONG, || false), Loan::Revoked);
            assert_eq!(lender.resolved(), (1, 0, 0));
        }
    }

    #[test]
    fn dropping_claimed_handle_does_not_disturb_copy() {
        for spin in POLICIES {
            let (lender, cell) = (Lender::new(spin), Arc::new(ZcCell::default()));
            assert!(cell.take(Step::Claim));
            let buf = vec![0u8; 4];
            let dt = Datatype::Contiguous { len_bytes: 4, offset: 0 };
            // SAFETY: the handle dies in this statement, before its tables.
            drop(unsafe { ZcHandle::new(&[&buf], &[(0, dt)], Arc::clone(&cell)) });
            lender.settle(&cell, Step::Finish);
            assert_eq!(lender.wait(&cell, Instant::now(), || false), Loan::Done);
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
            let (lender, cell) = (Lender::new(spin), Arc::new(ZcCell::default()));
            // SAFETY: the tables outlive the loop; the wait below sees `Done`.
            let handle = unsafe { ZcHandle::new(&bufs, &parts, Arc::clone(&cell)) };
            let got = std::thread::scope(|s| {
                let lender = &lender;
                let copier = s.spawn(move || {
                    assert!(handle.cell.take(Step::Claim));
                    let mut out = Vec::new();
                    // SAFETY: the claim succeeded and the lender is blocked in
                    // its wait until the finish below; the slices die first.
                    let (lent, lent_parts) = unsafe { handle.lent() };
                    assert!(lent_parts.iter().map(|p| p.1.packed_len()).eq([8, 4, 4]));
                    for (i, dt) in lent_parts {
                        dt.pack_into(lent[*i], &mut out).unwrap();
                    }
                    lender.settle(&handle.cell, Step::Finish);
                    out
                });
                assert_eq!(lender.wait(&cell, Instant::now() + LONG, || false), Loan::Done);
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
            assert_eq!(settle_claimed(spin, false, Step::Refuse), Loan::Revoked);
        }
    }

    /// A receiver that unwinds while it holds a claim drops the claim, which
    /// refuses the loan and notifies the lender: its wait, parked or
    /// spinning, returns `Revoked` long before its deadline.
    #[test]
    fn a_claimer_that_unwinds_releases_its_lender() {
        for spin in POLICIES {
            let (lender, cell) = (Lender::new(spin), Arc::new(ZcCell::default()));
            let claim = cell.claim(&lender.mb).expect("the loan is pending");
            let start = Instant::now();
            let (refused, out) = std::thread::scope(|s| {
                let h = s.spawn(|| lender.wait(&cell, start + LONG, || false));
                while spin.is_zero() && lender.mb.sleepers() == 0 {
                    std::thread::yield_now();
                }
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _claim = claim;
                    panic!("the copy failed");
                }));
                assert!(unwound.is_err());
                // A claim the unwind left standing would hold the lender
                // forever: finish it, so that the check below fails instead.
                let refused = cell.state() == Loan::Revoked;
                if !refused {
                    lender.settle(&cell, Step::Finish);
                }
                (refused, h.join().unwrap())
            });
            assert!(refused, "the unwind left the loan claimed");
            assert_eq!(out, Loan::Revoked);
            assert!(start.elapsed() < Duration::from_secs(1), "woke {:?} late", start.elapsed());
        }
    }

    #[test]
    fn cell_abort_revokes() {
        for spin in POLICIES {
            let (lender, cell) = (Lender::new(spin), Arc::new(ZcCell::default()));
            assert_eq!(lender.wait(&cell, Instant::now() + LONG, || true), Loan::Revoked);
        }
    }

    /// One wait for several loans: it returns once the last is settled and
    /// tallies one resolution, however many loans it covered.
    #[test]
    fn one_wait_covers_every_loan() {
        for spin in POLICIES {
            let lender = Lender::new(spin);
            let loans: Vec<_> = (0..3).map(|to| (to, Arc::new(ZcCell::default()))).collect();
            std::thread::scope(|s| {
                for (_, cell) in &loans {
                    s.spawn(|| {
                        assert!(cell.take(Step::Claim));
                        lender.settle(cell, Step::Finish);
                    });
                }
                let waiter = Waiter { spin, tally: &lender.tally };
                await_loans(&lender.mb, waiter, Instant::now() + LONG, &loans, |_| false);
            });
            assert!(loans.iter().all(|(_, cell)| cell.state() == Loan::Done));
            let (immediate, spin_hits, parks) = lender.resolved();
            assert_eq!(immediate + spin_hits + parks, 1);
        }
    }

    // -------------------------------------------------------------------
    // Every interleaving of the handshake
    // -------------------------------------------------------------------

    /// One step of a settling party, each atomic: `Event` is the whole
    /// critical section of `Mailbox::notify` on the lender's mailbox, and
    /// only lock-held data moves inside it.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Op {
        /// [`ZcCell::take`]. A failed claim ends its party: it has nothing
        /// to settle and notifies nobody.
        Cell(Step),
        /// `WorldState::mark_dead`'s liveness store for the receiver.
        Die,
        /// `notify` under the lock: bump `events`, note whether anyone sleeps.
        Event,
        /// `notify`'s `notify_all`, if its event saw a sleeper.
        Wake,
    }

    /// The receiver copying the loan, or refusing what it claimed: its parts
    /// do not pair, or it unwinds mid-copy (`deliver_alltoallw` and its
    /// [`Claim`]).
    const FINISHER: &[Op] = &[Op::Cell(Step::Claim), Op::Cell(Step::Finish), Op::Event, Op::Wake];
    const REFUSER: &[Op] = &[Op::Cell(Step::Claim), Op::Cell(Step::Refuse), Op::Event, Op::Wake];
    /// A third party dropping the queued handle and notifying its lender
    /// whatever the revoke did (`Exchange`'s sweep).
    const SWEEPER: &[Op] = &[Op::Cell(Step::Revoke), Op::Event, Op::Wake];
    /// The receiver's death: every mailbox is notified (`mark_dead`).
    const REAPER: &[Op] = &[Op::Die, Op::Event, Op::Wake];

    /// Where the lender is in [`Mailbox::wait`].
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum At {
        /// About to check under the lock: the loop's top.
        Check,
        /// A mutant's lender read the loan outside the lock and saw it
        /// settled or not; taking the lock and acting on that come next.
        Read { settled: bool },
        /// Spinning on `events` since it read `seen`.
        Spin { seen: u8 },
        /// Asleep on the condvar, with a timeout if it parked before the
        /// deadline.
        Park { timed: bool },
        /// Notified or timed out: it re-takes the lock and checks again.
        Woken,
        /// Returned from its wait, the loan in this state.
        Returned(Loan),
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct World {
        loan: Loan,
        lender: At,
        /// Each party's next step, and whether its `Event` saw a sleeper.
        pc: [(usize, bool); 3],
        /// The lender's mailbox: `events` and `sleepers`.
        events: u8,
        sleepers: u8,
        /// Spin budget left; deadline passed; receiver dead.
        spinning: bool,
        expired: bool,
        dead: bool,
    }

    /// Run `f` on a real cell holding `loan`, and keep the state it leaves.
    fn on_cell<R>(loan: &mut Loan, f: impl FnOnce(&ZcCell) -> R) -> R {
        let cell = ZcCell(AtomicU8::new(*loan as u8));
        let out = f(&cell);
        *loan = cell.state();
        out
    }

    /// A protocol: the three parties' steps, and whether the lender reads
    /// its loans under its mailbox lock.
    struct Model {
        parties: [&'static [Op]; 3],
        read_under_lock: bool,
    }

    impl Model {
        /// What the lender does, under its lock, about a loan it found
        /// settled or not: return, spin, or park.
        fn decide(w: &mut World, settled: bool) {
            w.lender = if settled {
                At::Returned(w.loan)
            } else if w.spinning {
                At::Spin { seen: w.events }
            } else {
                w.sleepers += 1;
                At::Park { timed: !w.expired }
            };
        }

        /// Every state one step leads to from `w`.
        fn steps(&self, w: &World) -> Result<Vec<World>, String> {
            let mut out = Vec::new();
            // The clock: the spin budget runs out, the deadline passes.
            if w.spinning {
                out.push(World { spinning: false, ..*w });
            }
            if !w.expired {
                out.push(World { expired: true, spinning: false, ..*w });
            }
            let mut l = *w;
            match w.lender {
                At::Check | At::Woken => {
                    if w.lender == At::Woken {
                        l.sleepers -= 1;
                    }
                    let settled = on_cell(&mut l.loan, |c| c.settled(w.expired || w.dead));
                    if self.read_under_lock {
                        Model::decide(&mut l, settled);
                    } else {
                        l.lender = At::Read { settled };
                    }
                    out.push(l);
                }
                At::Read { settled } => {
                    Model::decide(&mut l, settled);
                    out.push(l);
                }
                At::Spin { seen } if seen != w.events || !w.spinning => {
                    l.lender = At::Check;
                    out.push(l);
                }
                At::Park { timed: true } if w.expired => {
                    l.lender = At::Woken;
                    out.push(l);
                }
                _ => {}
            }
            for (i, steps) in self.parties.iter().enumerate() {
                let (pc, saw) = w.pc[i];
                let Some(op) = steps.get(pc) else { continue };
                let mut p = *w;
                p.pc[i].0 += 1;
                match *op {
                    Op::Cell(step) => {
                        let took = on_cell(&mut p.loan, |c| c.take(step));
                        if step == Step::Claim && !took {
                            p.pc[i].0 = steps.len();
                        }
                        if step == Step::Claim && took && matches!(w.lender, At::Returned(_)) {
                            return Err(format!(
                                "a claim succeeded after the lender returned: {w:?}"
                            ));
                        }
                    }
                    Op::Die => p.dead = true,
                    Op::Event => {
                        p.events += 1;
                        p.pc[i].1 = p.sleepers > 0;
                    }
                    Op::Wake => {
                        if saw && matches!(p.lender, At::Park { .. }) {
                            p.lender = At::Woken;
                        }
                    }
                }
                out.push(p);
            }
            Ok(out)
        }

        /// The invariants of one state.
        fn check(&self, w: &World) -> Result<(), String> {
            if matches!(w.lender, At::Returned(l) if !l.is_terminal()) {
                return Err(format!("the lender returned from an unsettled loan: {w:?}"));
            }
            // A sleeping lender with a reason to wake has a wake on its way:
            // an event still to come, or a wake its event armed.
            let due = w.loan.is_terminal() || (w.loan == Loan::Pending && w.dead);
            let coming = (0..3).any(|i| {
                let (pc, saw) = w.pc[i];
                let rest = &self.parties[i][pc.min(self.parties[i].len())..];
                rest.contains(&Op::Event) || (saw && rest.first() == Some(&Op::Wake))
            });
            if matches!(w.lender, At::Park { .. }) && due && !coming {
                return Err(format!("lost wake-up: {w:?}"));
            }
            Ok(())
        }

        /// Depth-first over every interleaving from both spin policies: the
        /// number of distinct states, or the first broken invariant. `seen`
        /// marks a state `false` while its successors are being explored, so
        /// reaching it again then is a cycle.
        fn explore(&self) -> Result<usize, String> {
            fn visit(m: &Model, w: World, seen: &mut HashMap<World, bool>) -> Result<(), String> {
                match seen.get(&w) {
                    Some(true) => return Ok(()),
                    Some(false) => return Err(format!("a path that never ends: {w:?}")),
                    None => {}
                }
                seen.insert(w, false);
                m.check(&w)?;
                let next = m.steps(&w)?;
                if next.is_empty() && !matches!(w.lender, At::Returned(_)) {
                    return Err(format!("the lender is stuck: {w:?}"));
                }
                for n in next {
                    visit(m, n, seen)?;
                }
                seen.insert(w, true);
                Ok(())
            }
            let mut seen = HashMap::new();
            for spinning in [false, true] {
                let start = World {
                    loan: Loan::Pending,
                    lender: At::Check,
                    pc: [(0, false); 3],
                    events: 0,
                    sleepers: 0,
                    spinning,
                    expired: false,
                    dead: false,
                };
                visit(self, start, &mut seen)?;
            }
            Ok(seen.len())
        }
    }

    /// The handshake under every interleaving of one lender, a receiver that
    /// copies or refuses, a third party revoking, the receiver's death and
    /// the deadline, each at every point: the lender returns only from
    /// `Done` or `Revoked`, no claim succeeds after it returned, no wake-up
    /// is lost and every path ends. The cell steps are [`ZcCell`]'s own.
    /// Pure: Miri would find nothing to check in it.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_interleaving_of_the_handshake_settles() {
        for claimer in [FINISHER, REFUSER] {
            let states = Model { parties: [claimer, SWEEPER, REAPER], read_under_lock: true }
                .explore()
                .unwrap();
            assert!(states > 1000, "only {states} states");
        }
    }

    /// The check catches the two ways to lose a wake-up: a settler that
    /// notifies before it stores, and a lender that reads its loans outside
    /// its mailbox lock.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn the_exhaustive_check_catches_a_lost_wake_up() {
        let early: &[Op] = &[Op::Cell(Step::Claim), Op::Event, Op::Wake, Op::Cell(Step::Finish)];
        let mutants = [
            Model { parties: [early, SWEEPER, REAPER], read_under_lock: true },
            Model { parties: [FINISHER, SWEEPER, REAPER], read_under_lock: false },
        ];
        for m in mutants {
            let err = m.explore().unwrap_err();
            assert!(err.starts_with("lost wake-up"), "{err}");
        }
    }
}
