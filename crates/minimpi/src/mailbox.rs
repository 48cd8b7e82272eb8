//! Per-rank message stores with blocking, tag-matched retrieval.

use crate::counters::Counter;
use crate::wait::Waiter;
use crate::zerocopy::ZcHandle;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Key identifying a message stream: (communicator id, sender's rank within
/// that communicator, tag). The tag space is split between user tags and
/// internal collective sequence numbers by [`crate::comm`].
pub(crate) type MsgKey = (u64, usize, u64);

/// What a queued message carries: either owned bytes (the staged path), or a
/// zero-copy loan of the sender's buffer that the receiver copies out of
/// directly (see [`crate::zerocopy`]).
pub(crate) enum Payload {
    /// Owned packed bytes, transferred with the envelope.
    Bytes(Vec<u8>),
    /// A loan of the sender's buffers and part list; the sender blocks until
    /// the receiver copies it (or the loan is revoked or refused).
    Shared(ZcHandle),
}

/// A message queued for delivery. Dropping a queued `Shared` payload
/// revokes the loan.
pub(crate) struct Envelope {
    pub payload: Payload,
    /// Element size of the payload in bytes, stamped by typed sends and
    /// checked by typed receives; `1` for untyped bytes.
    pub elem: u32,
}

/// What a mailbox's lock guards.
#[derive(Default)]
pub(crate) struct Queues {
    /// Every queued envelope with its key, in arrival order; a take pops the
    /// first with its key. One scanned queue, not a map of queues: a DDR pair
    /// holds at most two messages (`reorganize` runs one exchange at a time)
    /// and collective keys never repeat, so a map would insert and remove an
    /// entry per message.
    fifo: VecDeque<(MsgKey, Envelope)>,
    /// Threads currently asleep in [`Mailbox::wait`]. An event that finds
    /// none skips its notify: std's futex condvar makes the wake syscall
    /// whether or not anyone waits.
    sleepers: usize,
}

/// One rank's incoming message store — one unbounded queue — and the place
/// its rank thread blocks.
///
/// Senders deposit into the receiving rank's mailbox and never wait, as
/// under MPI's eager protocol; receivers block until a matching key has a
/// queued message. FIFO order is preserved per key, matching MPI's
/// non-overtaking rule for messages with the same (source, tag,
/// communicator). A lender waits for its loans here too: a settled loan is
/// an event on its lender's mailbox.
#[derive(Default)]
pub(crate) struct Mailbox {
    queues: Mutex<Queues>,
    cv: Condvar,
    /// Event sequence number, bumped under `queues`' lock by everything that
    /// notifies `cv`. A spinning waiter holds no lock and watches this
    /// instead, re-taking the lock only when something happened. `Relaxed`
    /// on both sides: the number publishes nothing — whoever sees it move
    /// takes the lock before reading anything the event changed.
    events: AtomicU64,
}

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record an event: run `change` and bump `events` under the lock, then
    /// wake the sleepers, if there are any, to re-check.
    fn event(&self, change: impl FnOnce(&mut Queues)) {
        let mut q = self.lock();
        change(&mut q);
        self.events.fetch_add(1, Ordering::Relaxed);
        let asleep = q.sleepers > 0;
        drop(q);
        if asleep {
            self.cv.notify_all();
        }
    }

    /// Enqueue `env` under `key` and wake any receiver. Never waits.
    pub fn deposit(&self, key: MsgKey, env: Envelope) {
        self.event(|q| q.fifo.push_back((key, env)));
    }

    /// Send this mailbox's waiter back through its check: a rank died or
    /// departed, or a loan it lent was settled. Whoever calls it has already
    /// stored what changed.
    pub fn notify(&self) {
        self.event(|_| ());
    }

    /// The one blocking wait: until `ready(queues, expired)` returns `Some`,
    /// where `expired` says `deadline` has passed. `ready` runs under the
    /// lock, first at once and then after every event, and decides alone
    /// when the wait ends — past the deadline too.
    ///
    /// Check, spin, then park: for the first `waiter.spin` of the wait (never
    /// past the deadline) the lock is released and the waiter watches
    /// `events`; every event sends it back through `ready`. Nothing is lost
    /// in between — `events` is read under the lock `ready` ran under, and a
    /// park is counted in `sleepers` under that same lock, so an event either
    /// comes before the check or wakes the sleeper. A park lasts until the
    /// deadline or an event; past the deadline, until an event. How the wait
    /// resolved is tallied in `waiter`'s slot.
    pub fn wait<T>(
        &self,
        deadline: Instant,
        waiter: Waiter,
        mut ready: impl FnMut(&mut Queues, bool) -> Option<T>,
    ) -> T {
        let spin_end = (Instant::now() + waiter.spin).min(deadline);
        let mut how = Counter::WaitImmediate;
        let mut q = self.lock();
        let outcome = loop {
            let now = Instant::now();
            if let Some(out) = ready(&mut q, now >= deadline) {
                break out;
            }
            if now < spin_end {
                how = Counter::WaitSpinHits;
                let seen = self.events.load(Ordering::Relaxed);
                drop(q);
                while self.events.load(Ordering::Relaxed) == seen && Instant::now() < spin_end {
                    std::hint::spin_loop();
                }
                q = self.lock();
                continue;
            }
            how = Counter::WaitParks;
            q.sleepers += 1;
            q = if now < deadline {
                match self.cv.wait_timeout(q, deadline - now) {
                    Ok((guard, _)) => guard,
                    Err(e) => e.into_inner().0,
                }
            } else {
                self.cv.wait(q).unwrap_or_else(|e| e.into_inner())
            };
            q.sleepers -= 1;
        };
        waiter.tally.add(how, 1);
        outcome
    }

    /// Block until a message with `key` is available, `abort()` yields an
    /// error while none is queued (`Err(Some(_))`), or `timeout` passes
    /// (`Err(None)`): [`Mailbox::wait`], checking in that order, so a queued
    /// message always wins over the abort condition ("messages sent before
    /// death are deliverable") and a deposit that races the deadline still
    /// counts.
    pub fn take<E>(
        &self,
        key: MsgKey,
        timeout: Duration,
        waiter: Waiter,
        abort: impl Fn() -> Option<E>,
    ) -> Result<Envelope, Option<E>> {
        self.wait(Instant::now() + timeout, waiter, |q, expired| {
            match Self::pop(q, |k| *k == key) {
                Some((_, env)) => Some(Ok(env)),
                None => abort().map(|e| Err(Some(e))).or(expired.then_some(Err(None))),
            }
        })
    }

    /// The one pop, under the lock the caller already holds: the first
    /// envelope whose key `which` selects.
    fn pop(q: &mut Queues, which: impl Fn(&MsgKey) -> bool) -> Option<(MsgKey, Envelope)> {
        let at = q.fifo.iter().position(|(k, _)| which(k))?;
        q.fifo.remove(at)
    }

    /// Take the first queued envelope whose key `which` selects, without
    /// waiting.
    pub fn try_take(&self, which: impl Fn(&MsgKey) -> bool) -> Option<(MsgKey, Envelope)> {
        Self::pop(&mut self.lock(), which)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Slot;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Probes the other modules' tests read a mailbox through.
    impl Mailbox {
        /// Whether a message with `key` is currently queued.
        pub(crate) fn contains(&self, key: MsgKey) -> bool {
            self.lock().fifo.iter().any(|(k, _)| *k == key)
        }

        /// Number of queued messages.
        pub(crate) fn pending(&self) -> usize {
            self.lock().fifo.len()
        }

        /// Number of threads asleep on this mailbox.
        pub(crate) fn sleepers(&self) -> usize {
            self.lock().sleepers
        }
    }

    const KEY: MsgKey = (1, 0, 7);
    const LONG: Duration = Duration::from_secs(10);

    /// A data envelope from world rank `src`.
    fn bytes_env(bytes: Vec<u8>) -> Envelope {
        Envelope { payload: Payload::Bytes(bytes), elem: 1 }
    }

    /// A mailbox, the spin its receives run under and the slot they tally in.
    #[derive(Default)]
    struct Rig {
        mb: Mailbox,
        spin: Duration,
        tally: Slot,
    }

    impl Rig {
        fn new(spin: Duration) -> Rig {
            Rig { spin, ..Rig::default() }
        }

        fn waiter(&self) -> Waiter<'_> {
            Waiter { spin: self.spin, tally: &self.tally }
        }

        /// A blocking take with no abort rule; `None` on timeout.
        fn recv(&self, key: MsgKey, timeout: Duration) -> Option<Envelope> {
            self.mb.take(key, timeout, self.waiter(), || None::<()>).ok()
        }
    }

    impl std::ops::Deref for Rig {
        type Target = Mailbox;

        fn deref(&self) -> &Mailbox {
            &self.mb
        }
    }

    fn into_bytes(env: Envelope) -> Vec<u8> {
        match env.payload {
            Payload::Bytes(b) => b,
            Payload::Shared(_) => panic!("expected an owned-bytes payload"),
        }
    }

    /// Spin until a receiver is asleep on `mb`'s condvar.
    fn until_asleep(mb: &Mailbox) {
        while mb.sleepers() == 0 {
            std::thread::yield_now();
        }
    }

    /// Spin until `flag` is raised. A receiver raises it from its abort
    /// check, which runs under the lock right before the wait spins or parks
    /// — so whoever takes the lock after seeing it finds the receiver doing
    /// one of the two.
    fn until_raised(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    /// How `mb`'s waits resolved so far: (immediate, spin hits, parks).
    fn resolved(mb: &Rig) -> (u64, u64, u64) {
        let w = &mb.tally;
        (w.get(Counter::WaitImmediate), w.get(Counter::WaitSpinHits), w.get(Counter::WaitParks))
    }

    #[test]
    fn deposit_take_fifo() {
        let mb = Rig::default();
        mb.deposit(KEY, bytes_env(vec![1]));
        mb.deposit(KEY, bytes_env(vec![2]));
        assert_eq!(into_bytes(mb.recv(KEY, LONG).unwrap()), vec![1]);
        assert_eq!(into_bytes(mb.recv(KEY, LONG).unwrap()), vec![2]);
        assert_eq!(mb.pending(), 0);
    }

    /// Order is per key, by arrival, across interleaved keys and senders: a
    /// take skips envelopes of other keys and pops the first of its own.
    #[test]
    fn per_key_fifo_across_interleaved_keys_and_senders() {
        let mb = Rig::default();
        let (a, b) = (KEY, (1, 2, 9));
        for (key, byte) in [(a, 1), (b, 11), (a, 2), (b, 12)] {
            mb.deposit(key, bytes_env(vec![byte]));
        }
        let got: Vec<u8> = [b, a, a, b].map(|k| into_bytes(mb.recv(k, LONG).unwrap())[0]).to_vec();
        assert_eq!((got, mb.pending()), (vec![11, 1, 2, 12], 0));
    }

    /// A zero spin budget never spins: a blocked take goes straight to its
    /// condvar.
    #[test]
    fn take_blocks_until_deposit() {
        let mb = Arc::new(Rig::default());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.recv(KEY, LONG));
        until_asleep(&mb);
        mb.deposit(KEY, bytes_env(vec![42]));
        assert_eq!(into_bytes(h.join().unwrap().unwrap()), vec![42]);
        assert_eq!(resolved(&mb), (0, 0, 1));
    }

    #[test]
    fn deposit_inside_the_budget_is_delivered_without_a_park() {
        let mb = Rig::new(LONG);
        let spinning = AtomicBool::new(false);
        let watch = || {
            spinning.store(true, Ordering::Release);
            None::<()>
        };
        let got = std::thread::scope(|s| {
            let h = s.spawn(|| mb.take(KEY, LONG, mb.waiter(), watch));
            until_raised(&spinning);
            mb.deposit(KEY, bytes_env(vec![7]));
            h.join().unwrap()
        });
        assert_eq!(into_bytes(got.unwrap()), vec![7]);
        assert_eq!(resolved(&mb), (0, 1, 0));
    }

    #[test]
    fn deposit_after_the_budget_is_delivered_with_one_park() {
        let mb = Rig::new(Duration::from_micros(1));
        std::thread::scope(|s| {
            let h = s.spawn(|| mb.recv(KEY, LONG));
            until_asleep(&mb);
            mb.deposit(KEY, bytes_env(vec![8]));
            assert_eq!(into_bytes(h.join().unwrap().unwrap()), vec![8]);
        });
        assert_eq!(resolved(&mb), (0, 0, 1));
    }

    #[test]
    fn interrupt_ends_a_spinning_wait_with_aborted() {
        let mb = Rig::new(LONG);
        let (spinning, dead) = (AtomicBool::new(false), AtomicBool::new(false));
        let peer_died = || {
            spinning.store(true, Ordering::Release);
            dead.load(Ordering::Acquire).then_some("peer dead")
        };
        let got = std::thread::scope(|s| {
            let h = s.spawn(|| mb.take(KEY, LONG, mb.waiter(), peer_died));
            until_raised(&spinning);
            dead.store(true, Ordering::Release);
            mb.notify();
            h.join().unwrap()
        });
        assert!(matches!(got, Err(Some("peer dead"))));
        assert_eq!(resolved(&mb), (0, 1, 0), "the wait ended in its spin, not after a park");
    }

    /// The deadline bounds the spin: with a 10 s budget, a zero timeout fails
    /// on the first check and a short one at its deadline.
    #[test]
    fn spin_never_outlasts_the_deadline() {
        let mb = Rig::new(LONG);
        let start = Instant::now();
        assert!(mb.recv(KEY, Duration::ZERO).is_none());
        assert_eq!(resolved(&mb), (1, 0, 0));
        let short = Duration::from_millis(5);
        assert!(mb.recv(KEY, short).is_none());
        assert_eq!(resolved(&mb), (1, 1, 0));
        assert!(start.elapsed() < LONG / 2);
    }

    #[test]
    fn take_times_out() {
        let mb = Rig::default();
        assert!(mb.recv((0, 0, 0), Duration::from_millis(20)).is_none());
    }

    /// A non-blocking take of `key`.
    fn try_take(mb: &Mailbox, key: MsgKey) -> Option<Envelope> {
        mb.try_take(|k| *k == key).map(|(_, env)| env)
    }

    #[test]
    fn try_take_nonblocking() {
        let mb = Rig::default();
        assert!(try_take(&mb, KEY).is_none());
        mb.deposit(KEY, bytes_env(vec![5]));
        assert_eq!(into_bytes(try_take(&mb, KEY).unwrap()), vec![5]);
    }

    /// The ranks-vs-cores selection, park-only side: a universe with more
    /// ranks than cores gets mailboxes with no budget, and real traffic
    /// through them resolves no wait from a spin.
    #[test]
    fn more_ranks_than_cores_never_spin() {
        use crate::wait::{spin_budget, SPIN_BUDGET};
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!((spin_budget(cores), spin_budget(cores + 1)), (SPIN_BUDGET, Duration::ZERO));
        let n = cores + 1;
        let spin_hits = crate::Universe::builder().run(n, |comm| {
            assert!(comm.waiter().spin.is_zero());
            let (next, prev) = ((comm.rank() + 1) % n, (comm.rank() + n - 1) % n);
            for round in 0..8u8 {
                comm.send(next, 1, &[round]).unwrap();
                assert_eq!(comm.recv_bytes(prev, 1).unwrap(), vec![round]);
            }
            comm.barrier().unwrap();
            comm.counters()[Counter::WaitSpinHits]
        });
        assert_eq!(spin_hits, vec![0; n]);
    }

    /// A selecting take (an early exit's sweep) pops exactly the envelopes
    /// it selects, oldest first: one sender's on one communicator, not
    /// another sender's there nor its own elsewhere.
    #[test]
    fn selecting_take_pops_only_the_selected_envelopes() {
        let mb = Rig::default();
        mb.deposit(KEY, bytes_env(vec![1]));
        mb.deposit(KEY, bytes_env(vec![2]));
        mb.deposit((1, 2, 7), bytes_env(vec![9]));
        let child = (2, 0, 7);
        mb.deposit(child, bytes_env(vec![3]));
        let sender_0 = |key: &MsgKey| key.0 == KEY.0 && key.1 == 0;
        let swept: Vec<_> = std::iter::from_fn(|| mb.try_take(sender_0))
            .map(|(k, env)| (k, into_bytes(env)))
            .collect();
        assert_eq!(swept, [(KEY, vec![1]), (KEY, vec![2])]);
        assert_eq!(into_bytes(try_take(&mb, child).unwrap()), vec![3]);
        assert_eq!(into_bytes(try_take(&mb, (1, 2, 7)).unwrap()), vec![9]);
    }
}
