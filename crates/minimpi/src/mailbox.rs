//! Per-rank message stores with blocking, tag-matched retrieval and a
//! per-pair depth bound.

use crate::wait::{spin_until, Resolved, Waiter};
use crate::zerocopy::{TransportCells, ZcHandle};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default per-pair depth: messages one sender may have queued at one
/// receiver before its next deposit parks.
///
/// A safety net for a producer that outruns its consumer (the in-transit
/// stream; the paper had a socket buffer for this), not a tuning knob: a
/// traced `--smoke` run of the four `BENCHMARK.json` workloads at PR 16
/// (2 ranks / 2 cores) read `flow.credit_waits` 0 and `flow.stalled_ms` 0 on
/// all of them, with peak staged bytes of 264 B / 16 KiB / 7 KiB / 72 KiB
/// against this 32 MiB — `reorganize` runs one exchange at a time, so a pair never
/// holds more than two DDR messages. Only
/// [`crate::UniverseBuilder::flow_control`] resizes it, for the suites that
/// must *reach* the bound.
pub(crate) const PAIR_MSGS: usize = 1024;
/// Default per-pair depth in staged payload bytes (see [`PAIR_MSGS`]).
pub(crate) const PAIR_BYTES: usize = 32 << 20;

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
/// revokes the loan, waking its sender.
pub(crate) struct Envelope {
    pub payload: Payload,
    /// Element size of the payload in bytes, stamped by typed sends and
    /// checked by typed receives; `1` for untyped bytes.
    pub elem: u32,
    /// Sender's *world* rank, whose pair this envelope counts against
    /// (envelopes carry communicator-local ranks, but the bound must survive
    /// splits and renumbering).
    pub pair: usize,
}

impl Envelope {
    /// Bytes this envelope holds against its pair's byte bound: the staged
    /// payload. A loan occupies a slot but stages nothing.
    fn staged_len(&self) -> usize {
        match &self.payload {
            Payload::Bytes(b) => b.len(),
            Payload::Shared(_) => 0,
        }
    }
}

/// What one sender currently has queued here.
#[derive(Default, Clone, Copy)]
struct Pair {
    msgs: usize,
    bytes: usize,
}

#[derive(Default)]
struct Queues {
    /// Every queued envelope with its key, in arrival order; a take pops the
    /// first with its key. One scanned queue, not a map of queues: a DDR pair
    /// holds at most two messages ([`PAIR_MSGS`]) and collective keys never
    /// repeat, so a map would insert and remove an entry per message.
    fifo: VecDeque<(MsgKey, Envelope)>,
    /// Queued depth per sending world rank. Charged by `deposit`, given back
    /// by every pop and by [`Mailbox::discard`] — all under this one lock,
    /// so a pair counts exactly what is still queued.
    pairs: Vec<Pair>,
    /// Senders currently waiting for room (spinning or asleep on `room`).
    parked: usize,
    /// Threads currently asleep in [`Mailbox::wait_until`], on either
    /// condvar. A deposit that finds none skips its notify: std's futex
    /// condvar makes the wake syscall whether or not anyone waits.
    sleepers: usize,
}

/// Give a popped or discarded envelope's slot back to its pair.
fn give_back(pairs: &mut [Pair], env: &Envelope) {
    pairs[env.pair].msgs -= 1;
    pairs[env.pair].bytes -= env.staged_len();
}

/// One rank's incoming message store — one queue, bounded per sender.
///
/// Senders deposit into the receiving rank's mailbox and notify the condvar;
/// receivers block until a matching key has a queued message. FIFO order is
/// preserved per key, matching MPI's non-overtaking rule for messages with
/// the same (source, tag, communicator). A sender whose pair is full parks
/// on `room` until the receiver pops, under the same deadline / abort rule
/// receives use.
pub(crate) struct Mailbox {
    queues: Mutex<Queues>,
    cv: Condvar,
    /// Sibling of `cv` on the same mutex: parked senders wait here, pops and
    /// discards signal it.
    room: Condvar,
    /// Event sequence number, bumped under `queues`' lock by everything that
    /// notifies a condvar. A spinning waiter holds no lock and watches this
    /// instead, re-taking the lock only when something happened. `Relaxed`
    /// on both sides: the number publishes nothing — whoever sees it move
    /// takes the lock before reading anything the event changed.
    events: AtomicU64,
    /// The owning rank's wait policy and tally; its lender waits
    /// ([`crate::zerocopy::ZcCell::wait`]) go through it too.
    pub waiter: Waiter,
    /// Per-pair depth in messages and staged bytes; `0` = unbounded.
    max_msgs: usize,
    max_bytes: usize,
}

impl Mailbox {
    /// The mailbox of one rank in a universe of `n`, holding at most
    /// `max_msgs` messages and `max_bytes` staged bytes per sender; waits on
    /// it spin for `spin` before they park.
    pub fn bounded(n: usize, max_msgs: usize, max_bytes: usize, spin: Duration) -> Self {
        let queues = Queues { pairs: vec![Pair::default(); n], ..Default::default() };
        Mailbox {
            queues: Mutex::new(queues),
            cv: Condvar::new(),
            room: Condvar::new(),
            events: AtomicU64::new(0),
            waiter: Waiter::new(spin),
            max_msgs,
            max_bytes,
        }
    }

    /// Tell spinning waiters something happened. Call with the lock held.
    fn bump(&self) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether `pair` can take one more message of `bytes`. A message larger
    /// than the whole byte bound is admitted into an *empty* pair, so
    /// oversize transfers degrade to stop-and-wait instead of never fitting.
    fn has_room(&self, pair: Pair, bytes: usize) -> bool {
        (self.max_msgs == 0 || pair.msgs < self.max_msgs)
            && (self.max_bytes == 0 || pair.bytes == 0 || pair.bytes + bytes <= self.max_bytes)
    }

    /// Reserve a slot in the sender's pair and enqueue `env` — one step under
    /// one lock, so nothing is ever reserved without being queued. A full
    /// pair parks the sender on `room` under [`Mailbox::wait_until`]'s rule:
    /// until a pop or discard makes room, `abort()` yields an error
    /// (`Err(Some(_))`), or `timeout` passes (`Err(None)`) — counted, with
    /// the time parked, in `stalls`. A refused envelope is dropped (revoking
    /// a loan it carried) and leaves no count behind.
    pub fn deposit<E>(
        &self,
        key: MsgKey,
        env: Envelope,
        timeout: Duration,
        abort: impl Fn() -> Option<E>,
        stalls: &TransportCells,
    ) -> Result<(), Option<E>> {
        let mut q = self.lock();
        let (src, bytes) = (env.pair, env.staged_len());
        if !self.has_room(q.pairs[src], bytes) {
            let start = Instant::now();
            stalls.credit_waits.fetch_add(1, Ordering::Relaxed);
            q.parked += 1;
            let room = |q: &mut Queues| self.has_room(q.pairs[src], bytes).then_some(());
            let (guard, admitted) = self.wait_until(&self.room, q, timeout, abort, room);
            q = guard;
            q.parked -= 1;
            stalls.stalled_us.fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            admitted?;
        }
        q.pairs[src].msgs += 1;
        q.pairs[src].bytes += bytes;
        q.fifo.push_back((key, env));
        self.bump();
        let asleep = q.sleepers > 0;
        drop(q);
        if asleep {
            // Receivers may be waiting on any key; notify them all.
            self.cv.notify_all();
        }
        Ok(())
    }

    /// Wake every blocked receiver and parked sender so they re-check their
    /// liveness conditions (used when a rank dies or departs).
    pub fn interrupt(&self) {
        // Take the lock so the wakeup cannot slot between a waiter's
        // condition check and its wait.
        let q = self.lock();
        self.bump();
        drop(q);
        self.cv.notify_all();
        self.room.notify_all();
    }

    /// Block until a message with `key` is available, or `deadline` passes.
    /// Returns `None` on timeout.
    #[cfg(test)]
    pub fn take(&self, key: MsgKey, timeout: Duration) -> Option<Envelope> {
        match self.take_watched(key, timeout, || false) {
            TakeOutcome::Delivered(env) => Some(env),
            _ => None,
        }
    }

    /// Block until a message with `key` is available ([`TakeOutcome::Delivered`]),
    /// `timeout` passes, or `abort()` reports true while no matching message
    /// is queued ([`TakeOutcome::Aborted`]).
    pub fn take_watched(
        &self,
        key: MsgKey,
        timeout: Duration,
        abort: impl Fn() -> bool,
    ) -> TakeOutcome {
        let pop = |q: &mut Queues| self.pop(q, key);
        match self.wait_until(&self.cv, self.lock(), timeout, || abort().then_some(()), pop).1 {
            Ok(env) => TakeOutcome::Delivered(env),
            Err(Some(())) => TakeOutcome::Aborted,
            Err(None) => TakeOutcome::TimedOut,
        }
    }

    /// The one blocking wait, for receivers (on `cv`) and parked senders (on
    /// `room`) alike: block until `ready` yields, `abort()` yields an error
    /// (`Err(Some(_))`), or `timeout` passes (`Err(None)`). Every wakeup
    /// re-checks in that order, so a queued message always wins over the
    /// abort condition ("messages sent before death are deliverable") and a
    /// deposit or pop that races the deadline still counts.
    ///
    /// Check, spin, then park: for the first `waiter.spin` of the wait (never
    /// past the deadline) the lock is released and the waiter watches
    /// `events`; every event sends it back through the checks above. Nothing
    /// is lost in between — `events` is read under the lock the checks ran
    /// under, and the park that follows re-checks under the lock again.
    fn wait_until<'a, T, E>(
        &'a self,
        cv: &Condvar,
        mut q: MutexGuard<'a, Queues>,
        timeout: Duration,
        abort: impl Fn() -> Option<E>,
        ready: impl Fn(&mut Queues) -> Option<T>,
    ) -> (MutexGuard<'a, Queues>, Result<T, Option<E>>) {
        let start = Instant::now();
        let deadline = start + timeout;
        let spin_end = (start + self.waiter.spin).min(deadline);
        let mut how = Resolved::Immediate;
        let outcome = loop {
            if let Some(t) = ready(&mut q) {
                break Ok(t);
            }
            if let Some(e) = abort() {
                break Err(Some(e));
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(None);
            }
            if now < spin_end {
                how = Resolved::SpinHit;
                let seen = self.events.load(Ordering::Relaxed);
                drop(q);
                spin_until(spin_end, || self.events.load(Ordering::Relaxed) != seen);
                q = self.lock();
                continue;
            }
            how = Resolved::Park;
            q.sleepers += 1;
            q = match cv.wait_timeout(q, deadline - now) {
                Ok((guard, _)) => guard,
                Err(e) => e.into_inner().0,
            };
            q.sleepers -= 1;
        };
        self.waiter.note(how);
        (q, outcome)
    }

    /// The one pop: every delivery gives its slot back and wakes parked
    /// senders under the lock the caller already holds.
    fn pop(&self, q: &mut Queues, key: MsgKey) -> Option<Envelope> {
        let at = q.fifo.iter().position(|(k, _)| *k == key)?;
        let (_, env) = q.fifo.remove(at)?;
        give_back(&mut q.pairs, &env);
        if q.parked > 0 {
            self.bump();
            self.room.notify_all();
        }
        Some(env)
    }

    /// Non-blocking probe-and-take.
    #[cfg(test)]
    pub fn try_take(&self, key: MsgKey) -> Option<Envelope> {
        self.pop(&mut self.lock(), key)
    }

    /// Drop every queued envelope `doomed(key, envelope)` selects, giving
    /// each one's slot back to its pair and waking any sender parked for
    /// room. Dropping a loan revokes it. Returns how many were dropped.
    pub fn discard(&self, doomed: impl Fn(&MsgKey, &Envelope) -> bool) -> usize {
        let mut q = self.lock();
        let Queues { fifo, pairs, .. } = &mut *q;
        let before = fifo.len();
        fifo.retain(|(key, env)| {
            let doomed = doomed(key, env);
            if doomed {
                give_back(pairs, env);
            }
            !doomed
        });
        let dropped = before - fifo.len();
        self.bump();
        drop(q);
        self.room.notify_all();
        dropped
    }

    /// Whether a message with `key` is currently queued.
    #[cfg(test)]
    pub fn contains(&self, key: MsgKey) -> bool {
        self.lock().fifo.iter().any(|(k, _)| *k == key)
    }

    /// Number of queued messages (diagnostics only).
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.lock().fifo.len()
    }
}

/// Result of a blocking mailbox retrieval.
pub(crate) enum TakeOutcome {
    /// A matching message arrived (or was already queued).
    Delivered(Envelope),
    /// The watchdog deadline passed with no matching message.
    TimedOut,
    /// The abort condition fired — e.g. the awaited peer is dead.
    Aborted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const KEY: MsgKey = (1, 0, 7);
    const LONG: Duration = Duration::from_secs(10);

    /// A data envelope from world rank `src`, counted against its pair.
    fn bytes_env(src: usize, bytes: Vec<u8>) -> Envelope {
        Envelope { payload: Payload::Bytes(bytes), elem: 1, pair: src }
    }

    /// A mailbox with no depth bound and no spin, in a universe of 3.
    fn unbounded() -> Mailbox {
        Mailbox::bounded(3, 0, 0, Duration::ZERO)
    }

    /// Deposit with no abort rule: `Err(None)` is a timeout.
    fn put(mb: &Mailbox, key: MsgKey, env: Envelope, timeout: Duration) -> Result<(), Option<()>> {
        mb.deposit(key, env, timeout, || None, &TransportCells::default())
    }

    fn into_bytes(env: Envelope) -> Vec<u8> {
        match env.payload {
            Payload::Bytes(b) => b,
            Payload::Shared(_) => panic!("expected an owned-bytes payload"),
        }
    }

    /// Spin until a sender is parked on `mb`.
    fn until_parked(mb: &Mailbox) {
        while mb.lock().parked == 0 {
            std::thread::yield_now();
        }
    }

    /// Spin until a waiter is asleep on one of `mb`'s condvars.
    fn until_asleep(mb: &Mailbox) {
        while mb.lock().sleepers == 0 {
            std::thread::yield_now();
        }
    }

    /// Spin until `flag` is raised. A waiter raises it from its abort check,
    /// which runs under the lock right before the wait spins or parks — so
    /// whoever takes the lock after seeing it finds the waiter doing one of
    /// the two.
    fn until_raised(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    /// How `mb`'s waits resolved so far: (immediate, spin hits, parks).
    fn resolved(mb: &Mailbox) -> (u64, u64, u64) {
        let w = &mb.waiter;
        (w.count(Resolved::Immediate), w.count(Resolved::SpinHit), w.count(Resolved::Park))
    }

    /// (messages, staged bytes) world rank `src` has queued in `mb`.
    fn depth(mb: &Mailbox, src: usize) -> (usize, usize) {
        let p = mb.lock().pairs[src];
        (p.msgs, p.bytes)
    }

    #[test]
    fn deposit_take_fifo() {
        let mb = unbounded();
        put(&mb, KEY, bytes_env(0, vec![1]), LONG).unwrap();
        put(&mb, KEY, bytes_env(0, vec![2]), LONG).unwrap();
        assert_eq!(into_bytes(mb.take(KEY, LONG).unwrap()), vec![1]);
        assert_eq!(into_bytes(mb.take(KEY, LONG).unwrap()), vec![2]);
        assert_eq!(mb.pending(), 0);
    }

    /// Order is per key, by arrival, across interleaved keys and senders: a
    /// take skips envelopes of other keys and pops the first of its own.
    #[test]
    fn per_key_fifo_across_interleaved_keys_and_senders() {
        let mb = unbounded();
        let (a, b) = (KEY, (1, 2, 9));
        for (key, src, byte) in [(a, 0, 1), (b, 2, 11), (a, 0, 2), (b, 2, 12)] {
            put(&mb, key, bytes_env(src, vec![byte]), LONG).unwrap();
        }
        let got: Vec<u8> = [b, a, a, b].map(|k| into_bytes(mb.take(k, LONG).unwrap())[0]).to_vec();
        assert_eq!((got, mb.pending()), (vec![11, 1, 2, 12], 0));
    }

    /// A zero spin budget never spins: a blocked take goes straight to its
    /// condvar.
    #[test]
    fn take_blocks_until_deposit() {
        let mb = Arc::new(unbounded());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.take(KEY, LONG));
        until_asleep(&mb);
        put(&mb, KEY, bytes_env(0, vec![42]), LONG).unwrap();
        assert_eq!(into_bytes(h.join().unwrap().unwrap()), vec![42]);
        assert_eq!(resolved(&mb), (0, 0, 1));
    }

    #[test]
    fn deposit_inside_the_budget_is_delivered_without_a_park() {
        let mb = Mailbox::bounded(2, 0, 0, LONG);
        let spinning = AtomicBool::new(false);
        let watch = || {
            spinning.store(true, Ordering::Release);
            false
        };
        let got = std::thread::scope(|s| {
            let h = s.spawn(|| mb.take_watched(KEY, LONG, watch));
            until_raised(&spinning);
            put(&mb, KEY, bytes_env(0, vec![7]), LONG).unwrap();
            h.join().unwrap()
        });
        let TakeOutcome::Delivered(env) = got else { panic!("expected delivery") };
        assert_eq!(into_bytes(env), vec![7]);
        assert_eq!(resolved(&mb), (0, 1, 0));
    }

    #[test]
    fn deposit_after_the_budget_is_delivered_with_one_park() {
        let mb = Mailbox::bounded(2, 0, 0, Duration::from_micros(1));
        std::thread::scope(|s| {
            let h = s.spawn(|| mb.take(KEY, LONG));
            until_asleep(&mb);
            put(&mb, KEY, bytes_env(0, vec![8]), LONG).unwrap();
            assert_eq!(into_bytes(h.join().unwrap().unwrap()), vec![8]);
        });
        assert_eq!(resolved(&mb), (0, 0, 1));
    }

    #[test]
    fn interrupt_ends_a_spinning_wait_with_aborted() {
        let mb = Mailbox::bounded(2, 0, 0, LONG);
        let (spinning, dead) = (AtomicBool::new(false), AtomicBool::new(false));
        let peer_died = || {
            spinning.store(true, Ordering::Release);
            dead.load(Ordering::Acquire)
        };
        let got = std::thread::scope(|s| {
            let h = s.spawn(|| mb.take_watched(KEY, LONG, peer_died));
            until_raised(&spinning);
            dead.store(true, Ordering::Release);
            mb.interrupt();
            h.join().unwrap()
        });
        assert!(matches!(got, TakeOutcome::Aborted));
        assert_eq!(resolved(&mb), (0, 1, 0), "the wait ended in its spin, not after a park");
    }

    /// The deadline bounds the spin: with a 10 s budget, a zero timeout fails
    /// on the first check and a short one at its deadline.
    #[test]
    fn spin_never_outlasts_the_deadline() {
        let mb = Mailbox::bounded(2, 0, 0, LONG);
        let start = Instant::now();
        assert!(matches!(mb.take_watched(KEY, Duration::ZERO, || false), TakeOutcome::TimedOut));
        assert_eq!(resolved(&mb), (1, 0, 0));
        let short = Duration::from_millis(5);
        assert!(matches!(mb.take_watched(KEY, short, || false), TakeOutcome::TimedOut));
        assert_eq!(resolved(&mb), (1, 1, 0));
        assert!(start.elapsed() < LONG / 2);
    }

    #[test]
    fn take_times_out() {
        let mb = unbounded();
        assert!(mb.take((0, 0, 0), Duration::from_millis(20)).is_none());
    }

    #[test]
    fn try_take_nonblocking() {
        let mb = unbounded();
        assert!(mb.try_take(KEY).is_none());
        put(&mb, KEY, bytes_env(0, vec![5]), LONG).unwrap();
        assert_eq!(into_bytes(mb.try_take(KEY).unwrap()), vec![5]);
    }

    #[test]
    fn full_pair_parks_and_resumes_on_pop() {
        let mb = Arc::new(Mailbox::bounded(2, 1, 0, Duration::ZERO));
        put(&mb, KEY, bytes_env(0, vec![1]), LONG).unwrap();
        let stalls = Arc::new(TransportCells::default());
        let (mb2, stalls2) = (Arc::clone(&mb), Arc::clone(&stalls));
        let h = std::thread::spawn(move || {
            mb2.deposit(KEY, bytes_env(0, vec![2]), LONG, || None::<()>, &stalls2)
        });
        until_parked(&mb);
        assert_eq!(mb.pending(), 1, "a parked sender has queued nothing");
        assert_eq!(into_bytes(mb.try_take(KEY).unwrap()), vec![1]);
        h.join().unwrap().unwrap();
        assert_eq!(into_bytes(mb.try_take(KEY).unwrap()), vec![2]);
        assert_eq!((depth(&mb, 0), stalls.snapshot().credit_waits), ((0, 0), 1));
    }

    #[test]
    fn pop_during_the_spin_releases_the_parked_sender() {
        let mb = Mailbox::bounded(2, 1, 0, LONG);
        put(&mb, KEY, bytes_env(0, vec![1]), LONG).unwrap();
        let spinning = AtomicBool::new(false);
        let stalls = TransportCells::default();
        let watch = || {
            spinning.store(true, Ordering::Release);
            None::<()>
        };
        std::thread::scope(|s| {
            let h = s.spawn(|| mb.deposit(KEY, bytes_env(0, vec![2]), LONG, watch, &stalls));
            until_raised(&spinning);
            assert_eq!(into_bytes(mb.try_take(KEY).unwrap()), vec![1]);
            h.join().unwrap().unwrap();
        });
        assert_eq!(into_bytes(mb.try_take(KEY).unwrap()), vec![2]);
        assert_eq!(resolved(&mb), (0, 1, 0));
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
            assert!(comm.my_mailbox().waiter.spin.is_zero());
            let (next, prev) = ((comm.rank() + 1) % n, (comm.rank() + n - 1) % n);
            for round in 0..8u8 {
                comm.send_bytes(next, 1, &[round]).unwrap();
                assert_eq!(comm.recv_bytes(prev, 1).unwrap(), vec![round]);
            }
            comm.barrier().unwrap();
            comm.my_mailbox().waiter.count(Resolved::SpinHit)
        });
        assert_eq!(spin_hits, vec![0; n]);
    }

    #[test]
    fn oversize_message_enters_an_empty_pair_and_the_next_waits() {
        let mb = Mailbox::bounded(2, 4, 64, Duration::ZERO);
        // 100 > 64, but the pair is empty: stop-and-wait admission.
        put(&mb, KEY, bytes_env(0, vec![0; 100]), LONG).unwrap();
        // Pair non-empty now: even a small follow-up must wait.
        assert_eq!(put(&mb, KEY, bytes_env(0, vec![0; 8]), Duration::ZERO), Err(None));
        mb.try_take(KEY).unwrap();
        put(&mb, KEY, bytes_env(0, vec![0; 8]), LONG).unwrap();
        assert_eq!(depth(&mb, 0), (1, 8));
    }

    #[test]
    fn discard_frees_the_pair_and_wakes_the_parked_sender() {
        let mb = Arc::new(Mailbox::bounded(3, 2, 0, Duration::ZERO));
        put(&mb, KEY, bytes_env(0, vec![1]), LONG).unwrap();
        put(&mb, KEY, bytes_env(0, vec![2]), LONG).unwrap();
        // Another sender on the same communicator is not named: it stays.
        put(&mb, (1, 2, 7), bytes_env(2, vec![9]), LONG).unwrap();
        let child = (2, 0, 7);
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || put(&mb2, child, bytes_env(0, vec![3]), LONG));
        // Sender 0's next message, on another communicator, waits for room.
        until_parked(&mb);
        mb.discard(|key, env| key.0 == KEY.0 && env.pair == 0);
        h.join().unwrap().unwrap();
        assert_eq!(depth(&mb, 0), (1, 1), "the discard gave both slots back");
        assert!(mb.try_take(KEY).is_none());
        assert_eq!(into_bytes(mb.try_take(child).unwrap()), vec![3]);
        assert_eq!(into_bytes(mb.try_take((1, 2, 7)).unwrap()), vec![9]);
    }

    /// A shrink discards what a survivor left queued for another on the
    /// parent communicator: once the child's messages are taken, the
    /// parent's key holds nothing.
    #[test]
    fn shrink_leaves_nothing_queued_on_the_parent() {
        let out = crate::Universe::builder().timeout(LONG).run(3, |comm| {
            if comm.rank() == 2 {
                return None; // departs: the others shrink without it
            }
            if comm.rank() == 0 {
                comm.send(1, 7, &[1u8; 128]).unwrap();
                comm.send(1, 7, &[2u8; 128]).unwrap();
            }
            let child = comm.shrink().unwrap();
            if child.rank() == 0 {
                child.send(1, 7, &[3u8; 128]).unwrap();
                return None;
            }
            assert_eq!(child.recv_bytes(0, 7).unwrap(), vec![3u8; 128]);
            Some(comm.my_mailbox().try_take((comm.comm_id, 0, 7)).is_none())
        });
        assert_eq!(out[1], Some(true), "the parent's tail is gone");
    }

    #[test]
    fn abort_unparks_with_its_error_and_leaves_no_count() {
        let mb = Arc::new(Mailbox::bounded(2, 1, 0, Duration::ZERO));
        put(&mb, KEY, bytes_env(0, vec![1]), LONG).unwrap();
        let dead = Arc::new(AtomicBool::new(false));
        let (mb2, dead2) = (Arc::clone(&mb), Arc::clone(&dead));
        let h = std::thread::spawn(move || {
            let abort = || dead2.load(Ordering::Acquire).then_some("peer dead");
            mb2.deposit(KEY, bytes_env(0, vec![2]), LONG, abort, &TransportCells::default())
        });
        until_parked(&mb);
        dead.store(true, Ordering::Release);
        mb.interrupt();
        assert_eq!(h.join().unwrap(), Err(Some("peer dead")));
        assert_eq!((depth(&mb, 0), mb.pending()), ((1, 1), 1));
    }

    #[test]
    fn pairs_are_independent_and_span_every_tag() {
        let mb = Mailbox::bounded(3, 1, 0, Duration::ZERO);
        let now = Duration::ZERO;
        put(&mb, KEY, bytes_env(0, vec![1]), now).unwrap();
        // A different sender has its own depth at this receiver ...
        put(&mb, (1, 2, 7), bytes_env(2, vec![2]), now).unwrap();
        // ... while the full sender waits under any tag.
        assert_eq!(put(&mb, (1, 0, 9), bytes_env(0, vec![3]), now), Err(None));
        assert_eq!(put(&mb, KEY, bytes_env(0, vec![4]), now), Err(None));
        assert_eq!((depth(&mb, 0), depth(&mb, 1), depth(&mb, 2)), ((1, 1), (0, 0), (1, 1)));
    }

    /// A refused loan is revoked by the drop of its envelope and holds no
    /// slot once the pair drains.
    #[test]
    fn refused_loan_is_revoked_and_forgotten() {
        use crate::{Datatype, Error, Universe};
        let gate = std::sync::Barrier::new(2);
        let tag = crate::comm::coll_key_tag(0, crate::comm::Coll::Alltoallw, 0);
        let dt = Datatype::Contiguous { len_bytes: 64, offset: 0 };
        let short = Duration::from_millis(50);
        Universe::builder().flow_control(1, 0).timeout(short).run(2, |comm| {
            if comm.rank() == 0 {
                let (first, second) = ([1u8; 64], [2u8; 64]);
                let (first_bufs, second_bufs, parts): ([&[u8]; 1], [&[u8]; 1], _) =
                    ([&first], [&second], [(0, dt)]);
                // SAFETY: the loan's tables and buffer outlive its wait below.
                let cell = unsafe { comm.deposit_shared(1, tag, &first_bufs, &parts) };
                let cell = cell.unwrap().unwrap();
                // SAFETY: the full pair refuses this loan, revoking it in the call.
                let err = unsafe { comm.deposit_shared(1, tag, &second_bufs, &parts) };
                let err = err.unwrap_err();
                assert!(matches!(err, Error::Timeout { rank: 0, src: Some(1), .. }), "{err}");
                gate.wait();
                let done = cell.wait(&comm.my_mailbox().waiter, Instant::now() + LONG, || false);
                assert_eq!(done, crate::zerocopy::ZcWait::Done);
                comm.set_timeout(LONG);
                comm.send_bytes(1, 3, &second).unwrap();
                assert_eq!(comm.transport_counters().credit_waits, 1);
            } else {
                gate.wait();
                assert_eq!(comm.take_from(0, tag).unwrap(), vec![1u8; 64]);
                assert_eq!(comm.recv_bytes(0, 3).unwrap(), vec![2u8; 64]);
            }
        });
    }
}
