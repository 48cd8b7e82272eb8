//! Per-rank message stores with blocking, tag-matched retrieval.

use crate::flow::{FlowCharge, FlowLedger};
use crate::zerocopy::ZcHandle;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// A lent region of the sender's buffer; the sender blocks until the
    /// receiver copies it (or the loan is revoked).
    Shared(ZcHandle),
}

/// A message queued for delivery. `src` is re-recorded so any-source
/// receives can report where a message came from. `epoch` is the membership
/// epoch of the *sending* communicator handle; receivers and the
/// reconfigure-time sweep reject envelopes whose epoch is not current
/// (dropping a stale `Shared` payload revokes the loan, waking its sender).
pub(crate) struct Envelope {
    pub src: usize,
    pub epoch: u64,
    pub payload: Payload,
    /// Seeded 64-bit checksum of the pristine payload, computed at
    /// pack/lend time (before fault injection) and verified at match/claim
    /// time. `None` when checksumming is disabled (`DDR_CHECKSUM=0`).
    pub checksum: Option<u64>,
    /// Corrupt-fault keystream inits for a `Shared` payload: a zero-copy
    /// loan has no in-flight bytes to scramble at lend time, so the injector
    /// records which corrupt rules fired and the *receiver* applies the
    /// scramble to its own copy at claim time. Empty (no allocation) in the
    /// overwhelmingly common clean case; always empty for `Bytes`.
    pub taints: Vec<u64>,
    /// Sender's vector-clock snapshot, piggybacked when checking is enabled
    /// (`None` otherwise) and joined into the receiver's clock at delivery.
    pub clock: Option<crate::vclock::VectorClock>,
    /// Sender's datatype signature, stamped when checking is enabled and
    /// verified against the receiver's declared expectation.
    pub type_sig: Option<crate::check::TypeSig>,
    /// Flow-control credits this envelope holds while queued. Released by
    /// the mailbox exactly once — when the envelope is popped for delivery
    /// or discarded by the epoch sweep — which is what makes credit grants
    /// "piggyback" on delivery and makes the sweep an exact credit reset
    /// across [`crate::Comm::reconfigure`]. `None` for control traffic.
    pub charge: Option<FlowCharge>,
}

#[derive(Default)]
struct Queues {
    by_key: HashMap<MsgKey, VecDeque<Envelope>>,
}

/// One rank's incoming message store.
///
/// Senders deposit into the receiving rank's mailbox and notify the condvar;
/// receivers block until a matching key has a queued message. FIFO order is
/// preserved per key, matching MPI's non-overtaking rule for messages with
/// the same (source, tag, communicator).
#[derive(Default)]
pub(crate) struct Mailbox {
    queues: Mutex<Queues>,
    cv: Condvar,
    /// World rank that owns (receives from) this mailbox — the credit
    /// pair's column when releasing charges.
    owner: usize,
    /// The universe's flow ledger; `None` in bare unit tests.
    flow: Option<Arc<FlowLedger>>,
}

impl Mailbox {
    /// A mailbox wired to the universe's flow ledger: every charged
    /// envelope it releases returns its credits to `flow`.
    pub fn with_flow(owner: usize, flow: Arc<FlowLedger>) -> Self {
        Mailbox { owner, flow: Some(flow), ..Default::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Return the envelope's credits (if any) to the ledger. Called exactly
    /// once per charged envelope: on pop-for-delivery or on epoch sweep.
    /// `take()` makes a second call a no-op by construction.
    fn settle(&self, env: &mut Envelope) {
        if let Some(charge) = env.charge.take() {
            if let Some(flow) = &self.flow {
                flow.release(charge, self.owner);
            }
        }
    }

    pub fn deposit(&self, key: MsgKey, env: Envelope) {
        // The sender acquired this envelope's credits *before* depositing,
        // so the queue depth per (sender, receiver) pair can never exceed
        // the configured window.
        #[cfg(debug_assertions)]
        if let (Some(flow), Some(charge)) = (&self.flow, env.charge.as_ref()) {
            debug_assert!(
                flow.pair_within_cap(charge.src_world, self.owner),
                "deposit from world rank {} would exceed the credit cap",
                charge.src_world
            );
        }
        let mut q = self.lock();
        q.by_key.entry(key).or_default().push_back(env);
        drop(q);
        // Receivers may be waiting on any key; notify them all. The queue
        // itself is bounded by the credit window: a sender without credits
        // parks on the flow gate and never reaches this deposit.
        self.cv.notify_all();
    }

    /// Wake any blocked receiver so it can re-check liveness conditions
    /// (used when a rank dies or departs).
    pub fn interrupt(&self) {
        // Take the lock so the wakeup cannot slot between a receiver's
        // condition check and its wait.
        drop(self.lock());
        self.cv.notify_all();
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

    /// Like [`Mailbox::take`], but also gives up early — returning
    /// [`TakeOutcome::Aborted`] — once `abort()` reports true and no matching
    /// message is queued.
    pub fn take_watched(
        &self,
        key: MsgKey,
        timeout: Duration,
        abort: impl Fn() -> bool,
    ) -> TakeOutcome {
        self.take_by(timeout, abort, |q| Self::pop(q, key))
    }

    /// The one blocking wait: block until `pop` yields a message, `abort()`
    /// reports true, or `timeout` passes. Every wakeup re-checks in that
    /// order, so a queued message always wins over the abort condition
    /// ("messages sent before death are deliverable") and a deposit that
    /// races the deadline is still delivered.
    fn take_by(
        &self,
        timeout: Duration,
        abort: impl Fn() -> bool,
        pop: impl Fn(&mut Queues) -> Option<Envelope>,
    ) -> TakeOutcome {
        let deadline = Instant::now() + timeout;
        let mut q = self.lock();
        loop {
            if let Some(mut env) = pop(&mut q) {
                drop(q);
                self.settle(&mut env);
                return TakeOutcome::Delivered(env);
            }
            if abort() {
                return TakeOutcome::Aborted;
            }
            let now = Instant::now();
            if now >= deadline {
                return TakeOutcome::TimedOut;
            }
            q = match self.cv.wait_timeout(q, deadline - now) {
                Ok((guard, _)) => guard,
                Err(e) => e.into_inner().0,
            };
        }
    }

    fn pop(q: &mut Queues, key: MsgKey) -> Option<Envelope> {
        let dq = q.by_key.get_mut(&key)?;
        let env = dq.pop_front();
        if dq.is_empty() {
            q.by_key.remove(&key);
        }
        env
    }

    /// Non-blocking probe-and-take.
    pub fn try_take(&self, key: MsgKey) -> Option<Envelope> {
        let mut env = Self::pop(&mut self.lock(), key)?;
        self.settle(&mut env);
        Some(env)
    }

    /// Drop every queued envelope whose epoch is not `current_epoch` and
    /// return how many were fenced. Called by the reconfigure leader after
    /// the epoch bump: pre-reconfiguration messages must never match a
    /// post-reconfiguration receive, and dropping a stale zero-copy loan
    /// revokes it so its sender is released instead of waiting out the
    /// watchdog.
    pub fn sweep_stale(&self, current_epoch: u64) -> u64 {
        let mut q = self.lock();
        let mut fenced = 0u64;
        q.by_key.retain(|_, dq| {
            dq.retain_mut(|env| {
                let keep = env.epoch == current_epoch;
                if !keep {
                    fenced += 1;
                    // Discarding a stale envelope returns its credits: the
                    // sweep is the epoch-fenced credit reset, so a
                    // reconfigure can neither leak nor duplicate credits.
                    self.settle(env);
                }
                keep
            });
            !dq.is_empty()
        });
        drop(q);
        if fenced > 0 {
            self.cv.notify_all();
        }
        fenced
    }

    /// Whether a message with `key` is currently queued (used by the
    /// deadlock detector to rule out satisfiable waits — with eager sends,
    /// an in-flight message is always already queued here).
    pub fn contains(&self, key: MsgKey) -> bool {
        self.lock().by_key.contains_key(&key)
    }

    /// Block until a message with communicator `comm_id` and tag `tag` from
    /// *any* source is available. Scans sources in ascending order starting
    /// at `start` (wrapping) — deterministic when several are ready, but a
    /// seeded scheduler can rotate the preference to explore different
    /// delivery orders. Gives up early when `abort()` reports true (e.g.
    /// every possible source is dead).
    pub fn take_any_watched(
        &self,
        comm_id: u64,
        tag: u64,
        size: usize,
        start: usize,
        timeout: Duration,
        abort: impl Fn() -> bool,
    ) -> TakeOutcome {
        self.take_by(timeout, abort, |q| {
            (0..size).find_map(|i| Self::pop(q, (comm_id, (start + i) % size.max(1), tag)))
        })
    }

    /// Number of queued messages (diagnostics only).
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.lock().by_key.values().map(|d| d.len()).sum()
    }
}

/// Result of a blocking mailbox retrieval.
///
/// `Delivered` is much larger than the unit variants, but every take site
/// destructures the outcome immediately — boxing the envelope would add an
/// allocation per delivery for a value that never outlives the match.
#[allow(clippy::large_enum_variant)]
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
    use std::sync::Arc;

    fn bytes_env(src: usize, bytes: Vec<u8>) -> Envelope {
        Envelope {
            src,
            epoch: 0,
            payload: Payload::Bytes(bytes),
            checksum: None,
            taints: Vec::new(),
            clock: None,
            type_sig: None,
            charge: None,
        }
    }

    fn into_bytes(env: Envelope) -> Vec<u8> {
        match env.payload {
            Payload::Bytes(b) => b,
            Payload::Shared(_) => panic!("expected an owned-bytes payload"),
        }
    }

    #[test]
    fn deposit_take_fifo() {
        let mb = Mailbox::default();
        let key = (1, 0, 7);
        mb.deposit(key, bytes_env(0, vec![1]));
        mb.deposit(key, bytes_env(0, vec![2]));
        assert_eq!(into_bytes(mb.take(key, Duration::from_secs(1)).unwrap()), vec![1]);
        assert_eq!(into_bytes(mb.take(key, Duration::from_secs(1)).unwrap()), vec![2]);
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn take_blocks_until_deposit() {
        let mb = Arc::new(Mailbox::default());
        let key = (9, 3, 0);
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.take(key, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        mb.deposit(key, bytes_env(3, vec![42]));
        assert_eq!(into_bytes(h.join().unwrap().unwrap()), vec![42]);
    }

    #[test]
    fn take_times_out() {
        let mb = Mailbox::default();
        assert!(mb.take((0, 0, 0), Duration::from_millis(20)).is_none());
    }

    #[test]
    fn try_take_nonblocking() {
        let mb = Mailbox::default();
        let key = (1, 1, 1);
        assert!(mb.try_take(key).is_none());
        mb.deposit(key, bytes_env(1, vec![5]));
        assert_eq!(into_bytes(mb.try_take(key).unwrap()), vec![5]);
    }

    #[test]
    fn take_any_prefers_lowest_source() {
        let mb = Mailbox::default();
        mb.deposit((2, 4, 8), bytes_env(4, vec![4]));
        mb.deposit((2, 1, 8), bytes_env(1, vec![1]));
        let env = match mb.take_any_watched(2, 8, 8, 0, Duration::from_secs(1), || false) {
            TakeOutcome::Delivered(env) => env,
            _ => panic!("expected delivery"),
        };
        assert_eq!(env.src, 1);
    }
}
