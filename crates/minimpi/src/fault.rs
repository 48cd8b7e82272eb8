//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is installed on a [`crate::Universe`] before launch and
//! replayed identically on every run: faults trigger on *operation counts*
//! (each rank's Nth communication primitive) and *message match counts*
//! (the Nth message matching a `(src, dst, tag)` pattern), never on wall
//! clock. Because minimpi sends are eager/buffered and receives are matched
//! deterministically, the same plan + same program ⇒ the same failure point,
//! the same survivors, and the same partial-delivery report every time.
//!
//! Three fault kinds are supported:
//! - **Kill** — a rank dies at its Nth communication op. The liveness
//!   registry marks it dead and interrupts every blocked receiver so peers
//!   fail fast with [`crate::Error::PeerDead`] instead of burning the full
//!   watchdog timeout.
//! - **Drop** — a matched message is never deposited, modelling a missing
//!   message: the receiver waits out its watchdog, and a dropped loan leaves
//!   its sender nothing to wait on.
//! - **Delay** — a matched message is stalled for a fixed duration before
//!   its deposit (sender-side), modelling congestion and, past the
//!   watchdog, a hang.
//!
//! Rules act at the deposit, so they apply alike to an eager send's owned
//! bytes and to an `alltoallw` zero-copy loan, and a fault plan changes no
//! message's wire path. There is no corruption kind: neither an owned buffer
//! moved through an in-process mailbox nor a loan has bytes that anything
//! between sender and receiver could damage. The one real source of a wrong
//! byte is a bug in the copy kernels, which the oracle suites test directly.

use crate::comm::Tag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to do with a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Withhold the message; the receiver never sees it.
    Drop,
    /// Stall delivery by this long (the sending rank sleeps — minimpi sends
    /// are otherwise instantaneous).
    Delay(Duration),
}

/// Pattern selecting one message: the `nth` (0-based) message from
/// world rank `src` to world rank `dst`, optionally restricted to a user
/// `tag` (`None` matches any traffic, including collective phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMatcher {
    /// Sender, as a world rank.
    pub src: usize,
    /// Receiver, as a world rank.
    pub dst: usize,
    /// User tag to match, or `None` for any message (user or collective).
    pub tag: Option<Tag>,
    /// Which match fires the fault (0-based, counted per rule).
    pub nth: u64,
}

#[derive(Debug, Clone)]
struct MessageRule {
    matcher: MessageMatcher,
    action: FaultAction,
}

#[derive(Debug, Clone, Copy)]
struct Kill {
    /// World rank to kill.
    rank: usize,
    /// The 0-based communication-op index at which the rank dies.
    at_op: u64,
}

/// A reproducible schedule of injected failures.
///
/// Build one with the fluent constructors, install it via
/// [`crate::Universe::builder`], and every run replays the identical
/// failure sequence:
///
/// ```
/// use minimpi::{FaultPlan, Universe, Error};
/// use std::time::Duration;
///
/// // Rank 1 dies at its 3rd communication primitive — the send opening the
/// // second barrier — so rank 0 blocks on a message that never comes and
/// // fails fast with Error::PeerDead instead of waiting out the watchdog.
/// let plan = FaultPlan::new().kill_rank_at_op(1, 2);
/// let out = Universe::builder()
///     .timeout(Duration::from_secs(5))
///     .fault_plan(plan)
///     .run(2, |comm| comm.barrier().and_then(|_| comm.barrier()));
/// assert_eq!(out[0], Err(Error::PeerDead { rank: 1 })); // survivor
/// assert_eq!(out[1], Err(Error::PeerDead { rank: 1 })); // the casualty itself
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    kills: Vec<Kill>,
    rules: Vec<MessageRule>,
}

impl FaultPlan {
    /// Empty plan; add failures with the fluent constructors.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Kill world rank `rank` at its `at_op`-th (0-based) communication
    /// primitive (send, receive, or collective phase).
    pub fn kill_rank_at_op(mut self, rank: usize, at_op: u64) -> Self {
        self.kills.push(Kill { rank, at_op });
        self
    }

    /// Drop the `nth` message from `src` to `dst` (world ranks), optionally
    /// restricted to user `tag`.
    pub fn drop_message(mut self, src: usize, dst: usize, tag: Option<Tag>, nth: u64) -> Self {
        self.rules.push(MessageRule {
            matcher: MessageMatcher { src, dst, tag, nth },
            action: FaultAction::Drop,
        });
        self
    }

    /// Delay the `nth` message from `src` to `dst` by `delay`.
    pub fn delay_message(
        mut self,
        src: usize,
        dst: usize,
        tag: Option<Tag>,
        nth: u64,
        delay: Duration,
    ) -> Self {
        self.rules.push(MessageRule {
            matcher: MessageMatcher { src, dst, tag, nth },
            action: FaultAction::Delay(delay),
        });
        self
    }

    /// Derive a single-kill plan from `seed` alone: some rank in
    /// `0..nprocs` dies at some op in `0..max_op`. Used by seed-sweep tests
    /// to scatter one failure per seed across the execution.
    pub fn seeded(seed: u64, nprocs: usize, max_op: u64) -> Self {
        assert!(nprocs > 0 && max_op > 0);
        let h = mix64(seed);
        let rank = (h % nprocs as u64) as usize;
        let at_op = mix64(h) % max_op;
        FaultPlan::new().kill_rank_at_op(rank, at_op)
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.rules.is_empty()
    }
}

/// Verdict for one message after rule matching.
pub(crate) enum MessageVerdict {
    Deliver,
    Drop,
    DeliverAfter(Duration),
}

/// Shared runtime state evaluating a [`FaultPlan`]: per-rule match counters
/// (atomic so rank threads evaluate lock-free). Per-rank op counters live in
/// the world state — they are maintained whether or not a plan is installed.
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Messages matched so far, per rule.
    matches: Vec<AtomicU64>,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Self {
        let matches = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
        FaultState { plan, matches }
    }

    /// Does a kill fault fire for world rank `rank` on its 0-based op `op`?
    pub fn should_kill(&self, rank: usize, op: u64) -> bool {
        self.plan.kills.iter().any(|k| k.rank == rank && k.at_op == op)
    }

    /// Apply message rules to a message from world rank `src` to world rank
    /// `dst`. `key_tag` is the internal key tag (user tag or collective
    /// encoding); rules with `tag: Some(t)` match only user messages with
    /// that tag.
    pub fn on_message(&self, src: usize, dst: usize, key_tag: u64) -> MessageVerdict {
        let mut verdict = MessageVerdict::Deliver;
        for (i, rule) in self.plan.rules.iter().enumerate() {
            let m = &rule.matcher;
            if m.src != src || m.dst != dst {
                continue;
            }
            if let Some(t) = m.tag {
                if key_tag != t as u64 {
                    continue;
                }
            }
            let count = self.matches[i].fetch_add(1, Ordering::Relaxed);
            if count != m.nth {
                continue;
            }
            match rule.action {
                FaultAction::Drop => return MessageVerdict::Drop,
                FaultAction::Delay(d) => verdict = MessageVerdict::DeliverAfter(d),
            }
        }
        verdict
    }
}

/// splitmix64 finalizer — the crate's standard deterministic mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fires_on_exact_op() {
        let st = FaultState::new(FaultPlan::new().kill_rank_at_op(1, 2));
        assert!(!st.should_kill(1, 0));
        assert!(!st.should_kill(1, 1));
        assert!(st.should_kill(1, 2));
        assert!(!st.should_kill(0, 2));
    }

    #[test]
    fn drop_matches_nth_only() {
        let st = FaultState::new(FaultPlan::new().drop_message(0, 1, Some(7), 1));
        assert!(matches!(st.on_message(0, 1, 7), MessageVerdict::Deliver));
        assert!(matches!(st.on_message(0, 1, 7), MessageVerdict::Drop));
        assert!(matches!(st.on_message(0, 1, 7), MessageVerdict::Deliver));
    }

    #[test]
    fn tag_filter_ignores_other_traffic() {
        let st = FaultState::new(FaultPlan::new().drop_message(0, 1, Some(7), 0));
        // Collective key-tags (high bit set) never equal a user tag.
        assert!(matches!(st.on_message(0, 1, 1 << 63), MessageVerdict::Deliver));
        assert!(matches!(st.on_message(0, 1, 7), MessageVerdict::Drop));
    }

    /// A dropped loan is a missing message: the receiver's watchdog names
    /// the source in a `Timeout`, and the sender, with no loan out to wait
    /// on, returns at once rather than after the watchdog.
    #[test]
    fn a_dropped_loan_times_the_receiver_out_and_frees_the_sender() {
        use crate::{Datatype, Error, Universe};
        use std::sync::Barrier;
        use std::time::Instant;
        let watchdog = Duration::from_millis(600);
        // The sender stays alive until the receiver has timed out, so the
        // receiver's wait ends on the watchdog, not on a departed peer.
        let done = Barrier::new(2);
        let plan = FaultPlan::new().drop_message(0, 1, None, 0);
        let out = Universe::builder().timeout(watchdog).fault_plan(plan).run(2, |comm| {
            let contig = Datatype::Contiguous { len_bytes: 64, offset: 0 };
            let types = match comm.rank() {
                0 => [Datatype::Empty, contig],
                _ => [contig, Datatype::Empty],
            };
            // Both ranks lend 64 bytes to the other; only 0 → 1 is dropped.
            let (send, mut recv) = ([7u8; 64], [0u8; 64]);
            let start = Instant::now();
            let res = comm.alltoallw(&send, &types, &mut recv, &types).map(|()| recv);
            let took = start.elapsed();
            done.wait();
            (res, took, comm.counters()[crate::Counter::ZerocopyMsgs])
        });
        let (got, sender_took, loans) = &out[0];
        assert_eq!(*got, Ok([7u8; 64]), "the loan from rank 1 still lands");
        assert!(*sender_took < watchdog / 2, "the sender waited {sender_took:?}");
        assert_eq!(*loans, 1, "the withheld loan is not counted");
        match &out[1].0 {
            Err(Error::Timeout { rank: 1, src: Some(0), .. }) => {}
            other => panic!("the receiver must time out naming rank 0: {other:?}"),
        }
    }

    #[test]
    fn seeded_plan_is_reproducible_and_in_range() {
        for seed in 0..50 {
            let p1 = FaultPlan::seeded(seed, 6, 40);
            let p2 = FaultPlan::seeded(seed, 6, 40);
            assert_eq!(p1.kills[0].rank, p2.kills[0].rank);
            assert_eq!(p1.kills[0].at_op, p2.kills[0].at_op);
            assert!(p1.kills[0].rank < 6);
            assert!(p1.kills[0].at_op < 40);
        }
    }
}
