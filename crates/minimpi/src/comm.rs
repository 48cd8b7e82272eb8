//! Communicators and point-to-point messaging.

use crate::counters::{Counter, Counts, Slot};
use crate::datatype::Datatype;
use crate::error::{Error, Result};
use crate::fault::{mix64, FaultPlan, FaultState, MessageVerdict};
use crate::life::Liveness;
use crate::mailbox::{Envelope, Mailbox, MsgKey, Payload};
use crate::pod::{bytes_of, vec_from_bytes, Pod};
use crate::wait::Waiter;
use crate::zerocopy::{ZcCell, ZcHandle};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// User message tag. The full `u32` range is available to applications;
/// collective traffic lives in a disjoint internal namespace.
pub type Tag = u32;

/// Shared state of one [`crate::Universe`] run: a mailbox and a counter slot
/// per world rank, the liveness registry, and (optionally) the installed
/// fault plan's runtime state.
pub(crate) struct WorldState {
    pub mailboxes: Vec<Mailbox>,
    pub liveness: Liveness,
    pub faults: Option<FaultState>,
    /// Communication ops performed so far, per world rank. Counted whether
    /// or not a fault plan is installed, so op positions observed in a
    /// clean run can be used to place kills in a faulty one.
    pub ops: Vec<AtomicU64>,
    pub default_timeout: Duration,
    /// How long a blocked rank spins before it parks, decided once from
    /// what the universe can observe: spin only when every rank can have a
    /// core to itself.
    pub spin: Duration,
    /// The counter table, one slot per world rank.
    pub counters: Vec<Slot>,
}

impl WorldState {
    pub fn new(n: usize, default_timeout: Duration, fault_plan: Option<FaultPlan>) -> Self {
        WorldState {
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            liveness: Liveness::new(n),
            // An empty plan injects nothing, so it is no plan.
            faults: fault_plan.filter(|p| !p.is_empty()).map(FaultState::new),
            ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            default_timeout,
            spin: crate::wait::spin_budget(n),
            counters: (0..n).map(|_| Slot::default()).collect(),
        }
    }

    pub fn is_alive(&self, world_rank: usize) -> bool {
        self.liveness.is_alive(world_rank)
    }

    /// Mark a world rank dead — fault-killed, or its thread finished — and
    /// wake every blocked rank so it re-checks liveness: a receiver waiting
    /// on the dead rank, or a lender whose loan it can no longer claim.
    /// Idempotent.
    pub fn mark_dead(&self, world_rank: usize) {
        if self.liveness.mark_dead(world_rank) {
            for mb in &self.mailboxes {
                mb.notify();
            }
        }
    }
}

// Internal key-tag namespace: user tags and collective sequence numbers must
// never collide. User tag t  -> key tag = t (< 2^32).
// Collective (seq, coll, phase) -> key tag =
//     COLL_BIT | seq << PHASE_BITS | coll << COLL_SHIFT | phase.
// A barrier has ceil(log2 n) < 64 phases and every other collective one, so
// the low 6 bits of the 12-bit phase field hold the phase and the high 6 the
// collective's code.
const COLL_BIT: u64 = 1 << 63;
const PHASE_BITS: u32 = 12;
const PHASE_MASK: u64 = (1 << PHASE_BITS) - 1;
const COLL_SHIFT: u32 = 6;

fn user_key_tag(tag: Tag) -> u64 {
    tag as u64
}

/// Which collective a message belongs to. Its code is part of the key tag,
/// so a message of one collective never matches a receive of another: ranks
/// that call different collectives at the same position wait, and end in
/// [`Error::Timeout`] or [`Error::PeerDead`], instead of each taking the
/// other's bytes.
#[derive(Clone, Copy)]
pub(crate) enum Coll {
    Barrier = 1,
    Allgather,
    Alltoallw,
}

const COLL_NAMES: [&str; 4] = ["?", "barrier", "allgather", "alltoallw"];

pub(crate) fn coll_key_tag(seq: u64, coll: Coll, phase: u64) -> u64 {
    debug_assert!(phase < 1 << COLL_SHIFT);
    COLL_BIT | (seq << PHASE_BITS) | ((coll as u64) << COLL_SHIFT) | phase
}

/// Human-readable description of a raw key tag for diagnostics: user tags
/// print as-is, collective tags decode to collective, sequence number and
/// phase.
pub(crate) fn describe_key_tag(key_tag: u64) -> String {
    if key_tag & COLL_BIT == 0 {
        return format!("user tag {key_tag}");
    }
    let body = key_tag & !COLL_BIT;
    let coll = COLL_NAMES.get(((body & PHASE_MASK) >> COLL_SHIFT) as usize).unwrap_or(&"?");
    let phase = body & ((1 << COLL_SHIFT) - 1);
    format!("{coll} #{} phase {phase}", body >> PHASE_BITS)
}

/// A communicator: a rank's handle onto an ordered group of ranks.
///
/// Each rank-thread owns its `Comm` (it is `Send` but deliberately not
/// `Sync`); cloning is not provided — [`Comm::split`] with one color is the
/// collective that makes an independent handle, as `MPI_Comm_dup` does.
pub struct Comm {
    pub(crate) world: Arc<WorldState>,
    pub(crate) comm_id: u64,
    /// This rank's index within the communicator.
    pub(crate) rank: usize,
    /// World rank of each communicator member, indexed by communicator rank.
    pub(crate) members: Arc<Vec<usize>>,
    /// Per-rank collective sequence number; identical across members because
    /// collectives are called in the same order by all of them.
    pub(crate) coll_seq: Cell<u64>,
    split_seq: Cell<u64>,
    timeout: Cell<Duration>,
}

impl Comm {
    pub(crate) fn world_comm(world: Arc<WorldState>, rank: usize) -> Self {
        let n = world.mailboxes.len();
        let timeout = world.default_timeout;
        Comm::derived(world, 0, rank, Arc::new((0..n).collect()), timeout)
    }

    /// Build a derived communicator handle (a child of split) with fresh
    /// sequence counters.
    fn derived(
        world: Arc<WorldState>,
        comm_id: u64,
        rank: usize,
        members: Arc<Vec<usize>>,
        timeout: Duration,
    ) -> Self {
        Comm {
            world,
            comm_id,
            rank,
            members,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            timeout: Cell::new(timeout),
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the original world communicator.
    pub(crate) fn world_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// Watchdog timeout applied to blocking receives.
    pub fn timeout(&self) -> Duration {
        self.timeout.get()
    }

    /// Set the watchdog timeout for blocking receives on this handle.
    pub fn set_timeout(&self, t: Duration) {
        self.timeout.set(t);
    }

    /// The watchdog's verdict on a wait for `src` under `tag` that outlived
    /// this handle's timeout.
    pub(crate) fn timed_out(&self, src: usize, tag: u64) -> Error {
        Error::Timeout { rank: self.rank, src, tag, comm_id: self.comm_id }
    }

    pub(crate) fn check_rank(&self, r: usize) -> Result<()> {
        if r >= self.size() {
            return Err(Error::RankOutOfRange { rank: r, size: self.size() });
        }
        Ok(())
    }

    /// Communicator member `r`'s mailbox.
    pub(crate) fn mailbox(&self, r: usize) -> &Mailbox {
        &self.world.mailboxes[self.members[r]]
    }

    pub(crate) fn my_mailbox(&self) -> &Mailbox {
        self.mailbox(self.rank)
    }

    /// Is communicator member `r` still alive?
    pub(crate) fn is_alive(&self, r: usize) -> bool {
        self.world.is_alive(self.members[r])
    }

    /// Number of communication primitives (sends, receives, collective
    /// phases) this rank has performed. Deterministic for a deterministic
    /// program, which makes it the coordinate system for placing
    /// [`crate::FaultPlan`] kills.
    pub fn op_count(&self) -> u64 {
        self.world.ops[self.world_rank()].load(Ordering::Relaxed)
    }

    /// Count one communication op against the fault plan. Returns
    /// [`Error::PeerDead`] (naming *this* rank) if the rank is already dead
    /// or a kill fault fires on this op.
    pub(crate) fn fault_tick(&self) -> Result<()> {
        let w = self.world_rank();
        if !self.world.is_alive(w) {
            return Err(Error::PeerDead { rank: self.rank });
        }
        let op = self.world.ops[w].fetch_add(1, Ordering::Relaxed);
        if let Some(faults) = &self.world.faults {
            if faults.should_kill(w, op) {
                self.world.mark_dead(w);
                return Err(Error::PeerDead { rank: self.rank });
            }
        }
        Ok(())
    }

    /// The one place an envelope is built and queued in `dest`'s mailbox,
    /// under (communicator, this rank, `key_tag`), with the element size its
    /// `deposit_*` caller decided. Eager: it never waits on the receiver.
    fn enqueue(&self, dest: usize, key_tag: u64, payload: Payload, elem: u32) {
        let key: MsgKey = (self.comm_id, self.rank, key_tag);
        let env = Envelope { payload, elem };
        self.mailbox(dest).deposit(key, env);
    }

    /// [`Comm::deposit_staged`] of untyped bytes.
    pub(crate) fn deposit_to(&self, dest: usize, key_tag: u64, payload: Vec<u8>) -> Result<()> {
        self.deposit_staged(dest, key_tag, payload, 1)
    }

    /// Apply the fault plan's message rules to the message about to go to
    /// `dest` under `key_tag`, staged or loaned alike: `false` means it is
    /// not deposited. A dropped message vanishes; a delayed one is deposited
    /// after its delay.
    fn passes_faults(&self, dest: usize, key_tag: u64) -> bool {
        let Some(faults) = &self.world.faults else {
            return true;
        };
        match faults.on_message(self.world_rank(), self.members[dest], key_tag) {
            MessageVerdict::Deliver => true,
            MessageVerdict::Drop => false,
            MessageVerdict::DeliverAfter(d) => {
                std::thread::sleep(d);
                true
            }
        }
    }

    /// Deposit owned bytes — the path of eager point-to-point sends and of
    /// every collective but `alltoallw`. `elem` is the element size to stamp
    /// (typed sends pass theirs; `1` means untyped bytes). A send to a dead
    /// rank fails [`Error::PeerDead`] naming it, since nobody will take it;
    /// a dropped message returns before [`Comm::enqueue`].
    pub(crate) fn deposit_staged(
        &self,
        dest: usize,
        key_tag: u64,
        payload: Vec<u8>,
        elem: u32,
    ) -> Result<()> {
        self.fault_tick()?;
        if !self.is_alive(dest) {
            return Err(Error::PeerDead { rank: dest });
        }
        if !self.passes_faults(dest, key_tag) {
            return Ok(());
        }
        self.enqueue(dest, key_tag, Payload::Bytes(payload), elem);
        self.count(Counter::StagedMsgs, 1);
        Ok(())
    }

    /// Deposit a zero-copy loan of one message into `dest`'s mailbox: every
    /// `(buffer index, selection)` part of `parts`, in order, each selecting
    /// from `bufs[index]`. The caller has checked every index (`alltoallw`
    /// does, before its first deposit); each part's bounds are checked here.
    /// Returns the completion cell, or `None` when a fault rule withheld the
    /// loan. Nothing is copied: the receiver reads `bufs`, `parts` and the
    /// buffers themselves.
    ///
    /// # Safety
    /// As for [`ZcHandle::new`]: the caller must wait for the returned cell
    /// to be `Done` or `Revoked` ([`crate::zerocopy::await_loans`]) before
    /// the borrows of `bufs`, `parts` or any buffer end, writing to none of
    /// them meanwhile.
    pub(crate) unsafe fn deposit_shared(
        &self,
        dest: usize,
        key_tag: u64,
        bufs: &[&[u8]],
        parts: &[(usize, Datatype)],
    ) -> Result<Option<Arc<ZcCell>>> {
        for (i, dt) in parts {
            dt.check_bounds(bufs[*i].len())?;
        }
        // Same op accounting and fault rules as `deposit_staged`, so op and
        // message positions (the fault plan's coordinates) count every
        // message alike.
        self.fault_tick()?;
        if !self.passes_faults(dest, key_tag) {
            return Ok(None);
        }
        let cell = Arc::new(ZcCell::default());
        // Its parts carry their own element sizes, so the envelope stamps
        // untyped bytes.
        // SAFETY: the caller keeps `ZcHandle::new`'s contract.
        let handle = unsafe { ZcHandle::new(bufs, parts, Arc::clone(&cell)) };
        self.enqueue(dest, key_tag, Payload::Shared(handle), 1);
        self.count(Counter::ZerocopyMsgs, 1);
        Ok(Some(cell))
    }

    /// Turn a received envelope into owned bytes. Only `alltoallw` lends,
    /// under key tags no other receive takes, so a loan here is a bug; the
    /// dropped handle revokes it.
    fn materialize(&self, src: usize, env: Envelope) -> Result<Vec<u8>> {
        match env.payload {
            Payload::Bytes(b) => Ok(b),
            Payload::Shared(_) => Err(Error::Internal {
                detail: format!("rank {src} lent a loan where owned bytes belong"),
            }),
        }
    }

    pub(crate) fn take_from(&self, src: usize, key_tag: u64) -> Result<Vec<u8>> {
        let env = self.take_envelope_from(src, key_tag)?;
        self.materialize(src, env)
    }

    pub(crate) fn take_envelope_from(&self, src: usize, key_tag: u64) -> Result<Envelope> {
        self.fault_tick()?;
        let key: MsgKey = (self.comm_id, src, key_tag);
        let src_world = self.members[src];
        let _wait = ddrtrace::span_arg("minimpi", "mailbox_wait", "src", src as i64);
        let dead = || (!self.world.is_alive(src_world)).then_some(Error::PeerDead { rank: src });
        self.my_mailbox()
            .take(key, self.timeout.get(), self.waiter(), dead)
            .map_err(|dead| dead.unwrap_or_else(|| self.timed_out(src, key_tag)))
    }

    /// This universe's counters so far, summed over its ranks: which wire
    /// path messages took, how blocking waits resolved, and which copy tier
    /// moved the exchanges' bytes. A traced universe reports the same sums in
    /// its metrics registry.
    pub fn counters(&self) -> Counts {
        Counts::sum(&self.world.counters)
    }

    /// Add `n` to counter `c` in this rank's own slot.
    pub(crate) fn count(&self, c: Counter, n: u64) {
        self.world.counters[self.world_rank()].add(c, n);
    }

    /// This rank's wait policy, tallying into its own slot.
    pub(crate) fn waiter(&self) -> Waiter<'_> {
        Waiter { spin: self.world.spin, tally: &self.world.counters[self.world_rank()] }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send a slice of POD values to `dest` with `tag`. The element size is
    /// stamped into the envelope, so a typed receive with a different
    /// element size fails with [`Error::DatatypeMismatch`] instead of
    /// silently reinterpreting bytes.
    pub fn send<T: Pod>(&self, dest: usize, tag: Tag, data: &[T]) -> Result<()> {
        self.check_rank(dest)?;
        let elem = std::mem::size_of::<T>() as u32;
        self.deposit_staged(dest, user_key_tag(tag), bytes_of(data).to_vec(), elem)
    }

    /// Send an owned byte buffer without copying it.
    pub fn send_bytes_owned(&self, dest: usize, tag: Tag, data: Vec<u8>) -> Result<()> {
        self.check_rank(dest)?;
        self.deposit_to(dest, user_key_tag(tag), data)
    }

    /// Receive raw bytes from `src` with `tag`, blocking until available.
    pub fn recv_bytes(&self, src: usize, tag: Tag) -> Result<Vec<u8>> {
        self.check_rank(src)?;
        self.take_from(src, user_key_tag(tag))
    }

    /// Typed receive of `T`s: take the envelope and check the sender's
    /// element size against `T`'s before the bytes are reinterpreted. Sizes
    /// conflict only when both sides are wider than a byte: untyped bytes
    /// pass any typed receive, and any message passes a byte receive.
    fn take_from_typed<T: Pod>(&self, src: usize, key_tag: u64) -> Result<Vec<u8>> {
        let env = self.take_envelope_from(src, key_tag)?;
        let want = std::mem::size_of::<T>() as u32;
        if !elems_agree(env.elem, want) {
            return Err(Error::DatatypeMismatch {
                detail: format!(
                    "rank {src} sent {}-byte elements, received as {want}-byte elements",
                    env.elem
                ),
            });
        }
        self.materialize(src, env)
    }

    /// Receive a `Vec<T>` of POD values from `src` with `tag`.
    pub fn recv_vec<T: Pod>(&self, src: usize, tag: Tag) -> Result<Vec<T>> {
        self.check_rank(src)?;
        let bytes = self.take_from_typed::<T>(src, user_key_tag(tag))?;
        vec_from_bytes(&bytes)
            .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: bytes.len() })
    }

    /// Receive into a caller-provided buffer; the message length must equal
    /// the buffer length exactly.
    pub fn recv_into<T: Pod>(&self, src: usize, tag: Tag, buf: &mut [T]) -> Result<()> {
        self.check_rank(src)?;
        let want = std::mem::size_of_val(buf);
        let bytes = self.take_from_typed::<T>(src, user_key_tag(tag))?;
        if bytes.len() != want {
            return Err(Error::SizeMismatch { expected: want, got: bytes.len() });
        }
        crate::pod::bytes_of_mut(buf).copy_from_slice(&bytes);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Collective: split this communicator into disjoint sub-communicators,
    /// one per distinct `color`. Members of each child are ordered by their
    /// rank in the parent (MPI's `key` is fixed to the parent rank).
    pub fn split(&self, color: u64) -> Result<Comm> {
        let all: Vec<(u64, usize)> =
            self.allgather(&[color])?.into_iter().enumerate().map(|(r, c)| (c[0], r)).collect();
        let members: Vec<usize> =
            all.iter().filter(|(c, _)| *c == color).map(|(_, r)| self.members[*r]).collect();
        let new_rank = members.iter().position(|&w| w == self.world_rank()).ok_or_else(|| {
            Error::Internal {
                detail: format!(
                    "split: world rank {} missing from its own color group (color {color})",
                    self.world_rank()
                ),
            }
        })?;
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        let child_id = mix64(mix64(self.comm_id ^ seq.wrapping_mul(0x9e37)) ^ color);
        Ok(Comm::derived(
            Arc::clone(&self.world),
            child_id,
            new_rank,
            Arc::new(members),
            self.timeout.get(),
        ))
    }

    pub(crate) fn next_coll_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }
}

/// Whether element sizes `a` and `b` may describe the same bytes: they
/// conflict only when both are wider than one byte, because a byte-granular
/// side (untyped bytes, a contiguous selection) can pair with any element.
pub(crate) fn elems_agree(a: u32, b: u32) -> bool {
    a <= 1 || b <= 1 || a == b
}

/// Watchdog timeout used when none is set on the [`crate::Universe`]
/// builder: `DDR_TIMEOUT_MS` (milliseconds), else 120 s.
pub(crate) fn default_timeout() -> Duration {
    Duration::from_millis(crate::env::u64_var("DDR_TIMEOUT_MS").unwrap_or(120_000))
}
