//! Communicators and point-to-point messaging.

use crate::check::{CheckCounters, CheckState, CollFingerprint, TypeSig};
use crate::datatype::Datatype;
use crate::elastic::ElasticState;
use crate::error::{Error, Result};
use crate::fault::{mix64, FaultPlan, FaultState, MessageVerdict};
use crate::life::{Liveness, ShrinkBarrier};
use crate::mailbox::{Envelope, Mailbox, MsgKey, Payload, TakeOutcome};
use crate::pod::{bytes_of, vec_from_bytes, Pod};
use crate::sched::SchedState;
use crate::zerocopy::{BufferPool, PoolStats, TransportCells, TransportCounters, ZcCell, ZcHandle};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// User message tag. The full `u32` range is available to applications;
/// collective traffic lives in a disjoint internal namespace.
pub type Tag = u32;

/// Shared state of one [`crate::Universe`] run: a mailbox per world rank,
/// the liveness registry, the shrink rendezvous, and (optionally) the
/// installed fault plan's runtime state.
pub(crate) struct WorldState {
    pub mailboxes: Vec<Mailbox>,
    pub liveness: Liveness,
    pub shrink: ShrinkBarrier,
    pub faults: Option<FaultState>,
    /// Correctness-checking state (collective epoch log + wait-for graph);
    /// `None` unless checking was enabled on the universe builder.
    pub check: Option<CheckState>,
    /// Seeded schedule-perturbation state; `None` (zero cost) unless a
    /// schedule seed was set via the builder or `DDR_SCHED_SEED`.
    pub sched: Option<SchedState>,
    /// Communication ops performed so far, per world rank. Counted whether
    /// or not a fault plan is installed, so op positions observed in a
    /// clean run can be used to place kills in a faulty one.
    pub ops: Vec<AtomicU64>,
    pub default_timeout: Duration,
    /// Shared staging-buffer pool for eager point-to-point sends.
    pub pool: BufferPool,
    /// Wire-path counters (zero-copy vs staged deliveries).
    pub transport: TransportCells,
    /// Membership-epoch state: current epoch, respawn supervisor queue, and
    /// recovery counters (see [`crate::elastic`]).
    pub elastic: ElasticState,
    /// Rendezvous for [`Comm::reconfigure`]'s agreement step. A second
    /// barrier instance so reconfigure generations can never collide with
    /// shrink generations on the same communicator.
    pub reconfig: ShrinkBarrier,
    /// Whether reconfigure respawns replacements for dead ranks (builder
    /// override, default true).
    pub respawn: bool,
}

impl WorldState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        default_timeout: Duration,
        fault_plan: Option<FaultPlan>,
        check: bool,
        respawn: Option<bool>,
        sched_seed: Option<u64>,
        (pair_msgs, pair_bytes): (usize, usize),
    ) -> Self {
        // Decided once, from what the universe can observe: spin only when
        // every rank can have a core to itself.
        let spin = crate::wait::spin_budget(n);
        WorldState {
            mailboxes: (0..n).map(|_| Mailbox::bounded(n, pair_msgs, pair_bytes, spin)).collect(),
            liveness: Liveness::new(n),
            shrink: ShrinkBarrier::default(),
            // An empty plan injects nothing, so it is no plan.
            faults: fault_plan.filter(|p| !p.is_empty()).map(FaultState::new),
            check: check.then(|| CheckState::new(n)),
            sched: sched_seed
                .or_else(crate::sched::sched_seed_env_default)
                .map(|s| SchedState::new(s, n)),
            ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            default_timeout,
            pool: BufferPool::default(),
            transport: TransportCells::default(),
            elastic: ElasticState::new(n),
            reconfig: ShrinkBarrier::default(),
            respawn: respawn.unwrap_or(true),
        }
    }

    /// Current membership epoch (bumped by every completed reconfigure).
    pub fn epoch(&self) -> u64 {
        self.elastic.epoch()
    }

    /// Drop every queued message that does not carry `current_epoch`,
    /// crediting the fenced-message counter. Stale zero-copy loans are
    /// revoked by the drop, releasing their senders.
    pub fn sweep_stale(&self, current_epoch: u64) -> u64 {
        let mut fenced = 0u64;
        for mb in &self.mailboxes {
            fenced += mb.sweep_stale(current_epoch);
        }
        if fenced > 0 {
            self.transport.fenced_msgs.fetch_add(fenced, Ordering::Relaxed);
        }
        fenced
    }

    pub fn is_alive(&self, world_rank: usize) -> bool {
        self.liveness.is_alive(world_rank)
    }

    /// Mark a world rank dead and wake every blocked receiver, parked sender
    /// and pending shrink round so they re-check liveness. Idempotent.
    pub fn mark_dead(&self, world_rank: usize) {
        if self.liveness.mark_dead(world_rank) {
            self.on_death();
        }
    }

    /// A rank thread running as `incarnation` of `world_rank` finished:
    /// departed (or crashed) ranks count as dead, so peers blocked on them
    /// fail fast — unless the rank was already revived for a replacement.
    pub fn retire(&self, world_rank: usize, incarnation: u64) {
        if self.liveness.retire(world_rank, incarnation) {
            self.on_death();
        }
    }

    fn on_death(&self) {
        for mb in &self.mailboxes {
            mb.interrupt();
        }
        self.shrink.on_death(&self.liveness);
        self.reconfig.on_death(&self.liveness);
    }
}

// Internal key-tag namespace: user tags and collective sequence numbers must
// never collide. User tag t  -> key tag = t (< 2^32).
// Collective (seq, phase)    -> key tag = COLL_BIT | seq << PHASE_BITS | phase.
const COLL_BIT: u64 = 1 << 63;
const PHASE_BITS: u32 = 12;
const PHASE_MASK: u64 = (1 << PHASE_BITS) - 1;

/// Sentinel tag reported by shrink-rendezvous timeouts (no message traffic
/// is involved, so there is no real tag to report).
const SHRINK_TAG: u64 = COLL_BIT | PHASE_MASK;

/// Sentinel tag reported by reconfigure-rendezvous timeouts.
pub(crate) const RECONFIG_TAG: u64 = COLL_BIT | (PHASE_MASK - 1);

fn user_key_tag(tag: Tag) -> u64 {
    tag as u64
}

pub(crate) fn coll_key_tag(seq: u64, phase: u64) -> u64 {
    debug_assert!(phase <= PHASE_MASK);
    COLL_BIT | (seq << PHASE_BITS) | phase
}

/// Human-readable description of a raw key tag for diagnostics: user tags
/// print as-is, collective tags decode to sequence number and phase.
pub(crate) fn describe_key_tag(key_tag: u64) -> String {
    if key_tag & COLL_BIT == 0 {
        return format!("user tag {key_tag}");
    }
    if key_tag == SHRINK_TAG {
        return "shrink rendezvous".to_string();
    }
    if key_tag == RECONFIG_TAG {
        return "reconfigure rendezvous".to_string();
    }
    let body = key_tag & !COLL_BIT;
    format!("collective #{} phase {}", body >> PHASE_BITS, body & PHASE_MASK)
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
    /// Membership epoch this handle was built in. Envelopes are stamped with
    /// it; a handle whose epoch is no longer current fails every operation
    /// with [`Error::StaleEpoch`] (see [`Comm::reconfigure`]).
    pub(crate) epoch: u64,
    /// Per-rank collective sequence number; identical across members because
    /// collectives are called in the same order by all of them.
    pub(crate) coll_seq: Cell<u64>,
    split_seq: Cell<u64>,
    shrink_seq: Cell<u64>,
    pub(crate) reconfig_seq: Cell<u64>,
    timeout: Cell<Duration>,
}

impl Comm {
    pub(crate) fn world_comm(world: Arc<WorldState>, rank: usize) -> Self {
        let n = world.mailboxes.len();
        let timeout = world.default_timeout;
        let epoch = world.epoch();
        Comm::derived(world, 0, rank, Arc::new((0..n).collect()), epoch, timeout)
    }

    /// Build a derived communicator handle (child of split/shrink/reconfigure
    /// or a respawned rank's entry handle) with fresh sequence counters.
    pub(crate) fn derived(
        world: Arc<WorldState>,
        comm_id: u64,
        rank: usize,
        members: Arc<Vec<usize>>,
        epoch: u64,
        timeout: Duration,
    ) -> Self {
        Comm {
            world,
            comm_id,
            rank,
            members,
            epoch,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            shrink_seq: Cell::new(0),
            reconfig_seq: Cell::new(0),
            timeout: Cell::new(timeout),
        }
    }

    /// Membership epoch this communicator handle belongs to. `0` until the
    /// first [`Comm::reconfigure`]; a respawned rank can use `epoch() > 0`
    /// to detect that it is a replacement joining mid-run.
    pub fn epoch(&self) -> u64 {
        self.epoch
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
    pub fn world_rank(&self) -> usize {
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

    /// The watchdog's verdict on a wait for `src` (`None`: a rendezvous)
    /// under `tag` that outlived this handle's timeout.
    pub(crate) fn timed_out(&self, src: Option<usize>, tag: u64) -> Error {
        Error::Timeout { rank: self.rank, src, tag, comm_id: self.comm_id }
    }

    pub(crate) fn check_rank(&self, r: usize) -> Result<()> {
        if r >= self.size() {
            return Err(Error::RankOutOfRange { rank: r, size: self.size() });
        }
        Ok(())
    }

    pub(crate) fn my_mailbox(&self) -> &Mailbox {
        &self.world.mailboxes[self.members[self.rank]]
    }

    /// Is communicator member `r` still alive?
    pub fn is_alive(&self, r: usize) -> bool {
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
        // The epoch fence: a handle from before the last reconfigure can
        // neither send (its envelopes would be stamped stale) nor receive
        // (it would match against a dead namespace). Checked before the op
        // counter so fault-plan op coordinates are unaffected.
        let world_epoch = self.world.epoch();
        if world_epoch != self.epoch {
            return Err(Error::StaleEpoch { comm_epoch: self.epoch, world_epoch });
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

    /// Maybe-delay hook for the seeded schedule explorer: a no-op (one
    /// `Option` branch) unless a schedule seed is set.
    #[inline]
    pub(crate) fn sched_point(&self, point: &'static str) {
        if let Some(s) = &self.world.sched {
            s.perturb(self.world_rank(), point);
        }
    }

    /// Match-time admission — the one gate every envelope popped from this
    /// rank's mailbox passes before it is delivered. The epoch fence comes
    /// first: an envelope stamped by a different membership epoch is never
    /// delivered; it is counted, traced and dropped here (the drop revokes
    /// any zero-copy loan it carried, releasing its sender) and `None` tells
    /// the caller to keep waiting for a current-epoch message.
    pub(crate) fn admit(&self, env: Envelope) -> Option<Envelope> {
        if env.epoch != self.epoch {
            self.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
            ddrtrace::instant_arg("minimpi", "fenced_msg", "src", env.src as i64);
            return None;
        }
        Some(env)
    }

    /// Datatype signature to stamp on an outgoing envelope; `None` (no work
    /// at all) when checking is off. `sig` defaults to an untyped-bytes
    /// signature of `payload_len`.
    fn send_stamp(&self, sig: Option<TypeSig>, payload_len: usize) -> Option<TypeSig> {
        self.world.check.as_ref().map(|_| sig.unwrap_or_else(|| TypeSig::bytes(payload_len as u64)))
    }

    /// With checking enabled, verify a sender's stamped datatype signature
    /// against the receiver's declared expectation; no-op otherwise (or when
    /// the envelope predates checking, e.g. hand-built test envelopes).
    pub(crate) fn verify_type_sig(
        &self,
        src: usize,
        key_tag: u64,
        got: Option<&TypeSig>,
        want: &TypeSig,
    ) -> Result<()> {
        let (Some(check), Some(got)) = (&self.world.check, got) else {
            return Ok(());
        };
        if want.accepts(got) {
            return Ok(());
        }
        check.note_type_mismatch();
        Err(Error::TypeMismatch { src, dst: self.rank, tag: key_tag, expected: *want, got: *got })
    }

    /// Snapshot of the checker's violation counters, or `None` when checking
    /// is off. Counts are world-wide (shared by every communicator handle).
    pub fn check_counters(&self) -> Option<CheckCounters> {
        self.world.check.as_ref().map(|c| c.counters())
    }

    /// The one place an envelope is built and queued: stamped with this
    /// handle's rank and epoch, then reserved-and-enqueued in `dest`'s
    /// mailbox under (communicator, this rank, `key_tag`). What varies by
    /// payload kind — the stamp — is decided by the `deposit_*` caller. The envelope counts against this pair's depth and parks
    /// while the pair is full: no pop within [`Comm::timeout`] is
    /// [`Error::Timeout`] naming `dest`; the receiver's death, this rank's
    /// own fault-kill or an epoch bump unparks with the matching error.
    fn enqueue(
        &self,
        dest: usize,
        key_tag: u64,
        payload: Payload,
        type_sig: Option<TypeSig>,
    ) -> Result<()> {
        let (src_world, dst_world) = (self.world_rank(), self.members[dest]);
        self.sched_point("credit");
        let key: MsgKey = (self.comm_id, self.rank, key_tag);
        let env =
            Envelope { src: self.rank, epoch: self.epoch, payload, type_sig, pair: src_world };
        let abort = || {
            if !self.world.is_alive(src_world) {
                return Some(Error::PeerDead { rank: self.rank });
            }
            if !self.world.is_alive(dst_world) {
                return Some(Error::PeerDead { rank: dest });
            }
            let world_epoch = self.world.epoch();
            (world_epoch != self.epoch)
                .then_some(Error::StaleEpoch { comm_epoch: self.epoch, world_epoch })
        };
        self.world.mailboxes[dst_world]
            .deposit(key, env, self.timeout.get(), abort, &self.world.transport)
            .map_err(|refused| refused.unwrap_or_else(|| self.timed_out(Some(dest), key_tag)))
    }

    /// [`Comm::deposit_staged`] of untyped bytes.
    pub(crate) fn deposit_to(&self, dest: usize, key_tag: u64, payload: Vec<u8>) -> Result<()> {
        self.deposit_staged(dest, key_tag, payload, None)
    }

    /// Apply the fault plan's message rules to the message about to go to
    /// `dest` under `key_tag`, staged or loaned alike: `false` means it is
    /// not deposited. A dropped message vanishes. A delayed one is deposited
    /// after its delay, unless the world reconfigured meanwhile: delivering
    /// it into the new epoch would be exactly the stale match the fence
    /// exists to prevent, so it is counted as fenced and dropped.
    fn passes_faults(&self, dest: usize, key_tag: u64) -> bool {
        let Some(faults) = &self.world.faults else {
            return true;
        };
        match faults.on_message(self.world_rank(), self.members[dest], key_tag) {
            MessageVerdict::Deliver => true,
            MessageVerdict::Drop => false,
            MessageVerdict::DeliverAfter(d) => {
                std::thread::sleep(d);
                if self.world.epoch() == self.epoch {
                    return true;
                }
                self.world.transport.fenced_msgs.fetch_add(1, Ordering::Relaxed);
                ddrtrace::instant_arg("minimpi", "fenced_msg", "epoch", self.epoch as i64);
                false
            }
        }
    }

    /// Deposit owned bytes — the path of eager point-to-point sends and of
    /// every collective but `alltoallw`. `sig` is the datatype signature to
    /// stamp (typed sends pass theirs; `None` means untyped bytes). A dropped or fenced message returns before
    /// [`Comm::enqueue`], the only step that reserves anything.
    pub(crate) fn deposit_staged(
        &self,
        dest: usize,
        key_tag: u64,
        payload: Vec<u8>,
        sig: Option<TypeSig>,
    ) -> Result<()> {
        self.sched_point("send");
        self.fault_tick()?;
        let stamp = self.send_stamp(sig, payload.len());
        if !self.passes_faults(dest, key_tag) {
            return Ok(());
        }
        self.enqueue(dest, key_tag, Payload::Bytes(payload), stamp)?;
        self.world.transport.staged_msgs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Deposit a zero-copy loan of one message into `dest`'s mailbox: every
    /// `(buffer, selection)` part of `parts`, in order. Each part's bounds
    /// are checked here, before anything is lent. Returns the completion
    /// cell the caller **must** drive to `Done` or `Revoked` (via
    /// [`ZcCell::wait`]) before the buffers' borrows end — that wait is what
    /// makes the receiver's raw-pointer reads sound — or `None` when a fault
    /// rule withheld the loan, so there is nothing to wait on.
    ///
    /// A loan is a pointer hand-off: the receiver reads the sender's own
    /// buffers, pinned by the caller's borrows until the loan settles. A
    /// sender cannot write during a live loan: the caller's shared borrows of
    /// the buffers outlive the wait on the returned cell.
    pub(crate) fn deposit_shared(
        &self,
        dest: usize,
        key_tag: u64,
        parts: &[(&[u8], Datatype)],
    ) -> Result<Option<Arc<ZcCell>>> {
        for (buf, dt) in parts {
            dt.check_bounds(buf.len())?;
        }
        self.sched_point("lend");
        // Same op accounting and fault rules as `deposit_staged`, so op and
        // message positions (the fault plan's coordinates) count every
        // message alike.
        self.fault_tick()?;
        if !self.passes_faults(dest, key_tag) {
            return Ok(None);
        }
        let cell = Arc::new(ZcCell::default());
        let stamp = self.send_stamp(Some(TypeSig::of_parts(parts.iter().map(|(_, dt)| dt))), 0);
        // A loan occupies a slot in the pair but stages no bytes. A refused
        // one was dropped — and so revoked — by the mailbox.
        let handle = ZcHandle::new(parts, Arc::clone(&cell));
        self.enqueue(dest, key_tag, Payload::Shared(handle), stamp)?;
        self.world.transport.zerocopy_msgs.fetch_add(1, Ordering::Relaxed);
        Ok(Some(cell))
    }

    /// The one zero-copy claim: claim the loan, let `copy_part(i, lent,
    /// selection)` move each lent part `i` into the receiver's own storage,
    /// in message order — one traversal, nothing else — then release the
    /// sender. The first failing part ends the copy. **A claimed loan always
    /// reaches `finish`**: once the claim succeeded the sender is parked
    /// until then, so nothing may return early in between.
    pub(crate) fn claim_loan(
        &self,
        src: usize,
        loan: &ZcHandle,
        mut copy_part: impl FnMut(usize, &[u8], &Datatype) -> Result<()>,
    ) -> Result<()> {
        self.sched_point("zc_claim");
        if !loan.cell.try_claim() {
            // The sender revoked the loan (timeout / death) before we got
            // here; the payload is unrecoverable.
            return Err(Error::PeerDead { rank: src });
        }
        // SAFETY: the claim succeeded, so the sender is blocked in
        // ZcCell::wait and its buffers stay alive until finish(); the lent
        // slices do not outlive this statement.
        let res = unsafe { loan.parts() }
            .enumerate()
            .try_for_each(|(i, (lent, dt))| copy_part(i, lent, dt));
        loan.cell.finish();
        res
    }

    /// Turn a received envelope into owned bytes. For zero-copy loans this
    /// is the slow path (generic receives don't have a destination selection
    /// to copy into directly): claim, pack every part out of the sender's
    /// buffers, release.
    pub(crate) fn materialize(&self, src: usize, env: Envelope) -> Result<Vec<u8>> {
        match env.payload {
            Payload::Bytes(b) => Ok(b),
            Payload::Shared(h) => {
                let mut out = Vec::with_capacity(h.packed_len());
                self.claim_loan(src, &h, |_, lent, dt| dt.pack_into(lent, &mut out))?;
                Ok(out)
            }
        }
    }

    pub(crate) fn take_from(&self, src: usize, key_tag: u64) -> Result<Vec<u8>> {
        let env = self.take_envelope_from(src, key_tag)?;
        self.materialize(src, env)
    }

    pub(crate) fn take_envelope_from(&self, src: usize, key_tag: u64) -> Result<Envelope> {
        self.sched_point("recv");
        self.fault_tick()?;
        let key: MsgKey = (self.comm_id, src, key_tag);
        let src_world = self.members[src];
        let me_world = self.world_rank();
        if let Some(check) = &self.world.check {
            check.begin_wait(me_world, src_world, key);
        }
        let wait = ddrtrace::span_arg("minimpi", "mailbox_wait", "src", src as i64);
        let outcome = loop {
            let o = self.my_mailbox().take_watched(key, self.timeout.get(), || {
                !self.world.is_alive(src_world)
                    || self.world.check.as_ref().is_some_and(|c| c.is_deadlocked(me_world))
            });
            match o {
                TakeOutcome::Delivered(env) => match self.admit(env) {
                    Some(env) => break TakeOutcome::Delivered(env),
                    None => continue,
                },
                o => break o,
            }
        };
        drop(wait);
        let deadlock =
            self.world.check.as_ref().and_then(|c| {
                c.finish_wait(me_world, matches!(outcome, TakeOutcome::Delivered(_)))
            });
        match outcome {
            TakeOutcome::Delivered(env) => Ok(env),
            TakeOutcome::TimedOut => Err(self.timed_out(Some(src), key_tag)),
            TakeOutcome::Aborted => match deadlock {
                Some(report) => Err(Error::Deadlock(Box::new(report))),
                None => Err(Error::PeerDead { rank: src }),
            },
        }
    }

    /// Occupancy and traffic counters of the universe's shared
    /// staging-buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.world.pool.stats()
    }

    /// Get a cleared buffer with at least `cap` capacity from the universe's
    /// shared staging pool. Pair with [`Comm::release_staging`] — the pool
    /// is shared across ranks, so a buffer sent to a peer can be recycled by
    /// the receiver.
    pub fn acquire_staging(&self, cap: usize) -> Vec<u8> {
        self.world.pool.acquire(cap)
    }

    /// Return a staging buffer to the universe's shared pool (its content is
    /// discarded; oversized capacity may be trimmed).
    pub fn release_staging(&self, buf: Vec<u8>) {
        self.world.pool.release(buf)
    }

    /// Counters of which wire path messages took so far in this universe,
    /// and how often (and how long) senders parked on a full pair.
    pub fn transport_counters(&self) -> TransportCounters {
        self.world.transport.snapshot()
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send raw bytes to `dest` with `tag`. Buffered: returns immediately.
    pub fn send_bytes(&self, dest: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.check_rank(dest)?;
        self.deposit_to(dest, user_key_tag(tag), data.to_vec())
    }

    /// Send a slice of POD values to `dest` with `tag`. With checking
    /// enabled the element size is stamped into the envelope so a typed
    /// receive with a different element type fails with
    /// [`Error::TypeMismatch`] instead of silently reinterpreting bytes.
    pub fn send<T: Pod>(&self, dest: usize, tag: Tag, data: &[T]) -> Result<()> {
        self.check_rank(dest)?;
        let bytes = bytes_of(data).to_vec();
        let sig =
            TypeSig { extent: bytes.len() as u64, elem: std::mem::size_of::<T>() as u32, shape: 0 };
        self.deposit_staged(dest, user_key_tag(tag), bytes, Some(sig))
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

    /// Typed receive: take the envelope, verify the sender's datatype
    /// signature against `want` *before* consuming the payload (a mismatched
    /// zero-copy loan is dropped, revoking it), then materialize.
    fn take_from_typed(&self, src: usize, key_tag: u64, want: TypeSig) -> Result<Vec<u8>> {
        let env = self.take_envelope_from(src, key_tag)?;
        self.verify_type_sig(src, key_tag, env.type_sig.as_ref(), &want)?;
        self.materialize(src, env)
    }

    /// Receive a `Vec<T>` of POD values from `src` with `tag`.
    pub fn recv_vec<T: Pod>(&self, src: usize, tag: Tag) -> Result<Vec<T>> {
        self.check_rank(src)?;
        let want = TypeSig { extent: 0, elem: std::mem::size_of::<T>() as u32, shape: 0 };
        let bytes = self.take_from_typed(src, user_key_tag(tag), want)?;
        vec_from_bytes(&bytes)
            .ok_or(Error::SizeMismatch { expected: std::mem::size_of::<T>(), got: bytes.len() })
    }

    /// Receive into a caller-provided buffer; the message length must equal
    /// the buffer length exactly.
    pub fn recv_into<T: Pod>(&self, src: usize, tag: Tag, buf: &mut [T]) -> Result<()> {
        self.check_rank(src)?;
        let want = std::mem::size_of_val(buf);
        let sig = TypeSig { extent: want as u64, elem: std::mem::size_of::<T>() as u32, shape: 0 };
        let bytes = self.take_from_typed(src, user_key_tag(tag), sig)?;
        if bytes.len() != want {
            return Err(Error::SizeMismatch { expected: want, got: bytes.len() });
        }
        crate::pod::bytes_of_mut(buf).copy_from_slice(&bytes);
        Ok(())
    }

    /// Non-blocking receive attempt.
    pub fn try_recv_bytes(&self, src: usize, tag: Tag) -> Result<Option<Vec<u8>>> {
        self.check_rank(src)?;
        self.sched_point("try_recv");
        self.fault_tick()?;
        while let Some(env) = self.my_mailbox().try_take((self.comm_id, src, user_key_tag(tag))) {
            if let Some(env) = self.admit(env) {
                return Ok(Some(self.materialize(src, env)?));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Collective: split this communicator into disjoint sub-communicators,
    /// one per distinct `color`. Members of each child are ordered by their
    /// rank in the parent (MPI's `key` is fixed to the parent rank).
    #[track_caller]
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
            self.epoch,
            self.timeout.get(),
        ))
    }

    /// Collective over the *surviving* members: agree on the set of members
    /// still alive and return a new communicator containing exactly them, in
    /// parent rank order (the moral equivalent of `MPI_Comm_shrink` from
    /// ULFM).
    ///
    /// Every surviving member must call `shrink` the same number of times;
    /// dead members are excused — the rendezvous completes as soon as all
    /// currently-alive members have entered, and is re-evaluated whenever a
    /// rank dies, so survivors never wait out the watchdog on a casualty.
    ///
    /// Unlike other collectives this does not send messages (it agrees via
    /// shared state), so it cannot itself be killed by a fault plan — a rank
    /// that reached `shrink` alive will complete it.
    pub fn shrink(&self) -> Result<Comm> {
        let generation = self.shrink_seq.get();
        self.shrink_seq.set(generation + 1);
        let survivors = self
            .world
            .shrink
            .enter(
                (self.comm_id, generation),
                &self.members,
                self.world_rank(),
                &self.world.liveness,
                self.timeout.get(),
            )
            .ok_or(self.timed_out(None, SHRINK_TAG))?;
        let new_rank = survivors.iter().position(|&w| w == self.world_rank()).ok_or_else(|| {
            Error::Internal {
                detail: format!(
                    "shrink: world rank {} absent from the agreed survivor set",
                    self.world_rank()
                ),
            }
        })?;
        // Derive the child id identically on every survivor.
        let mut child_id = mix64(self.comm_id ^ mix64(0x5421_494e_4b21 ^ generation));
        for &w in survivors.iter() {
            child_id = mix64(child_id ^ w as u64);
        }
        Ok(Comm::derived(
            Arc::clone(&self.world),
            child_id,
            new_rank,
            Arc::new((*survivors).clone()),
            self.epoch,
            self.timeout.get(),
        ))
    }

    pub(crate) fn next_coll_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    /// With checking enabled, verify this rank's collective call number
    /// `seq` against what other members recorded for the same slot; no-op
    /// (one always-false branch) otherwise.
    pub(crate) fn record_collective(&self, seq: u64, fp: CollFingerprint) -> Result<()> {
        if let Some(check) = &self.world.check {
            check
                .record_collective(self.comm_id, seq, self.rank, self.size(), fp)
                .map_err(Error::CollectiveDiverged)?;
        }
        Ok(())
    }
}

/// Watchdog timeout used when none is set on the [`crate::Universe`]
/// builder: `DDR_TIMEOUT_MS` (milliseconds), else 120 s.
pub(crate) fn default_timeout() -> Duration {
    Duration::from_millis(crate::env::u64_var("DDR_TIMEOUT_MS").unwrap_or(120_000))
}
