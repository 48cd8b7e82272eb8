//! The zero-copy data-movement plane.
//!
//! minimpi ranks are threads in one address space, so a non-contiguous
//! message does not need MPI's pack → send → unpack staging: the *receiver*
//! can copy each part of the message straight out of the sender's source
//! buffers into its own destination buffer, with zero intermediate
//! allocations. This module provides the two pieces that make that safe and
//! fast:
//!
//! * [`ZcCell`] / [`ZcHandle`] — a rendezvous protocol for lending borrowed
//!   send buffers across threads. The sender deposits a handle (one raw
//!   pointer + datatype per part of the message, and a completion cell) and
//!   **blocks at the end of the collective** until the loan was either
//!   copied (`Done`) or provably never will be (`Revoked`). The receiver
//!   must *claim* the loan before touching it, so a sender that gives up
//!   (peer death, watchdog) can revoke safely: either the claim wins and the
//!   sender waits out the (bounded) memcpy, or the revoke wins and the
//!   receiver never dereferences a pointer.
//! * [`BufferPool`] — reusable buffers for eager point-to-point sends
//!   (`intransit` frames, `lbm` halos), with a high-water-mark trim so a
//!   one-off huge message does not pin memory forever.
//!
//! The copy itself always runs on the claiming rank's own thread, part by
//! part (`datatype::copy_selection`): one thread per rank moves that rank's
//! bytes.
//!
//! Every `alltoallw` message loans, whatever its size or number of parts,
//! and fault rules (drop, delay) act on the loan itself. A second, staged
//! `alltoallw` arm (pack into a pooled buffer, enqueue, unpack) existed
//! until this measurement retired it: a symmetric 2-rank `alltoallw` (µs
//! per exchange, staged vs loaned, three runs each, 2 ranks on 2 cores):
//!
//! | message | staged      | loaned    |
//! |---------|-------------|-----------|
//! | 64 B    | 2.3–2.4     | 2.1–2.9   |
//! | 1 KiB   | 2.7–3.7     | 2.1–2.9   |
//! | 8 KiB   | 4.5–5.3     | 2.2–3.1   |
//! | 32 KiB  | 10.3–12.8   | 2.8–3.2   |
//! | 64 KiB  | 20.8–21.1   | 3.8–4.1   |
//!
//! (One 32 KiB loaned run read 47.6 µs, a one-off stall the other sizes of
//! the same run did not show; the range gives the other two.) So at ranks ≤
//! cores a loan is never slower. Pinned to one core
//! (`taskset -c 0`, so the spin budget is 0 and every wait parks), a lone
//! loan of 8 KiB or less costs 1–2 µs more than staging it (64 B: 3.0–3.3
//! staged vs 5.1–5.4 loaned; 8 KiB: 4.8–5.0 vs 5.9–6.3), while 32 KiB and
//! up still favour the loan. Loaning everything is what lets held chunks
//! ride one exchange, and that collapse wins even there: the
//! `rounds_small_2d` shape (8 rounds of 8 KiB parts), two staged exchanges
//! per op before and one loaned exchange after, went from 42–46 to 24–31 µs
//! per op pinned to one core, and from 27–31 to 13–15 µs on two (three runs
//! each). So the staged arm was deleted, and the 1–2 µs a lone small loan
//! costs at ranks > cores is the accepted price of one wire path.

use crate::datatype::Datatype;
use crate::wait::{spin_until, Resolved, Waiter};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Rendezvous cells
// ---------------------------------------------------------------------------

const PENDING: u8 = 0;
const COPYING: u8 = 1;
const DONE: u8 = 2;
const REVOKED: u8 = 3;

/// Completion state of one loan, shared between the sending and receiving
/// rank. State machine: `Pending → Copying → Done` (receiver) or
/// `Pending → Revoked` (sender giving up). The claim CAS makes the two
/// races — revoke-vs-claim and wait-vs-finish — well ordered.
#[derive(Debug, Default)]
pub(crate) struct ZcCell {
    state: AtomicU8,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Outcome of a sender's wait on a lent region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZcWait {
    /// The receiver copied the region.
    Done,
    /// The sender revoked the loan; the pointer was never (and will never
    /// be) dereferenced.
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
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.state.store(DONE, Ordering::Release);
        self.cv.notify_all();
    }

    /// Sender side: block until the region is copied, revoking the loan if
    /// `deadline` passes or `abort()` reports the receiver can no longer
    /// claim it. Never returns while the receiver might still dereference
    /// the lent pointer — that is the zero-copy soundness invariant.
    ///
    /// Check, spin, then park, under the lender's `waiter`: the spin watches
    /// `state` alone and takes no lock, so a copy that finishes inside the
    /// budget (never past `deadline`) costs the lender no sleep.
    pub fn wait(&self, waiter: &Waiter, deadline: Instant, abort: impl Fn() -> bool) -> ZcWait {
        let spin_end = (Instant::now() + waiter.spin).min(deadline);
        let mut how = Resolved::Immediate;
        let outcome = loop {
            match self.state.load(Ordering::Acquire) {
                DONE => break ZcWait::Done,
                // A third party revoked the loan (the queued envelope was
                // discarded — epoch fence, aborted exchange, teardown).
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
                how = Resolved::SpinHit;
                spin_until(spin_end, || self.is_terminal());
                continue;
            }
            how = Resolved::Park;
            let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            if !self.is_terminal() {
                // Re-check under the lock so a finish() or a third party's
                // revoke cannot slot between the state load and the wait.
                // Bounded wait keeps the abort condition live even if no
                // notification ever comes.
                let _ = self
                    .cv
                    .wait_timeout(guard, Duration::from_millis(25))
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        waiter.note(how);
        outcome
    }

    /// Third party (neither endpoint actively copying): revoke the loan if it
    /// was never claimed, waking the blocked sender. Used when a queued
    /// `Shared` envelope is discarded — epoch fencing, an aborted exchange
    /// draining its round, mailbox teardown — so the sender observes
    /// `Revoked` promptly instead of waiting out the watchdog. A loan already
    /// being copied (or finished) is left alone.
    pub fn revoke_if_pending(&self) -> bool {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let revoked = self
            .state
            .compare_exchange(PENDING, REVOKED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if revoked {
            self.cv.notify_all();
        }
        revoked
    }

    /// Whether the loan reached a terminal state (`Done` or `Revoked`) — i.e.
    /// its sender is no longer (or never was) on the hook. Used by the
    /// checker's finalize-time loan-leak scan.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.load(Ordering::Acquire), DONE | REVOKED)
    }
}

/// One part of a loan: a sender buffer (as raw parts) and the datatype
/// selecting the part's bytes within it.
struct LentPart {
    ptr: *const u8,
    len: usize,
    dt: Datatype,
}

/// A loan travelling through a mailbox: every part of one message, in
/// message order, and the completion cell the sender is waiting on. A
/// one-part message is the `n = 1` case.
pub(crate) struct ZcHandle {
    parts: Vec<LentPart>,
    /// Completion cell shared with the sender.
    pub cell: Arc<ZcCell>,
}

// SAFETY: the raw pointers cross threads by design. The sender guarantees
// the pointed-to buffers outlive the rendezvous (it blocks in ZcCell::wait
// until Done/Revoked before the borrows end), and the receiver only reads
// them between a successful try_claim() and finish().
unsafe impl Send for ZcHandle {}

impl ZcHandle {
    /// Lend every `(buffer, selection)` part of `parts`, reporting
    /// completion through `cell`.
    pub fn new(parts: &[(&[u8], Datatype)], cell: Arc<ZcCell>) -> Self {
        let parts =
            parts.iter().map(|(buf, dt)| LentPart { ptr: buf.as_ptr(), len: buf.len(), dt: *dt });
        ZcHandle { parts: parts.collect(), cell }
    }

    /// The selections of the lent parts, in message order. Reads no lent
    /// byte, so a receiver may compare them before it claims.
    pub fn dts(&self) -> impl Iterator<Item = &Datatype> {
        self.parts.iter().map(|p| &p.dt)
    }

    /// The lent parts, each its buffer and selection, in message order.
    ///
    /// # Safety
    /// Callable only between a successful [`ZcCell::try_claim`] and the
    /// matching [`ZcCell::finish`], while the sender is still blocked in
    /// [`ZcCell::wait`] — that is what keeps the borrows alive — and the
    /// slices must not be used after that `finish`.
    pub unsafe fn parts(&self) -> impl Iterator<Item = (&[u8], &Datatype)> {
        self.parts.iter().map(|p| {
            // SAFETY: per the function contract the sender's buffers are
            // alive and not mutated for the duration of the claim.
            (unsafe { std::slice::from_raw_parts(p.ptr, p.len) }, &p.dt)
        })
    }

    /// Number of payload bytes this handle carries.
    pub fn packed_len(&self) -> usize {
        self.dts().map(Datatype::packed_len).sum()
    }
}

/// Dropping a handle that was never claimed revokes the loan. This is what
/// makes "discard the envelope" a complete operation: any path that throws a
/// queued `Shared` message away (epoch sweep, aborted exchange, universe
/// teardown) automatically releases the sender blocked on the cell.
impl Drop for ZcHandle {
    fn drop(&mut self) {
        self.cell.revoke_if_pending();
    }
}

// ---------------------------------------------------------------------------
// Staging-buffer pool
// ---------------------------------------------------------------------------

/// Snapshot of [`BufferPool`] occupancy and traffic, for tests, benches and
/// diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers currently parked in the free list.
    pub free_buffers: usize,
    /// Bytes of capacity currently parked in the free list.
    pub free_bytes: usize,
    /// Largest `free_bytes` ever observed.
    pub high_water_bytes: usize,
    /// Total acquisitions served.
    pub acquires: u64,
    /// Acquisitions served by reuse instead of allocation.
    pub reuse_hits: u64,
    /// Bytes of capacity released back to the allocator by the trim policy.
    pub trimmed_bytes: u64,
}

#[derive(Default)]
struct PoolInner {
    /// Free buffers, kept sorted by capacity (ascending) for best-fit.
    free: Vec<Vec<u8>>,
    free_bytes: usize,
    /// Largest single request seen in the current / previous demand epoch.
    epoch_demand: usize,
    prev_demand: usize,
    epoch_acquires: u32,
    stats: PoolStats,
}

/// How many acquisitions one demand epoch spans. Two epochs after a demand
/// spike ends, the high-water mark has fully decayed and the trim policy
/// releases the excess capacity.
const POOL_EPOCH: u32 = 64;
/// Retained capacity is bounded by `POOL_SLACK ×` the recent peak request
/// (enough to stage every concurrent round of a typical exchange).
const POOL_SLACK: usize = 8;
/// Capacity floor below which the pool never bothers trimming.
const POOL_MIN_RETAIN: usize = 64 * 1024;
/// Hard cap on parked buffer count.
const POOL_MAX_BUFFERS: usize = 64;

/// A shared pool of buffers for eager point-to-point sends
/// ([`crate::Comm::acquire_staging`]); `alltoallw` loans and never stages.
///
/// `acquire` hands out a cleared `Vec<u8>` with at least the requested
/// capacity; `release` parks it for reuse. The release path trims the free
/// list against a decaying high-water mark of recent demand, so pool memory
/// stays bounded by current traffic instead of the historical maximum
/// (the fix for `pack_into`-era unbounded staging growth).
#[derive(Default)]
pub(crate) struct BufferPool {
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get a cleared buffer with capacity at least `cap` (best fit, else a
    /// fresh allocation).
    pub fn acquire(&self, cap: usize) -> Vec<u8> {
        let mut inner = self.lock();
        inner.stats.acquires += 1;
        inner.epoch_acquires += 1;
        inner.epoch_demand = inner.epoch_demand.max(cap);
        if inner.epoch_acquires >= POOL_EPOCH {
            inner.prev_demand = inner.epoch_demand;
            inner.epoch_demand = 0;
            inner.epoch_acquires = 0;
        }
        // Best fit: first free buffer (sorted ascending) that can hold `cap`.
        if let Some(i) = inner.free.iter().position(|b| b.capacity() >= cap) {
            let mut buf = inner.free.remove(i);
            inner.free_bytes -= buf.capacity();
            inner.stats.reuse_hits += 1;
            buf.clear();
            return buf;
        }
        drop(inner);
        // A checkout the free list could not serve: fresh allocation.
        ddrtrace::instant_arg("minimpi", "pool_alloc", "bytes", cap as i64);
        Vec::with_capacity(cap)
    }

    /// Return a buffer to the pool (content is discarded). Oversized
    /// capacity beyond the recent-demand watermark is released immediately.
    pub fn release(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let cap = buf.capacity();
        let mut inner = self.lock();
        let at = inner.free.partition_point(|b| b.capacity() < cap);
        inner.free.insert(at, buf);
        inner.free_bytes += cap;
        inner.stats.high_water_bytes = inner.stats.high_water_bytes.max(inner.free_bytes);
        let bound = (inner.epoch_demand.max(inner.prev_demand) * POOL_SLACK).max(POOL_MIN_RETAIN);
        // Trim largest-first: big stale buffers are the ones that pin memory.
        let mut trimmed = 0u64;
        while inner.free_bytes > bound || inner.free.len() > POOL_MAX_BUFFERS {
            match inner.free.pop() {
                Some(b) => {
                    inner.free_bytes -= b.capacity();
                    inner.stats.trimmed_bytes += b.capacity() as u64;
                    trimmed += b.capacity() as u64;
                }
                None => break,
            }
        }
        drop(inner);
        if ddrtrace::enabled() {
            if trimmed > 0 {
                ddrtrace::instant_arg("minimpi", "pool_trim", "bytes", trimmed as i64);
            }
            ddrtrace::counter("pool_free_bytes", self.lock().free_bytes as i64);
        }
    }

    /// Current occupancy / traffic counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        let mut s = inner.stats;
        s.free_buffers = inner.free.len();
        s.free_bytes = inner.free_bytes;
        s
    }
}

// ---------------------------------------------------------------------------
// Transport counters
// ---------------------------------------------------------------------------

/// Which wire path messages took, for tests and benches to introspect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Messages delivered by the zero-copy rendezvous: every `alltoallw`
    /// message a fault rule did not withhold.
    pub zerocopy_msgs: u64,
    /// Messages that carried owned bytes: eager point-to-point sends and the
    /// other collectives' fragments.
    pub staged_msgs: u64,
    /// Zero-copy loans that were revoked before the receiver copied them.
    pub revoked_msgs: u64,
    /// Stale-epoch messages rejected by the membership fence instead of
    /// being delivered (swept at reconfiguration or caught at match time).
    pub fenced_msgs: u64,
    /// Deposits that found their pair's mailbox bound full and had to park
    /// (`flow.credit_waits` in the trace). DDR traffic never reaches the
    /// bound; a non-zero count means a producer is outrunning its consumer.
    pub credit_waits: u64,
    /// Total time senders spent parked on a full pair, in milliseconds
    /// (`flow.stalled_ms` in the trace).
    pub stalled_ms: u64,
}

/// Atomic backing store for [`TransportCounters`], kept on the world state.
#[derive(Debug, Default)]
pub(crate) struct TransportCells {
    pub zerocopy_msgs: AtomicU64,
    pub staged_msgs: AtomicU64,
    pub revoked_msgs: AtomicU64,
    pub fenced_msgs: AtomicU64,
    pub credit_waits: AtomicU64,
    pub stalled_us: AtomicU64,
}

impl TransportCells {
    pub fn snapshot(&self) -> TransportCounters {
        TransportCounters {
            zerocopy_msgs: self.zerocopy_msgs.load(Ordering::Relaxed),
            staged_msgs: self.staged_msgs.load(Ordering::Relaxed),
            revoked_msgs: self.revoked_msgs.load(Ordering::Relaxed),
            fenced_msgs: self.fenced_msgs.load(Ordering::Relaxed),
            credit_waits: self.credit_waits.load(Ordering::Relaxed),
            stalled_ms: self.stalled_us.load(Ordering::Relaxed) / 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LONG: Duration = Duration::from_secs(10);

    /// Both sides of the wait policy: park at once, and a spin long enough
    /// that whatever the test does next lands inside it. Every cell outcome
    /// below must be the same under either.
    fn policies() -> [Waiter; 2] {
        [Waiter::default(), Waiter::new(LONG)]
    }

    #[test]
    fn cell_done_path() {
        for waiter in policies() {
            let cell = Arc::new(ZcCell::default());
            let c2 = Arc::clone(&cell);
            let h = std::thread::spawn(move || {
                assert!(c2.try_claim());
                c2.finish();
            });
            assert_eq!(cell.wait(&waiter, Instant::now() + LONG, || false), ZcWait::Done);
            h.join().unwrap();
        }
    }

    /// A copy that finishes inside the budget releases the lender from its
    /// spin: it never touches the cell's mutex (held here throughout — a
    /// lender that locked would hang) and never parks.
    #[test]
    fn done_inside_the_spin_returns_without_locking() {
        let (cell, waiter) = (ZcCell::default(), Waiter::new(LONG));
        let spinning = std::sync::atomic::AtomicBool::new(false);
        let held = cell.lock.lock().unwrap();
        // The abort check runs right before the spin starts.
        let watch = || {
            spinning.store(true, Ordering::Release);
            false
        };
        let out = std::thread::scope(|s| {
            let h = s.spawn(|| cell.wait(&waiter, Instant::now() + LONG, watch));
            while !spinning.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert!(cell.try_claim());
            cell.state.store(DONE, Ordering::Release);
            h.join().unwrap()
        });
        drop(held);
        assert_eq!(out, ZcWait::Done);
        assert_eq!((waiter.count(Resolved::SpinHit), waiter.count(Resolved::Park)), (1, 0));
    }

    #[test]
    fn cell_revoke_on_timeout_blocks_claim() {
        for waiter in policies() {
            let cell = ZcCell::default();
            assert_eq!(cell.wait(&waiter, Instant::now(), || false), ZcWait::Revoked);
            assert!(!cell.try_claim());
            assert_eq!(waiter.count(Resolved::Immediate), 1, "an expired wait spins for nothing");
        }
    }

    /// The deadline race: a loan claimed before the deadline passed is being
    /// copied, so an expired lender still waits for `Done` — it may not
    /// return while the receiver can dereference the pointer.
    #[test]
    fn expired_wait_on_a_claimed_loan_waits_for_done() {
        for waiter in policies() {
            let cell = ZcCell::default();
            assert!(cell.try_claim());
            std::thread::scope(|s| {
                let h = s.spawn(|| cell.wait(&waiter, Instant::now(), || true));
                std::thread::yield_now();
                cell.finish();
                assert_eq!(h.join().unwrap(), ZcWait::Done);
            });
        }
    }

    /// The revoke-vs-claim race has exactly two outcomes, spinning or not:
    /// the claim wins and the lender waits out the copy, or the revoke wins
    /// and the receiver never touches the loan.
    #[test]
    fn revoke_racing_claim_has_one_winner() {
        for waiter in policies() {
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
                    let out = cell.wait(&waiter, Instant::now() + LONG, || true);
                    let claimed = h.join().unwrap();
                    assert_eq!(out, if claimed { ZcWait::Done } else { ZcWait::Revoked });
                });
            }
        }
    }

    #[test]
    fn dropping_unclaimed_handle_revokes_loan() {
        for waiter in policies() {
            let cell = Arc::new(ZcCell::default());
            let buf = vec![0u8; 16];
            let dt = Datatype::Contiguous { len_bytes: 16, offset: 0 };
            drop(ZcHandle::new(&[(&buf, dt)], Arc::clone(&cell)));
            // The loan is dead: the receiver can no longer claim it, and a
            // sender blocked in wait() observes the revocation immediately.
            assert!(!cell.try_claim());
            assert_eq!(cell.wait(&waiter, Instant::now() + LONG, || false), ZcWait::Revoked);
        }
    }

    #[test]
    fn dropping_claimed_handle_does_not_disturb_copy() {
        for waiter in policies() {
            let cell = Arc::new(ZcCell::default());
            assert!(cell.try_claim());
            let buf = vec![0u8; 4];
            let dt = Datatype::Contiguous { len_bytes: 4, offset: 0 };
            drop(ZcHandle::new(&[(&buf, dt)], Arc::clone(&cell)));
            cell.finish();
            assert_eq!(cell.wait(&waiter, Instant::now(), || false), ZcWait::Done);
        }
    }

    /// A three-part loan over two buffers, lent from one thread and claimed,
    /// copied part by part and finished on another: the receiver reads every
    /// part through its raw pointer, in message order, while the lender is
    /// blocked, and the lender wakes to `Done`.
    #[test]
    fn three_part_loan_over_two_buffers_is_copied_in_order() {
        let a: Vec<u8> = (0..32).collect();
        let b: Vec<u8> = (100..116).collect();
        let contig = |offset, len_bytes| Datatype::Contiguous { len_bytes, offset };
        let parts = [(&b[..], contig(8, 8)), (&a[..], contig(0, 4)), (&a[..], contig(28, 4))];
        for waiter in policies() {
            let cell = Arc::new(ZcCell::default());
            let handle = ZcHandle::new(&parts, Arc::clone(&cell));
            assert_eq!(handle.packed_len(), 16);
            let lens: Vec<usize> = handle.dts().map(Datatype::packed_len).collect();
            assert_eq!(lens, [8, 4, 4]);
            let got = std::thread::scope(|s| {
                let copier = s.spawn(move || {
                    assert!(handle.cell.try_claim());
                    let mut out = Vec::new();
                    // SAFETY: the claim succeeded and the lender is blocked in
                    // wait() until finish() below; the slices die first.
                    for (lent, dt) in unsafe { handle.parts() } {
                        dt.pack_into(lent, &mut out).unwrap();
                    }
                    handle.cell.finish();
                    out
                });
                assert_eq!(cell.wait(&waiter, Instant::now() + LONG, || false), ZcWait::Done);
                copier.join().unwrap()
            });
            let want: Vec<u8> =
                b[8..16].iter().chain(&a[0..4]).chain(&a[28..32]).copied().collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn cell_abort_revokes() {
        for waiter in policies() {
            let cell = ZcCell::default();
            assert_eq!(cell.wait(&waiter, Instant::now() + LONG, || true), ZcWait::Revoked);
        }
    }

    #[test]
    fn pool_reuses_and_clears() {
        let pool = BufferPool::default();
        let mut a = pool.acquire(100);
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.release(a);
        let b = pool.acquire(50);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.stats().reuse_hits, 1);
    }

    #[test]
    fn pool_trims_oversized_capacity_after_demand_decays() {
        let pool = BufferPool::default();
        // One huge staging buffer, then two epochs of small traffic.
        let huge = pool.acquire(32 << 20);
        pool.release(huge);
        for _ in 0..(2 * POOL_EPOCH) {
            let b = pool.acquire(1024);
            pool.release(b);
        }
        let s = pool.stats();
        assert!(
            s.free_bytes <= (1024 * POOL_SLACK).max(POOL_MIN_RETAIN),
            "pool retained {} bytes after demand decayed",
            s.free_bytes
        );
        assert!(s.trimmed_bytes >= (32 << 20) as u64);
    }
}
