//! Runtime correctness checking: collective-matching verification,
//! wait-for-graph deadlock detection and datatype signature verification —
//! each a mistake a safe program can make. (Writing a lent buffer while the
//! loan is live, or finishing with a loan outstanding, it cannot: the only
//! lender is `alltoallw`'s send phase, whose shared borrow of the send
//! buffer outlives the drain its `Drop` runs on every exit path.)
//!
//! All of these facilities are off by default and enabled together via
//! [`crate::UniverseBuilder::check`] or `DDR_CHECK=1`. When disabled the only
//! cost on any hot path is a branch on an `Option` that is always `None`;
//! no state is allocated and no detector thread runs.
//!
//! ## Collective matching
//!
//! MPI's contract is that every member of a communicator calls the same
//! sequence of collectives with compatible arguments. A violation — rank 3
//! calls `broadcast` while rank 5 calls `alltoallw`, or two ranks disagree
//! on the root — silently deadlocks (or worse, mismatches payloads). With
//! checking on, every collective records a [`CollFingerprint`] keyed by
//! `(communicator id, collective index)` into a shared epoch log before any
//! byte moves. The first rank to reach index `i` defines the expected
//! fingerprint; every later arrival is compared and a divergence fails fast
//! with [`crate::Error::CollectiveDiverged`] naming both ranks, both ops and
//! both call sites — instead of waiting out the watchdog.
//!
//! ## Wait-for-graph deadlock detection
//!
//! Every blocking definite-source receive (including the receives inside
//! collectives) registers a `waiter → awaited` edge in a shared wait-for
//! graph. A detector thread periodically runs cycle detection; a cycle whose
//! edges are stable across consecutive scans and whose awaited messages are
//! verifiably absent from the waiters' mailboxes is a true deadlock (sends
//! in minimpi are eager, so an in-flight message is always already in the
//! destination mailbox). Every member of the cycle is interrupted and fails
//! with [`crate::Error::Deadlock`] carrying the full cycle, long before the
//! watchdog expires.
//!
//! ## Datatype signatures
//!
//! With checking on, every envelope is stamped with a [`TypeSig`] — packed
//! extent, element size, subarray shape hash — and receives that declare
//! their own expectation (typed point-to-point receives, alltoallw
//! destination datatypes) verify the sender's stamp against it, failing
//! with [`crate::Error::TypeMismatch`] instead of silently reinterpreting
//! bytes.

use crate::comm::WorldState;
use crate::datatype::Datatype;
use crate::fault::mix64;
use crate::mailbox::MsgKey;
use std::collections::HashMap;
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// How often the deadlock detector rescans the wait-for graph. A cycle must
/// survive two consecutive scans to be declared, so detection latency is
/// roughly two intervals — still orders of magnitude below any watchdog.
const DETECTOR_INTERVAL: Duration = Duration::from_millis(2);

/// Which collective primitive a rank entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// [`crate::Comm::barrier`]
    Barrier,
    /// [`crate::Comm::broadcast_bytes`] (including the broadcast leg of
    /// allgather and allreduce)
    Broadcast,
    /// [`crate::Comm::gather_bytes`] (including the gather leg of allgather
    /// and allreduce)
    Gather,
    /// [`crate::Comm::alltoallw`] and its salvage variant
    Alltoallw,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Alltoallw => "alltoallw",
        };
        f.write_str(name)
    }
}

/// What one rank recorded on entering a collective: everything the MPI
/// contract requires to be identical (or compatible) across members, plus
/// the user call site for diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollFingerprint {
    /// The collective primitive entered.
    pub kind: CollectiveKind,
    /// Root rank for rooted collectives (`usize::MAX` = not rooted).
    pub root: usize,
    /// Source file of the user call site.
    pub file: &'static str,
    /// Line of the user call site.
    pub line: u32,
}

impl CollFingerprint {
    /// Capture a fingerprint at the (track_caller-propagated) call site.
    #[track_caller]
    pub(crate) fn here(kind: CollectiveKind, root: Option<usize>) -> Self {
        let loc = Location::caller();
        CollFingerprint {
            kind,
            root: root.unwrap_or(usize::MAX),
            file: loc.file(),
            line: loc.line(),
        }
    }

    /// Fields the MPI contract requires to match (call sites may legitimately
    /// differ between ranks taking different branches of an SPMD program).
    fn matches(&self, other: &CollFingerprint) -> bool {
        self.kind == other.kind && self.root == other.root
    }
}

impl fmt::Display for CollFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if self.root != usize::MAX {
            write!(f, "(root {})", self.root)?;
        }
        write!(f, " at {}:{}", self.file, self.line)
    }
}

/// Two ranks of one communicator disagreed on what collective number `index`
/// is — the structured report behind [`crate::Error::CollectiveDiverged`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Communicator the divergence happened on.
    pub comm_id: u64,
    /// Zero-based index of the collective call in this communicator's
    /// program order.
    pub index: u64,
    /// First rank (communicator-local) to reach this index.
    pub rank_a: usize,
    /// What it recorded.
    pub fp_a: CollFingerprint,
    /// The diverging rank (the one that received the error).
    pub rank_b: usize,
    /// What it recorded instead.
    pub fp_b: CollFingerprint,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "collective #{} on comm {:#x}: rank {} called {} but rank {} called {}",
            self.index, self.comm_id, self.rank_a, self.fp_a, self.rank_b, self.fp_b
        )
    }
}

/// One blocked receive participating in a deadlock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRecv {
    /// World rank of the blocked receiver.
    pub rank: usize,
    /// World rank it is waiting on.
    pub awaited: usize,
    /// Communicator the receive was posted on.
    pub comm_id: u64,
    /// Raw key tag of the awaited message (user tag, or an internal
    /// collective sequence number — see [`crate::Error::Timeout`] docs).
    pub tag: u64,
}

impl fmt::Display for PendingRecv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} waits on rank {} ({} on comm {:#x})",
            self.rank,
            self.awaited,
            crate::comm::describe_key_tag(self.tag),
            self.comm_id
        )
    }
}

/// A confirmed cycle in the wait-for graph — the structured report behind
/// [`crate::Error::Deadlock`]. `cycle[i].awaited == cycle[i + 1].rank`
/// (wrapping), so the chain reads directly as "0 waits on 1 waits on … on 0".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The blocked receives forming the cycle, in chain order.
    pub cycle: Vec<PendingRecv>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock cycle of {} ranks: ", self.cycle.len())?;
        for (i, p) in self.cycle.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Datatype signature stamped on envelopes with checking enabled: the
/// fields two sides of a transfer must agree on before bytes are
/// reinterpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeSig {
    /// Packed extent in bytes (`0` = undeclared / unchecked, used by
    /// open-length receives).
    pub extent: u64,
    /// Element size in bytes (`1` = untyped bytes, compatible with any
    /// element size).
    pub elem: u32,
    /// Hash of a subarray's rectangle extents, `0` for non-subarray types.
    /// Diagnostic only: MPI signatures compare as element sequences, so
    /// differently-shaped subarrays with equal element size and count are
    /// legitimately compatible.
    pub shape: u64,
}

impl TypeSig {
    /// The signature of a wire datatype.
    pub(crate) fn of(dt: &Datatype) -> TypeSig {
        match dt {
            Datatype::Empty => TypeSig { extent: 0, elem: 1, shape: 0 },
            Datatype::Contiguous { len_bytes, .. } => {
                TypeSig { extent: *len_bytes as u64, elem: 1, shape: 0 }
            }
            Datatype::Subarray(s) => {
                let mut h = mix64(0x0073_6861_7065 ^ s.ndims as u64);
                for d in 0..s.ndims {
                    h = mix64(h ^ s.subsizes[d] as u64);
                }
                TypeSig { extent: s.packed_len() as u64, elem: s.elem_size as u32, shape: h }
            }
        }
    }

    /// The signature of one message packed from `dts` back to back: extents
    /// add, an element size survives only when every part shares it, and
    /// the shapes fold in order. A one-part message signs as its datatype.
    pub(crate) fn of_parts<'a>(dts: impl IntoIterator<Item = &'a Datatype>) -> TypeSig {
        dts.into_iter()
            .map(TypeSig::of)
            .reduce(|a, b| TypeSig {
                extent: a.extent + b.extent,
                elem: if a.elem == b.elem { a.elem } else { 1 },
                shape: mix64(a.shape ^ b.shape.rotate_left(1)),
            })
            .unwrap_or(TypeSig::bytes(0))
    }

    /// An untyped-bytes signature of `extent` bytes.
    pub(crate) fn bytes(extent: u64) -> TypeSig {
        TypeSig { extent, elem: 1, shape: 0 }
    }

    /// Whether a sender-stamped signature `got` satisfies this receiver-side
    /// expectation. Element sizes conflict only when both sides declare one
    /// (the byte-granular collective internals stamp `elem == 1`); extents
    /// conflict only when both sides declare one (`0` = unchecked).
    pub(crate) fn accepts(&self, got: &TypeSig) -> bool {
        if self.elem > 1 && got.elem > 1 && self.elem != got.elem {
            return false;
        }
        if self.extent > 0 && got.extent > 0 && self.extent != got.extent {
            return false;
        }
        true
    }
}

impl fmt::Display for TypeSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(extent {}B, elem {}B", self.extent, self.elem)?;
        if self.shape != 0 {
            write!(f, ", shape {:#x}", self.shape)?;
        }
        write!(f, ")")
    }
}

/// Snapshot of the check-plane counters, exported into the ddrtrace metrics
/// registry as `check.*` and queryable via [`crate::Comm::check_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Deadlock cycles convicted by the wait-for-graph detector.
    pub deadlocks: u64,
    /// Collective divergences reported.
    pub divergences: u64,
    /// Datatype signature mismatches reported.
    pub type_mismatches: u64,
}

/// One collective epoch-log entry: the fingerprint the first arrival set,
/// and how many members have matched it so far (entries are retired once
/// every member has checked in, bounding the log to in-flight collectives).
struct CollEntry {
    first_rank: usize,
    fp: CollFingerprint,
    seen: usize,
}

/// A registered `waiter → awaited` edge. `gen` distinguishes successive
/// waits by the same rank so the detector can tell a *stuck* wait from a
/// rapid sequence of short ones.
#[derive(Clone, Copy)]
struct WaitEdge {
    awaited_world: usize,
    key: MsgKey,
    gen: u64,
}

#[derive(Default)]
struct WaitTable {
    /// At most one blocking receive per rank at a time, indexed by world rank.
    edges: Vec<Option<WaitEdge>>,
    next_gen: u64,
}

#[derive(Default)]
struct Counters {
    deadlocks: AtomicU64,
    divergences: AtomicU64,
    type_mismatches: AtomicU64,
}

/// Shared state of the checking subsystem, present in
/// [`crate::comm::WorldState`] only when checking is enabled.
pub(crate) struct CheckState {
    colls: Mutex<HashMap<(u64, u64), CollEntry>>,
    waits: Mutex<WaitTable>,
    /// Ranks declared deadlocked by the detector, with their cycle report.
    deadlocked: Mutex<HashMap<usize, DeadlockReport>>,
    counters: Counters,
}

impl CheckState {
    pub fn new(n: usize) -> Self {
        CheckState {
            colls: Mutex::new(HashMap::new()),
            waits: Mutex::new(WaitTable { edges: vec![None; n], next_gen: 0 }),
            deadlocked: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record that `rank` (communicator-local, of a communicator with `size`
    /// members) entered collective number `index` on `comm_id` with
    /// fingerprint `fp`. Returns the divergence if a previous arrival
    /// recorded an incompatible fingerprint for the same index.
    pub fn record_collective(
        &self,
        comm_id: u64,
        index: u64,
        rank: usize,
        size: usize,
        fp: CollFingerprint,
    ) -> Result<(), Box<DivergenceReport>> {
        let mut colls = Self::lock(&self.colls);
        match colls.entry((comm_id, index)) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(CollEntry { first_rank: rank, fp, seen: 1 });
                Ok(())
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let entry = o.get_mut();
                if !entry.fp.matches(&fp) {
                    // Leave the entry in place so every further diverging
                    // member gets the same diagnosis.
                    self.counters.divergences.fetch_add(1, Ordering::Relaxed);
                    return Err(Box::new(DivergenceReport {
                        comm_id,
                        index,
                        rank_a: entry.first_rank,
                        fp_a: entry.fp,
                        rank_b: rank,
                        fp_b: fp,
                    }));
                }
                entry.seen += 1;
                if entry.seen >= size {
                    o.remove();
                }
                Ok(())
            }
        }
    }

    /// Register this rank's blocking receive in the wait-for graph.
    pub fn begin_wait(&self, world_rank: usize, awaited_world: usize, key: MsgKey) {
        let mut w = Self::lock(&self.waits);
        w.next_gen += 1;
        let gen = w.next_gen;
        w.edges[world_rank] = Some(WaitEdge { awaited_world, key, gen });
    }

    /// Remove this rank's edge. `delivered` clears any (necessarily stale)
    /// deadlock verdict — a rank whose message arrived was never stuck;
    /// otherwise the verdict, if one exists, is taken and returned.
    pub fn finish_wait(&self, world_rank: usize, delivered: bool) -> Option<DeadlockReport> {
        Self::lock(&self.waits).edges[world_rank] = None;
        let mut dl = Self::lock(&self.deadlocked);
        if delivered {
            dl.remove(&world_rank);
            None
        } else {
            dl.remove(&world_rank)
        }
    }

    /// Abort-condition probe used by blocked receivers.
    pub fn is_deadlocked(&self, world_rank: usize) -> bool {
        Self::lock(&self.deadlocked).contains_key(&world_rank)
    }

    /// Count one datatype signature mismatch.
    pub fn note_type_mismatch(&self) {
        self.counters.type_mismatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the check-plane counters.
    pub fn counters(&self) -> CheckCounters {
        CheckCounters {
            deadlocks: self.counters.deadlocks.load(Ordering::Relaxed),
            divergences: self.counters.divergences.load(Ordering::Relaxed),
            type_mismatches: self.counters.type_mismatches.load(Ordering::Relaxed),
        }
    }

    /// Clear all checker state across a membership epoch change. The
    /// reconfigure leader calls this while every survivor is parked in the
    /// epoch barrier (no collective is in flight and no member is blocked in
    /// a mailbox wait), so in-flight entries are by construction orphans of
    /// the old epoch: half-seen collective fingerprints of ranks that died,
    /// wait edges of the casualties, verdicts about a membership that no
    /// longer exists. Leaving any of it behind would convict post-reconfigure
    /// waits against pre-reconfigure state — the false-`Deadlock` failure
    /// mode the epoch protocol must not have.
    pub fn reset_for_epoch(&self) {
        Self::lock(&self.colls).clear();
        let mut w = Self::lock(&self.waits);
        for e in w.edges.iter_mut() {
            *e = None;
        }
        drop(w);
        Self::lock(&self.deadlocked).clear();
    }

    /// One detector scan: find cycles in the current wait-for graph, confirm
    /// them against the previous scan's candidates (`prev`, keyed by the
    /// edge generations) and against the mailboxes, then convict.
    fn scan(&self, world: &WorldState, prev: &mut Vec<Vec<(usize, u64)>>) {
        let snapshot: Vec<Option<WaitEdge>> = Self::lock(&self.waits).edges.clone();
        let n = snapshot.len();
        let mut candidates: Vec<Vec<(usize, u64)>> = Vec::new();

        // Each node has at most one outgoing edge, so walking successors
        // from every unvisited node finds every cycle in O(n).
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on path, 2 = done
        for start in 0..n {
            if state[start] != 0 || snapshot[start].is_none() {
                continue;
            }
            let mut path: Vec<usize> = Vec::new();
            let mut cur = start;
            loop {
                if state[cur] == 1 {
                    // Found a cycle: the tail of `path` from `cur` onward.
                    let pos = path.iter().position(|&r| r == cur).expect("on path");
                    let cycle: Vec<(usize, u64)> = path[pos..]
                        .iter()
                        .map(|&r| {
                            let e: WaitEdge = snapshot[r].expect("edge on path");
                            (r, e.gen)
                        })
                        .collect();
                    candidates.push(cycle);
                    break;
                }
                if state[cur] == 2 {
                    break;
                }
                state[cur] = 1;
                path.push(cur);
                match snapshot[cur] {
                    Some(e) if world.is_alive(e.awaited_world) => cur = e.awaited_world,
                    // Waiting on a dead rank is PeerDead's business, and a
                    // rank not blocked at all ends the chain.
                    _ => break,
                }
            }
            for r in path {
                state[r] = 2;
            }
        }

        for cycle in &candidates {
            // A true deadlock is stable: same ranks, same wait generations
            // as the previous scan. A fresh cycle might still be a racing
            // snapshot (a message was popped but the edge not yet removed),
            // so it only becomes a conviction next scan.
            if !prev.iter().any(|p| p == cycle) {
                continue;
            }
            // Eager sends mean a satisfiable wait has its message already
            // queued; verify none of the cycle's messages are.
            let satisfiable = cycle
                .iter()
                .any(|&(r, _)| snapshot[r].is_some_and(|e| world.mailboxes[r].contains(e.key)));
            if satisfiable {
                continue;
            }
            let report = DeadlockReport {
                cycle: cycle
                    .iter()
                    .map(|&(r, _)| {
                        let e = snapshot[r].expect("cycle member has an edge");
                        PendingRecv {
                            rank: r,
                            awaited: e.awaited_world,
                            comm_id: e.key.0,
                            tag: e.key.2,
                        }
                    })
                    .collect(),
            };
            self.counters.deadlocks.fetch_add(1, Ordering::Relaxed);
            let mut dl = Self::lock(&self.deadlocked);
            for &(r, _) in cycle {
                dl.insert(r, report.clone());
            }
            drop(dl);
            for &(r, _) in cycle {
                world.mailboxes[r].interrupt();
            }
        }
        *prev = candidates;
    }
}

/// Body of the detector thread: rescan until told to shut down.
pub(crate) fn detector_loop(world: &WorldState, shutdown: &AtomicBool) {
    let check = world.check.as_ref().expect("detector runs only with checking enabled");
    let mut prev = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        std::thread::sleep(DETECTOR_INTERVAL);
        check.scan(world, &mut prev);
    }
}

/// `DDR_CHECK=1` (or `true`) turns checking on when the builder did not
/// decide explicitly.
pub(crate) fn check_env_default() -> bool {
    crate::env::flag("DDR_CHECK").unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(kind: CollectiveKind, root: Option<usize>) -> CollFingerprint {
        CollFingerprint { kind, root: root.unwrap_or(usize::MAX), file: "t.rs", line: 1 }
    }

    #[test]
    fn matching_fingerprints_retire_the_entry() {
        let c = CheckState::new(2);
        let f = fp(CollectiveKind::Barrier, None);
        c.record_collective(7, 0, 0, 2, f).unwrap();
        c.record_collective(7, 0, 1, 2, f).unwrap();
        assert!(CheckState::lock(&c.colls).is_empty());
    }

    #[test]
    fn diverging_fingerprint_is_reported_with_both_sides() {
        let c = CheckState::new(2);
        c.record_collective(7, 0, 0, 2, fp(CollectiveKind::Broadcast, Some(0))).unwrap();
        let err = c.record_collective(7, 0, 1, 2, fp(CollectiveKind::Alltoallw, None)).unwrap_err();
        assert_eq!(err.rank_a, 0);
        assert_eq!(err.rank_b, 1);
        assert_eq!(err.fp_a.kind, CollectiveKind::Broadcast);
        assert_eq!(err.fp_b.kind, CollectiveKind::Alltoallw);
        // A third diverging member still gets diagnosed.
        assert!(c.record_collective(7, 0, 2, 3, fp(CollectiveKind::Gather, Some(0))).is_err());
    }

    #[test]
    fn root_mismatch_is_a_divergence() {
        let c = CheckState::new(2);
        c.record_collective(1, 4, 0, 2, fp(CollectiveKind::Broadcast, Some(0))).unwrap();
        let err =
            c.record_collective(1, 4, 1, 2, fp(CollectiveKind::Broadcast, Some(1))).unwrap_err();
        assert_eq!(err.fp_a.root, 0);
        assert_eq!(err.fp_b.root, 1);
    }

    #[test]
    fn delivered_wait_clears_stale_deadlock_verdict() {
        let c = CheckState::new(2);
        c.begin_wait(0, 1, (0, 1, 0));
        CheckState::lock(&c.deadlocked).insert(0, DeadlockReport { cycle: vec![] });
        assert!(c.finish_wait(0, true).is_none());
        assert!(!c.is_deadlocked(0));
    }
}
