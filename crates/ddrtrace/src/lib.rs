//! # ddrtrace — the stack's phase-level tracing and metrics plane
//!
//! The paper's whole evaluation (Tables II–IV) is a *per-phase* timing story:
//! mapping vs packing vs `MPI_Alltoallw` rounds. This crate gives every layer
//! of the reproduction the same vocabulary with near-zero cost when off:
//!
//! * [`span!`] / [`instant!`] / [`counter!`] — record a timed phase, a point
//!   event, or a sampled value on the calling thread. When tracing is
//!   disabled (the default) each expands to **one relaxed atomic load**; the
//!   overhead guard test in the root crate holds this below 1% of a staged
//!   1 MiB redistribution.
//! * Per-thread **event rings** — bounded, lock-free single-writer buffers.
//!   A rank thread appends events with no locks and no allocation (after the
//!   first event); the collector reads them only after capture stops.
//! * [`capture`] — start/stop the global capture window and collect a
//!   [`Trace`]: all rings merged, timestamps resolved against the capture
//!   epoch, plus the [`metrics`] registry snapshot.
//! * [`Trace::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) with one track per rank.
//! * [`summary::Summary`] — the per-phase aggregation table (count / total /
//!   mean / max per `category/name`).
//! * [`json`] — a dependency-free JSON parser used by the `ddr-trace` report
//!   binary and the golden trace tests.
//!
//! ## Ring safety model
//!
//! Each ring has exactly one writer (the thread that created it, via a
//! thread-local) and is only read in [`capture::stop`] after tracing is
//! disabled. The writer publishes each slot with a release store of the new
//! length; the reader acquires the length and reads only `0..len`. A writer
//! that raced the disable flag can at worst be mid-append: the reader then
//! sees either the old length (slot invisible) or the new one (slot fully
//! written before the release store). Rings are reset only in
//! [`capture::start`]; a writer that raced the reset (loaded `enabled()`
//! before the disable and republished a stale length afterwards) cannot
//! corrupt the new window, because every event is stamped with the capture
//! generation at append time and [`capture::stop`] skips slots from older
//! generations.
//!
//! The registry keeps one [`Arc<Ring>`] per thread that ever recorded; the
//! thread-local holds the other reference. When a thread exits its
//! thread-local drops, and the next [`capture::start`]/[`capture::stop`]
//! prunes rings with no remaining writer (after draining them), so repeated
//! captures across short-lived rank threads do not grow memory without
//! bound.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod summary;

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events one thread can buffer between capture start and stop. At ~72 bytes
/// per event a full ring costs ~2.3 MiB; overflow increments a drop counter
/// instead of blocking or reallocating. Rings of exited threads are
/// reclaimed by the capture start/stop prune, so this bounds memory per
/// *live* thread, not per thread ever traced.
const RING_CAPACITY: usize = 1 << 15;

/// Track ids below this are reserved for explicitly registered tracks
/// (ranks); auto-assigned tracks (main thread, copy workers) start here.
/// [`set_track`] pushes the auto allocator above any pinned id, so pinning
/// past this base is safe too — but launchers that pin one track per rank
/// should keep rank counts below it (see `minimpi::Universe::run`).
pub const AUTO_TRACK_BASE: u32 = 1 << 10;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Capture-window generation, bumped by every [`capture::start`]. Writers
/// stamp it into each event; the collector drops events from older windows,
/// so a writer racing a ring reset cannot republish stale slots into the new
/// trace.
static CAPTURE_GEN: AtomicU64 = AtomicU64::new(0);

/// Is a capture window currently open? One relaxed load — this is the entire
/// cost of every disabled `span!`/`instant!`/`counter!` site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What a single buffered event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A timed phase (Chrome `"X"` complete event).
    Span,
    /// A point-in-time marker (Chrome `"i"` instant event).
    Instant,
    /// A sampled value (Chrome `"C"` counter event).
    Counter,
}

/// One buffered event. `ts` is an [`Instant`] resolved against the capture
/// epoch at collection time; names are `&'static str` so recording never
/// allocates.
#[derive(Clone, Copy)]
struct Event {
    ts: Instant,
    dur_ns: u64,
    kind: EventKind,
    cat: &'static str,
    name: &'static str,
    /// Optional argument (`("", 0)` = none). For counters the value lives
    /// here.
    arg_key: &'static str,
    arg: i64,
    /// Capture generation at append time; the collector skips events from
    /// older windows (stamped by [`Ring::push`], never by callers).
    gen: u64,
}

/// A resolved event in a collected [`Trace`]: timestamps are nanoseconds
/// since the capture epoch, and the originating thread's track is attached.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since capture start.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instants/counters).
    pub dur_ns: u64,
    /// Event flavor.
    pub kind: EventKind,
    /// Category (phase family), e.g. `"redist"`, `"coll"`, `"mpi"`.
    pub cat: &'static str,
    /// Event name, e.g. `"pack"`, `"alltoallw"`.
    pub name: &'static str,
    /// Track (thread) id: rank number for rank threads.
    pub track: u32,
    /// Optional argument key (`""` = none).
    pub arg_key: &'static str,
    /// Argument / counter value.
    pub arg: i64,
}

struct Slot(UnsafeCell<MaybeUninit<Event>>);

// SAFETY: a Slot is written only by the ring's single owning thread (below
// the published length) and read only by the collector after the length's
// release store made the write visible — see the module-level safety model.
unsafe impl Sync for Slot {}

struct Ring {
    slots: Box<[Slot]>,
    /// Published event count; release-stored by the writer after each slot
    /// write, acquire-loaded by the collector.
    len: AtomicUsize,
    dropped: AtomicU64,
    track: AtomicU32,
    name: Mutex<String>,
}

impl Ring {
    fn new(track: u32, name: String) -> Ring {
        let mut slots = Vec::with_capacity(RING_CAPACITY);
        slots.resize_with(RING_CAPACITY, || Slot(UnsafeCell::new(MaybeUninit::uninit())));
        Ring {
            slots: slots.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            track: AtomicU32::new(track),
            name: Mutex::new(name),
        }
    }

    /// Single-writer append; drops (and counts) on overflow.
    fn push(&self, mut ev: Event) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ev.gen = CAPTURE_GEN.load(Ordering::Relaxed);
        // SAFETY: only the owning thread writes this ring, `i` is below the
        // published length of nothing yet (the slot is unobservable until
        // the release store below), and `i < slots.len()` was checked.
        unsafe { (*self.slots[i].0.get()).write(ev) };
        self.len.store(i + 1, Ordering::Release);
    }

    /// Collector-side read of every published event from the current capture
    /// generation. Slots stamped with an older generation are stale entries a
    /// racing writer republished across a [`capture::start`] reset; skipping
    /// them keeps the previous window's garbage out of this trace.
    fn drain(&self, epoch: Instant, out: &mut Vec<TraceEvent>) -> usize {
        let n = self.len.load(Ordering::Acquire);
        let track = self.track.load(Ordering::Relaxed);
        let gen = CAPTURE_GEN.load(Ordering::Relaxed);
        let mut drained = 0;
        for slot in &self.slots[..n] {
            // SAFETY: slots below the acquire-loaded length were fully
            // written before their release store; the single writer never
            // rewrites a published slot within one capture.
            let ev = unsafe { (*slot.0.get()).assume_init() };
            if ev.gen != gen {
                continue;
            }
            drained += 1;
            out.push(TraceEvent {
                ts_ns: ev.ts.saturating_duration_since(epoch).as_nanos() as u64,
                dur_ns: ev.dur_ns,
                kind: ev.kind,
                cat: ev.cat,
                name: ev.name,
                track,
                arg_key: ev.arg_key,
                arg: ev.arg,
            });
        }
        drained
    }

    fn reset(&self) {
        self.len.store(0, Ordering::Release);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

struct Registry {
    rings: Mutex<Vec<Arc<Ring>>>,
    next_auto_track: AtomicU32,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        next_auto_track: AtomicU32::new(AUTO_TRACK_BASE),
    })
}

thread_local! {
    static RING: UnsafeCell<Option<Arc<Ring>>> = const { UnsafeCell::new(None) };
}

/// The calling thread's ring, created and registered on first use.
fn my_ring(f: impl FnOnce(&Ring)) {
    RING.with(|cell| {
        // SAFETY: the thread-local cell is only touched from its own thread
        // and `f` never re-enters `my_ring`.
        let slot = unsafe { &mut *cell.get() };
        let ring = slot.get_or_insert_with(|| {
            let reg = registry();
            let track = reg.next_auto_track.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current().name().unwrap_or("thread").to_string();
            let ring = Arc::new(Ring::new(track, name));
            reg.rings.lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// Name the calling thread's track and pin its id (ranks use their rank
/// number, so Perfetto orders the tracks naturally). No-op while tracing is
/// off, so idle runs never allocate rings.
pub fn set_track(track: u32, name: &str) {
    if !enabled() {
        return;
    }
    // Keep future auto-assigned tracks above every pinned id, so a job
    // pinning ids at or past AUTO_TRACK_BASE cannot collide with helper
    // threads registered later.
    registry().next_auto_track.fetch_max(track.saturating_add(1), Ordering::Relaxed);
    my_ring(|ring| {
        ring.track.store(track, Ordering::Relaxed);
        *ring.name.lock().unwrap_or_else(|e| e.into_inner()) = name.to_string();
    });
}

/// RAII guard for a timed phase: records a complete span (start → drop) on
/// the creating thread's ring. Construct through [`span!`].
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    start: Instant,
    cat: &'static str,
    name: &'static str,
    arg_key: &'static str,
    arg: i64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            // Re-check: capture may have stopped while the span was open.
            if enabled() {
                my_ring(|ring| {
                    ring.push(Event {
                        ts: s.start,
                        dur_ns: s.start.elapsed().as_nanos() as u64,
                        kind: EventKind::Span,
                        cat: s.cat,
                        name: s.name,
                        arg_key: s.arg_key,
                        arg: s.arg,
                        gen: 0,
                    })
                });
            }
        }
    }
}

/// Open a span; prefer the [`span!`] macro.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    span_arg(cat, name, "", 0)
}

/// Open a span carrying one integer argument; prefer the [`span!`] macro.
#[inline]
pub fn span_arg(
    cat: &'static str,
    name: &'static str,
    arg_key: &'static str,
    arg: i64,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    SpanGuard { inner: Some(SpanInner { start: Instant::now(), cat, name, arg_key, arg }) }
}

/// Record a point event; prefer the [`instant!`] macro.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    instant_arg(cat, name, "", 0)
}

/// Record a point event with one integer argument.
#[inline]
pub fn instant_arg(cat: &'static str, name: &'static str, arg_key: &'static str, arg: i64) {
    if !enabled() {
        return;
    }
    my_ring(|ring| {
        ring.push(Event {
            ts: Instant::now(),
            dur_ns: 0,
            kind: EventKind::Instant,
            cat,
            name,
            arg_key,
            arg,
            gen: 0,
        })
    });
}

/// Sample a counter value; prefer the [`counter!`] macro.
#[inline]
pub fn counter(name: &'static str, value: i64) {
    if !enabled() {
        return;
    }
    my_ring(|ring| {
        ring.push(Event {
            ts: Instant::now(),
            dur_ns: 0,
            kind: EventKind::Counter,
            cat: "counter",
            name,
            arg_key: "value",
            arg: value,
            gen: 0,
        })
    });
}

/// Open a timed span for the enclosing scope:
/// `let _s = ddrtrace::span!("redist", "pack");` or with an argument,
/// `let _s = ddrtrace::span!("redist", "exchange", "rounds" => n as i64);`.
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {
        $crate::span($cat, $name)
    };
    ($cat:expr, $name:expr, $k:expr => $v:expr) => {
        $crate::span_arg($cat, $name, $k, $v as i64)
    };
}

/// Record a point event: `ddrtrace::instant!("intransit", "frame_skip");` or
/// `ddrtrace::instant!("intransit", "frame_skip", "step" => step as i64);`.
#[macro_export]
macro_rules! instant {
    ($cat:expr, $name:expr) => {
        $crate::instant($cat, $name)
    };
    ($cat:expr, $name:expr, $k:expr => $v:expr) => {
        $crate::instant_arg($cat, $name, $k, $v as i64)
    };
}

/// Sample a counter: `ddrtrace::counter!("pool_free_bytes", n as i64);`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $v:expr) => {
        $crate::counter($name, $v as i64)
    };
}

/// A collected capture: resolved events from every thread, the track names,
/// the drop count, and the metrics registry snapshot.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All events, sorted by `(track, ts_ns)`.
    pub events: Vec<TraceEvent>,
    /// `(track id, name)` for every thread that recorded anything (or
    /// registered a track) during the capture.
    pub tracks: Vec<(u32, String)>,
    /// Events lost to ring overflow across all threads.
    pub dropped: u64,
    /// Snapshot of the [`metrics`] registry at capture stop.
    pub metrics: Vec<(String, u64)>,
}

impl Trace {
    /// Per-phase aggregation of this trace's spans.
    pub fn summary(&self) -> summary::Summary {
        summary::Summary::from_events(&self.events)
    }

    /// Serialize as Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// Write the Chrome trace-event JSON to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

/// Starting, stopping, and collecting the global capture window.
pub mod capture {
    use super::*;

    static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

    /// Open a capture window: prune rings whose writer thread has exited,
    /// reset the survivors and the metrics registry, stamp the epoch, bump
    /// the capture generation, and enable recording. A straggling writer
    /// from the previous window cannot pollute this one: its republished
    /// slots carry the old generation and the collector skips them.
    pub fn start() {
        ENABLED.store(false, Ordering::SeqCst);
        {
            let mut rings = registry().rings.lock().unwrap_or_else(|e| e.into_inner());
            prune_dead(&mut rings);
            for ring in rings.iter() {
                ring.reset();
            }
        }
        metrics::reset();
        *EPOCH.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
        CAPTURE_GEN.fetch_add(1, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Drop rings whose owning thread has exited. The thread-local held the
    /// only other strong reference, so a count of 1 means no writer can ever
    /// touch the ring again — safe to reclaim, and necessary so repeated
    /// captures across short-lived rank threads do not grow the registry
    /// (and its ~2 MiB rings) without bound.
    fn prune_dead(rings: &mut Vec<Arc<Ring>>) {
        rings.retain(|r| Arc::strong_count(r) > 1);
    }

    /// Is a capture window currently open?
    pub fn active() -> bool {
        enabled()
    }

    /// Close the capture window and collect everything recorded since
    /// [`start`]. Safe to call when no capture is active (returns an empty
    /// trace). Rings are drained before dead ones are pruned, so threads
    /// that exited during the capture (rank threads join before their
    /// universe returns) still contribute their events.
    pub fn stop() -> Trace {
        ENABLED.store(false, Ordering::SeqCst);
        let epoch =
            EPOCH.lock().unwrap_or_else(|e| e.into_inner()).take().unwrap_or_else(Instant::now);
        let mut events = Vec::new();
        let mut tracks = Vec::new();
        let mut dropped = 0;
        {
            let mut rings = registry().rings.lock().unwrap_or_else(|e| e.into_inner());
            for ring in rings.iter() {
                let drained = ring.drain(epoch, &mut events);
                dropped += ring.dropped.load(Ordering::Relaxed);
                if drained > 0 {
                    tracks.push((
                        ring.track.load(Ordering::Relaxed),
                        ring.name.lock().unwrap_or_else(|e| e.into_inner()).clone(),
                    ));
                }
            }
            prune_dead(&mut rings);
        }
        tracks.sort();
        tracks.dedup_by(|a, b| a.0 == b.0);
        events.sort_by_key(|e| (e.track, e.ts_ns));
        Trace { events, tracks, dropped, metrics: metrics::snapshot() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captures share process-global state; serialize the tests touching it.
    static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_macros_record_nothing() {
        let _g = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        {
            let _s = span!("t", "noop");
            instant!("t", "noop");
            counter!("noop", 1);
        }
        // No capture is open: nothing to observe, and nothing allocated.
    }

    #[test]
    fn span_instant_counter_roundtrip() {
        let _g = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        capture::start();
        set_track(7, "test-track");
        {
            let _outer = span!("t", "outer");
            {
                let _inner = span!("t", "inner", "round" => 3);
            }
            instant!("t", "marker", "step" => 9);
            counter!("gauge", 42);
        }
        metrics::add("test", "bytes", 128);
        let trace = capture::stop();
        assert!(!enabled());
        assert_eq!(trace.dropped, 0);
        let spans: Vec<_> = trace.events.iter().filter(|e| e.kind == EventKind::Span).collect();
        assert_eq!(spans.len(), 2);
        // Drop order publishes inner before outer; both on track 7.
        assert!(spans.iter().all(|e| e.track == 7));
        let outer = spans.iter().find(|e| e.name == "outer").unwrap();
        let inner = spans.iter().find(|e| e.name == "inner").unwrap();
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + outer.dur_ns >= inner.ts_ns + inner.dur_ns);
        assert_eq!(inner.arg_key, "round");
        assert_eq!(inner.arg, 3);
        let marker = trace.events.iter().find(|e| e.name == "marker").unwrap();
        assert_eq!((marker.kind, marker.arg), (EventKind::Instant, 9));
        let gauge = trace.events.iter().find(|e| e.name == "gauge").unwrap();
        assert_eq!((gauge.kind, gauge.arg), (EventKind::Counter, 42));
        assert_eq!(trace.tracks.iter().find(|t| t.0 == 7).unwrap().1, "test-track");
        assert!(trace.metrics.iter().any(|(k, v)| k == "test.bytes" && *v == 128));
    }

    #[test]
    fn restarting_a_capture_discards_the_previous_window() {
        let _g = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        capture::start();
        instant!("t", "first_window");
        capture::start();
        instant!("t", "second_window");
        let trace = capture::stop();
        assert!(trace.events.iter().all(|e| e.name != "first_window"));
        assert!(trace.events.iter().any(|e| e.name == "second_window"));
    }

    #[test]
    fn rings_of_exited_threads_are_drained_then_pruned() {
        let _g = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Sibling tests that do not hold CAPTURE_LOCK register and retire
        // rings concurrently, so count only the tracks this test creates.
        let worker_rings = || {
            let rings = registry().rings.lock().unwrap_or_else(|e| e.into_inner());
            rings.iter().filter(|r| (100..104).contains(&r.track.load(Ordering::Relaxed))).count()
        };
        capture::start();
        for i in 0..4u32 {
            std::thread::spawn(move || {
                set_track(100 + i, &format!("worker-{i}"));
                instant!("t", "from_worker");
            })
            .join()
            .unwrap();
        }
        assert_eq!(worker_rings(), 4, "each worker registers one ring");
        let trace = capture::stop();
        // Exited writers' events survive the stop that reclaims their rings…
        assert_eq!(trace.events.iter().filter(|e| e.name == "from_worker").count(), 4);
        // …and the rings themselves do not accumulate across captures.
        assert_eq!(worker_rings(), 0, "dead rings must be pruned once drained");
    }

    #[test]
    fn republished_stale_slots_are_skipped_by_generation() {
        let _g = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        capture::start();
        instant!("t", "stale_a");
        instant!("t", "stale_b");
        capture::stop();
        capture::start();
        // Simulate a writer that raced the start() reset: it loaded a
        // pre-reset length and republishes the previous window's slots by
        // storing it back before appending its own event.
        my_ring(|ring| ring.len.store(2, Ordering::Release));
        instant!("t", "fresh");
        let trace = capture::stop();
        assert!(
            trace.events.iter().all(|e| e.name != "stale_a" && e.name != "stale_b"),
            "stale slots from the previous generation leaked into the trace"
        );
        assert!(trace.events.iter().any(|e| e.name == "fresh"));
    }

    #[test]
    fn auto_tracks_allocate_above_pinned_ids() {
        let _g = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        capture::start();
        let high = AUTO_TRACK_BASE + 500;
        std::thread::spawn(move || set_track(high, "pinned-high")).join().unwrap();
        std::thread::spawn(|| instant!("t", "auto_after_pin")).join().unwrap();
        let trace = capture::stop();
        let auto = trace.events.iter().find(|e| e.name == "auto_after_pin").unwrap();
        assert!(
            auto.track > high,
            "auto track {} must not collide with or fall below pinned id {high}",
            auto.track
        );
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let _g = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        capture::start();
        for _ in 0..(RING_CAPACITY + 100) {
            instant!("t", "flood");
        }
        let trace = capture::stop();
        assert!(trace.dropped >= 100, "dropped {}", trace.dropped);
        assert!(trace.events.iter().filter(|e| e.name == "flood").count() <= RING_CAPACITY);
    }
}
