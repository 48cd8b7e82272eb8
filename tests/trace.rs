//! End-to-end tests of the tracing plane: a traced redistribution must emit
//! valid, well-formed Chrome trace JSON, and tracing-off must cost nothing
//! measurable.

use ddr::core::{decompose, DataKind, Descriptor, ValidationPolicy};
use ddr::minimpi::Universe;
use ddr::trace::json::{self, Value};
use std::sync::Mutex;
use std::time::Instant;

/// The tracing plane is process-global (one capture window at a time), so
/// tests in this binary must not capture concurrently.
static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

const NPROCS: usize = 4;

/// One slab→slab redistribution of a `dim x dim` u64 grid across 4 ranks.
fn redistribute_once(builder: minimpi::UniverseBuilder, dim: usize, iters: usize) {
    builder.run(NPROCS, move |comm| {
        let r = comm.rank();
        let desc = Descriptor::for_type::<u64>(NPROCS, DataKind::D2).unwrap();
        let domain = ddr::core::Block::d2([0, 0], [dim, dim]).unwrap();
        let owned = [decompose::slab(&domain, 1, NPROCS, r).unwrap()];
        let need = decompose::slab(&domain, 0, NPROCS, r).unwrap();
        let plan =
            desc.setup_data_mapping_with(comm, &owned, need, ValidationPolicy::Strict).unwrap();
        let data: Vec<u64> = (0..owned[0].count()).collect();
        let mut out = vec![0u64; need.count() as usize];
        for _ in 0..iters {
            let (report, _) = plan.reorganize_with_stats(comm, &[&data], &mut out).unwrap();
            assert!(report.is_complete());
        }
    });
}

#[test]
fn traced_run_emits_valid_chrome_json_with_all_ranks() {
    let _serial = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("ddr-trace-golden-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let _ = std::fs::remove_file(&path);

    redistribute_once(Universe::builder().trace(&path), 64, 2);

    let src = std::fs::read_to_string(&path).expect("trace file must exist");
    let doc = json::parse(&src).expect("trace must be valid JSON");
    let events =
        doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array present");

    // Every rank contributes a named track...
    let mut rank_tracks = std::collections::BTreeSet::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) == Some("M") {
            if let Some(name) = e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()) {
                if let Some(r) = name.strip_prefix("rank-") {
                    rank_tracks.insert(r.parse::<usize>().unwrap());
                }
            }
        }
    }
    assert_eq!(rank_tracks, (0..NPROCS).collect(), "expected one named track per rank");

    // ...the expected phases appear as complete events...
    let span_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for expected in ["rank_body", "setup_mapping", "reorganize", "exchange", "alltoallw"] {
        assert!(span_names.contains(expected), "missing span {expected:?} in {span_names:?}");
    }

    // ...spans nest: each rank's phases lie within its rank_body envelope.
    let span_of = |e: &Value| -> Option<(u32, f64, f64, String)> {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            return None;
        }
        let tid = e.get("tid").and_then(|t| t.as_f64())? as u32;
        let ts = e.get("ts").and_then(|t| t.as_f64())?;
        let dur = e.get("dur").and_then(|d| d.as_f64())?;
        let name = e.get("name").and_then(|n| n.as_str())?.to_string();
        Some((tid, ts, dur, name))
    };
    let spans: Vec<_> = events.iter().filter_map(span_of).collect();
    for rank in 0..NPROCS as u32 {
        let body = spans
            .iter()
            .find(|(tid, _, _, name)| *tid == rank && name == "rank_body")
            .expect("each rank records rank_body");
        for (tid, ts, dur, name) in &spans {
            if *tid == rank && name != "rank_body" {
                assert!(
                    *ts >= body.1 && ts + dur <= body.1 + body.2 + 1e-3,
                    "rank {rank}: span {name} [{ts}, {}] escapes rank_body [{}, {}]",
                    ts + dur,
                    body.1,
                    body.1 + body.2
                );
            }
        }
    }

    // The unified metrics registry made it into the file.
    let metrics = doc.get("metrics").and_then(|m| m.as_object()).expect("metrics object");
    assert!(
        metrics.keys().any(|k| k.starts_with("redist.")),
        "expected redist.* metrics, got {:?}",
        metrics.keys().collect::<Vec<_>>()
    );
    assert!(
        metrics.keys().any(|k| k.starts_with("minimpi.")),
        "expected minimpi.* metrics, got {:?}",
        metrics.keys().collect::<Vec<_>>()
    );
}

/// With tracing off, every instrumentation site costs one relaxed atomic
/// load. Measure that cost directly and bound a generous estimate of sites
/// hit per redistribution against 1% of the measured redistribution time —
/// a guard that keeps failing if someone makes the disabled path allocate,
/// lock, or write to the ring.
#[test]
fn tracing_off_adds_less_than_one_percent() {
    let _serial = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!ddr::trace::enabled(), "tracing must be off for the overhead guard");

    // Per-site cost while disabled: span creation + drop and an instant.
    let measure_per_site = || {
        const OPS: u32 = 200_000;
        let start = Instant::now();
        for i in 0..OPS {
            let g = ddr::trace::span_arg("bench", "disabled", "i", i as i64);
            std::hint::black_box(&g);
            drop(g);
            ddr::trace::instant("bench", "disabled");
        }
        start.elapsed().as_secs_f64() / (2.0 * OPS as f64)
    };

    // The exact number of instrumentation sites this workload hits: run it
    // once traced and count the events (no guessing).
    ddr::trace::capture::start();
    redistribute_once(Universe::builder().zerocopy(false), 256, 8);
    let sites = ddr::trace::capture::stop().events.len() as f64;
    assert!(sites > 0.0, "traced run must record events");

    // One staged redistribution of a 256x256 u64 grid (512 KiB per slab,
    // ~4 MiB of traffic over the 8-iteration loop), median of 5, untraced.
    let measure = || {
        let start = Instant::now();
        redistribute_once(Universe::builder().zerocopy(false), 256, 8);
        start.elapsed().as_secs_f64()
    };
    measure(); // warm up thread spawn, pool, allocator
    let median_redistribution = || {
        let mut samples: Vec<f64> = (0..5).map(|_| measure()).collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };

    // The documented bound is <1% in optimized builds; debug builds pay an
    // order of magnitude more per atomic load (nothing inlines), so the
    // guard loosens there while still catching a disabled path that
    // allocates, locks, or writes the ring (all of which cost far more).
    // Both sides are wall-clock microbenchmarks, so a loaded CI runner can
    // jitter one attempt past the bound: re-measure a few times and fail
    // only if every attempt blows the budget — a real regression (an
    // allocation, a lock, a ring write on the disabled path) costs orders
    // of magnitude more and fails all of them.
    let budget = if cfg!(debug_assertions) { 0.10 } else { 0.01 };
    const ATTEMPTS: usize = 3;
    let mut worst = (f64::INFINITY, 0.0, 0.0); // (per_site, overhead, median)
    for _ in 0..ATTEMPTS {
        let per_site = measure_per_site();
        let median = median_redistribution();
        let overhead = per_site * sites;
        if overhead < median * budget {
            return;
        }
        worst = (per_site, overhead, median);
    }
    let (per_site, overhead, median) = worst;
    panic!(
        "disabled instrumentation too expensive in all {ATTEMPTS} attempts: \
         {sites} sites x {:.1} ns = {:.4} ms vs {:.0}% of redistribution ({:.4} ms)",
        per_site * 1e9,
        overhead * 1e3,
        budget * 100.0,
        median * budget * 1e3
    );
}

/// The same guard for the concurrency checker: with checking off the checker
/// is simply absent (`Option::None`), so every hook — send stamping, type
/// verification, scheduler points, and the public
/// [`minimpi::Comm::check_counters`] — reduces to one discriminant test.
///
/// The accessor is timed against an identical loop over an opaque function
/// that returns `None` without reading anything, min of N for each, and the
/// difference per call is bounded by a small constant. Both loops run on the
/// same core in the same moment, so machine load cancels; a disabled path
/// that locks, allocates or touches shared state costs tens of ns more per
/// call and fails every run. At the bound, the ~4.7k hooks of the staged
/// 8-iteration redistribution above cost under 0.01 ms, about 1 % of it. The
/// guard does not divide by that redistribution's wall clock: it has become
/// fast enough that the ratio sits at the budget and flips with load.
#[test]
fn checking_off_adds_less_than_one_percent() {
    let _serial = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    #[inline(never)]
    fn returns_none(comm: &minimpi::Comm) -> Option<minimpi::CheckCounters> {
        std::hint::black_box(comm);
        None
    }

    // Extra ns per call a disabled hook may cost over `returns_none`. Debug
    // builds inline nothing, so the accessor's `as_ref().map(..)` are calls
    // there too; an uncontended `Mutex` lock costs ~20 ns in release and
    // ~60 ns in debug.
    let bound_ns = if cfg!(debug_assertions) { 20.0 } else { 3.0 };
    let (accessor_ns, baseline_ns) = Universe::run(1, |comm| {
        assert!(comm.check_counters().is_none(), "checking must be off for this guard");
        let ns_per_call = |f: &dyn Fn(&minimpi::Comm) -> Option<minimpi::CheckCounters>| {
            const OPS: u32 = 20_000;
            let start = Instant::now();
            for _ in 0..OPS {
                std::hint::black_box(f(std::hint::black_box(comm)));
            }
            start.elapsed().as_secs_f64() * 1e9 / OPS as f64
        };
        let (mut accessor, mut baseline) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..25 {
            accessor = accessor.min(ns_per_call(&|c| c.check_counters()));
            baseline = baseline.min(ns_per_call(&returns_none));
        }
        (accessor, baseline)
    })[0];
    assert!(
        accessor_ns - baseline_ns < bound_ns,
        "disabled checking too expensive: check_counters() {accessor_ns:.2} ns per call vs \
         {baseline_ns:.2} ns for a call returning None (bound +{bound_ns} ns)"
    );
}
