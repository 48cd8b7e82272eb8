//! The `pack.*` counters as a trace reports them: every copy of an
//! exchange counts against the tier that moved its bytes, on all four
//! routes a copy can take, and a capture window reports only the universe
//! it captured.

use minimpi::{Counter, Counts, Datatype, Subarray, Universe};
use std::sync::{Barrier, Mutex};

/// Capture windows are process-wide: one test at a time opens one.
static CAPTURE: Mutex<()> = Mutex::new(());

/// An 8×8 `f32` array split between 2 ranks by rows (each half one
/// contiguous run) or by columns (each half 8 strided runs of 16 bytes).
fn halves(columns: bool) -> Vec<Datatype> {
    let half = |p: usize| {
        let (sub, start) = if columns { ([4, 8], [4 * p, 0]) } else { ([8, 4], [0, 4 * p]) };
        Datatype::Subarray(
            Subarray::new(2, [8, 8, 1], [sub[0], sub[1], 1], [start[0], start[1], 0], 4).unwrap(),
        )
    };
    vec![half(0), half(1)]
}

/// One 2-rank `alltoallw` of an 8×8 `f32` array per `(send by columns,
/// receive by columns)` route, each in a universe of its own, all inside one
/// capture window. Returns the window's `(pack.fused_runs,
/// pack.vector_bytes, pack.scalar_bytes)` and the last universe's counters
/// as `Comm::counters` reads them.
fn window(routes: &[(bool, bool)]) -> ((u64, u64, u64), Counts) {
    let _one = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    let both_done = Barrier::new(2);
    ddrtrace::capture::start();
    let mut counts = Counts::default();
    for &(send_columns, recv_columns) in routes {
        counts = Universe::run(2, |comm| {
            let send: Vec<f32> = (0..64).map(|i| (100 * comm.rank() + i) as f32).collect();
            let mut recv = vec![0u8; 64 * 4];
            let (send_types, recv_types) = (halves(send_columns), halves(recv_columns));
            // Carried past the barrier, so a failing exchange fails the test
            // instead of leaving its peer on the barrier.
            let res = comm.alltoallw(minimpi::bytes_of(&send), &send_types, &mut recv, &recv_types);
            both_done.wait();
            res.unwrap();
            comm.counters()
        })[0];
    }
    let trace = ddrtrace::capture::stop();
    let metric = |name: &str| trace.metrics.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v);
    let pack =
        (metric("pack.fused_runs"), metric("pack.vector_bytes"), metric("pack.scalar_bytes"));
    (pack, counts)
}

/// Each rank copies its own half and its peer's: 4 copies of 128 bytes.
const BYTES: u64 = 4 * 128;

/// A copy strided on both sides walks the two run streams in lockstep, one
/// pointer copy per stretch: the per-run tier, counted by the bytes it moved.
#[test]
fn both_strided_exchange_counts_every_byte_it_moved() {
    let (pack, counts) = window(&[(true, true)]);
    assert_eq!(pack, (0, 0, BYTES), "(fused runs, vector bytes, scalar bytes)");
    let accessor = [Counter::PackFusedRuns, Counter::PackVectorBytes, Counter::PackScalarBytes];
    assert_eq!(accessor.map(|c| counts[c]), [0, 0, BYTES], "the accessor reads the trace's sums");
}

/// Windows in a row: each reads the copies of its own universes — all of
/// them, added up — and nothing of the windows before it.
#[test]
fn a_capture_window_reports_only_its_own_universes() {
    assert_eq!(window(&[(false, false)]).0, (4, 0, 0), "rows to rows: 4 fused runs");
    assert_eq!(window(&[(true, false)]).0, (0, BYTES, 0), "columns to rows: the lane gather");
    let two = window(&[(false, true), (false, false)]).0;
    assert_eq!(two, (4, BYTES, 0), "rows to columns (the lane scatter), then rows to rows");
}
