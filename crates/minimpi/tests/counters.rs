//! The `pack.*` counters as a trace reports them: every copy of an
//! exchange counts against the route that moved its bytes — one run to one
//! run, the 64-byte loop, a runtime-width run loop and the lockstep walk —
//! and a capture window reports only the universe it captured.

use minimpi::{Counter, Counts, Datatype, Subarray, Universe};
use std::sync::{Barrier, Mutex};

/// Capture windows are process-wide: one test at a time opens one.
static CAPTURE: Mutex<()> = Mutex::new(());

/// The 64-byte loop's array: 32 `f32` columns, so a column half's runs are
/// 16 × 4 = 64 bytes.
const LANE_COLUMNS: usize = 32;

/// A `columns`×8 `f32` array split between 2 ranks by rows (each half one
/// contiguous run) or by columns (each half 8 strided runs of `columns` / 2
/// elements).
fn halves(columns: usize, by_columns: bool) -> Vec<Datatype> {
    let half = |p: usize| {
        let (sub, start) = if by_columns {
            ([columns / 2, 8], [columns / 2 * p, 0])
        } else {
            ([columns, 4], [0, 4 * p])
        };
        Datatype::Subarray(
            Subarray::new(2, [columns, 8, 1], [sub[0], sub[1], 1], [start[0], start[1], 0], 4)
                .unwrap(),
        )
    };
    vec![half(0), half(1)]
}

/// One 2-rank `alltoallw` of a `columns`×8 `f32` array per `(send by
/// columns, receive by columns)` route, each in a universe of its own, all
/// inside one capture window. Returns the window's `(pack.fused_runs,
/// pack.vector_bytes, pack.scalar_bytes)` and the last universe's counters
/// as `Comm::counters` reads them.
fn window(columns: usize, routes: &[(bool, bool)]) -> ((u64, u64, u64), Counts) {
    let _one = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    let both_done = Barrier::new(2);
    ddrtrace::capture::start();
    let mut counts = Counts::default();
    for &(send_columns, recv_columns) in routes {
        counts = Universe::run(2, |comm| {
            let send: Vec<f32> =
                (0..8 * columns).map(|i| (1000 * comm.rank() + i) as f32).collect();
            let mut recv = vec![0u8; 8 * columns * 4];
            let (send_types, recv_types) =
                (halves(columns, send_columns), halves(columns, recv_columns));
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

/// Bytes of all copies of one exchange: each rank copies its own half and
/// its peer's, 4 copies of half the array.
const fn bytes(columns: usize) -> u64 {
    4 * (columns * 4 * 4) as u64
}

/// The 64-byte loop's exchange bytes.
const BYTES: u64 = bytes(LANE_COLUMNS);

/// A copy strided on both sides walks the two run streams in lockstep, one
/// pointer copy per stretch, counted by the bytes it moved.
#[test]
fn both_strided_exchange_counts_every_byte_it_moved() {
    let (pack, counts) = window(LANE_COLUMNS, &[(true, true)]);
    assert_eq!(pack, (0, 0, BYTES), "(fused runs, vector bytes, scalar bytes)");
    let accessor = [Counter::PackFusedRuns, Counter::PackVectorBytes, Counter::PackScalarBytes];
    assert_eq!(accessor.map(|c| counts[c]), [0, 0, BYTES], "the accessor reads the trace's sums");
}

/// Windows in a row: each reads the copies of its own universes — all of
/// them, added up — and nothing of the windows before it.
#[test]
fn a_capture_window_reports_only_its_own_universes() {
    let lane = |routes: &[(bool, bool)]| window(LANE_COLUMNS, routes).0;
    assert_eq!(lane(&[(false, false)]), (4, 0, 0), "rows to rows: 4 fused runs");
    assert_eq!(lane(&[(true, false)]), (0, BYTES, 0), "columns to rows: the 64-byte gather");
    let two = lane(&[(false, true), (false, false)]);
    assert_eq!(two, (4, BYTES, 0), "rows to columns (the 64-byte scatter), then rows to rows");
}

/// Runs of any width but 64 bytes — 12 `f32` columns, 48 bytes — take one
/// runtime-length copy each, counted by the bytes they moved.
#[test]
fn a_runtime_width_run_loop_counts_scalar_bytes() {
    let (pack, _) = window(24, &[(true, false), (false, true)]);
    assert_eq!(pack, (0, 0, 2 * bytes(24)), "columns to rows, then rows to columns");
}
