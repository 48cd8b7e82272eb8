//! The `ddrtrace::capture` child: what tracing-on costs, the per-op counts
//! from the existing metric registry, and the internal phase shares.
//!
//! Counter names are looked up as strings in the captured registry; a name
//! that is absent reads as `None`, so the measured crates may rename or
//! delete counters without breaking this directory's build.

use crate::json::Json;
use crate::layers::Metrics;
use crate::rep::{closed_loop, metric, pipeline_fallback};
use crate::spans::Tracer;
use crate::spec::Kind;
use crate::stats::median;
use crate::sysinfo::RANKS;
use crate::workloads::{self, err, Inputs};
use ddrtrace::Trace;
use minimpi::Universe;
use std::path::PathBuf;
use std::time::Instant;

/// One universe: set-up, `warm` untimed ops, `ops` timed ops. Returns the
/// per-op seconds (max over ranks).
fn universe(
    kind: Kind,
    seed: u64,
    stack_dir: &Option<PathBuf>,
    warm: usize,
    ops: usize,
) -> Result<Vec<f64>, String> {
    let inputs = Inputs::generate(kind, seed, stack_dir.clone());
    let epoch = Instant::now();
    let outs = Universe::builder().run(RANKS, |comm| {
        let mut t = Tracer::new(false, epoch, comm.rank() as u32);
        let mut state = workloads::setup(&inputs, comm, false)?;
        let mut block = |n: usize| {
            comm.barrier().map_err(err)?;
            match closed_loop(state.as_mut(), comm, &mut t, n) {
                (op_s, None) => Ok(op_s),
                (_, Some(e)) => Err(e),
            }
        };
        block(warm)?;
        block(ops)
    });
    let ranks: Vec<Vec<f64>> = outs.into_iter().collect::<Result<_, String>>()?;
    Ok((0..ops).map(|i| ranks.iter().map(|r| r[i]).fold(0.0, f64::max)).collect())
}

fn captured<R>(f: impl FnOnce() -> Result<R, String>) -> Result<(R, Trace), String> {
    ddrtrace::capture::start();
    let out = f();
    let trace = ddrtrace::capture::stop();
    Ok((out?, trace))
}

/// Ops timed with capture off and again with capture on.
fn ops_for(kind: Kind, smoke: bool) -> usize {
    let ops = match kind {
        Kind::BulkTranspose2d => 24,
        // Each rank thread's event ring holds 32768 events; 8 rounds per op
        // stay well inside it at this count.
        Kind::RoundsSmall2d => 300,
        Kind::TiffStackLoad => 5,
        Kind::LbmFrames => 8,
    };
    if smoke {
        (ops / 8).max(2)
    } else {
        ops
    }
}

pub fn run(
    kind: Kind,
    seed: u64,
    stack_dir: Option<PathBuf>,
    warm: usize,
    smoke: bool,
) -> Result<Json, String> {
    let ops = ops_for(kind, smoke);

    // Capture off: warm-up settles the process-global pipeline gate for every
    // later universe of this process, then the baseline ops.
    let off_s = universe(kind, seed, &stack_dir, warm, ops)?;

    // Registry totals are `set-up + n × per-op`, and the pack counters are
    // cumulative over the process on top of that. Three captured universes —
    // set-up, set-up, set-up + `ops` ops — cancel both: the second difference
    // is `ops × per-op` for either kind of counter. "Set-up" includes one op,
    // because two workloads build their plan inside the first one.
    let ((), m0) = captured(|| universe(kind, seed, &stack_dir, 1, 0).map(drop))?;
    let ((), m1) = captured(|| universe(kind, seed, &stack_dir, 1, 0).map(drop))?;
    let (on_s, m2) = captured(|| universe(kind, seed, &stack_dir, 1, ops))?;
    let per_op = |name: &str| {
        let at = |t: &Trace| metric(&t.metrics, name);
        // Absent before any op ran means zero then, not "no such counter".
        let last = at(&m2)?;
        let (a, b) = (at(&m0).unwrap_or(0.0), at(&m1).unwrap_or(0.0));
        Some(((last - b) - (b - a)) / ops as f64)
    };
    let gauge = |name: &str| metric(&m2.metrics, name);

    // Internal phases as recorded, as a share of the rank threads' lifetime.
    let summary = m2.summary();
    let share = |phase: &str| {
        let body = summary.row("rank/rank_body")?.total_ns as f64;
        Some(summary.row(phase)?.total_ns as f64 / body).filter(|s| s.is_finite())
    };

    let mut out = Metrics::new();
    out.insert(
        "ddrtrace.overhead_ratio",
        median(&on_s).zip(median(&off_s)).map(|(on, off)| on / off).filter(|r| r.is_finite()),
    );
    out.insert("kernels.fused_runs", per_op("pack.fused_runs"));
    out.insert("kernels.vector_bytes", per_op("pack.vector_bytes"));
    out.insert("kernels.scalar_bytes", per_op("pack.scalar_bytes"));
    out.insert("kernels.pool_dispatches", per_op("pack.pool_dispatches"));
    out.insert("p2p.zerocopy_msgs", per_op("minimpi.transport.zerocopy_msgs"));
    out.insert("p2p.staged_msgs", per_op("minimpi.transport.staged_msgs"));
    out.insert("p2p.integrity_checked", per_op("integrity.checked"));
    out.insert("p2p.credit_waits", gauge("flow.credit_waits"));
    out.insert("p2p.stalled_ms", gauge("flow.stalled_ms"));
    out.insert("p2p.retransmits", gauge("integrity.retransmits"));
    out.insert("p2p.peak_staging_mb", gauge("mem.high_water_bytes").map(|b| b / 1e6));
    // The counter only exists once a round was posted over another; while
    // its neighbours in the registry do, absence means zero.
    let posts = per_op("redist.overlapped_posts").or(gauge("redist.sent_bytes").map(|_| 0.0));
    out.insert("exec.overlapped_posts", posts);
    // The gate settled during the uncaptured warm-up, so its decision event
    // is not in any capture; whether rounds still overlap is.
    let fallback = posts.and_then(|p| pipeline_fallback(kind, p));
    out.insert("exec.pipeline_fallback", fallback.map(|b| f64::from(u8::from(b))));
    out.insert("trace.mailbox_wait_share", share("minimpi/mailbox_wait"));
    out.insert("trace.pack_share", share("minimpi/pack"));
    out.insert("trace.unpack_share", share("minimpi/unpack"));

    Ok(Json::obj([
        ("metrics", Json::obj(out.into_iter().map(|(k, v)| (k, Json::opt(v))))),
        ("ops", Json::Num(ops as f64)),
        ("dropped_events", Json::Num(m2.dropped as f64)),
        ("registry", Json::obj(m2.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))))),
        (
            "phases_ns",
            Json::obj(summary.rows.iter().map(|r| (r.phase.clone(), Json::Num(r.total_ns as f64)))),
        ),
    ]))
}
