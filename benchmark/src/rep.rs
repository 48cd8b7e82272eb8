//! One end-to-end repetition: a fresh process runs one two-rank universe —
//! set-up, warm-up, the timed closed loop, then (untimed) the oracle check.

use crate::json::Json;
use crate::layers::ping_pong;
use crate::spans::Tracer;
use crate::spec::Kind;
use crate::stats::median;
use crate::sysinfo::{self, RANKS};
use crate::workloads::{self, err, Inputs, RankState};
use minimpi::{Comm, Universe};
use std::path::PathBuf;
use std::time::Instant;

/// Look a counter up in a `ddrtrace::capture` registry snapshot by its string
/// name. Absent names read as `None`, so the measured crates may rename or
/// delete counters without breaking this directory's build.
pub fn metric(metrics: &[(String, u64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v as f64)
}

/// The closed loop: each op starts when the previous one returned on this
/// rank; no barrier between ops. Returns per-op seconds and the first error.
/// After an error the loop stops — the peers have diverged — and the ops not
/// run count as failed.
pub fn closed_loop(
    state: &mut dyn RankState,
    comm: &Comm,
    t: &mut Tracer,
    ops: usize,
) -> (Vec<f64>, Option<String>) {
    let mut op_s = Vec::with_capacity(ops);
    for _ in 0..ops {
        t.next_op();
        let start = Instant::now();
        let out = t.span("harness.op", |t| state.op(comm, t));
        match out {
            Ok(()) => op_s.push(start.elapsed().as_secs_f64()),
            Err(e) => return (op_s, Some(e)),
        }
    }
    (op_s, None)
}

/// Has the process-global pipeline gate fallen back to round-synchronous
/// execution? Read from outside: `posts` is `redist.overlapped_posts` over
/// some ops run after the gate settled — rounds posted while another was in
/// flight. Only multi-round plans can pipeline, so single-round workloads
/// have no answer.
pub fn pipeline_fallback(kind: Kind, posts: f64) -> Option<bool> {
    matches!(kind, Kind::RoundsSmall2d | Kind::TiffStackLoad).then_some(posts == 0.0)
}

/// [`pipeline_fallback`] for this process, after the timed loop: two more ops
/// run inside a `ddrtrace::capture` window opened by rank 0.
fn probe_pipeline_fallback(
    kind: Kind,
    state: &mut dyn RankState,
    comm: &Comm,
    t: &mut Tracer,
) -> Result<Option<bool>, String> {
    if pipeline_fallback(kind, 0.0).is_none() {
        return Ok(None);
    }
    comm.barrier().map_err(err)?;
    if comm.rank() == 0 {
        ddrtrace::capture::start();
    }
    comm.barrier().map_err(err)?;
    for _ in 0..2 {
        state.op(comm, t)?;
    }
    comm.barrier().map_err(err)?;
    if comm.rank() != 0 {
        return Ok(None);
    }
    let trace = ddrtrace::capture::stop();
    let posts = metric(&trace.metrics, "redist.overlapped_posts").unwrap_or(0.0);
    Ok(pipeline_fallback(kind, posts))
}

/// Half the median 64-byte round trip, in µs, measured right after the timed
/// loop (rank 0's clock). The cross-thread wake-up has a fast and a slow
/// mode on this box, and this is the column that says which one a repetition
/// ended in.
fn probe_rtt_us(comm: &Comm) -> Result<f64, String> {
    comm.barrier().map_err(err)?;
    let mut trips = Vec::with_capacity(500);
    for _ in 0..500 {
        let start = Instant::now();
        ping_pong(comm)?;
        trips.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&trips).unwrap_or(f64::NAN) * 1e6 / 2.0)
}

struct RankOut {
    setup_s: f64,
    wall_s: f64,
    op_s: Vec<f64>,
    error: Option<String>,
    mismatches: u64,
    extra: Json,
    need_bytes: u64,
    /// Rank 0 only: process CPU seconds over the timed loop, peak RSS at its
    /// end, and the pipeline-gate probe.
    cpu_s: Option<f64>,
    peak_rss_kb: Option<f64>,
    pipeline_fallback: Option<bool>,
    rtt_us: Option<f64>,
}

fn rank_body(
    inputs: &Inputs,
    comm: &Comm,
    warm: usize,
    timed: usize,
    corrupt_oracle: bool,
    entered: Instant,
) -> Result<RankOut, String> {
    let mut t = Tracer::new(false, entered, comm.rank() as u32);
    let mut state = workloads::setup(inputs, comm, false)?;
    let (_, warm_err) = closed_loop(state.as_mut(), comm, &mut t, warm);
    if let Some(e) = warm_err {
        return Err(format!("warm-up op failed: {e}"));
    }
    state.arm();
    comm.barrier().map_err(err)?;
    let setup_s = entered.elapsed().as_secs_f64();

    let cpu_before = if comm.rank() == 0 { sysinfo::process_cpu_s() } else { None };
    let loop_start = Instant::now();
    let (op_s, error) = closed_loop(state.as_mut(), comm, &mut t, timed);
    let wall_s = loop_start.elapsed().as_secs_f64();
    if error.is_none() {
        comm.barrier().map_err(err)?; // every rank has left its loop: CPU and RSS are complete
    }
    let cpu_s = cpu_before.and_then(|b| Some(sysinfo::process_cpu_s()? - b));
    let peak_rss_kb = if comm.rank() == 0 { sysinfo::peak_rss_kb() } else { None };

    let verified = state.verify(corrupt_oracle);
    let (rtt_us, pipeline_fallback) = match error {
        None => (
            Some(probe_rtt_us(comm)?),
            probe_pipeline_fallback(inputs.kind, state.as_mut(), comm, &mut t)?,
        ),
        Some(_) => (None, None),
    };
    Ok(RankOut {
        setup_s,
        wall_s,
        op_s,
        error,
        mismatches: verified.mismatches,
        extra: verified.extra,
        need_bytes: state.need_bytes(),
        cpu_s,
        peak_rss_kb,
        pipeline_fallback,
        rtt_us,
    })
}

/// Run one repetition in this process and describe it as JSON for the parent.
pub fn run(
    kind: Kind,
    seed: u64,
    warm: usize,
    timed: usize,
    stack_dir: Option<PathBuf>,
    corrupt_oracle: bool,
) -> Result<Json, String> {
    let gen_start = Instant::now();
    let inputs = Inputs::generate(kind, seed, stack_dir);
    let inputgen_s = gen_start.elapsed().as_secs_f64();

    // `setup_s` runs from here — `Universe::run` entry — to the barrier
    // before the first timed op.
    let entered = Instant::now();
    let outs = Universe::builder()
        .run(RANKS, |comm| rank_body(&inputs, comm, warm, timed, corrupt_oracle, entered));
    let ranks: Vec<RankOut> = outs.into_iter().collect::<Result<_, _>>()?;

    // An op's time is the max over ranks of that call's duration.
    let completed = ranks.iter().map(|r| r.op_s.len()).min().unwrap_or(0);
    let op_ms: Vec<f64> =
        (0..completed).map(|i| ranks.iter().map(|r| r.op_s[i]).fold(0.0, f64::max) * 1e3).collect();
    let mismatches: u64 = ranks.iter().map(|r| r.mismatches).sum();
    // Ops that returned `Err` or never ran, plus the checked op when the
    // oracle disagrees with it.
    let failed = (timed - completed) as u64 + u64::from(mismatches > 0 && completed > 0);
    let max = |f: fn(&RankOut) -> f64| ranks.iter().map(f).fold(0.0, f64::max);
    let errors: Vec<Json> = ranks.iter().filter_map(|r| r.error.clone()).map(Json::Str).collect();

    Ok(Json::obj([
        ("warm_ops", Json::Num(warm as f64)),
        ("attempted", Json::Num(timed as f64)),
        ("failed", Json::Num(failed as f64)),
        ("oracle_mismatches", Json::Num(mismatches as f64)),
        ("errors", Json::Arr(errors)),
        ("op_ms", Json::nums(&op_ms)),
        ("setup_s", Json::Num(max(|r| r.setup_s))),
        ("wall_s", Json::Num(max(|r| r.wall_s))),
        ("inputgen_s", Json::Num(inputgen_s)),
        ("bytes_per_op", Json::Num(ranks.iter().map(|r| r.need_bytes).sum::<u64>() as f64)),
        ("cpu_s", Json::opt(ranks[0].cpu_s)),
        ("peak_rss_kb", Json::opt(ranks[0].peak_rss_kb)),
        (
            "pipeline_fallback",
            Json::opt(ranks[0].pipeline_fallback.map(|b| f64::from(u8::from(b)))),
        ),
        ("rtt_us", Json::opt(ranks[0].rtt_us)),
        ("extra", Json::Arr(ranks.into_iter().map(|r| r.extra).collect())),
    ]))
}
