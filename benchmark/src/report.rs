//! The parent side: spawn the children of one workload, fold their results
//! into the named metrics, print them and write the result file.

use crate::child::spawn;
use crate::json::Json;
use crate::layers::Metrics;
use crate::spec::{self, Kind, Workload, END_TO_END, PER_LAYER, REPS, UNBOUNDED};
use crate::stats::{median, tail};
use crate::sysinfo::{self, RANKS};
use crate::workloads::lbm_reference;
use ddr_bench::loader::write_phantom_stack;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    /// Tiny op counts, two repetitions, no verdicts: a wiring check for CI.
    pub smoke: bool,
    /// Test hook: flip one expected value of the oracle, so that a run must
    /// report a failure and exit nonzero.
    pub corrupt_oracle: bool,
}

impl Options {
    fn warm_ops(&self, w: &Workload) -> usize {
        if self.smoke {
            (w.warm_ops / 10).max(2)
        } else {
            w.warm_ops
        }
    }

    fn timed_ops(&self, w: &Workload) -> usize {
        w.timed_ops_for(if self.smoke { 1 } else { self.seconds })
    }

    fn reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            REPS
        }
    }
}

/// The phantom TIFF stack of `tiff_stack_load`, written once per run by
/// `write_phantom_stack` (input generation) and removed when dropped.
struct Stack {
    dir: PathBuf,
    inputgen_s: f64,
}

impl Stack {
    fn create(w: &Workload) -> Result<Option<Stack>, String> {
        if w.kind != Kind::TiffStackLoad {
            return Ok(None);
        }
        let dir = sysinfo::out_dir().join(format!("stack-{}", std::process::id()));
        let start = Instant::now();
        write_phantom_stack(&dir, spec::TIFF_VOL).map_err(|e| format!("writing the stack: {e}"))?;
        Ok(Some(Stack { dir, inputgen_s: start.elapsed().as_secs_f64() }))
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn child_args(w: &Workload, opts: &Options, stack: &Option<Stack>) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        w.name.to_string(),
        "--seed".to_string(),
        opts.seed.to_string(),
    ];
    if let Some(s) = stack {
        args.extend(["--stack".to_string(), s.dir.display().to_string()]);
    }
    for (flag, on) in [("--smoke", opts.smoke), ("--corrupt-oracle", opts.corrupt_oracle)] {
        if on {
            args.push(flag.to_string());
        }
    }
    args
}

fn is_timing_unit(unit: &str) -> bool {
    !matches!(unit, "count" | "B" | "MB" | "flag")
}

/// One workload's results, end-to-end or per-layer.
pub struct Outcome {
    pub workload: &'static Workload,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    /// Everything else worth keeping in the result file.
    pub detail: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn to_json(&self) -> Json {
        let over = sysinfo::oversubscribed();
        let metrics = self.metrics.iter().map(|(name, unit, value)| {
            let m = Json::obj([
                ("value", Json::opt(*value)),
                ("unit", Json::Str(unit.to_string())),
                // More ranks than cores: timings measure the scheduler.
                ("resolved", Json::Bool(value.is_some() && !(over && is_timing_unit(unit)))),
            ]);
            (*name, m)
        });
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("metrics", Json::obj(metrics)),
            ("detail", self.detail.clone()),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        let over = sysinfo::oversubscribed();
        println!("## {} — {}", self.workload.name, self.workload.why);
        println!(
            "{:<20} attempted {}, failed {}, fail_ratio {}",
            self.workload.name,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, unit, value) in &self.metrics {
            let shown = match value {
                Some(_) if over && is_timing_unit(unit) => "unresolved (ranks > nproc)".to_string(),
                Some(v) => format!("{v}"),
                None => "null".to_string(),
            };
            println!("{:<20} {name:<32} {shown} {unit}", self.workload.name);
        }
    }

    /// The driver's result line: exactly the metrics `BENCHMARK.json` lists
    /// for this kind of run. `null` has no spelling there.
    pub fn contract_line(&self, listed: &[&str]) -> String {
        let listed = self.metrics.iter().filter(|(name, _, _)| listed.contains(name));
        let metrics = listed.map(|(name, unit, value)| {
            let v = value.unwrap_or(spec::NO_VALUE);
            (*name, Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.to_string()))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }
}

/// The per-repetition value of every end-to-end metric (what `compare` takes
/// quartiles over) from one `rep` child's answer.
fn rep_summary(rep: &Json) -> Json {
    let op_ms = rep.num_arr("op_ms");
    let ops = op_ms.len() as f64;
    let per_op = |total: Option<f64>| total.filter(|_| ops > 0.0).map(|t| t / ops);
    Json::obj([
        ("op_ms_p50", Json::opt(median(&op_ms))),
        ("op_ms_p95", Json::opt(tail(&op_ms, spec::TAIL_PERCENTILE).map(|(_, v)| v))),
        (
            "throughput_mb_s",
            Json::opt(
                rep.num("bytes_per_op").zip(rep.num("wall_s")).map(|(b, s)| b * ops / s / 1e6),
            ),
        ),
        ("cpu_ms_per_op", Json::opt(per_op(rep.num("cpu_s").map(|s| s * 1e3)))),
        ("peak_rss_mb", Json::opt(rep.num("peak_rss_kb").map(|kb| kb * 1024.0 / 1e6))),
        ("setup_s", Json::opt(rep.num("setup_s"))),
        ("pipeline_fallback", Json::opt(rep.num("pipeline_fallback"))),
        ("rtt_us", Json::opt(rep.num("rtt_us"))),
        ("failed", Json::opt(rep.num("failed"))),
    ])
}

/// The untraced run of one workload: `REPS` fresh processes.
pub fn end_to_end(w: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    untraced(w, opts, &Stack::create(w)?)
}

fn untraced(
    w: &'static Workload,
    opts: &Options,
    stack: &Option<Stack>,
) -> Result<Outcome, String> {
    let (warm, timed) = (opts.warm_ops(w), opts.timed_ops(w));
    let mut inputgen_s = stack.as_ref().map_or(0.0, |s| s.inputgen_s);

    // Serial reference for `lbm_frames`, once per run: every repetition
    // steps the same lattice the same number of times.
    let oracle_start = Instant::now();
    let reference = (w.kind == Kind::LbmFrames).then(|| {
        let mut tiles = lbm_reference(opts.seed, warm as u64 + 1, (warm + timed) as u64);
        tiles[0][1] ^= u64::from(opts.corrupt_oracle);
        tiles
    });
    let oracle_s = oracle_start.elapsed().as_secs_f64();

    let mut args = child_args(w, opts, stack);
    args.extend(["--warm".into(), warm.to_string(), "--ops".into(), timed.to_string()]);

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pooled = Vec::new();
    let mut reps = Vec::new();
    let mut problems = Vec::new();
    for rep in 0..opts.reps() {
        attempted += timed as u64;
        let answer = match spawn("rep", &args, &[]) {
            Ok(a) => a,
            Err(e) => {
                // A repetition that died answers for none of its ops.
                failed += timed as u64;
                problems.push(Json::Str(format!("rep {rep}: {e}")));
                continue;
            }
        };
        let mut rep_failed = answer.num("failed").unwrap_or(timed as f64) as u64;
        if let (Some(reference), Some(extra)) =
            (&reference, answer.get("extra").and_then(Json::as_arr))
        {
            let digests_match = reference.iter().zip(extra).all(|(want, got)| {
                let digest = |key| got.get(key).and_then(Json::as_str).and_then(|s| s.parse().ok());
                digest("first_digest") == Some(want[0]) && digest("last_digest") == Some(want[1])
            });
            if !digests_match && rep_failed == 0 {
                rep_failed = 1;
                problems.push(Json::Str(format!(
                    "rep {rep}: assembled fields differ from Lattice::step_serial"
                )));
            }
        }
        for e in answer.get("errors").and_then(Json::as_arr).unwrap_or_default() {
            problems.push(Json::Str(format!("rep {rep}: {}", e.as_str().unwrap_or("?"))));
        }
        if answer.num("oracle_mismatches").unwrap_or(0.0) > 0.0 {
            problems.push(Json::Str(format!(
                "rep {rep}: {} cells differ from the serial oracle",
                answer.num("oracle_mismatches").unwrap_or(0.0)
            )));
        }
        failed += rep_failed;
        inputgen_s += answer.num("inputgen_s").unwrap_or(0.0);
        pooled.extend(answer.num_arr("op_ms"));
        reps.push(rep_summary(&answer));
    }

    let over_reps = |name: &str| reps.iter().filter_map(|r| r.num(name)).collect::<Vec<_>>();
    let pooled_tail = tail(&pooled, spec::TAIL_PERCENTILE);
    let value = |name: &str| match name {
        // The tail is taken over the pooled samples of all repetitions.
        "op_ms_p95" => pooled_tail.map(|(_, v)| v),
        // The smallest peak any repetition needed. Which of two allocator
        // states a process lands in is timing (`tiff_stack_load`: 72 or
        // 89 MB, a third of the processes in the upper one), so the median
        // flips between runs while the minimum is what the workload needs.
        "peak_rss_mb" => over_reps(name).into_iter().reduce(f64::min),
        // Everything else: median over repetitions of the per-repetition
        // value, which a minority of processes in another mode cannot move.
        name => median(&over_reps(name)),
    };
    let bounded = END_TO_END.iter().map(|m| (m.name, m.unit));
    let metrics = bounded.chain(UNBOUNDED).map(|(name, unit)| (name, unit, value(name))).collect();
    Ok(Outcome {
        workload: w,
        attempted,
        failed,
        metrics,
        detail: Json::obj([
            ("warm_ops", Json::Num(warm as f64)),
            ("timed_ops_per_rep", Json::Num(timed as f64)),
            ("pooled_samples", Json::Num(pooled.len() as f64)),
            // Fewer than 200 pooled samples cannot carry a p95 with ten
            // samples beyond it; the percentile actually used is recorded.
            ("tail_percentile", Json::opt(pooled_tail.map(|(p, _)| f64::from(p)))),
            ("fail_ratio", Json::Num(failed as f64 / attempted.max(1) as f64)),
            ("inputgen_s", Json::Num(inputgen_s)),
            ("oracle_s", Json::Num(oracle_s)),
            ("reps", Json::Arr(reps)),
            ("problems", Json::Arr(problems)),
        ]),
    })
}

/// Children whose environment differs from the defaults, for the rung-2
/// message bandwidth: `(label, variables)`.
const P2P_VARIANTS: [(&str, &[(&str, &str)]); 4] = [
    ("staged", &[("DDR_NO_ZEROCOPY", "1")]),
    ("staged_nosum", &[("DDR_NO_ZEROCOPY", "1"), ("DDR_CHECKSUM", "0")]),
    // The default only loans above 64 KiB; threshold 0 loans every size, so
    // the loaned path's checksum cost is measured on small messages too.
    ("loaned", &[("DDR_ZC_THRESHOLD", "0")]),
    ("loaned_nosum", &[("DDR_ZC_THRESHOLD", "0"), ("DDR_CHECKSUM", "0")]),
];

fn merge(into: &mut Metrics, answer: &Json) {
    let Some(metrics) = answer.get("metrics").and_then(Json::as_obj) else { return };
    for (name, _, _) in &PER_LAYER {
        if let Some(v) = metrics.get(*name) {
            into.insert(name, v.as_f64());
        }
    }
}

/// The traced run of one workload: the rung ladder and the pipeline under
/// the span recorder, the environment variants, the `ddrtrace` capture — and
/// the untraced repetitions again, for the unbounded metrics only they can
/// give and as the check that outputs are correct.
pub fn per_layer(w: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let stack = Stack::create(w)?;
    let args = child_args(w, opts, &stack);
    let e2e = untraced(w, opts, &stack)?;
    let out_dir = sysinfo::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans_file = out_dir.join(format!("trace-{}.json", w.name));

    let mut layer_args = args.clone();
    layer_args.extend(["--spans-out".to_string(), spans_file.display().to_string()]);
    let layers = spawn("layers", &layer_args, &[])?;

    let mut msg_s = std::collections::BTreeMap::new();
    for (label, env) in P2P_VARIANTS {
        msg_s.insert(label, spawn("p2p", &args, env)?.num("msg_s"));
    }

    let mut capture_args = args.clone();
    capture_args.extend(["--warm".to_string(), opts.warm_ops(w).to_string()]);
    let capture = spawn("capture", &capture_args, &[])?;

    let mut metrics = Metrics::new();
    merge(&mut metrics, &layers);
    merge(&mut metrics, &capture);
    let bytes = layers.num("message_bytes");
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?).filter(|r| r.is_finite());
    metrics.insert("p2p.msg_gb_s_staged", ratio(bytes, msg_s["staged"]).map(|v| v / 1e9));
    // Time with the checksum on ÷ off, each path against itself.
    metrics.insert("p2p.checksum_ratio_loaned", ratio(msg_s["loaned"], msg_s["loaned_nosum"]));
    metrics.insert("p2p.checksum_ratio_staged", ratio(msg_s["staged"], msg_s["staged_nosum"]));
    for (name, _, value) in &e2e.metrics {
        if UNBOUNDED.iter().any(|(n, _)| n == name) {
            metrics.insert(name, *value);
        }
    }
    // Share of the untraced processes whose pipeline gate fell back — one
    // process (the capture child's) says little about a per-process coin.
    let e2e_reps = e2e.detail.get("reps").and_then(Json::as_arr).unwrap_or_default();
    let fallbacks: Vec<f64> = e2e_reps.iter().filter_map(|r| r.num("pipeline_fallback")).collect();
    if !fallbacks.is_empty() {
        let share = fallbacks.iter().sum::<f64>() / fallbacks.len() as f64;
        metrics.insert("exec.pipeline_fallback", Some(share));
    }
    // The traced children's generation time on top of the untraced run's
    // (which already counts the stack).
    let inputgen = metrics.get("harness.inputgen_s").copied().flatten().unwrap_or(0.0);
    metrics
        .insert("harness.inputgen_s", Some(inputgen + e2e.detail.num("inputgen_s").unwrap_or(0.0)));
    metrics.insert("harness.nproc", Some(sysinfo::nproc() as f64));
    metrics.insert("harness.ranks", Some(RANKS as f64));
    metrics.insert("harness.oversubscribed", Some(f64::from(u8::from(sysinfo::oversubscribed()))));

    let keep = |from: &Json, key: &str| from.get(key).cloned().unwrap_or(Json::Null);
    let table = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, *unit, metrics.get(name).copied().flatten()))
        .collect();
    Ok(Outcome {
        workload: w,
        // The untraced repetitions' count; the traced pipeline ops were
        // checked against the oracle inside the `layers` child, which fails
        // as a whole otherwise.
        attempted: e2e.attempted,
        failed: e2e.failed,
        metrics: table,
        detail: Json::obj([
            ("untraced", e2e.detail.clone()),
            ("problems", keep(&e2e.detail, "problems")),
            (
                "rung_environments",
                Json::obj(P2P_VARIANTS.iter().map(|(label, env)| {
                    (*label, Json::obj(env.iter().map(|(k, v)| (*k, Json::Str(v.to_string())))))
                })),
            ),
            ("spans_file", Json::Str(spans_file.display().to_string())),
            ("self_time_by_layer_ns", keep(&layers, "self_time_by_layer_ns")),
            ("span_counts", keep(&layers, "span_counts")),
            ("p2p_msg_s", Json::obj(msg_s.into_iter().map(|(k, v)| (k, Json::opt(v))))),
            ("capture_ops", keep(&capture, "ops")),
            ("capture_dropped_events", keep(&capture, "dropped_events")),
            ("registry", keep(&capture, "registry")),
            ("phases_ns", keep(&capture, "phases_ns")),
        ]),
    })
}

/// Write the result file of a `run` or `trace` and return its path.
pub fn write_result(
    kind: &str,
    opts: &Options,
    outcomes: &[Outcome],
    path: Option<&Path>,
) -> Result<PathBuf, String> {
    let dir = sysinfo::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // A single-workload result (the driver's form) is named after it, so a
    // sweep over workloads does not overwrite itself.
    let name = match outcomes {
        [only] => format!("{kind}-{}-{}.json", opts.seed, only.workload.name),
        _ => format!("{kind}-{}.json", opts.seed),
    };
    let path = path.map_or_else(|| dir.join(name), Path::to_path_buf);
    let doc = Json::obj([
        ("kind", Json::Str(kind.to_string())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("environment", sysinfo::environment()),
        ("workloads", Json::obj(outcomes.iter().map(|o| (o.workload.name, o.to_json())))),
    ]);
    std::fs::write(&path, doc.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
