//! The repository benchmark: a two-rank, four-workload ladder from the memcpy
//! roofline to the paper's two pipelines. See `README.md` in this directory.
//!
//! ```text
//! ddr-benchmark run     [--seed N] [--seconds S] [--workload W] [--smoke] [--out FILE]
//! ddr-benchmark trace   [--seed N] [--workload W] [--smoke] [--out FILE]
//! ddr-benchmark compare A.json B.json
//! ddr-benchmark --workload W --seed N --seconds S --trace 0|1     (the driver's form)
//! ```

mod capture;
mod child;
mod compare;
mod gen;
mod json;
mod layers;
mod rep;
mod report;
mod spans;
mod spec;
mod stats;
mod sysinfo;
mod workloads;

use child::Args;
use report::{Options, Outcome};
use spec::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  ddr-benchmark run     [--seed N] [--seconds S] [--workload W] [--smoke] [--out FILE]
  ddr-benchmark trace   [--seed N] [--workload W] [--smoke] [--out FILE]
  ddr-benchmark compare A.json B.json
  ddr-benchmark --workload W --seed N --seconds S --trace 0|1";

fn selected(args: &Args) -> Result<Vec<&'static Workload>, String> {
    match args.get("workload") {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => spec::workload(name).map(|w| vec![w]).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; the workloads are {}", names.join(", "))
        }),
    }
}

fn options(args: &Args) -> Result<Options, String> {
    Ok(Options {
        seed: args.num("seed")?.unwrap_or(1),
        seconds: args.num("seconds")?.unwrap_or(spec::DEFAULT_SECONDS).clamp(1, 60),
        smoke: args.flag("smoke"),
        corrupt_oracle: args.flag("corrupt-oracle"),
    })
}

/// `run` (untraced, end-to-end metrics) or `trace` (per-layer metrics) over
/// the selected workloads. Returns the outcomes and whether all are correct.
fn measure(traced: bool, args: &Args) -> Result<(Vec<Outcome>, bool), String> {
    let opts = options(args)?;
    let kind = if traced { "trace" } else { "run" };
    if sysinfo::oversubscribed() {
        eprintln!(
            "warning: {} rank threads on {} core(s): timings are unresolved, counts only",
            sysinfo::RANKS,
            sysinfo::nproc()
        );
    }
    let mut outcomes = Vec::new();
    for w in selected(args)? {
        eprintln!("{kind}: {} (seed {}) …", w.name, opts.seed);
        let outcome =
            if traced { report::per_layer(w, &opts)? } else { report::end_to_end(w, &opts)? };
        outcome.print();
        if let Some(problems) = outcome.detail.get("problems").and_then(json::Json::as_arr) {
            for p in problems {
                eprintln!("{}: {}", w.name, p.as_str().unwrap_or("?"));
            }
        }
        outcomes.push(outcome);
    }
    let path = report::write_result(kind, &opts, &outcomes, args.get("out").map(Path::new))?;
    eprintln!("{kind}: result written to {}", path.display());
    let correct = outcomes.iter().all(Outcome::correct);
    Ok((outcomes, correct))
}

fn child_main(mode: &str, args: &Args) -> Result<json::Json, String> {
    let w = spec::workload(args.get("workload").ok_or("missing --workload")?)
        .ok_or("unknown workload")?;
    let seed = args.require("seed")?;
    let stack: Option<PathBuf> = args.get("stack").map(PathBuf::from);
    let smoke = args.flag("smoke");
    match mode {
        "rep" => rep::run(
            w.kind,
            seed,
            args.require("warm")?,
            args.require("ops")?,
            stack,
            args.flag("corrupt-oracle"),
        ),
        "layers" => {
            layers::run(w.kind, seed, stack, args.get("spans-out").map(PathBuf::from), smoke)
        }
        "p2p" => layers::run_p2p(w.kind, seed),
        "capture" => capture::run(w.kind, seed, stack, args.require("warm")?, smoke),
        other => Err(format!("unknown child mode `{other}`")),
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("child") => {
            let mode = argv.get(1).ok_or(USAGE)?;
            let answer = child_main(mode, &Args::parse(&argv[2..])?)?;
            println!("{}", answer.to_line());
            Ok(true)
        }
        Some("run") => measure(false, &Args::parse(&argv[1..])?).map(|(_, ok)| ok),
        Some("trace") => measure(true, &Args::parse(&argv[1..])?).map(|(_, ok)| ok),
        Some("compare") => match &argv[1..] {
            [a, b] => {
                let bounds = sysinfo::bench_dir().join("..").join("BENCHMARK.json");
                compare::run(Path::new(a), Path::new(b), &bounds).map(|regressed| !regressed)
            }
            _ => Err(USAGE.to_string()),
        },
        // The driver's form: one workload, and the last line of stdout is the
        // result object.
        Some(flag) if flag.starts_with("--") => {
            let args = Args::parse(&argv)?;
            args.get("workload").ok_or("missing --workload")?;
            let traced = args.require::<u8>("trace")? != 0;
            let (outcomes, ok) = measure(traced, &args)?;
            let listed: Vec<&str> = if traced {
                spec::PER_LAYER.iter().map(|(name, _, _)| *name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            println!("{}", outcomes[0].contract_line(&listed));
            Ok(ok)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // An incorrect output or a regression: the numbers were printed, the
        // exit status says not to trust them.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ddr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
