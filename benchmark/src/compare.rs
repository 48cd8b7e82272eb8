//! `compare A.json B.json`: apply the bounds of `BENCHMARK.json` to two `run`
//! result files, per (end-to-end metric, workload).
//!
//! A is the baseline, B the candidate. Each side's values are its
//! repetitions' (the pooled tail has one value per file, with its
//! per-repetition tails standing in for the spread).

use crate::json::{self, Json};
use crate::stats::{median, quartiles, spread};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Regressed,
    /// The spread is wider than the bound and the runs overlap — or the box
    /// was oversubscribed, and timings mean nothing.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule of choosing-metrics §6.5 for one metric on one workload.
/// `a`/`b` are each side's repetition values, `(a_mid, b_mid)` the reported
/// values compared against the bound.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    (a_mid, b_mid): (f64, f64),
    lower_is_better: bool,
    bound: f64,
) -> Verdict {
    if a.is_empty() || b.is_empty() || a_mid == 0.0 {
        return Verdict::Unresolved;
    }
    let delta = if lower_is_better { b_mid - a_mid } else { a_mid - b_mid };
    let worsening = delta / a_mid.abs();
    let wide = [a, b].iter().any(|side| spread(side).is_some_and(|s| s > bound));
    let worse_than = |x: f64, y: f64| if lower_is_better { x > y } else { x < y };
    // Every run of one side reads better than every run of the other.
    let b_all_better = b.iter().all(|&y| a.iter().all(|&x| worse_than(x, y)));
    let b_all_worse = b.iter().all(|&y| a.iter().all(|&x| worse_than(y, x)));
    match (worsening > bound, wide) {
        (true, false) => Verdict::Regressed,
        (true, true) if b_all_worse => Verdict::Regressed,
        (false, false) => Verdict::Unchanged,
        (false, true) if b_all_better => Verdict::Unchanged,
        _ => Verdict::Unresolved,
    }
}

struct Side {
    doc: Json,
}

impl Side {
    fn load(path: &Path) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("kind").and_then(Json::as_str) != Some("run") {
            return Err(format!("{}: not the result file of a `run`", path.display()));
        }
        Ok(Side { doc })
    }

    fn oversubscribed(&self) -> bool {
        self.doc.get("environment").and_then(|e| e.get("oversubscribed"))
            != Some(&Json::Bool(false))
    }

    fn smoke(&self) -> bool {
        self.doc.get("smoke") != Some(&Json::Bool(false))
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.doc.get("workloads")?.get(name)
    }
}

fn rep_values(workload: &Json, metric: &str) -> Vec<f64> {
    let reps = workload.get("detail").and_then(|d| d.get("reps")).and_then(Json::as_arr);
    reps.unwrap_or_default().iter().filter_map(|r| r.num(metric)).collect()
}

fn reported(workload: &Json, metric: &str) -> Option<f64> {
    workload.get("metrics")?.get(metric)?.num("value")
}

fn describe(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}]"),
        (Some(m), None) => format!("{m:.6}"),
        _ => "-".to_string(),
    }
}

/// Compare two result files; returns whether any pair regressed.
pub fn run(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b) = (Side::load(a_path)?, Side::load(b_path)?);
    let bounds_text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let bounds =
        json::parse(&bounds_text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let list = |key: &str| bounds.get(key).and_then(Json::as_arr).unwrap_or_default().to_vec();

    // More ranks than cores on either side, or a smoke run: no verdicts.
    let refuse = if a.oversubscribed() || b.oversubscribed() {
        Some("ranks > nproc")
    } else if a.smoke() || b.smoke() {
        Some("smoke run")
    } else {
        None
    };

    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    println!(
        "reported value, then median [q1, q3] over repetitions; bound = allowed worsening of B\n"
    );
    let mut regressed = false;
    let mut counts = [0usize; 3];
    for w in list("workloads") {
        let Some(name) = w.get("name").and_then(Json::as_str) else { continue };
        let (Some(wa), Some(wb)) = (a.workload(name), b.workload(name)) else {
            println!("{name:<20} missing from one side: unresolved");
            counts[Verdict::Unresolved as usize] += 1;
            continue;
        };
        let shown = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
        for m in list("end_to_end") {
            let (Some(metric), Some(bound)) =
                (m.get("name").and_then(Json::as_str), m.num("bound"))
            else {
                continue;
            };
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let (va, vb) = (rep_values(wa, metric), rep_values(wb, metric));
            let v = match (refuse, reported(wa, metric), reported(wb, metric)) {
                (None, Some(ma), Some(mb)) => verdict(&va, &vb, (ma, mb), lower, bound),
                _ => Verdict::Unresolved,
            };
            counts[v as usize] += 1;
            regressed |= v == Verdict::Regressed;
            println!(
                "{name:<20} {metric:<16} A {:<12} reps {:<38} B {:<12} reps {:<38} bound {bound:<5} {}{}",
                shown(reported(wa, metric)),
                describe(&va),
                shown(reported(wb, metric)),
                describe(&vb),
                v.label(),
                refuse.map(|r| format!(" ({r})")).unwrap_or_default()
            );
        }
        for (metric, _) in crate::spec::UNBOUNDED {
            println!(
                "{name:<20} {metric:<16} A {:<12} reps {:<38} B {:<12} reps {:<38} no bound",
                shown(reported(wa, metric)),
                describe(&rep_values(wa, metric)),
                shown(reported(wb, metric)),
                describe(&rep_values(wb, metric))
            );
        }
        // `fail_ratio`: any increase is a regression.
        let fails = |w: &Json| w.num("failed").zip(w.num("attempted")).map(|(f, n)| f / n.max(1.0));
        let v = match (fails(wa), fails(wb)) {
            (Some(fa), Some(fb)) if fb > fa => Verdict::Regressed,
            (Some(_), Some(_)) => Verdict::Unchanged,
            _ => Verdict::Unresolved,
        };
        counts[v as usize] += 1;
        regressed |= v == Verdict::Regressed;
        println!(
            "{name:<20} {:<16} A {:<56} B {:<56} bound {:<5} {}",
            "fail_ratio",
            shown(fails(wa)),
            shown(fails(wb)),
            "0",
            v.label()
        );
    }
    println!(
        "\n{} unchanged, {} regressed, {} unresolved",
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 7] = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0];

    #[test]
    fn within_bound_and_tight_is_unchanged() {
        let b = TIGHT_A.map(|v| v * 1.04);
        assert_eq!(verdict(&TIGHT_A, &b, (10.0, 10.4), true, 0.10), Verdict::Unchanged);
        // Higher-is-better: a 4% drop is within a 10% bound too.
        assert_eq!(verdict(&TIGHT_A, &b, (10.4, 10.0), false, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn beyond_bound_and_tight_is_regressed() {
        let b = TIGHT_A.map(|v| v * 1.2);
        assert_eq!(verdict(&TIGHT_A, &b, (10.0, 12.0), true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&b, &TIGHT_A, (12.0, 10.0), false, 0.10), Verdict::Regressed);
        // Getting better by any amount is never a regression.
        assert_eq!(verdict(&b, &TIGHT_A, (12.0, 10.0), true, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn wide_and_overlapping_is_unresolved() {
        // One process in five lands in the fast mode: spread far above 10%.
        let a = [0.22, 0.21, 0.05, 0.23, 0.05, 0.22, 0.05];
        let b = [0.21, 0.05, 0.22, 0.05, 0.23, 0.05, 0.22];
        assert_eq!(verdict(&a, &b, (0.21, 0.21), true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&a, &b, (0.21, 0.30), true, 0.10), Verdict::Unresolved);
        // …unless every run of one side beats every run of the other.
        let slow = a.map(|v| v + 1.0);
        assert_eq!(verdict(&a, &slow, (0.21, 1.21), true, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&slow, &a, (1.21, 0.21), true, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn nothing_to_compare_is_unresolved() {
        assert_eq!(verdict(&[], &TIGHT_A, (1.0, 1.0), true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&TIGHT_A, &TIGHT_A, (0.0, 1.0), true, 0.1), Verdict::Unresolved);
    }
}
