//! CI gate: lint every catalogued example layout and fail on errors.
//!
//! Run with: `cargo run --release -p ddrcheck --bin lint_examples`
//!
//! Prints one report per catalog entry and exits non-zero if any entry has
//! an error-severity finding, so a decomposition regression in an example
//! fails the build instead of shipping a plan with holes or overlaps.
//!
//! Each entry is also checked against the peak-staging predictor
//! ([`ddrcheck::lint_staging`]): the bound comes from
//! `DDR_LINT_STAGING_BOUND` (bytes, default 64 MiB) and findings are
//! warnings — they show up in the report without failing the gate.

use ddrcheck::{examples, has_errors, lint_mapping, lint_staging, render_report, Severity};
use std::process::ExitCode;

/// Staging-footprint bound for the catalog: `DDR_LINT_STAGING_BOUND`
/// (bytes), default 64 MiB.
fn staging_bound() -> u64 {
    std::env::var("DDR_LINT_STAGING_BOUND")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64 * 1024 * 1024)
}

fn main() -> ExitCode {
    let cases = examples::catalog();
    let bound = staging_bound();
    println!("ddrcheck: linting {} example scenario(s) (staging bound {bound} B)\n", cases.len());

    let mut failed = 0usize;
    let mut warned = 0usize;
    for case in &cases {
        let layouts = case.layouts();
        let desc = case.descriptor();
        let mut diags = lint_mapping(&desc, &layouts);
        if !has_errors(&diags) {
            let plans: Vec<_> = (0..layouts.len())
                .map(|r| {
                    ddr_core::compute_local_plan(r, &layouts, &desc)
                        .expect("lint_mapping passed, so plans must compute")
                })
                .collect();
            diags.extend(lint_staging(&plans, bound));
        }
        println!("{}", render_report(&case.name, &diags));
        if has_errors(&diags) {
            failed += 1;
        } else if diags.iter().any(|d| d.severity == Severity::Warning) {
            warned += 1;
        }
    }

    println!(
        "\n{} scenario(s): {} clean, {} with warnings, {} with errors",
        cases.len(),
        cases.len() - failed - warned,
        warned,
        failed
    );
    if failed > 0 {
        eprintln!("ddrcheck: FAILED — {failed} scenario(s) have error-severity findings");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
