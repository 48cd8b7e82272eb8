//! # ddrcheck — static analysis for DDR redistribution plans
//!
//! A thin front end over the plan linter in [`ddr_core::lint`]. The linter
//! itself lives in ddr-core so that [`ddr_core::ValidationPolicy::Audit`]
//! can run it inline during `setup_data_mapping`; this crate packages the
//! same checks for *offline* use:
//!
//! * the full lint API re-exported ([`lint_plan`], [`lint_layouts`],
//!   [`lint_plans`], [`lint_mapping`], [`LintDiagnostic`], …),
//! * [`render_report`] / [`enforce`] for turning diagnostics into a
//!   human-readable report and a pass/fail verdict,
//! * an [`examples`] catalog reproducing the layouts of every runnable
//!   example in the repository,
//! * the `lint_examples` binary, which lints the whole catalog (including
//!   the [`lint_staging`] peak-staging prediction against
//!   `DDR_LINT_STAGING_BOUND`) and exits non-zero on any error-severity
//!   finding — the CI gate that keeps the shipped examples honest, and
//! * the [`mod@explore`] module: a deterministic schedule-exploration driver
//!   that sweeps minimpi scheduler seeds over a closure and reports the
//!   first seed that makes it fail, with a `DDR_SCHED_SEED` replay line.
//!
//! ```
//! use ddrcheck::{enforce, lint_mapping, render_report};
//!
//! for case in ddrcheck::examples::catalog() {
//!     let diags = lint_mapping(&case.descriptor(), &case.layouts());
//!     println!("{}", render_report(&case.name, &diags));
//!     enforce(&diags).expect("shipped example must lint clean");
//! }
//! ```

#![warn(missing_docs)]

pub mod examples;
pub mod explore;

pub use ddr_core::{
    has_errors, lint_layouts, lint_mapping, lint_plan, lint_plans, lint_staging, LintCode,
    LintDiagnostic, Severity,
};
pub use explore::{explore, render_explore_report, ExploreFailure, ExploreReport};

use std::fmt::Write as _;

/// Render a lint report for one named subject: a one-line verdict followed
/// by each diagnostic on its own indented line. Clean subjects render as a
/// single `ok` line.
pub fn render_report(name: &str, diags: &[LintDiagnostic]) -> String {
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    let mut out = String::new();
    if diags.is_empty() {
        let _ = write!(out, "{name}: ok");
    } else {
        let _ = write!(out, "{name}: {errors} error(s), {warnings} warning(s)");
        for d in diags {
            let _ = write!(out, "\n  {d}");
        }
    }
    out
}

/// Pass/fail verdict: `Err` with every finding (warnings included, for a
/// complete report) when any diagnostic has error severity, `Ok` otherwise.
pub fn enforce(diags: &[LintDiagnostic]) -> Result<(), Vec<LintDiagnostic>> {
    if has_errors(diags) {
        Err(diags.to_vec())
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: LintCode, severity: Severity, rank: Option<usize>) -> LintDiagnostic {
        LintDiagnostic {
            code,
            severity,
            rank,
            round: None,
            message: "synthetic finding".into(),
            hint: "none".into(),
        }
    }

    #[test]
    fn clean_report_is_one_line() {
        assert_eq!(render_report("quickstart", &[]), "quickstart: ok");
    }

    #[test]
    fn enforce_passes_warnings_and_fails_errors() {
        let warn = diag(LintCode::ByteAsymmetry, Severity::Warning, None);
        let err = diag(LintCode::CoverageHole, Severity::Error, None);
        assert!(enforce(std::slice::from_ref(&warn)).is_ok());
        let rejected = enforce(&[warn, err]).unwrap_err();
        assert_eq!(rejected.len(), 2);
    }

    #[test]
    fn report_lists_each_finding() {
        let diags = vec![
            diag(LintCode::CoverageHole, Severity::Error, Some(2)),
            diag(LintCode::ByteAsymmetry, Severity::Warning, None),
        ];
        let report = render_report("case", &diags);
        assert!(report.starts_with("case: 1 error(s), 1 warning(s)"));
        assert!(report.contains("coverage-hole"));
        assert!(report.contains("byte-asymmetry"));
    }
}
