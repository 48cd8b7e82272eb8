//! The binary end to end, in smoke mode: a healthy run exits 0 with every
//! metric printed, and a deliberately corrupted expected value makes the run
//! exit nonzero — in the child-side check (2-D payload) and in the
//! parent-side one (serial LBM reference) alike.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    let out = std::env::temp_dir().join(format!("ddr-benchmark-cli-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_ddr-benchmark"))
        .args(args)
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("run the benchmark binary");
    let _ = std::fs::remove_file(out);
    output
}

#[test]
fn smoke_run_passes_and_prints_every_end_to_end_metric() {
    let out = bench(&["run", "--smoke", "--workload", "rounds_small_2d", "--seed", "11"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    for metric in
        ["op_ms_p50", "op_ms_p95", "throughput_mb_s", "cpu_ms_per_op", "peak_rss_mb", "setup_s"]
    {
        assert!(text.contains(metric), "{metric} missing from:\n{text}");
    }
    assert!(text.contains("failed 0"), "{text}");
}

#[test]
fn corrupted_expected_value_fails_the_run() {
    for workload in ["rounds_small_2d", "lbm_frames"] {
        let out = bench(&["run", "--smoke", "--workload", workload, "--corrupt-oracle"]);
        assert_eq!(out.status.code(), Some(1), "{workload}: a wrong output must exit 1");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(!text.contains("failed 0,"), "{workload}: the failure is counted:\n{text}");
    }
}

#[test]
fn the_drivers_form_ends_with_the_result_object() {
    let out = bench(&[
        "--workload",
        "rounds_small_2d",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap();
    for key in ["\"correct\":true", "\"attempted\":", "\"failed\":0", "\"metrics\":", "\"setup_s\""]
    {
        assert!(last.contains(key), "{key} missing from {last}");
    }
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = bench(&["run", "--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
}
