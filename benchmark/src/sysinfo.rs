//! What the harness reads from the machine: core count, process CPU time,
//! peak resident set, and the provenance echoed into every result.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Rank threads per workload. `nproc` is 2 on the reference box.
pub const RANKS: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// More rank threads than cores: wall-clock numbers then measure the OS
/// scheduler, so no timing verdict is given.
pub fn oversubscribed() -> bool {
    RANKS > nproc()
}

/// User + system CPU seconds consumed by this process (all threads) so far,
/// from `/proc/self/stat` fields 14 and 15 in USER_HZ (100 on Linux) ticks.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set of this process so far (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// The benchmark's directory: `./benchmark` when run from the repository
/// root (the documented way), else where it was compiled.
pub fn bench_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Scratch and result directory, inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(d) = dir {
        cmd.current_dir(d);
    }
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cache sizes as `lscpu` reports them. On a VM these describe the host
/// (the 260 MiB L3 on the reference box is not this guest's to use), so they
/// are printed, not trusted.
fn lscpu_caches() -> Json {
    let text = command_line("lscpu", &[], None).unwrap_or_default();
    Json::obj(text.lines().filter_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.contains("cache").then(|| (k.trim().to_string(), Json::Str(v.trim().to_string())))
    }))
}

/// `DDR_*` variables in this process's environment, sorted.
pub fn ddr_env() -> Vec<(String, String)> {
    let mut v: Vec<_> = std::env::vars().filter(|(k, _)| k.starts_with("DDR_")).collect();
    v.sort();
    v
}

/// Provenance block echoed into every result file.
pub fn environment() -> Json {
    let str_or_unknown =
        |s: Option<String>| Json::Str(s.filter(|s| !s.is_empty()).unwrap_or("unknown".into()));
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("ranks", Json::Num(RANKS as f64)),
        ("oversubscribed", Json::Bool(oversubscribed())),
        (
            "git_commit",
            str_or_unknown(command_line("git", &["rev-parse", "HEAD"], Some(&bench_dir()))),
        ),
        ("rustc", str_or_unknown(command_line("rustc", &["-V"], None))),
        ("lscpu_caches", lscpu_caches()),
        // Children never see these: every `DDR_*` variable is scrubbed and
        // only the ones a rung sets are added back (see `child::spawn`).
        (
            "parent_ddr_env_scrubbed",
            Json::obj(ddr_env().into_iter().map(|(k, v)| (k, Json::Str(v)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_this_platform() {
        let before = process_cpu_s().expect("/proc/self/stat");
        assert!(before >= 0.0);
        assert!(peak_rss_kb().expect("VmHWM") > 100.0);
        assert!(nproc() >= 1);
    }
}
