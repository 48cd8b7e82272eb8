//! Child processes: every measurement runs in a re-exec of this binary with a
//! scrubbed environment, and answers with one JSON line on stdout.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// `--key value` pairs after the subcommand (flags without a value read as
/// `"1"`).
pub struct Args(BTreeMap<String, String>);

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let key = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{a}`"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "1".to_string(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Args(map))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse::<T>().map_err(|_| format!("--{key}: `{v}` is not a valid number")))
            .transpose()
    }

    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.num(key)?.ok_or_else(|| format!("missing --{key}"))
    }
}

/// Run `child <mode> <args…>` in a fresh process and parse its result line.
///
/// The child starts with **every** `DDR_*` variable removed — the defaults
/// users get — and then only the ones in `env` (a rung's configuration
/// variant) added back. Configuration never travels through builder methods.
pub fn spawn(mode: &str, args: &[String], env: &[(&str, &str)]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child").arg(mode).args(args);
    for (key, _) in crate::sysinfo::ddr_env() {
        cmd.env_remove(key);
    }
    cmd.envs(env.iter().copied());
    // `output` waits for the child, so none outlives the benchmark.
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start child `{mode}`: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("child `{mode}` {}: {}", out.status, stderr.trim()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("child `{mode}` printed nothing"))?;
    json::parse(line).map_err(|e| format!("child `{mode}` result: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_pairs_and_flags() {
        let raw: Vec<String> =
            ["--seed", "7", "--smoke", "--workload", "lbm_frames"].map(String::from).to_vec();
        let a = Args::parse(&raw).unwrap();
        assert_eq!(a.require::<u64>("seed"), Ok(7));
        assert!(a.flag("smoke") && !a.flag("trace"));
        assert_eq!(a.get("workload"), Some("lbm_frames"));
        assert!(a.require::<u64>("seconds").is_err());
        assert!(a.require::<u64>("workload").is_err());
        assert!(Args::parse(&["stray".to_string()]).is_err());
    }
}
