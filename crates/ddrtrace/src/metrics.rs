//! Unified metrics registry.
//!
//! One process-global table of monotonically accumulated `u64` values keyed
//! by `"scope.name"` (e.g. `"minimpi.transport.zerocopy_msgs"`). The redist
//! stats and minimpi's counter table both land here at the end of a traced
//! run, so the trace file and the `ddr-trace` report show one coherent table.
//!
//! Like the event rings, the registry is only written while tracing is
//! enabled; `capture::start` resets it so each capture window reports its own
//! totals.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::sync::OnceLock;

fn table() -> &'static Mutex<BTreeMap<String, u64>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, u64>> {
    table().lock().unwrap_or_else(|e| e.into_inner())
}

/// Add `v` to the metric `scope.name`. No-op while tracing is disabled.
pub fn add(scope: &str, name: &str, v: u64) {
    if !crate::enabled() {
        return;
    }
    let mut t = lock();
    let e = t.entry(format!("{scope}.{name}")).or_insert(0);
    *e = e.saturating_add(v);
}

/// Overwrite the metric `scope.name` with `v` (for gauges like pool sizes).
/// No-op while tracing is disabled.
pub fn set(scope: &str, name: &str, v: u64) {
    if !crate::enabled() {
        return;
    }
    lock().insert(format!("{scope}.{name}"), v);
}

/// Clear every metric. Called by `capture::start`.
pub fn reset() {
    lock().clear();
}

/// Snapshot the table, sorted by key.
pub fn snapshot() -> Vec<(String, u64)> {
    lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Render `(key, value)` pairs as an aligned two-column table.
pub fn render(metrics: &[(String, u64)]) -> String {
    let width = metrics.iter().map(|(k, _)| k.len()).max().unwrap_or(6).max(6);
    let mut out = format!("{:<width$} {:>14}\n", "metric", "value");
    for (k, v) in metrics {
        out.push_str(&format!("{k:<width$} {v:>14}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let m = vec![("a.b".to_string(), 1u64), ("minimpi.pool.trims".to_string(), 42)];
        let s = render(&m);
        assert!(s.contains("minimpi.pool.trims"), "{s}");
        assert!(s.lines().count() == 3, "{s}");
    }

    // add/set/reset/snapshot are exercised end-to-end by the capture tests in
    // lib.rs, which serialize on CAPTURE_LOCK; direct tests here would race
    // those on the global table.
}
