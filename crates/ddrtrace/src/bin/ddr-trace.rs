//! `ddr-trace` — offline report over a captured trace file.
//!
//! Usage: `ddr-trace <trace.json>`
//!
//! Reads a Chrome trace-event JSON file written by this crate, rebuilds the
//! per-phase summary table and prints it together with the unified metrics
//! registry. Exits non-zero if the file is missing or not valid trace JSON,
//! so CI can use it as a format check.

use ddrtrace::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Row {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    tracks: std::collections::BTreeSet<u64>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn report(doc: &Value) -> Result<String, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("no \"traceEvents\" array — not a trace file")?;

    let mut spans: BTreeMap<String, Row> = BTreeMap::new();
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    let mut track_names: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        let tid = e.get("tid").and_then(|t| t.as_f64()).unwrap_or(0.0) as u64;
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        let cat = e.get("cat").and_then(|c| c.as_str()).unwrap_or("?");
        match ph {
            "M" if name == "thread_name" => {
                if let Some(n) = e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str())
                {
                    track_names.insert(tid, n.to_string());
                }
            }
            "X" => {
                let dur_us = e.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0);
                let dur_ns = (dur_us * 1000.0) as u64;
                let row = spans.entry(format!("{cat}/{name}")).or_insert(Row {
                    count: 0,
                    total_ns: 0,
                    max_ns: 0,
                    tracks: Default::default(),
                });
                row.count += 1;
                row.total_ns += dur_ns;
                row.max_ns = row.max_ns.max(dur_ns);
                row.tracks.insert(tid);
            }
            "i" => *instants.entry(format!("{cat}/{name}")).or_insert(0) += 1,
            _ => {}
        }
    }

    let mut rows: Vec<(String, Row)> = spans.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));

    let mut out = String::new();
    out.push_str(&format!("tracks: {}\n", track_names.len()));
    for (tid, name) in &track_names {
        out.push_str(&format!("  tid {tid}: {name}\n"));
    }
    if let Some(d) = doc.get("dropped").and_then(|d| d.as_f64()) {
        if d > 0.0 {
            out.push_str(&format!("WARNING: {d} events dropped (ring overflow)\n"));
        }
    }
    out.push_str(&format!(
        "\n{:<28} {:>8} {:>10} {:>10} {:>10} {:>7}\n",
        "phase", "count", "total", "mean", "max", "tracks"
    ));
    let metric = |name: &str| doc.get("metrics")?.get(name)?.as_f64();
    for (phase, r) in &rows {
        let mean = r.total_ns.checked_div(r.count).unwrap_or(0);
        out.push_str(&format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>7}",
            phase,
            r.count,
            fmt_ns(r.total_ns),
            fmt_ns(mean),
            fmt_ns(r.max_ns),
            r.tracks.len()
        ));
        // Beside the time spent waiting, how the waits resolved (receives and
        // lenders alike): a parked wait paid a wake-up, a spin hit did not.
        if phase == "minimpi/mailbox_wait" {
            if let Some(parks) = metric("wait.parks") {
                let immediate = metric("wait.immediate").unwrap_or(0.0);
                let spin_hits = metric("wait.spin_hits").unwrap_or(0.0);
                out.push_str(&format!(
                    "   waits: {immediate} immediate, {spin_hits} spin hits, {parks} parks"
                ));
            }
        }
        out.push('\n');
    }
    if !instants.is_empty() {
        out.push_str(&format!("\n{:<28} {:>8}\n", "events", "count"));
        for (name, count) in &instants {
            out.push_str(&format!("{name:<28} {count:>8}\n"));
        }
    }
    if let Some(metrics) = doc.get("metrics").and_then(|m| m.as_object()) {
        if !metrics.is_empty() {
            let pairs: Vec<(String, u64)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0) as u64))
                .collect();
            out.push('\n');
            out.push_str(&ddrtrace::metrics::render(&pairs));
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: ddr-trace <trace.json>");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ddr-trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&src) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ddr-trace: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report(&doc) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ddr-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
