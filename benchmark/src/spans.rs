//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer (choosing-metrics §4); nothing inside the measured crates is
//! instrumented. Each rank thread owns one [`Tracer`], so recording takes no
//! lock; the logs are merged and written out after the universe has joined.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `exec.reorganize`.
    pub name: &'static str,
    /// Rank thread that recorded it.
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same tracer's log) of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one workload op share this identifier.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span log. A disabled tracer records nothing, so the same
/// workload code runs traced and untraced and the difference between the two
/// is the recorder's overhead (`harness.span_overhead_ratio`).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    track: u32,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, track: u32) -> Tracer {
        Tracer { on, epoch, track, op: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Switch recording on or off between ops (never inside a span).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Start the next op: later spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            track: self.track,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one tracer's log: its duration minus the part
/// of that interval its direct children cover. Children of one parent on one
/// thread never overlap, so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals per span name over any number of per-thread logs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Individual durations, for medians.
    pub durs_ns: Vec<u64>,
}

/// Totals over the spans `keep` selects. Self times are computed on the
/// whole log first, so a kept span still loses its unkept children's time.
pub fn totals_where(
    logs: &[Vec<Span>],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for log in logs {
        for (s, own) in log.iter().zip(self_times(log)).filter(|(s, _)| keep(s)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += own;
            t.durs_ns.push(s.dur_ns());
        }
    }
    out
}

/// Self time summed per layer (the part of a span name before the first
/// `.`), largest first.
pub fn self_by_layer(totals: &BTreeMap<&'static str, NameTotals>) -> Vec<(String, u64)> {
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in totals {
        *layers.entry(name.split('.').next().unwrap_or(name)).or_default() += t.self_ns;
    }
    let mut v: Vec<(String, u64)> = layers.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// The span file written at exit: one object per span, `parent` an index into
/// the same track's spans in file order.
pub fn to_json(logs: &[Vec<Span>]) -> Json {
    let spans = logs.iter().flatten().map(|s| {
        Json::obj([
            ("name", Json::Str(s.name.into())),
            ("track", Json::Num(f64::from(s.track))),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("parent", Json::opt(s.parent.map(|p| p as f64))),
            ("op", Json::Num(s.op as f64)),
        ])
    });
    Json::Arr(spans.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, track: 0, start_ns: start, end_ns: end, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) ── a [10,40) ── a1 [15,25)
        //            └─ b [50,90)
        let log = vec![
            span("harness.op", 0, 100, None),
            span("x.a", 10, 40, Some(0)),
            span("x.a1", 15, 25, Some(1)),
            span("y.b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&log), vec![30, 20, 10, 40]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times(&log).iter().sum::<u64>(), 100);
        let t = totals_where(&[log], |_| true);
        assert_eq!(t["x.a"].total_ns, 30);
        assert_eq!(t["x.a"].self_ns, 20);
        assert_eq!(
            self_by_layer(&t),
            vec![("y".to_string(), 40), ("harness".to_string(), 30), ("x".to_string(), 30)]
        );
    }

    #[test]
    fn tracer_records_parents_and_op_ids_only_when_on() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.next_op();
        let got = t
            .span("harness.op", |t| t.span("a.x", |_| 1) + t.span("b.y", |t| t.span("b.z", |_| 2)));
        assert_eq!(got, 3);
        t.set_on(false);
        t.next_op();
        t.span("harness.op", |_| ());
        let spans = t.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op, s.track)).collect();
        assert_eq!(
            shape,
            vec![
                ("harness.op", None, 1, 3),
                ("a.x", Some(0), 1, 3),
                ("b.y", Some(0), 1, 3),
                ("b.z", Some(2), 1, 3)
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[0].end_ns >= spans[3].end_ns, "parent closes after its children");
    }
}
