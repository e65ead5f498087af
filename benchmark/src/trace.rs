//! The benchmark's span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions.
//! They carry a parent id (unlike `obs::SpanSet`, which aggregates by
//! path at microsecond resolution), live in memory for the whole run and
//! are written as JSONL (`banyan-benchmark/trace/v1`) when it ends. A
//! disabled recorder runs the same code without taking timestamps, so a
//! traced and an untraced pass differ only by the recording.

use banyan_repro::obs::json::{escape, JsonObject};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Schema tag on the first line of every trace file.
pub const SCHEMA: &str = "banyan-benchmark/trace/v1";

/// One completed span. `parent == 0` marks a root (an op).
#[derive(Clone, Debug)]
pub struct Span {
    /// The op (or request) this span belongs to.
    pub op: u64,
    /// Unique id, 1-based.
    pub id: u64,
    /// Id of the enclosing span, 0 for none.
    pub parent: u64,
    /// Layer-qualified name, e.g. `flow.mean_wait`.
    pub name: Cow<'static, str>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder (one thread).
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from now, initially disabled.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: false,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts op `op`: later spans carry its id until the next call.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.current();
        let start_ns = self.ns_at(Instant::now());
        self.push(Cow::Borrowed(name), parent, start_ns, start_ns);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.ns_at(Instant::now());
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = now;
    }

    /// Closes the innermost open span and opens its sibling `name` at
    /// the same instant: one clock read per boundary for a sequence of
    /// back-to-back calls. With no span open this is [`Recorder::begin`].
    pub fn next(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let Some(i) = self.open.pop() else {
            return self.begin(name);
        };
        let now = self.ns_at(Instant::now());
        self.spans[i].end_ns = now;
        let parent = self.current();
        self.push(Cow::Borrowed(name), parent, now, now);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes every open span (an op's end, also on its error paths).
    pub fn end_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = std::hint::black_box(f());
        self.end();
        out
    }

    /// Id of the innermost open span (0 when none is open).
    pub fn current(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].id)
    }

    /// Adds an externally timed span (e.g. one the program recorded
    /// through its own telemetry) and returns its id.
    pub fn add(&mut self, name: String, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        self.push(Cow::Owned(name), parent, start_ns, end_ns);
        self.spans.len() as u64
    }

    fn push(&mut self, name: Cow<'static, str>, parent: u64, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the header line plus one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut head = JsonObject::new();
        head.field_str("schema", SCHEMA)
            .field_str("workload", workload)
            .field_u64("seed", seed)
            .field_u64("spans", self.spans.len() as u64);
        writeln!(out, "{}", head.finish())?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op,
                s.id,
                s.parent,
                escape(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children, e.g. parallel
/// workers, count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent > 0 {
            children[s.parent as usize - 1].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name self-time samples, each name's share of the roots it ran
/// under, and the `op` roots' durations: the ledger every per-layer
/// metric is read from.
pub struct Ledger {
    /// Self time of every call, per span name.
    pub calls: BTreeMap<String, Vec<f64>>,
    /// Per span name: summed self time over the summed duration of the
    /// roots (ops, or replays outside them) it ran under.
    shares: BTreeMap<String, f64>,
    /// Duration of every root span named `op`.
    pub ops: Vec<f64>,
    /// Summed self time of the `op` roots (time no layer span covers).
    residual_ns: f64,
}

impl Ledger {
    /// Builds the ledger of a recorder's spans.
    pub fn of(spans: &[Span]) -> Ledger {
        let selfs = self_times(spans);
        // A parent is always recorded before its children.
        let mut root = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            let r = if s.parent == 0 {
                i
            } else {
                root[s.parent as usize - 1]
            };
            root.push(r);
        }
        let mut root_total: BTreeMap<&str, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent == 0) {
            *root_total.entry(&s.name).or_default() += s.dur_ns() as f64;
        }
        let mut ledger = Ledger {
            calls: BTreeMap::new(),
            shares: BTreeMap::new(),
            ops: Vec::new(),
            residual_ns: 0.0,
        };
        for ((s, &own), &r) in spans.iter().zip(&selfs).zip(&root) {
            let own = own as f64;
            if s.parent == 0 && s.name == "op" {
                ledger.ops.push(s.dur_ns() as f64);
                ledger.residual_ns += own;
                continue;
            }
            ledger
                .calls
                .entry(s.name.to_string())
                .or_default()
                .push(own);
            *ledger.shares.entry(s.name.to_string()).or_default() +=
                own / root_total[&*spans[r].name];
        }
        ledger
    }

    /// Self-time samples of `name` (empty when never called).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.calls.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summed self time of `name` as a share of the roots it ran under.
    pub fn share(&self, name: &str) -> f64 {
        self.shares.get(name).copied().unwrap_or(0.0)
    }

    /// Share of op time that no layer span covers.
    pub fn residual_share(&self) -> f64 {
        self.residual_ns / self.ops.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            id,
            parent,
            name: if parent == 0 { "op" } else { "x" }.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60), // overlaps the first child
            span(4, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
        let ledger = Ledger::of(&spans);
        assert_eq!(ledger.ops, vec![100.0]);
        assert_eq!(ledger.residual_share(), 0.5);
        assert_eq!(ledger.samples("x"), &[20.0, 30.0, 10.0]);
        assert_eq!(ledger.share("x"), 0.6);
    }

    #[test]
    fn nested_spans_get_parents_and_disabled_records_nothing() {
        let mut rec = Recorder::new();
        rec.span("off", || ());
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        rec.set_op(7);
        rec.begin("op");
        let v = rec.span("inner", || 3);
        rec.end();
        assert_eq!(v, 3);
        let s = rec.spans();
        assert_eq!((s[0].id, s[0].parent, s[0].op), (1, 0, 7));
        assert_eq!((s[1].id, s[1].parent), (2, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
