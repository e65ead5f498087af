//! Hierarchical wall-clock span timing.
//!
//! A span is named by a `/`-separated path (`"net/warmup"`,
//! `"runner/worker03"`); starting one returns an RAII guard that
//! records the elapsed wall time into the shared [`SpanSet`] on drop.
//! Spans are coarse (per phase, per worker — never per cycle), so a
//! mutexed map is plenty; the disabled path ([`SpanSet::noop`]) takes
//! no timestamps and touches no locks.

use crate::json::JsonObject;
use crate::sketch::QuantileSet;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Completed span events kept for trace export are capped so a
/// long-running job cannot grow the log without bound. Spans are per
/// phase / per worker, so real runs stay far below this.
const MAX_TRACE_EVENTS: usize = 65_536;

/// Process-wide dense thread ids for trace export (`std::thread::ThreadId`
/// has no stable integer form). Each thread gets the next counter value
/// on first use.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACE_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Dense id of the calling thread, stable for the thread's lifetime.
pub fn trace_tid() -> u64 {
    TRACE_TID.with(|t| *t)
}

/// One completed span occurrence, retained for trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span path (`"net/measure"`).
    pub name: String,
    /// Start timestamp, microseconds since the [`SpanSet`]'s epoch.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Dense thread id (see [`trace_tid`]).
    pub tid: u64,
}

/// Accumulated timing of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall time across all calls, nanoseconds.
    pub total_ns: u64,
}

impl SpanStat {
    /// Total wall time in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// Shared, thread-safe collection of span timings.
///
/// Besides the per-path aggregate [`SpanStat`]s, every completed span
/// also appends a [`SpanEvent`] (bounded by `MAX_TRACE_EVENTS`) for
/// `chrome://tracing` export, and feeds a per-path P² [`QuantileSet`]
/// of durations in seconds (p50/p90/p99/p999 of span wall time).
#[derive(Debug)]
pub struct SpanSet {
    spans: Mutex<BTreeMap<String, SpanStat>>,
    /// Zero point for event timestamps: creation of this set.
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    quantiles: Mutex<BTreeMap<String, QuantileSet>>,
}

impl Default for SpanSet {
    fn default() -> Self {
        SpanSet {
            spans: Mutex::new(BTreeMap::new()),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            quantiles: Mutex::new(BTreeMap::new()),
        }
    }
}

impl SpanSet {
    /// An empty span set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Starts a span; the returned guard records on drop.
    pub fn time<'a>(&'a self, path: &str) -> SpanGuard<'a> {
        SpanGuard {
            active: Some((self, path.to_string(), Instant::now())),
        }
    }

    /// A guard that records nothing (the disabled-telemetry path).
    pub fn noop() -> SpanGuard<'static> {
        SpanGuard { active: None }
    }

    /// Adds `ns` to `path` (also usable for externally timed phases).
    /// The trace event's start time is synthesized as "now − duration"
    /// relative to the set's epoch, which is exact for guards dropped
    /// immediately after their span and a close bound otherwise.
    pub fn record_ns(&self, path: &str, ns: u64) {
        {
            let mut m = self.spans.lock().expect("span set poisoned");
            let st = m.entry(path.to_string()).or_default();
            st.calls += 1;
            st.total_ns += ns;
        }
        {
            let mut q = self.quantiles.lock().expect("span quantiles poisoned");
            q.entry(path.to_string()).or_default().record(ns as f64 * 1e-9);
        }
        let elapsed_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let dur_us = ns / 1_000;
        let mut ev = self.events.lock().expect("span events poisoned");
        if ev.len() < MAX_TRACE_EVENTS {
            ev.push(SpanEvent {
                name: path.to_string(),
                ts_us: elapsed_us.saturating_sub(dur_us),
                dur_us,
                tid: trace_tid(),
            });
        }
    }

    /// All completed span events so far, in completion order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().expect("span events poisoned").clone()
    }

    /// Per-path duration quantile estimates (seconds), sorted by path.
    pub fn duration_quantiles(&self) -> Vec<(String, QuantileSet)> {
        self.quantiles
            .lock()
            .expect("span quantiles poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// JSON object mapping span path to its duration quantiles.
    pub fn duration_quantiles_json(&self) -> String {
        let mut out = JsonObject::new();
        for (path, q) in self.duration_quantiles() {
            out.field_raw(&path, &q.to_json());
        }
        out.finish()
    }

    /// Accumulated stat for `path`, if any span completed under it.
    pub fn stat(&self, path: &str) -> Option<SpanStat> {
        self.spans.lock().expect("span set poisoned").get(path).copied()
    }

    /// All recorded spans, sorted by path.
    pub fn snapshot(&self) -> Vec<(String, SpanStat)> {
        self.spans
            .lock()
            .expect("span set poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Serializes as `{"path": {"calls": n, "total_ns": ns, "secs": s}}`.
    pub fn snapshot_json(&self) -> String {
        let mut out = JsonObject::new();
        for (path, st) in self.snapshot() {
            let mut o = JsonObject::new();
            o.field_u64("calls", st.calls)
                .field_u64("total_ns", st.total_ns)
                .field_f64("secs", st.secs());
            out.field_raw(&path, &o.finish());
        }
        out.finish()
    }
}

/// RAII guard: records elapsed time into its [`SpanSet`] when dropped.
/// The no-op variant (disabled telemetry) holds nothing and does
/// nothing.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a> {
    active: Option<(&'a SpanSet, String, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((set, path, start)) = self.active.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            set.record_ns(&path, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_on_drop() {
        let set = SpanSet::new();
        {
            let _g = set.time("a/b");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let st = set.stat("a/b").unwrap();
        assert_eq!(st.calls, 1);
        assert!(st.total_ns >= 1_000_000, "{}", st.total_ns);
    }

    #[test]
    fn repeated_spans_accumulate() {
        let set = SpanSet::new();
        for _ in 0..3 {
            let _g = set.time("x");
        }
        assert_eq!(set.stat("x").unwrap().calls, 3);
    }

    #[test]
    fn noop_guard_records_nothing() {
        let set = SpanSet::new();
        {
            let _g = SpanSet::noop();
        }
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn events_capture_name_duration_and_tid() {
        let set = SpanSet::new();
        {
            let _g = set.time("net/measure");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set.record_ns("runner/merge", 2_000_000);
        let ev = set.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "net/measure");
        assert!(ev[0].dur_us >= 1_000, "{}", ev[0].dur_us);
        assert_eq!(ev[1].name, "runner/merge");
        assert_eq!(ev[1].dur_us, 2_000);
        assert_eq!(ev[0].tid, ev[1].tid, "same thread, same tid");
        let other = std::thread::spawn(trace_tid).join().unwrap();
        assert_ne!(other, trace_tid(), "distinct threads get distinct tids");
    }

    #[test]
    fn duration_quantiles_track_span_times() {
        let set = SpanSet::new();
        for i in 1..=100u64 {
            set.record_ns("w", i * 1_000_000); // 1..=100 ms
        }
        let qs = set.duration_quantiles();
        assert_eq!(qs.len(), 1);
        let (path, q) = &qs[0];
        assert_eq!(path, "w");
        assert_eq!(q.count(), 100);
        let p50 = q.estimates()[0].1;
        assert!((p50 - 0.050).abs() < 0.01, "p50 {p50}");
        let json = set.duration_quantiles_json();
        assert!(json.contains("\"w\""));
        assert!(json.contains("\"p999\""));
    }

    #[test]
    fn snapshot_json_sorted_and_balanced() {
        let set = SpanSet::new();
        set.record_ns("b", 5);
        set.record_ns("a", 1_500_000_000);
        let s = set.snapshot_json();
        let a = s.find("\"a\"").unwrap();
        let b = s.find("\"b\"").unwrap();
        assert!(a < b, "{s}");
        assert!(s.contains("\"secs\": 1.5"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
