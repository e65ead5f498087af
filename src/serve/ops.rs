//! The live operations plane: per-route rolling SLO windows, the
//! shared request timer, the structured access log, and the hot-key
//! ledger the drift monitor re-probes.
//!
//! Everything here is *observational*: the plane reads requests and
//! fully rendered responses, so `/query` and `/v1/*` bodies stay
//! byte-identical with the plane on or off. The per-request cost is
//! bounded by design — a staged rolling append, one histogram record,
//! and (when enabled) one buffered access-log line — and enforced by
//! the serve section of the `overhead_guard` bench (≤1.02× with the
//! plane fully on).

use super::answer::check_simulable;
use super::http::{push_u64, Request, Response};
use super::query::Query;
use banyan_obs::json::JsonObject;
use banyan_obs::rolling::{RollingStat, QUANTILE_LABELS};
use banyan_obs::{Exposition, RateLimiter, Registry, Telemetry};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Route labels the plane aggregates under (unknown paths pool into
/// `other`). Fixed at startup so every per-route structure is
/// preallocated and lock-free to look up.
pub const ROUTES: &[&str] = &[
    "query", "flow", "batch", "metrics", "statusz", "healthz", "readyz", "shutdown", "other",
];

/// Maps a request path onto its [`ROUTES`] index.
pub fn route_index(path: &str) -> usize {
    let label = match path {
        "/query" => "query",
        "/v1/flow" => "flow",
        "/v1/batch" => "batch",
        "/metrics" => "metrics",
        "/statusz" => "statusz",
        "/healthz" => "healthz",
        "/readyz" => "readyz",
        "/shutdown" => "shutdown",
        _ => "other",
    };
    ROUTES.iter().position(|&r| r == label).expect("known label")
}

/// Latency bucket bounds (µs) for the per-route registry histograms:
/// cache hits land in the low buckets, probe/simulation answers in the
/// high ones, and anything beyond 1 s is explicit overflow.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// How many distinct analytic configurations the drift monitor keeps
/// re-probing (FIFO beyond this).
const HOT_KEY_CAP: usize = 8;

std::thread_local! {
    /// Reused access-log line buffer — the flush path renders every
    /// staged record without a per-line allocation.
    static LINE_BUF: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

/// Appends `s` to `buf` with JSON string escaping, allocation-free —
/// the streaming twin of `banyan_obs::json::escape`.
fn push_escaped(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// The per-daemon operations plane. The per-request instruments
/// (latency histograms, access-log counters, the drift gauge) are
/// resolved to `Arc`s once at startup — the hot path never takes the
/// registry's name-lookup lock.
pub struct OpsPlane {
    started: Instant,
    rolling_enabled: bool,
    rolling: Vec<RollingStat>,
    latency: Vec<std::sync::Arc<banyan_obs::Histogram>>,
    access_log: Option<AccessLog>,
    log_lines: std::sync::Arc<banyan_obs::Counter>,
    log_suppressed: std::sync::Arc<banyan_obs::Counter>,
    last_ks_ppm: std::sync::Arc<banyan_obs::Gauge>,
    hot: Mutex<Vec<(String, Query)>>,
}

impl OpsPlane {
    /// Builds the plane, pre-registering every per-route instrument in
    /// `registry` (deterministic metric namespace from startup) and
    /// opening the access log when configured.
    pub fn new(
        registry: &Registry,
        rolling_enabled: bool,
        access_log_path: Option<&str>,
        access_log_sample_ms: u64,
    ) -> std::io::Result<OpsPlane> {
        let latency = ROUTES
            .iter()
            .map(|r| registry.histogram(&format!("serve.latency_us.{r}"), LATENCY_BOUNDS_US))
            .collect();
        registry.counter("serve.drift.probes_total");
        for name in ["serve.drift.degraded", "serve.drift.probe_ks_ppm"] {
            registry.gauge(name);
        }
        let access_log = match access_log_path {
            Some(path) => Some(AccessLog::open(path, access_log_sample_ms)?),
            None => None,
        };
        Ok(OpsPlane {
            started: Instant::now(),
            rolling_enabled,
            rolling: ROUTES.iter().map(|_| RollingStat::new()).collect(),
            latency,
            access_log,
            log_lines: registry.counter("serve.accesslog.lines_total"),
            log_suppressed: registry.counter("serve.accesslog.suppressed_total"),
            last_ks_ppm: registry.gauge("serve.drift.last_ks_ppm"),
            hot: Mutex::new(Vec::new()),
        })
    }

    /// Seconds since the daemon started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Starts the RAII timer for one parsed request.
    pub fn timer(&self, path: &str) -> RequestTimer<'_> {
        RequestTimer {
            ops: self,
            route: route_index(path),
            started: Instant::now(),
            finished: false,
        }
    }

    /// Records one finished request: rolling windows, the latency
    /// histogram, and (when enabled) a staged access-log record. This
    /// is the per-request hot path the `overhead_guard` serve budget
    /// bounds: two staged appends and a histogram record — no
    /// formatting and no I/O; [`maintenance_flush`](Self::maintenance_flush)
    /// renders and writes the lines off the request thread.
    fn observe(&self, route: usize, elapsed: Duration, detail: Option<(&Request, &Response)>) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        if self.rolling_enabled {
            self.rolling[route].record(us);
        }
        self.latency[route].record(us);
        let (Some(log), Some((req, resp))) = (&self.access_log, detail) else {
            return;
        };
        if !log.admit() {
            self.log_suppressed.inc();
            return;
        }
        let rec = AccessRecord {
            ts_ms: log.now_ms(),
            us,
            bytes: resp.body.len() as u64,
            ks_ppm: self.last_ks_ppm.get(),
            status: resp.status,
            route: route as u8,
            method: SmallStr::copy(&req.method),
            path: SmallStr::copy(req.path()),
            cache: SmallStr::copy(resp.extra_header("X-Banyan-Cache").unwrap_or("-")),
            source: SmallStr::copy(resp.extra_header("X-Banyan-Source").unwrap_or("-")),
        };
        if log.stage(rec) {
            self.log_lines.inc();
        } else {
            self.log_suppressed.inc();
        }
    }

    /// Remembers an analytically answerable configuration for the
    /// drift monitor (deduplicated by canonical cache key, FIFO beyond
    /// the cap). A configuration the simulator cannot build is never
    /// remembered, so the monitor never probes it.
    pub fn note_hot(&self, query: &Query) {
        if check_simulable(query).is_err() {
            return;
        }
        let key = query.cache_key();
        let mut hot = self.hot.lock().expect("hot keys poisoned");
        if hot.iter().any(|(k, _)| *k == key) {
            return;
        }
        if hot.len() == HOT_KEY_CAP {
            hot.remove(0);
        }
        hot.push((key, query.clone()));
    }

    /// Snapshot of the hot configurations (key order = insertion).
    pub fn hot_queries(&self) -> Vec<(String, Query)> {
        self.hot.lock().expect("hot keys poisoned").clone()
    }

    /// Flushes staged rolling observations and the access log. The
    /// daemon's monitor loop calls this every step, whether or not
    /// drift probing is on, so log lines become durable while the
    /// daemon runs and staging stays small even without scrapes.
    pub fn maintenance_flush(&self) {
        for r in &self.rolling {
            r.flush();
        }
        if let Some(log) = &self.access_log {
            log.flush();
        }
    }

    /// Renders the full `/metrics` scrape: uptime, the whole registry
    /// (counters, gauges, histograms with explicit overflow), and the
    /// rolling-window families for every route with traffic.
    pub fn render_metrics(&self, tel: &Telemetry) -> String {
        let mut e = Exposition::new();
        e.gauge(
            "serve.uptime_seconds",
            "seconds since the daemon started",
            self.uptime().as_secs_f64(),
        );
        e.registry(tel.registry());
        if self.rolling_enabled {
            let mut route_snaps = Vec::new();
            for (i, &route) in ROUTES.iter().enumerate() {
                if self.rolling[i].total_count() > 0 {
                    route_snaps.push((route, self.rolling[i].snapshot()));
                }
            }
            if !route_snaps.is_empty() {
                let lat = e.gauge_family(
                    "serve.rolling.latency_us",
                    "rolling-window latency quantiles in microseconds",
                );
                for (route, snaps) in &route_snaps {
                    for snap in snaps {
                        for (label, value) in QUANTILE_LABELS.iter().zip(snap.quantiles) {
                            e.sample(
                                &lat,
                                &[
                                    ("route", route),
                                    ("window", snap.spec.label),
                                    ("quantile", label),
                                ],
                                value,
                            );
                        }
                    }
                }
                let rate = e.gauge_family(
                    "serve.rolling.requests_per_sec",
                    "request rate over each rolling window",
                );
                for (route, snaps) in &route_snaps {
                    for snap in snaps {
                        e.sample(
                            &rate,
                            &[("route", route), ("window", snap.spec.label)],
                            snap.rate_per_sec,
                        );
                    }
                }
            }
        }
        e.finish()
    }

    /// The `/statusz` per-route section: every route with traffic,
    /// every window, count/qps/max plus the quantile estimates.
    pub fn routes_status_json(&self) -> String {
        let mut routes = JsonObject::new();
        for (i, &route) in ROUTES.iter().enumerate() {
            if self.rolling[i].total_count() == 0 {
                continue;
            }
            let mut windows = JsonObject::new();
            for snap in self.rolling[i].snapshot() {
                let mut w = JsonObject::new();
                w.field_u64("count", snap.count)
                    .field_f64("qps", snap.rate_per_sec)
                    .field_f64("mean_us", snap.mean())
                    .field_u64("max_us", snap.max);
                for (label, value) in QUANTILE_LABELS.iter().zip(snap.quantiles) {
                    w.field_f64(&format!("{label}_us"), value);
                }
                w.field_u64("quantile_count", snap.quantile_count)
                    .field_raw("complete", if snap.complete { "true" } else { "false" });
                windows.field_raw(snap.spec.label, &w.finish());
            }
            routes.field_raw(route, &windows.finish());
        }
        routes.finish()
    }

    /// Publishes the rolling aggregates as `serve.rolling.*` gauges —
    /// called at shutdown so run manifests carry the final window
    /// state, validated by `manifest_check`.
    pub fn publish_rolling_gauges(&self, registry: &Registry) {
        for (i, &route) in ROUTES.iter().enumerate() {
            if self.rolling[i].total_count() == 0 {
                continue;
            }
            for snap in self.rolling[i].snapshot() {
                let prefix = format!("serve.rolling.{route}.{}", snap.spec.label);
                registry.gauge(&format!("{prefix}.count")).set(snap.count);
                registry.gauge(&format!("{prefix}.max_us")).set(snap.max);
                for (label, value) in QUANTILE_LABELS.iter().zip(snap.quantiles) {
                    registry
                        .gauge(&format!("{prefix}.{label}_us"))
                        .set(value.round().max(0.0) as u64);
                }
            }
        }
    }
}

impl std::fmt::Debug for OpsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsPlane")
            .field("rolling_enabled", &self.rolling_enabled)
            .field("access_log", &self.access_log.is_some())
            .finish_non_exhaustive()
    }
}

/// RAII per-request timer. [`finish`](Self::finish) records the full
/// observation (latency + access-log line); if the guard is dropped
/// without finishing (a panicking route), the latency alone is still
/// recorded.
pub struct RequestTimer<'a> {
    ops: &'a OpsPlane,
    route: usize,
    started: Instant,
    finished: bool,
}

impl RequestTimer<'_> {
    /// Completes the observation with the request/response pair.
    pub fn finish(mut self, req: &Request, resp: &Response) {
        self.finished = true;
        self.ops
            .observe(self.route, self.started.elapsed(), Some((req, resp)));
    }
}

impl Drop for RequestTimer<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.ops.observe(self.route, self.started.elapsed(), None);
        }
    }
}

/// Staged records the access log accepts before dropping new ones
/// (counted as suppressed) until a flush drains the backlog — bounds
/// memory if flushes fall behind the request rate.
const LOG_STAGING_CAP: usize = 1 << 16;

/// A string field of a staged access-log record. Routes, methods, and
/// answer sources all fit inline; an oversized path (the one field a
/// client controls) spills to the heap.
enum SmallStr {
    Inline { len: u8, bytes: [u8; 22] },
    Heap(String),
}

impl SmallStr {
    fn copy(s: &str) -> SmallStr {
        if s.len() <= 22 {
            let mut bytes = [0u8; 22];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            SmallStr::Inline {
                len: s.len() as u8,
                bytes,
            }
        } else {
            SmallStr::Heap(s.to_string())
        }
    }

    fn as_str(&self) -> &str {
        match self {
            SmallStr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes copied from a str"),
            SmallStr::Heap(s) => s,
        }
    }
}

/// One staged access-log observation, captured on the request thread
/// and rendered to JSON by [`AccessLog::flush`].
struct AccessRecord {
    ts_ms: u64,
    us: u64,
    bytes: u64,
    ks_ppm: u64,
    status: u16,
    route: u8,
    method: SmallStr,
    path: SmallStr,
    cache: SmallStr,
    source: SmallStr,
}

/// The structured JSON access log: one object per line, with optional
/// rate-limited sampling through the shared [`RateLimiter`] (first
/// line always emitted; at most one line per sample interval
/// thereafter — suppressed lines are counted, never blocked on).
/// Request threads stage compact records; formatting and file I/O
/// happen on whoever calls [`flush`](Self::flush) — the monitor loop
/// every step, or the shutdown path.
struct AccessLog {
    writer: Mutex<BufWriter<File>>,
    staged: Mutex<Vec<AccessRecord>>,
    limiter: Option<RateLimiter>,
    epoch_ms: u64,
    opened: Instant,
}

impl AccessLog {
    fn open(path: &str, sample_ms: u64) -> std::io::Result<AccessLog> {
        let file = File::create(path)?;
        Ok(AccessLog {
            writer: Mutex::new(BufWriter::new(file)),
            staged: Mutex::new(Vec::new()),
            limiter: (sample_ms > 0).then(|| RateLimiter::new(Duration::from_millis(sample_ms))),
            epoch_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
                .unwrap_or(0),
            opened: Instant::now(),
        })
    }

    /// Wall-clock milliseconds without a per-line `SystemTime` call.
    fn now_ms(&self) -> u64 {
        self.epoch_ms + self.opened.elapsed().as_millis() as u64
    }

    fn admit(&self) -> bool {
        self.limiter.as_ref().is_none_or(RateLimiter::allow)
    }

    /// Appends one record to the staging buffer; `false` means the
    /// backlog is at [`LOG_STAGING_CAP`] and the record was dropped.
    fn stage(&self, rec: AccessRecord) -> bool {
        let mut staged = self.staged.lock().expect("access staging poisoned");
        if staged.len() >= LOG_STAGING_CAP {
            return false;
        }
        staged.push(rec);
        true
    }

    /// Drains the staged records, rendering each as one JSON line into
    /// a reused buffer, and flushes the file.
    fn flush(&self) {
        let records = std::mem::take(&mut *self.staged.lock().expect("access staging poisoned"));
        let mut w = self.writer.lock().expect("access log poisoned");
        LINE_BUF.with_borrow_mut(|buf| {
            for rec in &records {
                buf.clear();
                buf.push_str("{\"schema\": \"banyan-serve/access/v1\", \"ts_ms\": ");
                push_u64(buf, rec.ts_ms);
                buf.push_str(", \"route\": \"");
                buf.push_str(ROUTES[usize::from(rec.route)]);
                buf.push_str("\", \"method\": \"");
                push_escaped(buf, rec.method.as_str());
                buf.push_str("\", \"path\": \"");
                push_escaped(buf, rec.path.as_str());
                buf.push_str("\", \"status\": ");
                push_u64(buf, u64::from(rec.status));
                buf.push_str(", \"bytes\": ");
                push_u64(buf, rec.bytes);
                buf.push_str(", \"us\": ");
                push_u64(buf, rec.us);
                buf.push_str(", \"cache\": \"");
                buf.push_str(rec.cache.as_str());
                buf.push_str("\", \"source\": \"");
                buf.push_str(rec.source.as_str());
                buf.push_str("\", \"ks_ppm\": ");
                push_u64(buf, rec.ks_ppm);
                buf.push_str("}\n");
                let _ = w.write_all(buf.as_bytes());
            }
        });
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_cover_the_surface() {
        assert_eq!(ROUTES[route_index("/query")], "query");
        assert_eq!(ROUTES[route_index("/v1/flow")], "flow");
        assert_eq!(ROUTES[route_index("/v1/batch")], "batch");
        assert_eq!(ROUTES[route_index("/metrics")], "metrics");
        assert_eq!(ROUTES[route_index("/statusz")], "statusz");
        assert_eq!(ROUTES[route_index("/healthz")], "healthz");
        assert_eq!(ROUTES[route_index("/readyz")], "readyz");
        assert_eq!(ROUTES[route_index("/shutdown")], "shutdown");
        assert_eq!(ROUTES[route_index("/nope")], "other");
    }

    #[test]
    fn hot_keys_dedup_and_cap() {
        let reg = Registry::new();
        let ops = OpsPlane::new(&reg, true, None, 0).unwrap();
        for stages in 1..=12u32 {
            let q = Query::from_json(&format!("{{\"k\":2,\"stages\":{stages},\"p\":0.3}}"))
                .unwrap();
            ops.note_hot(&q);
            ops.note_hot(&q); // duplicate: ignored
        }
        let hot = ops.hot_queries();
        assert_eq!(hot.len(), HOT_KEY_CAP);
        // FIFO: the oldest entries (stages 1..=4) were evicted.
        assert!(hot[0].0.contains("n=5"), "{:?}", hot[0].0);
        assert!(hot.last().unwrap().0.contains("n=12"));
    }

    #[test]
    fn observe_feeds_rolling_histogram_and_statusz() {
        let reg = Registry::new();
        let ops = OpsPlane::new(&reg, true, None, 0).unwrap();
        let route = route_index("/query");
        for _ in 0..3 {
            ops.observe(route, Duration::from_micros(300), None);
        }
        let status = ops.routes_status_json();
        assert!(status.contains("\"query\""), "{status}");
        assert!(status.contains("\"1s\"") && status.contains("\"60s\""), "{status}");
        assert_eq!(ops.latency[route].count(), 3);
        // The metrics render includes the rolling families.
        let tel = Telemetry::new(banyan_obs::TelemetryConfig::on());
        let scrape = ops.render_metrics(&tel);
        assert!(scrape.contains("# TYPE serve_rolling_latency_us gauge"), "{scrape}");
        assert!(
            scrape.contains("serve_rolling_latency_us{route=\"query\",window=\"1s\",quantile=\"p50\"}"),
            "{scrape}"
        );
        assert!(scrape.contains("serve_uptime_seconds"), "{scrape}");
    }

    #[test]
    fn rolling_disabled_skips_windows_but_keeps_histograms() {
        let reg = Registry::new();
        let ops = OpsPlane::new(&reg, false, None, 0).unwrap();
        let route = route_index("/query");
        ops.observe(route, Duration::from_micros(100), None);
        assert_eq!(ops.rolling[route].total_count(), 0);
        assert_eq!(ops.latency[route].count(), 1);
        assert_eq!(ops.routes_status_json(), "{}");
    }

    #[test]
    fn publish_rolling_gauges_lands_in_manifest_namespace() {
        let reg = Registry::new();
        let ops = OpsPlane::new(&reg, true, None, 0).unwrap();
        ops.observe(route_index("/query"), Duration::from_micros(250), None);
        ops.publish_rolling_gauges(&reg);
        let snap = reg.snapshot_json();
        assert!(snap.contains("serve.rolling.query.1s.count"), "{snap}");
        assert!(snap.contains("serve.rolling.query.60s.p999_us"), "{snap}");
    }
}
