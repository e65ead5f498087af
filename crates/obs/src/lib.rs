//! # banyan-obs
//!
//! Zero-dependency run telemetry for the banyan reproduction: a
//! metrics [`registry`] (monotonic counters, gauges with high-water
//! marks, fixed-bucket histograms), hierarchical [`span`] timers,
//! distribution [`sketch`]es (exact integer pmfs, P² streaming
//! quantiles), [`tail`] tracking with analytic drift checks, a
//! `chrome://tracing` [`trace`] exporter, a sampled per-message
//! lifecycle tracer ([`msgtrace`]), a rate-limited stderr
//! progress [`heartbeat`], and provenance-stamped run [`manifest`]s
//! (config, seeds, phase wall times, metric snapshot, host
//! parallelism, git revision).
//!
//! The central type is [`Telemetry`]: one shared, thread-safe sink per
//! run. The design contract, enforced by the `overhead_guard` bench in
//! `banyan-bench`, is that a **disabled** telemetry
//! ([`Telemetry::off`]) keeps instrumented code on the exact
//! uninstrumented path — the simulator branches *once per run* on
//! [`Telemetry::active`], not per cycle — and that telemetry never
//! perturbs simulation results: it observes counters and queues, never
//! the RNG or the dynamics, so replication statistics are bit-identical
//! with telemetry on or off.
//!
//! ```
//! use banyan_obs::{Telemetry, TelemetryConfig};
//!
//! let tel = Telemetry::new(TelemetryConfig::on());
//! {
//!     let _phase = tel.span("demo/phase");
//!     tel.registry().counter("demo.events").add(3);
//! }
//! assert_eq!(tel.registry().counter_value("demo.events"), Some(3));
//! assert!(tel.spans().stat("demo/phase").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod heartbeat;
pub mod json;
pub mod limiter;
pub mod manifest;
pub mod msgtrace;
pub mod registry;
pub mod rolling;
pub mod sketch;
pub mod span;
pub mod tail;
pub mod trace;

pub use expo::Exposition;
pub use msgtrace::{MsgRecord, MsgTracer, RepTrace};
pub use heartbeat::{Heartbeat, Progress, ProgressSnapshot};
pub use limiter::RateLimiter;
pub use manifest::Manifest;
pub use registry::{Counter, Gauge, Histogram, MetricSnapshot, Registry};
pub use rolling::{RollingStat, WindowSnapshot, WindowSpec};
pub use sketch::{DistSketch, P2Quantile, QuantileSet, SketchSet};
pub use span::{SpanEvent, SpanGuard, SpanSet, SpanStat};
pub use tail::DriftReport;

use crate::json::escape;
use std::sync::Mutex;
use std::time::Duration;

/// What to record and how often.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record metrics and spans.
    pub metrics: bool,
    /// Emit the stderr progress heartbeat.
    pub progress: bool,
    /// Occupancy-sampling cadence, in simulated cycles.
    pub sample_every: u64,
    /// Minimum wall-clock interval between heartbeat lines.
    pub heartbeat_interval: Duration,
}

impl TelemetryConfig {
    /// Everything off: instrumented code takes its uninstrumented path.
    pub fn off() -> Self {
        TelemetryConfig {
            metrics: false,
            progress: false,
            sample_every: 256,
            heartbeat_interval: Duration::from_millis(500),
        }
    }

    /// Metrics and spans on (no heartbeat), default cadence.
    pub fn on() -> Self {
        TelemetryConfig {
            metrics: true,
            ..TelemetryConfig::off()
        }
    }

    /// Enables the stderr heartbeat.
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Overrides the occupancy-sampling cadence (cycles; min 1).
    pub fn with_sample_every(mut self, cycles: u64) -> Self {
        self.sample_every = cycles.max(1);
        self
    }

    /// True if any instrumentation is requested.
    pub fn active(&self) -> bool {
        self.metrics || self.progress
    }
}

/// The shared per-run telemetry sink. Construct once, share by
/// reference across replication workers (all sinks are thread-safe).
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    registry: Registry,
    spans: SpanSet,
    sketches: SketchSet,
    progress: Progress,
    heartbeat: Option<Heartbeat>,
    run_log: Mutex<Vec<String>>,
}

impl Telemetry {
    /// Builds a sink for the given configuration.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let heartbeat = cfg
            .progress
            .then(|| Heartbeat::new(cfg.heartbeat_interval));
        Telemetry {
            cfg,
            registry: Registry::new(),
            spans: SpanSet::new(),
            sketches: SketchSet::new(),
            progress: Progress::default(),
            heartbeat,
            run_log: Mutex::new(Vec::new()),
        }
    }

    /// A disabled sink (cheap: no allocation beyond empty maps).
    pub fn off() -> Self {
        Telemetry::new(TelemetryConfig::off())
    }

    /// The configuration this sink was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// True if any instrumentation is on — the once-per-run branch that
    /// keeps disabled telemetry off the hot path.
    #[inline]
    pub fn active(&self) -> bool {
        self.cfg.active()
    }

    /// True if metrics/spans are recorded.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.cfg.metrics
    }

    /// True if the heartbeat is on.
    #[inline]
    pub fn progress_enabled(&self) -> bool {
        self.heartbeat.is_some()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span timings.
    pub fn spans(&self) -> &SpanSet {
        &self.spans
    }

    /// The distribution sketches (per-stage wait pmfs and friends).
    /// Workers record into local [`DistSketch`]es and fold them in
    /// here once per replication via [`SketchSet::merge_sketch`].
    pub fn sketches(&self) -> &SketchSet {
        &self.sketches
    }

    /// The shared progress ledger.
    pub fn progress(&self) -> &Progress {
        &self.progress
    }

    /// Starts a span (a no-op guard when metrics are disabled).
    pub fn span(&self, path: &str) -> SpanGuard<'_> {
        if self.cfg.metrics {
            self.spans.time(path)
        } else {
            SpanSet::noop()
        }
    }

    /// Lets the heartbeat emit if its interval elapsed (no-op without
    /// `--progress`). Call at a coarse cadence, never per cycle.
    #[inline]
    pub fn heartbeat_tick(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.maybe_emit(&self.progress);
        }
    }

    /// Forces a final heartbeat summary line (run completion).
    pub fn heartbeat_final(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.emit_final(&self.progress);
        }
    }

    /// Heartbeat lines emitted so far (0 without a heartbeat).
    pub fn heartbeat_lines(&self) -> u64 {
        self.heartbeat.as_ref().map_or(0, Heartbeat::lines_emitted)
    }

    /// Appends one provenance line to the run log (a free-form
    /// description of a simulation launched under this sink). Ignored
    /// when metrics are disabled.
    pub fn log_run(&self, desc: String) {
        if self.cfg.metrics {
            self.run_log.lock().expect("run log poisoned").push(desc);
        }
    }

    /// The run log as a JSON array of strings.
    pub fn run_log_json(&self) -> String {
        let log = self.run_log.lock().expect("run log poisoned");
        let items: Vec<String> = log.iter().map(|l| format!("\"{}\"", escape(l))).collect();
        format!("[{}]", items.join(", "))
    }

    /// Full snapshot: `{"spans": .., "metrics": .., "distributions": ..,
    /// "runs": ..}`.
    pub fn snapshot_json(&self) -> String {
        let mut o = json::JsonObject::new();
        o.field_raw("spans", &self.spans.snapshot_json())
            .field_raw("metrics", &self.registry.snapshot_json())
            .field_raw("distributions", &self.sketches.snapshot_json())
            .field_raw("runs", &self.run_log_json());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inactive_and_records_nothing() {
        let tel = Telemetry::off();
        assert!(!tel.active());
        {
            let _g = tel.span("x");
        }
        tel.log_run("ignored".into());
        assert!(tel.spans().snapshot().is_empty());
        assert!(tel.registry().is_empty());
        assert_eq!(tel.run_log_json(), "[]");
        tel.heartbeat_tick(); // no heartbeat: must not panic
        assert_eq!(tel.heartbeat_lines(), 0);
    }

    #[test]
    fn on_records_spans_and_runs() {
        let tel = Telemetry::new(TelemetryConfig::on());
        assert!(tel.active() && tel.metrics_enabled() && !tel.progress_enabled());
        {
            let _g = tel.span("a/b");
        }
        tel.log_run("cfg k=2".into());
        assert_eq!(tel.spans().stat("a/b").unwrap().calls, 1);
        assert_eq!(tel.run_log_json(), "[\"cfg k=2\"]");
        let snap = tel.snapshot_json();
        assert!(snap.contains("\"spans\""));
        assert!(snap.contains("\"metrics\""));
        assert!(snap.contains("\"runs\""));
    }

    #[test]
    fn progress_config_creates_heartbeat() {
        let tel = Telemetry::new(TelemetryConfig::off().with_progress());
        assert!(tel.active());
        assert!(tel.progress_enabled());
        assert!(!tel.metrics_enabled());
        tel.progress().add_cycles(10);
        tel.heartbeat_final();
        assert_eq!(tel.heartbeat_lines(), 1);
    }

    #[test]
    fn sample_every_floor_is_one() {
        assert_eq!(TelemetryConfig::on().with_sample_every(0).sample_every, 1);
    }
}
