//! Minimal in-repo microbenchmark harness.
//!
//! Replaces the external `criterion` dependency with the subset this
//! project actually uses: per-benchmark calibration, a warmup phase,
//! repeated timed samples, and robust summary statistics (median and
//! median absolute deviation, which ignore scheduler outliers that
//! would skew a mean). Results print as a table and are written as
//! machine-readable JSON under `results/BENCH_<suite>.json`.
//!
//! Usage mirrors the old criterion benches:
//!
//! ```no_run
//! use banyan_bench::micro::{black_box, Suite};
//!
//! let mut suite = Suite::new("example");
//! suite.bench("add", || black_box(2u64) + black_box(3u64));
//! suite.finish();
//! ```
//!
//! Every bench target accepts `--quick` (fewer, shorter samples) so the
//! suites can run as smoke tests, and `--save-baseline`-style comparison
//! is left to external tooling reading the JSON.

pub use std::hint::black_box;

use crate::paired::median;
use std::time::{Duration, Instant};

/// Target wall-clock time for a single timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

/// One benchmark's summary statistics, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Record {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Iterations executed per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: u32,
    /// Median ns/iter across samples.
    pub median_ns: f64,
    /// Median absolute deviation of ns/iter (robust spread).
    pub mad_ns: f64,
    /// Fastest observed sample, ns/iter.
    pub min_ns: f64,
    /// Arithmetic mean ns/iter across samples.
    pub mean_ns: f64,
    /// Optional throughput denominator: elements processed per iteration.
    pub elements_per_iter: Option<u64>,
    /// Second optional throughput denominator: messages delivered per
    /// iteration (simulator benches report both cycles/sec and
    /// delivered-messages/sec).
    pub messages_per_iter: Option<u64>,
}

impl Record {
    /// Elements per second implied by the median time, if a throughput
    /// denominator was declared.
    pub fn throughput_per_sec(&self) -> Option<f64> {
        self.elements_per_iter
            .map(|e| e as f64 / (self.median_ns * 1e-9))
    }

    /// Delivered messages per second implied by the median time, if a
    /// message count was declared.
    pub fn messages_per_sec(&self) -> Option<f64> {
        self.messages_per_iter
            .map(|m| m as f64 / (self.median_ns * 1e-9))
    }
}

/// Measurement effort: how many samples to take and how long to warm up.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Timed samples per benchmark.
    pub samples: u32,
    /// Warmup duration before the first timed sample.
    pub warmup: Duration,
}

impl Effort {
    /// Full effort: stable numbers for committed baselines.
    pub fn full() -> Self {
        Effort {
            samples: 30,
            warmup: Duration::from_millis(300),
        }
    }

    /// Smoke-test effort (`--quick`): just enough to prove the bench runs.
    pub fn quick() -> Self {
        Effort {
            samples: 5,
            warmup: Duration::from_millis(20),
        }
    }

    /// Selects effort from process arguments (`--quick` ⇒ quick).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Effort::quick()
        } else {
            Effort::full()
        }
    }
}

/// A named collection of benchmarks that reports once at the end.
pub struct Suite {
    name: String,
    effort: Effort,
    records: Vec<Record>,
}

impl Suite {
    /// Creates a suite, reading effort from the process arguments.
    pub fn new(name: &str) -> Self {
        Suite::with_effort(name, Effort::from_args())
    }

    /// Creates a suite with explicit effort (used by tests).
    pub fn with_effort(name: &str, effort: Effort) -> Self {
        Suite {
            name: name.to_string(),
            effort,
            records: Vec::new(),
        }
    }

    /// Times `f`, keeping its return value alive via [`black_box`].
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.run(name, None, None, f);
    }

    /// Times `f` and reports throughput as `elements` per iteration
    /// (e.g. simulated cycles), alongside ns/iter.
    pub fn bench_throughput<T>(&mut self, name: &str, elements: u64, f: impl FnMut() -> T) {
        self.run(name, Some(elements), None, f);
    }

    /// Times `f` and reports two throughput rates: `elements` (e.g.
    /// simulated cycles) and `messages` (e.g. delivered messages) per
    /// iteration — the simulator's cycles/sec and messages/sec.
    pub fn bench_throughput2<T>(
        &mut self,
        name: &str,
        elements: u64,
        messages: u64,
        f: impl FnMut() -> T,
    ) {
        self.run(name, Some(elements), Some(messages), f);
    }

    fn run<T>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        messages: Option<u64>,
        mut f: impl FnMut() -> T,
    ) {
        let iters = calibrate(&mut f);

        let warmup_start = Instant::now();
        while warmup_start.elapsed() < self.effort.warmup {
            black_box(f());
        }

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.effort.samples as usize);
        for _ in 0..self.effort.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }

        let med = median(&mut per_iter_ns.clone());
        let mut deviations: Vec<f64> = per_iter_ns.iter().map(|x| (x - med).abs()).collect();
        let mad = median(&mut deviations);
        let min = per_iter_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;

        let record = Record {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: self.effort.samples,
            median_ns: med,
            mad_ns: mad,
            min_ns: min,
            mean_ns: mean,
            elements_per_iter: elements,
            messages_per_iter: messages,
        };
        report_line(&record);
        self.records.push(record);
    }

    /// Access to the collected records (used by tests).
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Renders the suite as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape(&self.name)));
        out.push_str("  \"unit\": \"ns_per_iter\",\n");
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 == self.records.len() { "" } else { "," };
            let throughput = match r.throughput_per_sec() {
                Some(t) => format!("{t:.1}"),
                None => "null".to_string(),
            };
            let elements = match r.elements_per_iter {
                Some(e) => e.to_string(),
                None => "null".to_string(),
            };
            let messages = match r.messages_per_iter {
                Some(m) => m.to_string(),
                None => "null".to_string(),
            };
            let msg_rate = match r.messages_per_sec() {
                Some(t) => format!("{t:.1}"),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
                 \"median_ns\": {:.3}, \"mad_ns\": {:.3}, \"min_ns\": {:.3}, \
                 \"mean_ns\": {:.3}, \"elements_per_iter\": {}, \
                 \"elements_per_sec\": {}, \"messages_per_iter\": {}, \
                 \"messages_per_sec\": {}}}{}\n",
                escape(&r.name),
                r.iters_per_sample,
                r.samples,
                r.median_ns,
                r.mad_ns,
                r.min_ns,
                r.mean_ns,
                elements,
                throughput,
                messages,
                msg_rate,
                sep,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `results/BENCH_<suite>.json` (under the workspace root,
    /// wherever the target was invoked from) and returns its path.
    pub fn finish(self) -> std::path::PathBuf {
        let results = crate::manifest::workspace_root().join("results");
        std::fs::create_dir_all(&results).expect("create results/");
        let path = results.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json()).expect("write bench json");
        eprintln!("wrote {}", path.display());
        path
    }
}

/// Picks an iteration count so one timed sample lasts ≈ [`SAMPLE_TARGET`]:
/// long enough that `Instant` granularity is negligible, short enough
/// that a suite finishes in seconds.
fn calibrate<T>(f: &mut impl FnMut() -> T) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= SAMPLE_TARGET / 2 {
            let per_iter = elapsed.as_secs_f64() / iters as f64;
            let want = (SAMPLE_TARGET.as_secs_f64() / per_iter).ceil() as u64;
            return want.max(1);
        }
        // Double until the probe is long enough to trust.
        iters = iters.saturating_mul(2);
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn report_line(r: &Record) {
    let spread = if r.median_ns > 0.0 {
        100.0 * r.mad_ns / r.median_ns
    } else {
        0.0
    };
    match (r.throughput_per_sec(), r.messages_per_sec()) {
        (Some(t), Some(m)) => eprintln!(
            "{:<40} {:>12.1} ns/iter (±{:.1}%)  {:>14.0} elem/s  {:>12.0} msg/s",
            r.name, r.median_ns, spread, t, m
        ),
        (Some(t), None) => eprintln!(
            "{:<40} {:>12.1} ns/iter (±{:.1}%)  {:>14.0} elem/s",
            r.name, r.median_ns, spread, t
        ),
        _ => eprintln!(
            "{:<40} {:>12.1} ns/iter (±{:.1}%)",
            r.name, r.median_ns, spread
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            samples: 3,
            warmup: Duration::from_millis(1),
        }
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn bench_produces_positive_timings() {
        let mut s = Suite::with_effort("unit", tiny());
        s.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        let r = &s.records()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let mut s = Suite::with_effort("unit", tiny());
        s.bench_throughput("t", 1000, || black_box(1u64) + 1);
        let json = s.to_json();
        assert!(json.contains("\"suite\": \"unit\""));
        assert!(json.contains("\"name\": \"t\""));
        assert!(json.contains("\"elements_per_iter\": 1000"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn dual_throughput_recorded_and_serialized() {
        let mut s = Suite::with_effort("unit", tiny());
        s.bench_throughput2("sim", 3_000, 1_234, || black_box(1u64) + 1);
        let r = &s.records()[0];
        assert_eq!(r.elements_per_iter, Some(3_000));
        assert_eq!(r.messages_per_iter, Some(1_234));
        let cyc = r.throughput_per_sec().unwrap();
        let msg = r.messages_per_sec().unwrap();
        assert!((cyc / msg - 3_000.0 / 1_234.0).abs() < 1e-9);
        let json = s.to_json();
        assert!(json.contains("\"messages_per_iter\": 1234"));
        assert!(json.contains("\"messages_per_sec\": "));
        // Plain benches serialize nulls for the message fields.
        let mut s2 = Suite::with_effort("unit2", tiny());
        s2.bench("plain", || black_box(1u64));
        assert!(s2.to_json().contains("\"messages_per_iter\": null"));
    }

    #[test]
    fn quotes_in_names_are_escaped() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
