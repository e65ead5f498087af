//! The `obs` layer's per-request costs, measured directly: the registry
//! lookup-and-increment the daemon makes several times per request
//! (alone and with a second thread doing the same), and one telemetry
//! span.

use crate::Metric;
use banyan_repro::obs::{Registry, Telemetry, TelemetryConfig};
use std::sync::Barrier;
use std::time::Instant;

/// Calls per timed batch.
const CALLS: u32 = 20_000;
/// Timed batches per measurement.
const BATCHES: usize = 7;

/// Median over batches of the per-call time of `f`, nanoseconds.
fn per_call(mut f: impl FnMut()) -> Vec<f64> {
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect()
}

pub fn layer_metrics() -> Vec<Metric> {
    const NAME: &str = "serve.http.requests_total";
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!(
            "warning: one CPU available; obs.counter_contended_ns measures two time-sliced threads"
        );
    }
    let reg = Registry::new();
    let alone = per_call(|| reg.counter(NAME).inc());
    let start = Barrier::new(2);
    let contended: Vec<f64> = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            start.wait();
            per_call(|| reg.counter(NAME).inc())
        });
        start.wait();
        let mine = per_call(|| reg.counter(NAME).inc());
        let theirs = other.join().expect("contending thread");
        mine.into_iter()
            .zip(theirs)
            .map(|(a, b)| (a + b) / 2.0)
            .collect()
    });
    // A fresh sink per batch keeps its span-event log below its cap.
    let spans: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let tel = Telemetry::new(TelemetryConfig::on());
            let t = Instant::now();
            for _ in 0..CALLS {
                drop(std::hint::black_box(tel.span("serve/request")));
            }
            t.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    vec![
        Metric::median("obs.counter_ns", "ns", &alone),
        Metric::median("obs.counter_contended_ns", "ns", &contended),
        Metric::median("obs.span_ns", "ns", &spans),
    ]
}
