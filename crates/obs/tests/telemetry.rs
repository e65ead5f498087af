//! Cross-thread integration tests for the telemetry sink: many workers
//! hammering one shared `Telemetry` must lose no updates, and the
//! manifest must serialize the combined state as valid-enough JSON.

use banyan_obs::json::JsonValue;
use banyan_obs::sketch::DistSketch;
use banyan_obs::{Manifest, Telemetry, TelemetryConfig};

#[test]
fn shared_sink_across_threads_loses_nothing() {
    let tel = Telemetry::new(TelemetryConfig::on());
    const WORKERS: usize = 8;
    const PER_WORKER: u64 = 10_000;
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let tel = &tel;
            scope.spawn(move || {
                let _span = tel.span(&format!("worker{w:02}"));
                let c = tel.registry().counter("events");
                let g = tel.registry().gauge("depth");
                let h = tel.registry().histogram("sizes", &[1, 8, 64]);
                for i in 0..PER_WORKER {
                    c.inc();
                    g.set(i % 100);
                    h.record(i % 70);
                    tel.progress().add_cycles(1);
                }
                tel.progress().add_messages(PER_WORKER, PER_WORKER / 2, 0);
            });
        }
    });
    let total = WORKERS as u64 * PER_WORKER;
    assert_eq!(tel.registry().counter_value("events"), Some(total));
    let snap = tel.progress().snapshot();
    assert_eq!(snap.cycles, total);
    assert_eq!(snap.injected, total);
    assert_eq!(snap.in_flight(), total / 2);
    // Every worker span recorded exactly once.
    let spans = tel.spans().snapshot();
    assert_eq!(spans.len(), WORKERS);
    assert!(spans.iter().all(|(_, st)| st.calls == 1));
}

#[test]
fn manifest_of_concurrent_run_is_balanced_json() {
    let tel = Telemetry::new(TelemetryConfig::on());
    std::thread::scope(|scope| {
        for i in 0..4 {
            let tel = &tel;
            scope.spawn(move || {
                tel.registry().counter("net.injected_total").add(100 + i);
                tel.log_run(format!("rep {i} seed={i}"));
            });
        }
    });
    let mut m = Manifest::new("concurrent");
    m.config("k", 2).seed("base", 1).reps(4).threads(4).phase("all", 0.5);
    let json = m.to_json(Some(&tel));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(json.contains("\"net.injected_total\": 406"));
    assert!(json.contains("rep 0 seed=0") || json.contains("rep 3 seed=3"));
}

#[test]
fn worker_local_sketches_merge_losslessly_across_threads() {
    // The simulator's pattern: each worker records into a private
    // sketch (no contention in the hot loop) and folds it into the
    // shared set once at the end. The fold must be lossless and
    // independent of worker interleaving.
    let tel = Telemetry::new(TelemetryConfig::on());
    const WORKERS: u64 = 8;
    const PER_WORKER: u64 = 5_000;
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let tel = &tel;
            scope.spawn(move || {
                let mut local = DistSketch::new();
                for i in 0..PER_WORKER {
                    // Worker-dependent values so merge order could matter
                    // if the fold were not commutative.
                    local.record((w * 31 + i) % 97);
                }
                tel.sketches().merge_sketch("net.wait.total", &local);
            });
        }
    });
    // Single-threaded reference over the same multiset of values.
    let mut reference = DistSketch::new();
    for w in 0..WORKERS {
        for i in 0..PER_WORKER {
            reference.record((w * 31 + i) % 97);
        }
    }
    let merged = tel.sketches().get("net.wait.total").expect("merged sketch");
    assert_eq!(merged.total(), WORKERS * PER_WORKER);
    assert_eq!(merged.pmf_points(), reference.pmf_points());
    assert_eq!(merged.mean().to_bits(), reference.mean().to_bits());
    assert_eq!(merged.variance().to_bits(), reference.variance().to_bits());
}

#[test]
fn trace_export_of_concurrent_spans_parses_and_names_threads() {
    let tel = Telemetry::new(TelemetryConfig::on());
    std::thread::scope(|scope| {
        for w in 0..4 {
            let tel = &tel;
            scope.spawn(move || {
                let _outer = tel.span(&format!("worker{w:02}"));
                let _inner = tel.span("net/measure");
            });
        }
    });
    let doc = JsonValue::parse(&banyan_obs::trace::trace_json(tel.spans()))
        .expect("trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    // 8 complete spans plus metadata records.
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), 8);
    for e in &complete {
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(e.get(key).and_then(JsonValue::as_u64).is_some(), "missing {key}");
        }
    }
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(JsonValue::as_str) == Some("M")
            && e.get("name").and_then(JsonValue::as_str) == Some("process_name")
    }));
    // Spans opened on different OS threads land on distinct tids.
    let tids: std::collections::BTreeSet<u64> = complete
        .iter()
        .filter(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| n.starts_with("worker"))
        })
        .filter_map(|e| e.get("tid").and_then(JsonValue::as_u64))
        .collect();
    assert_eq!(tids.len(), 4, "one tid per worker thread");
}
