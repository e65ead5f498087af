//! Integration tests for the `banyan serve` capacity daemon: wire
//! protocol, cache behaviour, bit-identity of served analytic answers,
//! and the drift-gated simulation fallback.

use banyan_repro::core::total_delay::TotalWaiting;
use banyan_repro::obs::json::JsonValue;
use banyan_repro::serve::flow::{flow_body, FlowQuery};
use banyan_repro::serve::http::Client;
use banyan_repro::serve::{ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;

/// A daemon on an ephemeral port with small simulation budgets.
fn spawn(mutate: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        probe_cycles: 800,
        probe_reps: 2,
        sim_cycles: 1_500,
        sim_reps: 2,
        // Keep idle keep-alive connections from pinning workers during
        // shutdown joins.
        read_timeout_ms: 500,
        ..ServeConfig::default()
    };
    mutate(&mut cfg);
    ServerHandle::spawn(cfg).expect("spawn daemon")
}

/// Sends raw bytes on a fresh connection and returns everything the
/// daemon writes back before closing.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn get_f64(doc: &JsonValue, section: &str, field: &str) -> f64 {
    doc.get(section)
        .and_then(|s| s.get(field))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing {section}.{field}"))
}

#[test]
fn malformed_request_lines_get_400_and_close() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    for raw in [
        "GET\r\n\r\n",                           // one token
        "GET /healthz\r\n\r\n",                  // missing version
        "GET /healthz HTTP/2.0\r\n\r\n",         // unsupported version
        "GET /healthz HTTP/1.1 extra\r\n\r\n",   // four tokens
        "POST /query HTTP/1.1\r\ncontent-length: nope\r\n\r\n", // bad length
    ] {
        let out = raw_exchange(&addr, raw.as_bytes());
        assert!(out.starts_with("HTTP/1.1 400 "), "{raw:?} -> {out}");
        assert!(out.contains("connection: close"), "{out}");
    }
    handle.shutdown().unwrap();
}

#[test]
fn unknown_paths_and_wrong_methods_are_rejected() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client.request("GET", "/nope", None).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    // Known path, wrong method: 405, and the connection stays usable.
    let resp = client.request("POST", "/healthz", Some("{}")).unwrap();
    assert_eq!(resp.status, 405, "{}", resp.body);
    let resp = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    handle.shutdown().unwrap();
}

#[test]
fn oversized_bodies_get_413_before_read() {
    let handle = spawn(|cfg| cfg.max_body_bytes = 256);
    let addr = handle.addr().to_string();
    // Declare a huge body but never send it: the daemon must answer
    // 413 from the header alone.
    let raw = "POST /query HTTP/1.1\r\ncontent-length: 1048576\r\n\r\n";
    let out = raw_exchange(&addr, raw.as_bytes());
    assert!(out.starts_with("HTTP/1.1 413 "), "{out}");
    assert!(out.contains("256"), "limit should be named: {out}");
    handle.shutdown().unwrap();
}

#[test]
fn keep_alive_connection_serves_miss_then_hits() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let body = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    let first = client.request("POST", "/query", Some(body)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-banyan-cache"), Some("miss"));
    assert_eq!(first.header("x-banyan-source"), Some("analytic"));
    // Same connection, same canonical query in a different spelling:
    // query-string form, reordered fields, underscore alias.
    let second = client
        .request("GET", "/query?p=0.5&stages=6&k=2&mode=analytic", None)
        .unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-banyan-cache"), Some("hit"));
    assert_eq!(second.body, first.body, "cache must return the identical body");
    let third = client.request("POST", "/query", Some(body)).unwrap();
    assert_eq!(third.header("x-banyan-cache"), Some("hit"));
    // All three rode one TCP connection.
    let conns = handle
        .state()
        .telemetry()
        .registry()
        .counter_value("serve.http.connections_total")
        .unwrap_or(0);
    assert_eq!(conns, 1, "keep-alive must reuse the connection");
    handle.shutdown().unwrap();
}

#[test]
fn invalid_queries_get_clean_errors() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    // The CLI's hardened validation speaks through the daemon.
    for (body, needle) in [
        (r#"{"k": 2, "p": 1.5}"#, "must be a probability"),
        (r#"{"p": 0.3, "geometric_mu": 1.5}"#, "--geometric-mu must be in (0, 1]"),
        (r#"{"p": 0.1, "mix": "4:0.3,8:0.3"}"#, "must sum to 1"),
        (r#"{"p": 0.5, "m": 4}"#, "not < 1"),
        (r#"{"stage": 3}"#, "did you mean --stages?"),
        (r#"{"p": 0.5, "p": 0.6}"#, "duplicate"),
        ("not json", "JSON body"),
    ] {
        let resp = client.request("POST", "/query", Some(body)).unwrap();
        assert_eq!(resp.status, 400, "{body} -> {}", resp.body);
        assert!(resp.body.contains(needle), "{body} -> {}", resp.body);
    }
    handle.shutdown().unwrap();
}

#[test]
fn concurrent_clients_all_get_consistent_answers() {
    let handle = spawn(|cfg| cfg.workers = 4);
    let addr = handle.addr().to_string();
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let mut last = String::new();
                    for _ in 0..20 {
                        let resp = client
                            .request(
                                "POST",
                                "/query",
                                Some(r#"{"k": 4, "stages": 3, "p": 0.25, "mode": "analytic"}"#),
                            )
                            .unwrap();
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        last = resp.body;
                    }
                    last
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "all clients must see one canonical answer");
    }
    let reg = handle.state().telemetry().registry();
    let requests = reg.counter_value("serve.http.requests_total").unwrap();
    let responses = reg.counter_value("serve.http.responses_total").unwrap();
    let parse_errors = reg.counter_value("serve.http.parse_errors_total").unwrap_or(0);
    assert_eq!(responses, requests + parse_errors, "response ledger");
    let validated = reg.counter_value("serve.query.validated_total").unwrap();
    let hits = reg.counter_value("serve.cache.hits").unwrap();
    let misses = reg.counter_value("serve.cache.misses").unwrap();
    assert_eq!(validated, hits + misses, "cache ledger");
    handle.shutdown().unwrap();
}

#[test]
fn served_analytic_answer_is_bit_identical_to_the_library() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .request(
            "POST",
            "/query",
            Some(r#"{"k": 2, "stages": 6, "p": 0.5, "m": 1, "mode": "analytic"}"#),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = JsonValue::parse(&resp.body).expect("answer is valid JSON");
    // fmt_f64 renders shortest-round-trip and JsonValue reparses with
    // the correctly rounded f64 parser, so the served values must match
    // a direct library evaluation bit for bit.
    let t = TotalWaiting::new(2, 6, 0.5, 1);
    let checks = [
        ("wait", "mean", t.mean_total()),
        ("wait", "var", t.var_total()),
        ("wait", "p99", t.gamma().map(|g| g.quantile(0.99)).unwrap()),
        ("wait", "p999", t.gamma().map(|g| g.quantile(0.999)).unwrap()),
        ("delay", "mean", t.mean_total_delay()),
        ("delay", "p99", t.delay_quantile(0.99)),
    ];
    for (section, field, expect) in checks {
        let got = get_f64(&doc, section, field);
        assert_eq!(
            got.to_bits(),
            expect.to_bits(),
            "{section}.{field}: served {got} != library {expect}"
        );
    }
    handle.shutdown().unwrap();
}

#[test]
fn auto_mode_serves_analytic_when_drift_is_within_threshold() {
    // A generous KS threshold: the probe passes and the analytic answer
    // is served, stamped with the measured drift.
    let handle = spawn(|cfg| cfg.drift_threshold = 0.9);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .request("POST", "/query", Some(r#"{"k": 2, "stages": 3, "p": 0.5, "mode": "auto"}"#))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-banyan-source"), Some("analytic"));
    let doc = JsonValue::parse(&resp.body).unwrap();
    let ks = doc.get("drift_ks").and_then(JsonValue::as_f64).expect("drift_ks stamped");
    assert!(ks > 0.0 && ks <= 0.9, "ks = {ks}");
    assert_eq!(doc.get("source").and_then(JsonValue::as_str), Some("analytic"));
    handle.shutdown().unwrap();
}

#[test]
fn auto_mode_falls_back_to_simulation_when_drift_exceeds_threshold() {
    // An impossible KS threshold: any nonzero drift trips the gate and
    // the replicated simulator answers instead.
    let handle = spawn(|cfg| cfg.drift_threshold = 0.0);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .request("POST", "/query", Some(r#"{"k": 2, "stages": 3, "p": 0.5, "mode": "auto"}"#))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-banyan-source"), Some("simulation"));
    let doc = JsonValue::parse(&resp.body).unwrap();
    assert_eq!(doc.get("source").and_then(JsonValue::as_str), Some("simulation"));
    let ks = doc.get("drift_ks").and_then(JsonValue::as_f64).expect("drift_ks stamped");
    assert!(ks > 0.0, "fallback must record the measured drift, got {ks}");
    // The sim section records its provenance.
    let delivered = doc
        .get("sim")
        .and_then(|s| s.get("delivered"))
        .and_then(JsonValue::as_u64)
        .expect("sim.delivered");
    assert!(delivered > 0);
    let fallbacks = handle
        .state()
        .telemetry()
        .registry()
        .counter_value("serve.answer.sim_fallback_total")
        .unwrap_or(0);
    assert_eq!(fallbacks, 1, "gate must have tripped exactly once");
    handle.shutdown().unwrap();
}

#[test]
fn idle_keep_alive_connections_do_not_starve_new_ones() {
    // Regression: with `workers: 0` the pool used to size itself to
    // `available_parallelism`, i.e. a single worker on one-CPU hosts —
    // an idle keep-alive connection then pinned the daemon and every
    // new connection hung until the read timeout fired. The default
    // now floors the pool at 4 workers.
    let handle = spawn(|cfg| {
        cfg.workers = 0; // default sizing
        cfg.read_timeout_ms = 5_000; // starvation would cost seconds
    });
    let addr = handle.addr().to_string();
    // Three connections left idle mid-keep-alive, each pinning a worker.
    let mut idle = Vec::new();
    for _ in 0..3 {
        let mut c = Client::connect(&addr).unwrap();
        assert_eq!(c.request("GET", "/healthz", None).unwrap().status, 200);
        idle.push(c);
    }
    // A fresh connection must still be served promptly.
    let started = std::time::Instant::now();
    let mut fresh = Client::connect(&addr).unwrap();
    let resp = fresh.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "new connection starved for {:?}",
        started.elapsed()
    );
    drop(idle);
    drop(fresh);
    handle.shutdown().unwrap();
}

/// Parses exposition sample lines into `identity -> value`, where the
/// identity is the full `name{labels}` prefix of the line.
fn parse_samples(body: &str) -> std::collections::BTreeMap<String, f64> {
    body.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (id, v) = l.rsplit_once(' ').unwrap_or_else(|| panic!("bad sample line {l:?}"));
            (
                id.to_string(),
                v.parse::<f64>().unwrap_or_else(|_| panic!("bad sample value {l:?}")),
            )
        })
        .collect()
}

#[test]
fn metrics_endpoint_renders_prometheus_exposition() {
    let handle = spawn(|cfg| cfg.drift_poll_ms = 0);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let body = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    assert_eq!(client.request("POST", "/query", Some(body)).unwrap().status, 200);
    assert_eq!(client.request("POST", "/query", Some(body)).unwrap().status, 200);
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    let resp = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("text/plain; version=0.0.4"));
    for header in [
        "# TYPE serve_http_requests_total counter",
        "# TYPE serve_uptime_seconds gauge",
        "# TYPE serve_latency_us_query histogram",
        "# HELP serve_http_requests_total serve.http.requests_total",
    ] {
        assert!(resp.body.contains(header), "missing {header:?} in scrape");
    }
    let samples = parse_samples(&resp.body);
    assert!(samples["serve_http_requests_total"] >= 3.0);
    assert_eq!(samples["serve_cache_misses"], 1.0);
    assert_eq!(samples["serve_cache_hits"], 1.0);
    // Histogram structure: cumulative buckets capped by +Inf == _count,
    // with the explicit overflow counter at zero for loopback latencies.
    let count = samples["serve_latency_us_query_count"];
    assert!(count >= 2.0, "{count}");
    assert_eq!(samples["serve_latency_us_query_bucket{le=\"+Inf\"}"], count);
    assert_eq!(samples["serve_latency_us_query_overflow"], 0.0);
    assert!(samples["serve_latency_us_query_sum"] > 0.0);
    // The /query observations finished before this scrape, so the
    // rolling families cover the route; the scrape itself has not
    // finished and must not count itself.
    assert!(
        samples.contains_key("serve_rolling_latency_us{route=\"query\",window=\"10s\",quantile=\"p50\"}"),
        "rolling quantile family missing"
    );
    assert!(
        samples.contains_key("serve_rolling_requests_per_sec{route=\"query\",window=\"1s\"}"),
        "rolling rate family missing"
    );
    handle.shutdown().unwrap();
}

#[test]
fn metrics_counters_are_monotone_across_scrapes() {
    let handle = spawn(|cfg| cfg.drift_poll_ms = 0);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let query = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    let first = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    let second = client.request("GET", "/metrics", None).unwrap();
    // Families declared `counter` may only grow between scrapes, and
    // none may disappear.
    let counter_families: Vec<&str> = first
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" counter"))
        .collect();
    assert!(
        counter_families.contains(&"serve_http_requests_total"),
        "{counter_families:?}"
    );
    let (a, b) = (parse_samples(&first.body), parse_samples(&second.body));
    let mut checked = 0;
    for family in counter_families {
        for (id, &va) in a.range(family.to_string()..) {
            if !id.starts_with(family) {
                break;
            }
            let vb = *b
                .get(id)
                .unwrap_or_else(|| panic!("counter {id} vanished between scrapes"));
            assert!(vb >= va, "counter {id} went backwards: {va} -> {vb}");
            checked += 1;
        }
    }
    assert!(checked >= 5, "too few counter samples checked: {checked}");
    assert!(
        b["serve_http_requests_total"] > a["serve_http_requests_total"],
        "traffic between scrapes must show up"
    );
    handle.shutdown().unwrap();
}

#[test]
fn metrics_scrape_matches_the_golden_identity_set() {
    // A fixed request sequence against an ephemeral daemon must expose
    // exactly the committed set of families and sample identities —
    // metric renames, dropped instruments, or label changes all fail
    // here. Values vary run to run and are stripped; `# HELP`/`# TYPE`
    // lines and sample identities must match byte for byte.
    // Regenerate with: UPDATE_GOLDEN=1 cargo test --test serve golden
    let handle = spawn(|cfg| {
        cfg.drift_poll_ms = 0;
        cfg.workers = 2;
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let query = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    // First scrape is discarded so the `metrics` route itself has
    // rolling/histogram traffic in the golden scrape.
    assert_eq!(client.request("GET", "/metrics", None).unwrap().status, 200);
    let resp = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    let identities: String = resp
        .body
        .lines()
        .map(|l| {
            if l.starts_with('#') || l.is_empty() {
                l.to_string()
            } else {
                l.rsplit_once(' ').expect("sample line").0.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serve_metrics_scrape.txt"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &identities).expect("write golden");
    } else {
        let expect = std::fs::read_to_string(golden_path)
            .expect("golden scrape file (regenerate with UPDATE_GOLDEN=1)");
        assert_eq!(
            identities, expect,
            "scrape identity set changed; if intended, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test serve golden"
        );
    }
    handle.shutdown().unwrap();
}

#[test]
fn readyz_reflects_drift_health_in_both_directions() {
    // Healthy direction: a generous threshold keeps the probe inside
    // the gate, the drift tick leaves the flag clear, and /readyz says
    // ready.
    let handle = spawn(|cfg| {
        cfg.drift_threshold = 0.9;
        cfg.drift_poll_ms = 0;
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let query = r#"{"k": 2, "stages": 3, "p": 0.5, "mode": "analytic"}"#;
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    banyan_repro::serve::drift_tick(handle.state().as_ref());
    let state = handle.state();
    let reg = state.telemetry().registry();
    assert!(reg.counter_value("serve.drift.probes_total").unwrap_or(0) >= 1);
    assert_eq!(reg.gauge("serve.drift.degraded").get(), 0);
    let resp = client.request("GET", "/readyz", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"ready\""), "{}", resp.body);
    handle.shutdown().unwrap();

    // Degraded direction: an impossible threshold trips on any nonzero
    // probe drift and /readyz flips to 503 naming the failure.
    let handle = spawn(|cfg| {
        cfg.drift_threshold = 0.0;
        cfg.drift_poll_ms = 0;
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    banyan_repro::serve::drift_tick(handle.state().as_ref());
    assert_eq!(
        handle
            .state()
            .telemetry()
            .registry()
            .gauge("serve.drift.degraded")
            .get(),
        1
    );
    let resp = client.request("GET", "/readyz", None).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("not-ready"), "{}", resp.body);
    assert!(resp.body.contains("drift"), "{}", resp.body);
    handle.shutdown().unwrap();
}

#[test]
fn statusz_reports_rolling_quantiles_and_cache_state() {
    let handle = spawn(|cfg| cfg.drift_poll_ms = 0);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let query = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    let resp = client.request("GET", "/statusz", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = JsonValue::parse(&resp.body).expect("statusz JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("banyan-serve/statusz/v1")
    );
    assert!(get_f64(&doc, "workers", "active") >= 1.0);
    assert_eq!(get_f64(&doc, "cache", "entries"), 1.0);
    assert_eq!(get_f64(&doc, "cache", "hits"), 1.0);
    assert_eq!(get_f64(&doc, "cache", "misses"), 1.0);
    assert_eq!(get_f64(&doc, "cache", "hit_ratio"), 0.5);
    assert_eq!(get_f64(&doc, "drift", "degraded"), 0.0);
    assert_eq!(get_f64(&doc, "drift", "hot_keys"), 1.0);
    assert!(
        doc.get("uptime_secs").and_then(JsonValue::as_f64).expect("uptime_secs") >= 0.0
    );
    // Both finished /query observations are in the 10-second window
    // with positive microsecond quantiles, p50 <= p99.
    let query_10s = doc
        .get("routes")
        .and_then(|r| r.get("query"))
        .and_then(|q| q.get("10s"))
        .expect("routes.query.10s");
    let count = query_10s.get("count").and_then(JsonValue::as_u64).unwrap();
    assert_eq!(count, 2, "{}", resp.body);
    let p50 = query_10s.get("p50_us").and_then(JsonValue::as_f64).unwrap();
    let p99 = query_10s.get("p99_us").and_then(JsonValue::as_f64).unwrap();
    assert!(p50 > 0.0 && p50 <= p99, "p50 {p50} p99 {p99}");
    handle.shutdown().unwrap();
}

#[test]
fn access_log_records_each_route_and_samples_when_asked() {
    let log_path = std::env::temp_dir().join(format!(
        "banyan_serve_test_access_{}.jsonl",
        std::process::id()
    ));
    let handle = spawn(|cfg| {
        cfg.drift_poll_ms = 0;
        cfg.access_log = Some(log_path.display().to_string());
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let query = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    assert_eq!(client.request("POST", "/query", Some(query)).unwrap().status, 200);
    assert_eq!(client.request("GET", "/nope", None).unwrap().status, 404);
    // Stop over HTTP so the shutdown request itself lands in the log;
    // joining the handle afterwards flushes the staged lines.
    assert_eq!(client.request("POST", "/shutdown", None).unwrap().status, 200);
    drop(client);
    handle.shutdown().unwrap();
    let text = std::fs::read_to_string(&log_path).expect("access log");
    let _ = std::fs::remove_file(&log_path);
    let lines: Vec<JsonValue> = text
        .lines()
        .map(|l| JsonValue::parse(l).unwrap_or_else(|e| panic!("bad log line {l:?}: {e}")))
        .collect();
    // query miss, query hit, 404, then the shutdown request itself.
    assert_eq!(lines.len(), 4, "{text}");
    let field = |i: usize, key: &str| {
        lines[i]
            .get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| panic!("line {i} missing {key}: {text}"))
    };
    for line in &lines {
        assert_eq!(
            line.get("schema").and_then(JsonValue::as_str),
            Some("banyan-serve/access/v1")
        );
        assert!(line.get("us").and_then(JsonValue::as_u64).is_some());
        assert!(line.get("ts_ms").and_then(JsonValue::as_u64).is_some());
    }
    assert_eq!(field(0, "route"), "query");
    assert_eq!(field(0, "cache"), "miss");
    assert_eq!(field(0, "source"), "analytic");
    assert_eq!(field(1, "cache"), "hit");
    assert_eq!(field(2, "route"), "other");
    assert_eq!(lines[2].get("status").and_then(JsonValue::as_u64), Some(404));
    assert_eq!(field(3, "route"), "shutdown");

    // Sampled: a huge interval admits the first line and suppresses the
    // rest, counting what it dropped.
    let handle = spawn(|cfg| {
        cfg.drift_poll_ms = 0;
        cfg.access_log = Some(log_path.display().to_string());
        cfg.access_log_sample_ms = 600_000;
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..5 {
        assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    }
    let state = handle.state().clone();
    drop(client);
    handle.shutdown().unwrap();
    let text = std::fs::read_to_string(&log_path).expect("sampled access log");
    let _ = std::fs::remove_file(&log_path);
    assert_eq!(text.lines().count(), 1, "sampling must keep one line: {text}");
    let reg = state.telemetry().registry();
    assert_eq!(reg.counter_value("serve.accesslog.lines_total"), Some(1));
    assert!(reg.counter_value("serve.accesslog.suppressed_total").unwrap_or(0) >= 4);
}

#[test]
fn access_log_is_written_while_the_daemon_runs_without_drift_polling() {
    // With drift probing off, the monitor thread still flushes the
    // operations plane: every line reaches the file before shutdown,
    // and none is dropped for a full staging buffer.
    let log_path = std::env::temp_dir().join(format!(
        "banyan_serve_test_live_access_{}.jsonl",
        std::process::id()
    ));
    let handle = spawn(|cfg| {
        cfg.drift_poll_ms = 0;
        cfg.access_log = Some(log_path.display().to_string());
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    const N: usize = 300;
    for _ in 0..N {
        assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    }
    let waited = std::time::Instant::now();
    let lines = loop {
        let lines = std::fs::read_to_string(&log_path).map_or(0, |t| t.lines().count());
        if lines >= N || waited.elapsed() > std::time::Duration::from_secs(10) {
            break lines;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(lines, N, "access log lines before shutdown");
    let reg = handle.state().telemetry().registry();
    assert_eq!(reg.counter_value("serve.accesslog.lines_total"), Some(N as u64));
    assert_eq!(reg.counter_value("serve.accesslog.suppressed_total"), Some(0));
    drop(client);
    handle.shutdown().unwrap();
    let text = std::fs::read_to_string(&log_path).expect("access log");
    let _ = std::fs::remove_file(&log_path);
    assert_eq!(text.lines().count(), N, "shutdown adds no lines: {text}");
}

/// Networks the simulator cannot build used to panic a worker (the
/// `auto` drift probe) or the monitor thread (re-probing a hot
/// analytic key, which also stopped the access log), and the probe of
/// the `k = 4`, 12-stage network would have allocated about 8 GB. Each
/// body is answered or refused, and the daemon keeps its full strength.
#[test]
fn networks_the_simulator_cannot_build_are_refused_and_the_daemon_keeps_serving() {
    let log_path = std::env::temp_dir().join(format!(
        "banyan_serve_test_unbuildable_access_{}.jsonl",
        std::process::id()
    ));
    let handle = spawn(|cfg| {
        cfg.drift_poll_ms = 20;
        // Drift never flips /readyz here, so it reads only the workers.
        cfg.drift_threshold = 1.0;
        cfg.access_log = Some(log_path.display().to_string());
    });
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let bodies = [
        r#"{"k": 2, "stages": 17, "p": 0.5}"#,
        r#"{"k": 2, "stages": 17, "p": 0.5, "mode": "analytic"}"#,
        r#"{"k": 4, "stages": 12, "p": 0.5}"#,
    ];
    for body in bodies.iter().chain(&bodies) {
        let resp = client.request("POST", "/query", Some(body)).unwrap();
        assert!(resp.status == 200 || resp.status == 422, "{body}: {}", resp.body);
        if !body.contains("analytic") {
            assert_eq!(resp.status, 422, "{body}: {}", resp.body);
            assert!(resp.body.contains("cannot simulate"), "{}", resp.body);
        }
    }
    let line_count = || std::fs::read_to_string(&log_path).map_or(0, |t| t.lines().count());
    let wait_for_lines = |n: usize| {
        let waited = std::time::Instant::now();
        while line_count() < n && waited.elapsed() < std::time::Duration::from_secs(10) {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        line_count()
    };
    assert_eq!(wait_for_lines(6), 6, "access log before the monitor ticks");
    // Let the monitor re-probe its hot keys several times.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let valid = r#"{"k": 2, "stages": 6, "p": 0.5}"#;
    let resp = client.request("POST", "/query", Some(valid)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let mut fresh = Client::connect(&addr).unwrap();
    let ready = fresh.request("GET", "/readyz", None).unwrap();
    assert_eq!(ready.status, 200, "{}", ready.body);
    for _ in 0..20 {
        assert_eq!(fresh.request("GET", "/healthz", None).unwrap().status, 200);
    }
    assert_eq!(wait_for_lines(28), 28, "access log after the monitor ticks");
    drop((client, fresh));
    handle.shutdown().unwrap();
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn flow_endpoint_serves_cached_byte_identical_answers() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let qs = "topo=mesh&rows=2&cols=2&p=0.5";
    let first = client
        .request("GET", &format!("/v1/flow?{qs}"), None)
        .unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-banyan-cache"), Some("miss"));
    assert_eq!(first.header("x-banyan-source"), Some("flow-analytic"));
    // Same configuration as a JSON body in a different field order:
    // canonical cache key, so the second answer is the cached first.
    let body = r#"{"p": 0.50, "cols": 2, "rows": 2, "topo": "mesh"}"#;
    let second = client.request("POST", "/v1/flow", Some(body)).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("x-banyan-cache"), Some("hit"));
    assert_eq!(second.body, first.body, "cache must return the identical body");
    // The served body is byte-identical to an in-process render — the
    // same guarantee `banyan flow --json` rides on.
    let fq = FlowQuery::from_query_string(qs).unwrap();
    assert_eq!(first.body, flow_body(&fq).unwrap());
    let doc = JsonValue::parse(&first.body).expect("flow answer is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("banyan-serve/flow/v1")
    );
    assert_eq!(doc.get("flows").and_then(JsonValue::as_u64), Some(12));
    let per_flow = doc.get("per_flow").and_then(JsonValue::as_array).unwrap();
    assert_eq!(per_flow.len(), 12);
    handle.shutdown().unwrap();
}

/// A load so small that the gamma fit's `mean²/var` underflows used to
/// panic the worker (an empty reply, then a daemon that no longer
/// answered). It is a point mass at 0, and the daemon keeps serving.
#[test]
fn tiny_load_flow_query_is_answered_and_the_daemon_keeps_serving() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client.request("GET", "/v1/flow?topo=mesh&p=1e-300", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let fq = FlowQuery::from_query_string("topo=mesh&p=1e-300").unwrap();
    assert_eq!(resp.body, flow_body(&fq).unwrap());
    let mut fresh = Client::connect(&addr).unwrap();
    let ready = fresh.request("GET", "/readyz", None).unwrap();
    assert_eq!(ready.status, 200, "{}", ready.body);
    handle.shutdown().unwrap();
}

/// A first-stage query at a load of 1e-300 used to panic the worker in
/// `FirstStage::wait_quantile` ("quantile window blew up"); on a
/// one-worker daemon nothing else was answered after it. Every quantile
/// is 0, and the next request, on a fresh connection, is answered.
#[test]
fn tiny_load_first_stage_query_is_answered_and_the_daemon_keeps_serving() {
    let handle = spawn(|cfg| cfg.workers = 1);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let body = r#"{"k": 2, "stages": 1, "p": 1e-300, "geometric_mu": 0.5}"#;
    let resp = client.request("POST", "/query", Some(body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = JsonValue::parse(&resp.body).unwrap();
    for level in ["p50", "p90", "p99", "p999"] {
        assert_eq!(get_f64(&doc, "wait", level), 0.0, "{}", resp.body);
    }
    drop(client);
    let mut fresh = Client::connect(&addr).unwrap();
    let health = fresh.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    handle.shutdown().unwrap();
}

#[test]
fn invalid_flow_queries_get_clean_errors() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for (body, status, needle) in [
        // Validation errors are 400s with the CLI's diagnostics.
        (r#"{"topo": "torus"}"#, 400, "--topo"),
        (r#"{"topo": "omega", "rows": 2}"#, 400, "does not apply"),
        (r#"{"topo": "omega", "k": 2, "stages": 40}"#, 400, "terminals"),
        (r#"{"topo": "mesh", "stage": 3}"#, 400, "did you mean --stages?"),
        // A structurally valid but unstable load is the engine speaking:
        // 422, same split as /query.
        (r#"{"topo": "mesh", "rows": 2, "cols": 2, "p": 1.0}"#, 422, "overloaded"),
    ] {
        let resp = client.request("POST", "/v1/flow", Some(body)).unwrap();
        assert_eq!(resp.status, status, "{body} -> {}", resp.body);
        assert!(resp.body.contains(needle), "{body} -> {}", resp.body);
    }
    // Known path, wrong method.
    let resp = client.request("PUT", "/v1/flow", Some("{}")).unwrap();
    assert_eq!(resp.status, 405, "{}", resp.body);
    handle.shutdown().unwrap();
}

#[test]
fn batch_endpoint_answers_each_element_through_the_cache() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    // Two identical capacity queries (second must be a cache hit), one
    // bad element (reported in place, not fatal), one flow query.
    let body = r#"[
        {"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"},
        {"stages": 6, "k": 2, "mode": "analytic", "p": 0.50},
        {"k": 1},
        {"topo": "mesh", "rows": 2, "cols": 2, "p": 0.5}
    ]"#;
    let resp = client.request("POST", "/v1/batch", Some(body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = JsonValue::parse(&resp.body).expect("batch answer is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("banyan-serve/batch/v1")
    );
    assert_eq!(doc.get("count").and_then(JsonValue::as_u64), Some(4));
    let results = doc.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results.len(), 4);
    // Element answers are the same canonical bodies the scalar routes
    // serve (modulo the trailing newline trimmed for embedding).
    assert_eq!(
        results[0].get("schema").and_then(JsonValue::as_str),
        Some("banyan-serve/answer/v1")
    );
    assert_eq!(results[1], results[0], "identical queries share one answer");
    assert!(
        results[2]
            .get("error")
            .and_then(JsonValue::as_str)
            .is_some_and(|e| e.contains("--k")),
        "bad element must carry its error: {}",
        resp.body
    );
    assert_eq!(
        results[3].get("schema").and_then(JsonValue::as_str),
        Some("banyan-serve/flow/v1")
    );
    let reg = handle.state().telemetry().registry();
    assert_eq!(reg.counter_value("serve.batch.requests_total"), Some(1));
    assert_eq!(reg.counter_value("serve.batch.element_errors_total"), Some(1));
    // The shared-cache ledger: query + flow validated traffic balances
    // hits + misses exactly.
    let validated = reg.counter_value("serve.query.validated_total").unwrap_or(0)
        + reg.counter_value("serve.flow.validated_total").unwrap_or(0);
    let hits = reg.counter_value("serve.cache.hits").unwrap_or(0);
    let misses = reg.counter_value("serve.cache.misses").unwrap_or(0);
    assert_eq!(validated, hits + misses, "cache ledger");
    assert_eq!(hits, 1, "the duplicate query is the one hit");
    handle.shutdown().unwrap();
}

#[test]
fn malformed_batches_are_rejected_whole() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for (body, needle) in [
        (r#"{"k": 2}"#.to_string(), "array"),
        ("[]".to_string(), "empty"),
        ("not json".to_string(), "JSON"),
        // One element past the cap.
        (format!("[{}]", vec![r#"{"k": 2}"#; 257].join(",")), "256"),
    ] {
        let resp = client.request("POST", "/v1/batch", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "{} -> {}", &body[..body.len().min(40)], resp.body);
        assert!(resp.body.contains(needle), "{}", resp.body);
    }
    let resp = client.request("GET", "/v1/batch", None).unwrap();
    assert_eq!(resp.status, 405, "{}", resp.body);
    handle.shutdown().unwrap();
}

#[test]
fn shutdown_endpoint_stops_the_daemon() {
    let handle = spawn(|_| {});
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client.request("POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("shutting-down"), "{}", resp.body);
    drop(client);
    handle.shutdown().unwrap();
    // The port is free again: a fresh connect must fail or be refused
    // service rather than hang. (Connect may transiently succeed while
    // the OS drains the backlog; reading must then yield EOF.)
    if let Ok(mut s) = TcpStream::connect(&addr) {
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").ok();
        let mut buf = String::new();
        let n = s.read_to_string(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "daemon answered after shutdown: {buf}");
    }
}
