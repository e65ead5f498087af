//! Self-driving load client for the `banyan serve` capacity daemon.
//!
//! Spawns the daemon in-process on an ephemeral port, drives it over
//! real TCP connections with the same hand-rolled HTTP client the
//! integration tests use, and records `results/BENCH_serve.json`
//! (schema `banyan-bench/serve/v1`): queries/sec, p50/p90/p99 service
//! latency, and cache hit rate per phase. The daemon's own telemetry
//! (request counters, cache gauges, per-request span quantiles) lands
//! in `results/bench_serve.manifest.json`.
//!
//! Phases:
//! 1. `analytic_hot_1conn` — one keep-alive connection re-asking one
//!    configuration: the pure cache-hit hot path.
//! 2. `analytic_hot_8conn` — eight connections on the same hot
//!    configuration: contention on the cache and worker pool.
//! 3. `config_sweep` — cycling a 64-configuration grid: miss+hit mix
//!    with closed-form evaluation on every miss.
//! 4. `auto_drift_gated` — `mode=auto`: each new configuration pays a
//!    probe simulation for the KS drift gate, repeats hit the cache.
//! 5. `simulate_slow_path` — `mode=simulate`: replicated-simulation
//!    answers (the expensive fallback, small cycle budget).
//!
//! `--quick` shrinks request counts for smoke runs.

use banyan_bench::manifest::workspace_root;
use banyan_obs::json::JsonObject;
use banyan_obs::Manifest;
use banyan_repro::serve::http::Client;
use banyan_repro::serve::{ServeConfig, ServerHandle, ServerState};
use std::sync::Arc;
use std::time::Instant;

/// One measured phase.
struct Row {
    name: &'static str,
    clients: usize,
    requests: u64,
    errors: u64,
    wall_secs: f64,
    latencies_ns: Vec<u64>,
    cache_hits: u64,
    cache_misses: u64,
}

impl Row {
    fn qps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.requests as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn latency_us(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let mut xs = self.latencies_ns.clone();
        xs.sort_unstable();
        let idx = ((xs.len() - 1) as f64 * q).round() as usize;
        xs[idx] as f64 / 1_000.0
    }

    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("name", self.name)
            .field_u64("clients", self.clients as u64)
            .field_u64("requests", self.requests)
            .field_u64("errors", self.errors)
            .field_f64("wall_secs", self.wall_secs)
            .field_f64("qps", self.qps())
            .field_f64("p50_us", self.latency_us(0.50))
            .field_f64("p90_us", self.latency_us(0.90))
            .field_f64("p99_us", self.latency_us(0.99))
            .field_u64("cache_hits", self.cache_hits)
            .field_u64("cache_misses", self.cache_misses)
            .field_f64("hit_rate", self.hit_rate());
        o.finish()
    }
}

fn counter(state: &ServerState, name: &str) -> u64 {
    state.telemetry().registry().counter_value(name).unwrap_or(0)
}

/// Drives `clients` keep-alive connections for `requests_per_client`
/// POST /query requests each, timing every request.
fn run_phase(
    addr: &str,
    state: &ServerState,
    name: &'static str,
    clients: usize,
    requests_per_client: usize,
    body_for: &(dyn Fn(usize, usize) -> String + Sync),
) -> Row {
    let hits0 = counter(state, "serve.cache.hits");
    let misses0 = counter(state, "serve.cache.misses");
    let started = Instant::now();
    let outcomes: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to daemon");
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    let mut errors = 0u64;
                    for r in 0..requests_per_client {
                        let body = body_for(c, r);
                        let t0 = Instant::now();
                        match client.request("POST", "/query", Some(&body)) {
                            Ok(resp) if resp.status == 200 => {
                                latencies.push(t0.elapsed().as_nanos() as u64);
                            }
                            _ => errors += 1,
                        }
                    }
                    (latencies, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut latencies_ns = Vec::new();
    let mut errors = 0;
    for (lat, err) in outcomes {
        latencies_ns.extend(lat);
        errors += err;
    }
    let row = Row {
        name,
        clients,
        requests: (clients * requests_per_client) as u64,
        errors,
        wall_secs,
        latencies_ns,
        cache_hits: counter(state, "serve.cache.hits") - hits0,
        cache_misses: counter(state, "serve.cache.misses") - misses0,
    };
    eprintln!(
        "{name}: {} req over {:.2}s = {:.0} qps, p50 {:.0}us p99 {:.0}us, hit rate {:.3}, {} errors",
        row.requests,
        row.wall_secs,
        row.qps(),
        row.latency_us(0.50),
        row.latency_us(0.99),
        row.hit_rate(),
        row.errors,
    );
    row
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (hot_requests, sweep_rounds, auto_repeats) = if quick { (300, 2, 3) } else { (4_000, 6, 5) };

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        probe_cycles: 500,
        probe_reps: 2,
        sim_cycles: if quick { 1_000 } else { 4_000 },
        sim_reps: 2,
        // No background drift re-probes: phase timings stay pure load.
        drift_poll_ms: 0,
        ..ServeConfig::default()
    };
    let handle = ServerHandle::spawn(cfg.clone()).expect("spawn daemon");
    let addr = handle.addr().to_string();
    let state: Arc<ServerState> = Arc::clone(handle.state());
    eprintln!("bench_serve driving daemon at {addr} (quick={quick})");

    // Sanity: the daemon answers over the wire before any timing runs.
    let mut probe = Client::connect(&addr).expect("connect");
    let resp = probe.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(resp.status, 200, "healthz failed: {}", resp.body);
    let resp = probe.request("GET", "/metrics", None).expect("metrics");
    assert_eq!(resp.status, 200, "metrics failed: {}", resp.body);
    drop(probe);

    let hot = r#"{"k": 2, "stages": 6, "p": 0.5, "m": 1, "mode": "analytic"}"#.to_string();
    let started = Instant::now();
    let mut phases: Vec<(String, f64)> = Vec::new();
    let mut rows = Vec::new();

    let t0 = Instant::now();
    rows.push(run_phase(&addr, &state, "analytic_hot_1conn", 1, hot_requests, &|_, _| {
        hot.clone()
    }));
    phases.push(("analytic_hot_1conn".to_string(), t0.elapsed().as_secs_f64()));

    // Rolling-window agreement: right after the single-connection hot
    // phase (before other phases pollute the windows), the daemon's own
    // 10s-window quantiles for the query route must track the
    // client-measured latencies. The server timer excludes the loopback
    // round trip and channel queueing, so the band is directional — the
    // server quantile sits at or below the client's, never far above.
    let t0 = Instant::now();
    let mut probe = Client::connect(&addr).expect("connect");
    let resp = probe.request("GET", "/statusz", None).expect("statusz");
    assert_eq!(resp.status, 200, "statusz failed: {}", resp.body);
    let doc = banyan_obs::json::JsonValue::parse(&resp.body).expect("statusz parses");
    let win = doc
        .get("routes")
        .and_then(|r| r.get("query"))
        .and_then(|q| q.get("10s"))
        .expect("statusz carries a 10s rolling window for /query");
    let get_f64 = |key: &str| {
        win.get(key)
            .and_then(banyan_obs::json::JsonValue::as_f64)
            .unwrap_or_else(|| panic!("statusz 10s window missing {key}"))
    };
    let srv_p50 = get_f64("p50_us");
    let srv_p99 = get_f64("p99_us");
    let cli_p50 = rows[0].latency_us(0.50);
    let cli_p99 = rows[0].latency_us(0.99);
    assert!(get_f64("qps") > 0.0, "10s window saw no traffic");
    assert!(
        srv_p50 > 0.0 && srv_p50 <= cli_p50 * 2.0 + 200.0,
        "server p50 {srv_p50:.0}us disagrees with client p50 {cli_p50:.0}us"
    );
    assert!(
        srv_p99 <= cli_p99 * 3.0 + 1_000.0,
        "server p99 {srv_p99:.0}us disagrees with client p99 {cli_p99:.0}us"
    );
    eprintln!(
        "statusz agreement: server p50 {srv_p50:.0}us / p99 {srv_p99:.0}us vs \
         client p50 {cli_p50:.0}us / p99 {cli_p99:.0}us"
    );
    drop(probe);
    phases.push(("statusz_scrape".to_string(), t0.elapsed().as_secs_f64()));

    let t0 = Instant::now();
    rows.push(run_phase(
        &addr,
        &state,
        "analytic_hot_8conn",
        8,
        hot_requests / 4,
        &|_, _| hot.clone(),
    ));
    phases.push(("analytic_hot_8conn".to_string(), t0.elapsed().as_secs_f64()));

    // 64 distinct stable configurations: p grid x k in {2,4} x n in {3,6}.
    let sweep_body = |c: usize, r: usize| {
        let i = (c * 977 + r) % 64;
        let p = 0.05 + 0.045 * (i % 16) as f64;
        let k = if (i / 16).is_multiple_of(2) { 2 } else { 4 };
        let stages = if i / 32 == 0 { 3 } else { 6 };
        format!(r#"{{"k": {k}, "stages": {stages}, "p": {p}, "mode": "analytic"}}"#)
    };
    let t0 = Instant::now();
    rows.push(run_phase(
        &addr,
        &state,
        "config_sweep",
        4,
        64 * sweep_rounds / 4,
        &sweep_body,
    ));
    phases.push(("config_sweep".to_string(), t0.elapsed().as_secs_f64()));

    // Auto mode: 4 configurations, each probed once for drift then
    // cached; repeats measure the gated hot path.
    let auto_body = |c: usize, r: usize| {
        let i = (c + r) % 4;
        let p = 0.2 + 0.15 * i as f64;
        format!(r#"{{"k": 2, "stages": 6, "p": {p}, "mode": "auto"}}"#)
    };
    let t0 = Instant::now();
    rows.push(run_phase(&addr, &state, "auto_drift_gated", 2, 2 * auto_repeats, &auto_body));
    phases.push(("auto_drift_gated".to_string(), t0.elapsed().as_secs_f64()));

    // Forced simulation: the expensive slow path, two configurations.
    let sim_body = |c: usize, r: usize| {
        let p = if (c + r).is_multiple_of(2) { 0.3 } else { 0.6 };
        format!(r#"{{"k": 2, "stages": 4, "p": {p}, "mode": "simulate"}}"#)
    };
    let t0 = Instant::now();
    rows.push(run_phase(&addr, &state, "simulate_slow_path", 2, 4, &sim_body));
    phases.push(("simulate_slow_path".to_string(), t0.elapsed().as_secs_f64()));

    let total_errors: u64 = rows.iter().map(|r| r.errors).sum();
    assert_eq!(total_errors, 0, "load client saw {total_errors} errors");

    // results/BENCH_serve.json
    let mut o = JsonObject::new();
    o.field_str("schema", "banyan-bench/serve/v1")
        .field_str("suite", "serve")
        .field_str("mode", if quick { "quick" } else { "full" });
    let mut server = JsonObject::new();
    server
        .field_u64("workers", cfg.workers as u64)
        .field_u64("cache_cap", cfg.cache_cap as u64)
        .field_f64("drift_threshold", cfg.drift_threshold)
        .field_u64("probe_cycles", cfg.probe_cycles)
        .field_u64("sim_cycles", cfg.sim_cycles);
    o.field_raw("server", &server.finish());
    let mut statusz = JsonObject::new();
    statusz
        .field_f64("rolling_10s_p50_us", srv_p50)
        .field_f64("rolling_10s_p99_us", srv_p99)
        .field_f64("client_p50_us", cli_p50)
        .field_f64("client_p99_us", cli_p99);
    o.field_raw("statusz_agreement", &statusz.finish());
    let row_json: Vec<String> = rows.iter().map(Row::to_json).collect();
    o.field_raw("rows", &format!("[{}]", row_json.join(", ")));
    let mut json = o.finish_pretty(2);
    json.push('\n');
    let results = workspace_root().join("results");
    std::fs::create_dir_all(&results).expect("create results/");
    let bench_path = results.join("BENCH_serve.json");
    std::fs::write(&bench_path, json).expect("write BENCH_serve.json");
    eprintln!("wrote {}", bench_path.display());

    handle.shutdown().expect("clean daemon shutdown");

    // The daemon's manifest: serve.* counters, cache gauges, and the
    // per-request span quantiles (p50/p99 service latency as the server
    // itself measured it).
    let mut m = Manifest::new("bench_serve");
    m.config("addr", &addr)
        .config("quick", quick)
        .config("workers", cfg.workers)
        .config("cache_cap", cfg.cache_cap)
        .config("drift_threshold", cfg.drift_threshold)
        .config("probe_cycles", cfg.probe_cycles)
        .config("sim_cycles", cfg.sim_cycles)
        .seed("base", cfg.seed)
        .artifact("results/BENCH_serve.json");
    for (label, secs) in &phases {
        m.phase(label, *secs);
    }
    m.phase("total", started.elapsed().as_secs_f64());
    let manifest_path = results.join("bench_serve.manifest.json");
    let written = m
        .write(&manifest_path, Some(state.telemetry()))
        .expect("write bench_serve manifest");
    eprintln!("wrote {}", written.display());
}
