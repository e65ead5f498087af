//! Telemetry overhead guard: a disabled `Telemetry` or tracer keeps the
//! simulator on its uninstrumented hot path, enabled observers stay
//! within their envelope, and no observer changes a result.
//!
//! Every ratio is one paired comparison ([`banyan_bench::paired`]):
//! 300 passes of ~30 ms legs in rotating order, gated on the median
//! per-pass ratio.
//!
//! 1. `network_k2_n6_p05_m1`: plain `run_network` against telemetry off
//!    (hot-path budget) and on (enabled envelope); bit-identical stats,
//!    and the enabled run's wait sketches equal the stage pmfs.
//! 2. Two replications: the sweep engine against the scalar engine (the
//!    hot-path budget: the sweep exists to be faster), and the sweep with
//!    telemetry on against off; bit-identical merged stats. (The JSON
//!    keeps the `lanes_*` names so recorded results stay comparable.)
//! 3. The runner with `tracer = None` (`TRACE = false`) against the same
//!    `run_network` loop on one scoped worker thread, as the runner runs
//!    its work, so the gate prices `TRACE = false` and not the thread; a
//!    1% tracer within the enabled envelope; a rate-1.0 tracer records
//!    every delivery and changes no statistic. The loop on the main
//!    thread is recorded, ungated, so the thread's cost stays visible.
//! 4. Serve operations plane: keep-alive batches against a fresh daemon
//!    per leg and pass, ops off against fully instrumented (serve
//!    budget), with byte-identical `/query` bodies.
//!
//! Writes `results/BENCH_overhead_guard.json` with every ratio's median,
//! 95% interval and wins, then asserts the budgets.

use banyan_bench::manifest::workspace_root;
use banyan_bench::paired::{run_passes, Ratio, GATE_PASSES};
use banyan_obs::json::JsonObject;
use banyan_obs::msgtrace::MsgTracer;
use banyan_obs::{Telemetry, TelemetryConfig};
use banyan_repro::serve::http::Client;
use banyan_repro::serve::{ServeConfig, ServerHandle};
use banyan_sim::network::{run_network, NetworkConfig, NetworkSim};
use banyan_sim::traffic::Workload;
use banyan_sim::{
    run_network_replicated_traced, run_network_replicated_with_engine, ReplicationEngine,
};
use std::time::Instant;

/// A leg that times `run` and checks that it delivered `expect`
/// messages, so no pass can time a run that went wrong.
fn leg(expect: u64, mut run: impl FnMut() -> u64) -> impl FnMut() -> f64 {
    move || {
        let t0 = Instant::now();
        let delivered = run();
        let span = t0.elapsed().as_secs_f64();
        assert_eq!(delivered, expect, "a timed leg changed its result");
        span
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick runs the same legs for a few passes and relaxes the budgets,
    // to smoke-test the code paths.
    let (passes, off_max, on_max) = if quick {
        (6, 1.10, 1.60)
    } else {
        (GATE_PASSES, 1.02, 1.35)
    };
    let mk = || NetworkConfig {
        warmup_cycles: 100,
        measure_cycles: 3_000,
        ..NetworkConfig::new(2, 6, Workload::uniform(0.5, 1))
    };
    // (name, paired ratio, budget); an infinite budget only records.
    let mut gates: Vec<(&str, Ratio, f64)> = Vec::new();
    let mut gate = |name, measured: &[f64], reference: &[f64], budget| {
        gates.push((name, Ratio::paired(measured, reference), budget));
    };

    // Correctness first: telemetry must never perturb the statistics.
    let plain_stats = run_network(mk());
    let off_stats = NetworkSim::new(mk()).run_instrumented(&Telemetry::off());
    let tel_on = Telemetry::new(TelemetryConfig::on());
    let on_stats = NetworkSim::new(mk()).run_instrumented(&tel_on);
    assert_eq!(off_stats, plain_stats, "off vs plain");
    assert_eq!(on_stats, plain_stats, "on vs plain");
    let delivered = plain_stats.delivered;
    eprintln!("bit-identity: ok ({delivered} messages delivered)");

    // The enabled path must also have captured exact per-stage wait
    // sketches: the very pmfs the returned statistics carry.
    for (i, st) in on_stats.stage_waits.iter().enumerate() {
        let name = format!("net.wait.stage{:02}", i + 1);
        let sk = tel_on
            .sketches()
            .get(&name)
            .unwrap_or_else(|| panic!("missing sketch {name}"));
        assert_eq!(&sk, st, "{name}: sketch vs stage pmf");
    }
    let total_sk = tel_on
        .sketches()
        .get("net.wait.total")
        .expect("total sketch");
    assert_eq!(total_sk.total(), delivered, "total sketch vs delivered");
    eprintln!(
        "sketches: ok ({} stage pmfs + total, {} messages each)",
        on_stats.stage_waits.len(),
        total_sk.total()
    );

    let off = Telemetry::off();
    let spans = run_passes(
        passes,
        &mut [
            &mut leg(delivered, || run_network(mk()).delivered),
            &mut leg(delivered, || {
                NetworkSim::new(mk()).run_instrumented(&off).delivered
            }),
            &mut leg(delivered, || {
                let on = Telemetry::new(TelemetryConfig::on());
                NetworkSim::new(mk()).run_instrumented(&on).delivered
            }),
        ],
    );
    gate("off_over_plain", &spans[1], &spans[0], off_max);
    gate("on_over_plain", &spans[2], &spans[0], on_max);

    // Replicated stage sweep: same purity contract, one level up.
    let lane_reps = 2u32;
    let replicated = |tel: &Telemetry, engine: ReplicationEngine| {
        run_network_replicated_with_engine(&mk(), lane_reps, 1, tel, engine)
    };
    let scalar_stats = replicated(&off, ReplicationEngine::Scalar);
    let lane_stats = replicated(&off, ReplicationEngine::Sweep);
    let lane_on_stats = replicated(
        &Telemetry::new(TelemetryConfig::on()),
        ReplicationEngine::Sweep,
    );
    assert_eq!(lane_stats, scalar_stats, "sweep vs scalar");
    assert_eq!(lane_on_stats, lane_stats, "sweep-on vs sweep-off");
    let lane_delivered = lane_stats.delivered;
    eprintln!(
        "sweep engine bit-identity: ok ({lane_reps} replications, {lane_delivered} messages delivered)"
    );
    let spans = run_passes(
        passes,
        &mut [
            &mut leg(lane_delivered, || {
                replicated(&off, ReplicationEngine::Scalar).delivered
            }),
            &mut leg(lane_delivered, || {
                replicated(&off, ReplicationEngine::Sweep).delivered
            }),
            &mut leg(lane_delivered, || {
                let on = Telemetry::new(TelemetryConfig::on());
                replicated(&on, ReplicationEngine::Sweep).delivered
            }),
        ],
    );
    gate("lanes_over_scalar", &spans[1], &spans[0], off_max);
    gate("lanes_on_over_lanes_off", &spans[2], &spans[1], on_max);

    // Message tracer on one replication. Correctness: a full-rate
    // tracer observes everything and perturbs nothing — statistics
    // bit-identical, one record per delivery, and every record's stage
    // waits sum to its total.
    let traced_run = |tracer: Option<&MsgTracer>| {
        run_network_replicated_traced(&mk(), 1, 1, &off, ReplicationEngine::Scalar, tracer)
    };
    let untraced = traced_run(None);
    let full_tracer = MsgTracer::new(1.0);
    let traced = traced_run(Some(&full_tracer));
    assert_eq!(traced, untraced, "traced vs untraced");
    let records = full_tracer.finish();
    assert_eq!(
        records.len() as u64,
        traced.delivered,
        "rate-1.0 tracer: one record per delivered message"
    );
    for r in &records {
        assert_eq!(
            r.waits.iter().map(|&w| u64::from(w)).sum::<u64>(),
            r.total_wait(),
            "record stage waits must sum to the total"
        );
    }
    eprintln!("msgtrace bit-identity: ok ({} records)", records.len());
    let plain_loop = || run_network(mk()).delivered;
    let trace_delivered = untraced.delivered;
    let spans = run_passes(
        passes,
        &mut [
            &mut leg(trace_delivered, plain_loop),
            &mut leg(trace_delivered, || {
                std::thread::scope(|s| s.spawn(plain_loop).join().expect("reference worker"))
            }),
            &mut leg(trace_delivered, || traced_run(None).delivered),
            &mut leg(trace_delivered, || {
                traced_run(Some(&MsgTracer::new(0.01))).delivered
            }),
        ],
    );
    gate("msgtrace_off_over_threaded", &spans[2], &spans[1], off_max);
    gate("msgtrace_on_over_threaded", &spans[3], &spans[1], on_max);
    gate(
        "msgtrace_off_over_main_thread",
        &spans[2],
        &spans[0],
        f64::INFINITY,
    );

    // Operations plane: a loopback request is ~20 µs of syscalls and
    // wakeups whose cost depends on the cores the kernel parks worker and
    // client on, so each leg spawns a fresh daemon and connection every
    // pass and times only the warmed batch. Short batches pair best: in
    // a probe, 300 passes of 1 000 requests gave intervals two to three
    // times wider than 600 passes of 100.
    let (serve_passes, serve_reqs, serve_max) = if quick {
        (4usize, 150usize, 1.25)
    } else {
        (600, 100, 1.02)
    };
    let log_path = std::env::temp_dir().join(format!(
        "overhead_guard_access_{}.jsonl",
        std::process::id()
    ));
    let hot = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    let spawn_daemon = |instrumented: bool| {
        ServerHandle::spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            drift_poll_ms: 0,
            rolling: instrumented,
            access_log: instrumented.then(|| log_path.display().to_string()),
            ..ServeConfig::default()
        })
        .expect("spawn daemon")
    };
    let query = |c: &mut Client| {
        let resp = c.request("POST", "/query", Some(hot)).expect("query");
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.body
    };
    let (off_daemon, on_daemon) = (spawn_daemon(false), spawn_daemon(true));
    let body_of =
        |d: &ServerHandle| query(&mut Client::connect(&d.addr().to_string()).expect("connect"));
    assert_eq!(
        body_of(&off_daemon),
        body_of(&on_daemon),
        "ops plane changed a /query body"
    );
    off_daemon.shutdown().expect("ops-off daemon shutdown");
    on_daemon.shutdown().expect("ops-on daemon shutdown");
    let batch = |instrumented: bool| {
        let daemon = spawn_daemon(instrumented);
        let mut c = Client::connect(&daemon.addr().to_string()).expect("connect batch client");
        // Warm the fresh connection: the first requests pay TCP setup,
        // the answer-cache fill, and a cold worker wakeup that the timed
        // window should not.
        for _ in 0..8 {
            query(&mut c);
        }
        let t0 = Instant::now();
        for _ in 0..serve_reqs {
            query(&mut c);
        }
        let span = t0.elapsed().as_secs_f64();
        // Close first: shutdown joins the worker serving this connection.
        drop(c);
        daemon.shutdown().expect("daemon shutdown");
        span
    };
    let spans = run_passes(
        serve_passes,
        &mut [&mut || batch(false), &mut || batch(true)],
    );
    gate("serve_on_over_off", &spans[1], &spans[0], serve_max);
    let access_log = std::fs::read_to_string(&log_path).expect("read access log");
    assert!(
        access_log.contains("banyan-serve/access/v1"),
        "instrumented daemon wrote no access-log lines"
    );
    let _ = std::fs::remove_file(&log_path);

    let mut o = JsonObject::new();
    o.field_str("suite", "overhead_guard")
        .field_str("config", "network_k2_n6_p05_m1")
        .field_u64("passes", passes as u64)
        .field_f64("off_budget", off_max)
        .field_f64("on_budget", on_max)
        .field_u64("lane_reps", u64::from(lane_reps))
        .field_u64("serve_batch_requests", serve_reqs as u64)
        .field_f64("serve_budget", serve_max);
    for (name, ratio, budget) in &gates {
        ratio.record(&mut o, name);
        let budget = budget.is_finite().then(|| format!("budget {budget}x"));
        eprintln!(
            "{name:<30} {ratio} ({})",
            budget.as_deref().unwrap_or("ungated")
        );
    }
    let json = format!("{}\n", o.finish_pretty(2));
    let results = workspace_root().join("results");
    std::fs::create_dir_all(&results).expect("create results/");
    let path = results.join("BENCH_overhead_guard.json");
    std::fs::write(&path, json).expect("write overhead guard json");
    eprintln!("wrote {}", path.display());

    let failed: Vec<String> = gates
        .iter()
        .filter(|(_, ratio, budget)| ratio.median > *budget)
        .map(|(name, ratio, budget)| format!("{name} {ratio} exceeds budget {budget}x"))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    println!("overhead guard: every gate within budget -- ok");
}
