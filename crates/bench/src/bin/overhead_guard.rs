//! Telemetry overhead guard: the contract check that a disabled
//! `Telemetry` keeps the network simulator on its uninstrumented hot
//! path, and that enabled telemetry stays within a bounded envelope.
//!
//! Three variants of the `network_k2_n10_p05_m1` microbench config
//! (`--quick`: n = 6) run in interleaved samples so slow drift hits all
//! of them equally:
//!
//! * `plain` — `run_network` (no telemetry anywhere in sight),
//! * `off`   — `run_instrumented(&Telemetry::off())`,
//! * `on`    — `run_instrumented` with metrics + occupancy sampling.
//!
//! Asserts the off/plain median ratio is within the hot-path budget
//! (2% at full scale), the on/plain ratio within the enabled envelope,
//! and that all three produce bit-identical statistics.
//!
//! A second section guards the replicated stage-sweep engine the same
//! way: scalar-engine and sweep-engine runs of the same replicated
//! config (interleaved, telemetry off) must merge to bit-identical
//! statistics with the sweep no slower than scalar beyond the off
//! budget, and enabling telemetry on the sweep must stay within the
//! enabled envelope while changing nothing. (The JSON fields keep their
//! `lanes_*` names so recorded results stay comparable.)
//!
//! A third section guards the message tracer: the replicated runner
//! with tracing disabled (`tracer = None` — the `TRACE = false`
//! monomorphization) must stay within the hot-path budget of a plain
//! per-replication `run_network` loop, a tracer at a realistic
//! sampling rate must stay within the enabled envelope, and a
//! rate-1.0 tracer must capture exactly one record per delivered
//! message while changing no statistic.
//!
//! A fourth section guards the serve operations plane: interleaved
//! keep-alive request batches against two in-process daemons — ops off
//! (no rolling windows, no access log) vs fully instrumented — must
//! stay within the serve budget (2% at full scale) with byte-identical
//! `/query` bodies. Writes `results/BENCH_overhead_guard.json`.

use banyan_obs::json::JsonObject;
use banyan_obs::{Telemetry, TelemetryConfig};
use banyan_repro::serve::http::Client;
use banyan_repro::serve::{ServeConfig, ServerHandle};
use banyan_sim::network::{run_network, NetworkConfig, NetworkSim};
use banyan_sim::traffic::Workload;
use banyan_sim::{run_network_replicated_with_engine, ReplicationEngine};
use std::time::Instant;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Full scale matches the bench_simulator `network_k2_n10_p05_m1`
    // config so the guard speaks to the recorded baseline medians; quick
    // shrinks the network and sample count, and relaxes the thresholds
    // (short runs are noisier), to smoke-test the same code path.
    // 17 samples (was 11): on a single-core box the harness and kernel
    // steal whole scheduling quanta, and an 11-sample median of ~0.8 s
    // passes let a 2–3 % swing through — over budget for a gate whose
    // off-vs-plain legs run the very same monomorphized loop. Widening
    // the median (not the budgets) absorbs it.
    let (stages, samples, off_budget, on_budget) = if quick {
        (6u32, 5usize, 1.10, 1.60)
    } else {
        (10, 17, 1.02, 1.35)
    };
    let mk = || NetworkConfig {
        warmup_cycles: 100,
        measure_cycles: 3_000,
        ..NetworkConfig::new(2, stages, Workload::uniform(0.5, 1))
    };

    // Correctness first: telemetry must never perturb the statistics.
    let plain_stats = run_network(mk());
    let off_stats = NetworkSim::new(mk()).run_instrumented(&Telemetry::off());
    let tel_on = Telemetry::new(TelemetryConfig::on());
    let on_stats = NetworkSim::new(mk()).run_instrumented(&tel_on);
    assert_eq!(off_stats, plain_stats, "off vs plain");
    assert_eq!(on_stats, plain_stats, "on vs plain");
    eprintln!(
        "bit-identity: ok ({} messages delivered)",
        plain_stats.delivered
    );

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
    assert_eq!(
        total_sk.total(),
        on_stats.delivered,
        "total sketch vs delivered"
    );
    eprintln!(
        "sketches: ok ({} stage pmfs + total, {} messages each)",
        on_stats.stage_waits.len(),
        total_sk.total()
    );

    // One untimed warmup pass per variant, then interleaved samples.
    let mut t_plain = Vec::with_capacity(samples);
    let mut t_off = Vec::with_capacity(samples);
    let mut t_on = Vec::with_capacity(samples);
    let off = Telemetry::off();
    for pass in 0..=samples {
        let t0 = Instant::now();
        let a = run_network(mk());
        let d_plain = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let b = NetworkSim::new(mk()).run_instrumented(&off);
        let d_off = t0.elapsed().as_secs_f64();
        let on = Telemetry::new(TelemetryConfig::on());
        let t0 = Instant::now();
        let c = NetworkSim::new(mk()).run_instrumented(&on);
        let d_on = t0.elapsed().as_secs_f64();
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.delivered, c.delivered);
        if pass > 0 {
            t_plain.push(d_plain);
            t_off.push(d_off);
            t_on.push(d_on);
        }
    }
    let m_plain = median(&mut t_plain);
    let m_off = median(&mut t_off);
    let m_on = median(&mut t_on);
    let off_ratio = m_off / m_plain;
    let on_ratio = m_on / m_plain;
    eprintln!(
        "plain {:.3} ms | off {:.3} ms ({:.3}x) | on {:.3} ms ({:.3}x)",
        m_plain * 1e3,
        m_off * 1e3,
        off_ratio,
        m_on * 1e3,
        on_ratio
    );

    // Replicated stage sweep: same purity contract, one level up. The
    // scalar and sweep engines must merge to bit-identical statistics,
    // the sweep must never be slower than scalar beyond the off budget
    // (it exists to be faster), and telemetry on the sweep must stay a
    // pure observer within the enabled envelope.
    // 15 samples: the ~1.29x typical telemetry-on ratio sits ~5% under
    // its 1.35x envelope, and a 9-sample median still let a single-core
    // scheduling spike land it at 1.352x; widening the median keeps the
    // gate honest without loosening the envelope.
    let (lane_reps, lane_samples) = if quick { (4u32, 3usize) } else { (8, 15) };
    let lane_mk = || NetworkConfig {
        warmup_cycles: 100,
        measure_cycles: 3_000,
        ..NetworkConfig::new(2, 6, Workload::uniform(0.5, 1))
    };
    let lane_engine = ReplicationEngine::Sweep;
    let scalar_stats = run_network_replicated_with_engine(
        &lane_mk(),
        lane_reps,
        1,
        &Telemetry::off(),
        ReplicationEngine::Scalar,
    );
    let lane_stats = run_network_replicated_with_engine(
        &lane_mk(),
        lane_reps,
        1,
        &Telemetry::off(),
        lane_engine,
    );
    let lane_tel_on = Telemetry::new(TelemetryConfig::on());
    let lane_on_stats =
        run_network_replicated_with_engine(&lane_mk(), lane_reps, 1, &lane_tel_on, lane_engine);
    assert_eq!(lane_stats, scalar_stats, "sweep vs scalar");
    assert_eq!(lane_on_stats, lane_stats, "sweep-on vs sweep-off");
    eprintln!(
        "sweep engine bit-identity: ok ({lane_reps} replications, {} messages delivered)",
        lane_stats.delivered
    );

    let mut t_scalar = Vec::with_capacity(lane_samples);
    let mut t_lanes = Vec::with_capacity(lane_samples);
    let mut t_lanes_on = Vec::with_capacity(lane_samples);
    for pass in 0..=lane_samples {
        let t0 = Instant::now();
        let a = run_network_replicated_with_engine(
            &lane_mk(),
            lane_reps,
            1,
            &off,
            ReplicationEngine::Scalar,
        );
        let d_scalar = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let b = run_network_replicated_with_engine(&lane_mk(), lane_reps, 1, &off, lane_engine);
        let d_lanes = t0.elapsed().as_secs_f64();
        let on = Telemetry::new(TelemetryConfig::on());
        let t0 = Instant::now();
        let c = run_network_replicated_with_engine(&lane_mk(), lane_reps, 1, &on, lane_engine);
        let d_lanes_on = t0.elapsed().as_secs_f64();
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.delivered, c.delivered);
        if pass > 0 {
            t_scalar.push(d_scalar);
            t_lanes.push(d_lanes);
            t_lanes_on.push(d_lanes_on);
        }
    }
    let m_scalar = median(&mut t_scalar);
    let m_lanes = median(&mut t_lanes);
    let m_lanes_on = median(&mut t_lanes_on);
    let lanes_ratio = m_lanes / m_scalar;
    let lanes_on_ratio = m_lanes_on / m_lanes;
    eprintln!(
        "replicated: scalar {:.3} ms | sweep {:.3} ms ({:.3}x) | sweep+tel {:.3} ms ({:.3}x)",
        m_scalar * 1e3,
        m_lanes * 1e3,
        lanes_ratio,
        m_lanes_on * 1e3,
        lanes_on_ratio
    );

    // Message tracer: with `tracer = None` the runner compiles to the
    // existing hot loop (`TRACE = false`), so a traced-capable run with
    // tracing disabled must cost no more than a plain per-replication
    // `run_network` loop. A tracer at the default 1% sampling rate adds
    // one hash per tracked injection plus a record per sampled message,
    // and must stay within the enabled envelope.
    use banyan_obs::msgtrace::MsgTracer;
    use banyan_sim::run_network_replicated_traced;
    // 15 samples for the same reason as the sections above: the 1.02x
    // disabled-path gate needs a median wide enough to shrug off
    // single-core scheduling spikes.
    let (trace_reps, trace_samples) = if quick { (2u32, 3usize) } else { (4, 15) };
    let trace_mk = lane_mk;
    // Correctness: a full-rate tracer observes everything and perturbs
    // nothing — statistics bit-identical, one record per delivery, and
    // every record's stage waits sum to its total.
    let untraced = run_network_replicated_traced(
        &trace_mk(),
        trace_reps,
        1,
        &Telemetry::off(),
        ReplicationEngine::Scalar,
        None,
    );
    let full_tracer = MsgTracer::new(1.0);
    let traced = run_network_replicated_traced(
        &trace_mk(),
        trace_reps,
        1,
        &Telemetry::off(),
        ReplicationEngine::Scalar,
        Some(&full_tracer),
    );
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
    eprintln!(
        "msgtrace bit-identity: ok ({} records over {trace_reps} replications)",
        records.len()
    );

    let mut t_trace_plain = Vec::with_capacity(trace_samples);
    let mut t_trace_off = Vec::with_capacity(trace_samples);
    let mut t_trace_on = Vec::with_capacity(trace_samples);
    for pass in 0..=trace_samples {
        let t0 = Instant::now();
        let mut plain_delivered = 0u64;
        for j in 0..trace_reps {
            let mut c = trace_mk();
            c.seed = c.seed.wrapping_add(u64::from(j));
            plain_delivered += run_network(c).delivered;
        }
        let d_plain = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let a = run_network_replicated_traced(
            &trace_mk(),
            trace_reps,
            1,
            &off,
            ReplicationEngine::Scalar,
            None,
        );
        let d_off = t0.elapsed().as_secs_f64();
        let tracer = MsgTracer::new(0.01);
        let t0 = Instant::now();
        let b = run_network_replicated_traced(
            &trace_mk(),
            trace_reps,
            1,
            &off,
            ReplicationEngine::Scalar,
            Some(&tracer),
        );
        let d_on = t0.elapsed().as_secs_f64();
        assert_eq!(a.delivered, plain_delivered);
        assert_eq!(a.delivered, b.delivered);
        if pass > 0 {
            t_trace_plain.push(d_plain);
            t_trace_off.push(d_off);
            t_trace_on.push(d_on);
        }
    }
    let m_trace_plain = median(&mut t_trace_plain);
    let m_trace_off = median(&mut t_trace_off);
    let m_trace_on = median(&mut t_trace_on);
    let trace_off_ratio = m_trace_off / m_trace_plain;
    let trace_on_ratio = m_trace_on / m_trace_plain;
    eprintln!(
        "msgtrace: plain {:.3} ms | untraced {:.3} ms ({:.3}x) | traced@1% {:.3} ms ({:.3}x)",
        m_trace_plain * 1e3,
        m_trace_off * 1e3,
        trace_off_ratio,
        m_trace_on * 1e3,
        trace_on_ratio
    );

    // Operations plane on the serve path: two in-process daemons answer
    // the same cached analytic query over keep-alive connections — one
    // with the plane off (no rolling windows, no access log), one fully
    // instrumented (rolling + per-request access log). The `/query`
    // bodies must be byte-identical (the plane observes, never
    // rewrites) and the instrumented side must stay within the serve
    // budget. A loopback request is ~22 µs of syscalls and thread
    // wakeups whose cost depends on which cores the kernel parks the
    // worker and client on, so a single keep-alive connection biases an
    // entire run by more than the plane's real cost. Every pass
    // therefore opens FRESH connections to both daemons (resampling
    // placement), alternates which side runs first (cancelling slow
    // drift), and the verdict is the median of per-pass paired ratios.
    // 600 passes: the per-pass ratio's spread is dominated by the two
    // daemons' placement draws (σ ≈ 5%), so the median's standard
    // error is ~1.25σ/√passes ≈ 0.26% — comfortable against the
    // ~0.7% gap between the plane's real cost and the budget.
    let (serve_batches, serve_reqs, serve_budget) =
        if quick { (4usize, 150usize, 1.25) } else { (600, 100, 1.02) };
    let base_cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        drift_poll_ms: 0,
        ..ServeConfig::default()
    };
    let log_path = std::env::temp_dir().join(format!(
        "overhead_guard_access_{}.jsonl",
        std::process::id()
    ));
    let hot = r#"{"k": 2, "stages": 6, "p": 0.5, "mode": "analytic"}"#;
    let spawn_daemon = |instrumented: bool| {
        if instrumented {
            ServerHandle::spawn(ServeConfig {
                rolling: true,
                access_log: Some(log_path.display().to_string()),
                access_log_sample_ms: 0,
                ..base_cfg.clone()
            })
            .expect("spawn ops-on daemon")
        } else {
            ServerHandle::spawn(ServeConfig {
                rolling: false,
                ..base_cfg.clone()
            })
            .expect("spawn ops-off daemon")
        }
    };
    let run_batch = |daemon: &ServerHandle| -> f64 {
        let mut c = Client::connect(&daemon.addr().to_string()).expect("connect batch client");
        // Warm the fresh connection: the first requests pay TCP setup,
        // the answer-cache fill, and a cold worker wakeup that the
        // timed window should not.
        for _ in 0..8 {
            let resp = c.request("POST", "/query", Some(hot)).expect("warm batch");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        let t0 = Instant::now();
        for _ in 0..serve_reqs {
            let resp = c.request("POST", "/query", Some(hot)).expect("batch query");
            assert_eq!(resp.status, 200);
        }
        t0.elapsed().as_secs_f64()
    };
    let mut t_serve_off = Vec::with_capacity(serve_batches);
    let mut t_serve_on = Vec::with_capacity(serve_batches);
    let mut body_checked = false;
    for pass in 0..serve_batches {
        // Fresh daemons each pass: worker threads live for the whole
        // daemon, so a single pair of daemons carries one core-placement
        // draw across every batch and can bias the entire run by more
        // than the plane's real cost.
        let off_daemon = spawn_daemon(false);
        let on_daemon = spawn_daemon(true);
        if !body_checked {
            body_checked = true;
            let mut off_client =
                Client::connect(&off_daemon.addr().to_string()).expect("connect off");
            let mut on_client = Client::connect(&on_daemon.addr().to_string()).expect("connect on");
            let body_off = off_client
                .request("POST", "/query", Some(hot))
                .expect("warm off daemon");
            let body_on = on_client
                .request("POST", "/query", Some(hot))
                .expect("warm on daemon");
            assert_eq!(body_off.status, 200, "{}", body_off.body);
            assert_eq!(
                body_off.body, body_on.body,
                "ops plane changed a /query body"
            );
        }
        let (d_off_serve, d_on_serve) = if pass % 2 == 0 {
            let off = run_batch(&off_daemon);
            (off, run_batch(&on_daemon))
        } else {
            let on = run_batch(&on_daemon);
            (run_batch(&off_daemon), on)
        };
        t_serve_off.push(d_off_serve);
        t_serve_on.push(d_on_serve);
        off_daemon.shutdown().expect("ops-off daemon shutdown");
        on_daemon.shutdown().expect("ops-on daemon shutdown");
    }
    // Paired estimator: each pass compares adjacent batches, so
    // frequency scaling and background load cancel in the per-pass
    // ratio, and the per-pass daemons and connections turn core-
    // placement luck into zero-mean noise the median over all passes
    // suppresses.
    let mut pass_ratios: Vec<f64> = t_serve_on
        .iter()
        .zip(&t_serve_off)
        .map(|(on, off)| on / off)
        .collect();
    if std::env::var("GUARD_DEBUG").is_ok() {
        let mut sorted = pass_ratios.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        eprintln!(
            "serve pass ratios: {:?}",
            sorted.iter().map(|r| (r * 1000.0).round() / 1000.0).collect::<Vec<_>>()
        );
    }
    let serve_ratio = median(&mut pass_ratios);
    let m_serve_off = median(&mut t_serve_off);
    let m_serve_on = median(&mut t_serve_on);
    let access_lines = std::fs::read_to_string(&log_path).expect("read access log");
    assert!(
        access_lines
            .lines()
            .next()
            .is_some_and(|l| l.contains("banyan-serve/access/v1")),
        "instrumented daemon wrote no access-log lines"
    );
    let _ = std::fs::remove_file(&log_path);
    eprintln!(
        "serve: ops-off {:.3} ms | ops-on {:.3} ms (paired {:.3}x) per {serve_reqs}-request batch",
        m_serve_off * 1e3,
        m_serve_on * 1e3,
        serve_ratio
    );

    let mut o = JsonObject::new();
    o.field_str("suite", "overhead_guard")
        .field_str(
            "config",
            if quick {
                "network_k2_n6_p05_m1"
            } else {
                "network_k2_n10_p05_m1"
            },
        )
        .field_u64("samples", samples as u64)
        .field_f64("plain_median_ns", m_plain * 1e9)
        .field_f64("off_median_ns", m_off * 1e9)
        .field_f64("on_median_ns", m_on * 1e9)
        .field_f64("off_over_plain", off_ratio)
        .field_f64("on_over_plain", on_ratio)
        .field_f64("off_budget", off_budget)
        .field_f64("on_budget", on_budget)
        .field_u64("lane_reps", lane_reps as u64)
        .field_f64("scalar_engine_median_ns", m_scalar * 1e9)
        .field_f64("lane_engine_median_ns", m_lanes * 1e9)
        .field_f64("lane_engine_on_median_ns", m_lanes_on * 1e9)
        .field_f64("lanes_over_scalar", lanes_ratio)
        .field_f64("lanes_on_over_lanes_off", lanes_on_ratio)
        .field_u64("msgtrace_reps", u64::from(trace_reps))
        .field_f64("msgtrace_plain_median_ns", m_trace_plain * 1e9)
        .field_f64("msgtrace_off_median_ns", m_trace_off * 1e9)
        .field_f64("msgtrace_on_median_ns", m_trace_on * 1e9)
        .field_f64("msgtrace_off_over_plain", trace_off_ratio)
        .field_f64("msgtrace_on_over_plain", trace_on_ratio)
        .field_u64("serve_batch_requests", serve_reqs as u64)
        .field_f64("serve_off_median_ns", m_serve_off * 1e9)
        .field_f64("serve_on_median_ns", m_serve_on * 1e9)
        .field_f64("serve_on_over_off", serve_ratio)
        .field_f64("serve_budget", serve_budget);
    let json = format!("{}\n", o.finish_pretty(2));
    let cwd = std::env::current_dir().expect("current dir");
    let root = cwd
        .ancestors()
        .find(|d| d.join("Cargo.lock").is_file())
        .unwrap_or(&cwd)
        .to_path_buf();
    let results = root.join("results");
    std::fs::create_dir_all(&results).expect("create results/");
    let path = results.join("BENCH_overhead_guard.json");
    std::fs::write(&path, json).expect("write overhead guard json");
    eprintln!("wrote {}", path.display());

    assert!(
        off_ratio <= off_budget,
        "telemetry-off overhead {off_ratio:.4}x exceeds budget {off_budget}x: \
         the disabled path has leaked onto the hot loop"
    );
    assert!(
        on_ratio <= on_budget,
        "telemetry-on overhead {on_ratio:.4}x exceeds envelope {on_budget}x"
    );
    assert!(
        lanes_ratio <= off_budget,
        "sweep engine {lanes_ratio:.4}x vs scalar exceeds budget {off_budget}x: \
         the stage sweep has become slower than the scalar engine it replaces"
    );
    assert!(
        lanes_on_ratio <= on_budget,
        "sweep-engine telemetry overhead {lanes_on_ratio:.4}x exceeds envelope {on_budget}x"
    );
    assert!(
        trace_off_ratio <= off_budget,
        "msgtrace-disabled overhead {trace_off_ratio:.4}x exceeds budget {off_budget}x: \
         the TRACE = false path has leaked tracing work onto the hot loop"
    );
    assert!(
        trace_on_ratio <= on_budget,
        "msgtrace sampling overhead {trace_on_ratio:.4}x exceeds envelope {on_budget}x"
    );
    assert!(
        serve_ratio <= serve_budget,
        "serve ops-plane overhead {serve_ratio:.4}x exceeds budget {serve_budget}x: \
         the rolling/access-log path has leaked real work onto the request path"
    );
    println!(
        "overhead guard: off {off_ratio:.4}x (budget {off_budget}x), \
         on {on_ratio:.4}x (budget {on_budget}x), \
         sweep {lanes_ratio:.4}x (budget {off_budget}x), \
         msgtrace {trace_off_ratio:.4}x (budget {off_budget}x), \
         serve {serve_ratio:.4}x (budget {serve_budget}x) -- ok"
    );
}
