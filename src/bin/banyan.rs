//! `banyan` — command-line front end to the waiting-time models and the
//! simulator, in the spirit of the design studies the formulas were
//! built for (Ultracomputer / RP3 sizing).
//!
//! ```text
//! banyan first-stage --k 2 --p 0.5 --m 1
//! banyan first-stage --k 2 --p 0.5 --geometric-mu 0.5
//! banyan total --k 2 --stages 12 --p 0.5 --m 1 [--quantiles]
//! banyan simulate --k 2 --stages 6 --p 0.5 --m 1 [--cycles N] [--q HOT] [--capacity C]
//!                 [--reps R] [--threads T] [--telemetry FILE]
//!                 [--dist-out FILE] [--trace-out FILE] [--progress]
//! banyan report --k 2 --stages 6 --p 0.5 --m 1 [--cycles N] [--reps R]
//! banyan pmf --k 2 --p 0.5 --m 1 --len 32
//! banyan serve --addr 127.0.0.1:7070 [--threads N] [--cache-cap N]
//!              [--drift-threshold KS] [--telemetry FILE]
//!              [--access-log FILE] [--admin-port PORT] [--drift-poll-ms MS]
//! ```
//!
//! Flags are `--name value`; anything unknown is an error with a
//! "did you mean" suggestion. Simulation results go to stdout;
//! diagnostics (`--progress` heartbeats, telemetry notices) go to
//! stderr, so stdout stays machine-parseable. This binary deliberately
//! avoids external argument-parsing crates.

use banyan_repro::cli::{get, get_prob, parse_flags, service_from_flags, validate_flags, Flags};
use banyan_repro::obs::json::JsonObject;
use banyan_repro::obs::msgtrace::{self, MsgTracer};
use banyan_repro::obs::tail::{drift_array_json, drift_line, table_cdf, DriftReport};
use banyan_repro::obs::trace::{trace_json_from_events, write_trace};
use banyan_repro::obs::DistSketch;
use banyan_repro::prelude::*;
use banyan_repro::sim::network::check_config;
use banyan_repro::sim::{run_network_replicated_traced, sweep_eligible, ReplicationEngine};
use std::process::ExitCode;

/// Known flags per subcommand: parse_flags accepts any `--name value`
/// pair, so each command validates against its own set before running.
const FIRST_STAGE_FLAGS: &[&str] = &["k", "p", "q", "b", "m", "geometric-mu", "mix"];
const TOTAL_FLAGS: &[&str] = &["k", "stages", "p", "m", "quantiles"];
const SIMULATE_FLAGS: &[&str] = &[
    "k",
    "stages",
    "p",
    "q",
    "cycles",
    "seed",
    "m",
    "geometric-mu",
    "mix",
    "capacity",
    "reps",
    "threads",
    "engine",
    "telemetry",
    "dist-out",
    "trace-out",
    "msg-trace",
    "msg-trace-rate",
    "progress",
];
const REPORT_FLAGS: &[&str] = &[
    "k",
    "stages",
    "p",
    "m",
    "cycles",
    "seed",
    "reps",
    "threads",
    "progress",
    "json",
    "fail-on-drift",
];
const TRACE_FLAGS: &[&str] = &["file", "chrome-out"];
const PMF_FLAGS: &[&str] = &["k", "p", "m", "len"];
const FLOW_FLAGS: &[&str] = &[
    "topo", "k", "stages", "extra", "rows", "cols", "leaves", "spines", "hosts", "p", "m", "json",
    "dist-out", "cycles", "reps", "seed",
];
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "threads",
    "cache-cap",
    "drift-threshold",
    "probe-cycles",
    "probe-reps",
    "sim-cycles",
    "sim-reps",
    "seed",
    "telemetry",
    "access-log",
    "access-log-sample-ms",
    "admin-port",
    "drift-poll-ms",
    "no-rolling",
];

/// Schema identifier of the `--dist-out` distribution dump.
const DIST_SCHEMA: &str = "banyan-obs/dist/v1";

fn cmd_first_stage(flags: &Flags) -> Result<(), String> {
    let k: u32 = get(flags, "k", 2)?;
    let p: f64 = get_prob(flags, "p", 0.5)?;
    let q: f64 = get_prob(flags, "q", 0.0)?;
    let b: u32 = get(flags, "b", 1)?;
    match service_from_flags(flags)? {
        ServiceDist::Geometric(mu) => {
            let fs = geometric_queue(k, p, mu).map_err(|e| e.to_string())?;
            print_first_stage(&fs);
        }
        ServiceDist::Mixed(sizes) => {
            let fs = mixed_queue(k, p, sizes).map_err(|e| e.to_string())?;
            print_first_stage(&fs);
        }
        ServiceDist::Constant(m) => {
            if q > 0.0 {
                if m != 1 {
                    return Err("--q currently supports m = 1 only".into());
                }
                let fs = nonuniform_queue(k, p, q, b).map_err(|e| e.to_string())?;
                print_first_stage(&fs);
            } else if b > 1 {
                if m != 1 {
                    return Err("--b currently supports m = 1 only".into());
                }
                let fs = bulk_queue(k, p, b).map_err(|e| e.to_string())?;
                print_first_stage(&fs);
            } else {
                let fs = uniform_queue(k, p, m).map_err(|e| e.to_string())?;
                print_first_stage(&fs);
            }
        }
    }
    Ok(())
}

fn print_first_stage<R: Pgf, U: Pgf>(fs: &FirstStage<R, U>) {
    println!("traffic intensity rho = {:.6}", fs.rho());
    println!("E(w)   = {:.6}", fs.mean_wait());
    println!("Var(w) = {:.6}", fs.var_wait());
    println!("E(delay)   = {:.6}", fs.mean_delay());
    println!("Var(delay) = {:.6}", fs.var_delay());
    let (es, vs) = fs.unfinished_work_moments();
    println!("E(backlog) = {:.6}, Var(backlog) = {:.6}", es, vs);
    println!("P(idle)    = {:.6}", fs.idle_probability());
    if let Some(r) = fs.tail_decay_rate() {
        println!("tail: P(w=j) ~ C * {r:.6}^j");
    }
    for &q in &[0.5, 0.9, 0.99, 0.999] {
        println!("wait p{:<4} = {}", (q * 1000.0) as u32, fs.wait_quantile(q));
    }
}

fn cmd_total(flags: &Flags) -> Result<(), String> {
    let k: u32 = get(flags, "k", 2)?;
    let n: u32 = get(flags, "stages", 6)?;
    let p: f64 = get_prob(flags, "p", 0.5)?;
    let m: u32 = get(flags, "m", 1)?;
    if (m as f64) * p >= 1.0 {
        return Err(format!("unstable load: rho = {}", m as f64 * p));
    }
    let t = TotalWaiting::new(k, n, p, m);
    println!("stages = {n}, rho = {:.4}", t.rho());
    println!("E(total waiting)   = {:.6}", t.mean_total());
    println!("Var(total waiting) = {:.6}  (independence: {:.6})",
        t.var_total(), t.var_total_independent());
    println!("total service (cut-through) = {}", t.total_service());
    println!("E(total delay)     = {:.6}", t.mean_total_delay());
    let (a, b) = t.cov_params();
    println!("covariance model: a = {a:.4}, b = {b:.4}");
    if let Some(g) = t.gamma() {
        println!("gamma approx: shape = {:.4}, scale = {:.4}", g.shape(), g.scale());
        if flags.contains_key("quantiles") {
            for &q in &[0.5, 0.9, 0.99, 0.999] {
                println!(
                    "delay p{:<4} = {:.2}",
                    (q * 1000.0) as u32,
                    t.delay_quantile(q)
                );
            }
        }
    }
    Ok(())
}

/// Builds observed-vs-analytic drift reports from the per-stage wait
/// sketches the instrumented run captured: stage 1 against the exact
/// Theorem 1 distribution, stages ≥ 2 against the gamma fitted to the
/// §IV stage-constant moments, and the end-to-end total against the §V
/// gamma. Returns an empty list for workloads outside the analytic
/// model's reach (non-constant service, hot-spot traffic, finite
/// buffers, unstable load).
fn drift_reports(
    tel: &Telemetry,
    k: u32,
    n: u32,
    p: f64,
    q: f64,
    service: &ServiceDist,
    finite_buffers: bool,
) -> Vec<DriftReport> {
    let ServiceDist::Constant(m) = service else {
        return Vec::new();
    };
    if q > 0.0 || finite_buffers {
        return Vec::new();
    }
    let Ok(fs) = uniform_queue(k, p, *m) else {
        return Vec::new();
    };
    let sc = StageConstants::paper();
    let tail_rate = fs.tail_decay_rate();
    let mf = f64::from(*m);
    let mut out = Vec::new();
    for i in 1..=n {
        let name = format!("net.wait.stage{i:02}");
        let Some(sk) = tel.sketches().get(&name) else {
            continue;
        };
        let Some(max) = sk.max_value().map(|v| v as usize) else {
            continue;
        };
        let report = if i == 1 {
            // Exact Theorem 1 CDF, tabulated once over the support.
            let table = fs.wait_cdf_table(max + 2);
            DriftReport::against(
                &name,
                &sk,
                |x| table_cdf(&table, x),
                fs.mean_wait(),
                tail_rate,
            )
        } else {
            // §IV approximation: gamma fitted to the stage-i moments.
            let (wm, vm) = (sc.w_stage_m(i, p, k, mf), sc.v_stage_m(i, p, k, mf));
            let Some(g) = Gamma::from_mean_var(wm, vm) else {
                continue;
            };
            DriftReport::against(&name, &sk, |x| g.cdf(x), wm, tail_rate)
        };
        out.push(report);
    }
    if let Some(sk) = tel.sketches().get("net.wait.total") {
        if sk.total() > 0 {
            let t = TotalWaiting::new(k, n, p, *m);
            if let Some(g) = t.gamma() {
                out.push(DriftReport::against(
                    "net.wait.total",
                    &sk,
                    |x| g.cdf(x),
                    t.mean_total(),
                    None,
                ));
            }
        }
    }
    out
}

/// Parses `--engine auto|scalar|sweep`. A forced sweep is checked
/// against `cfg` here, so an ineligible configuration is a clean error
/// naming the failed requirement rather than a runner panic.
fn engine_from_flags(flags: &Flags, cfg: &NetworkConfig) -> Result<ReplicationEngine, String> {
    match flags.get("engine").map(String::as_str) {
        None | Some("auto") => Ok(ReplicationEngine::Auto),
        Some("scalar") => Ok(ReplicationEngine::Scalar),
        Some("sweep") => sweep_eligible(cfg)
            .map(|()| ReplicationEngine::Sweep)
            .map_err(|why| format!("--engine sweep cannot run this configuration: {why}")),
        Some(other) => Err(format!(
            "--engine must be auto, scalar, or sweep, got '{other}'"
        )),
    }
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let k: u32 = get(flags, "k", 2)?;
    let n: u32 = get(flags, "stages", 6)?;
    let p: f64 = get_prob(flags, "p", 0.5)?;
    let q: f64 = get_prob(flags, "q", 0.0)?;
    let cycles: u64 = get(flags, "cycles", 20_000u64)?;
    let seed: u64 = get(flags, "seed", 1u64)?;
    let reps: u32 = get(flags, "reps", 1u32)?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let threads: usize = get(flags, "threads", 1usize)?;
    let service = service_from_flags(flags)?;
    let service_desc = format!("{service:?}");
    let mut cfg = NetworkConfig::new(k, n, Workload { p, q, service });
    cfg.measure_cycles = cycles;
    cfg.warmup_cycles = (cycles / 10).max(500);
    cfg.seed = seed;
    if let Some(cap) = flags.get("capacity") {
        let cap: usize = cap
            .parse()
            .map_err(|_| "invalid --capacity".to_string())?;
        if cap == 0 {
            return Err("--capacity must be at least 1 message".into());
        }
        cfg.buffer_capacity = Some(cap);
    }
    check_config(&cfg)?;
    let engine = engine_from_flags(flags, &cfg)?;
    let telemetry_path = flags.get("telemetry").cloned();
    let dist_path = flags.get("dist-out").cloned();
    let trace_path = flags.get("trace-out").cloned();
    let msg_trace_path = flags.get("msg-trace").cloned();
    if msg_trace_path.is_none() && flags.contains_key("msg-trace-rate") {
        return Err("--msg-trace-rate requires --msg-trace FILE".into());
    }
    let msg_rate: f64 = get_prob(flags, "msg-trace-rate", 0.01)?;
    let tracer = msg_trace_path.as_ref().map(|_| MsgTracer::new(msg_rate));
    // Any observability output needs the instrumented collection path;
    // stdout stays byte-identical either way. (The message tracer is
    // independent of telemetry: it has its own sink.)
    let mut tcfg = if telemetry_path.is_some() || dist_path.is_some() || trace_path.is_some() {
        TelemetryConfig::on()
    } else {
        TelemetryConfig::off()
    };
    if flags.contains_key("progress") {
        tcfg = tcfg.with_progress();
    }
    let tel = Telemetry::new(tcfg);
    let started = std::time::Instant::now();
    let stats = run_network_replicated_traced(&cfg, reps, threads, &tel, engine, tracer.as_ref());
    let run_secs = started.elapsed().as_secs_f64();
    // Telemetry never touches the RNG or the dynamics, so everything
    // printed below (stdout) is byte-identical with or without
    // --progress/--telemetry — only stderr gains output.
    tel.heartbeat_final();
    println!("delivered {} messages over {} cycles", stats.delivered, stats.cycles);
    if stats.rejected_total > 0 {
        let offered = stats.injected_total + stats.rejected_total;
        println!(
            "rejected {} of {} offered ({:.2}%)",
            stats.rejected_total,
            offered,
            100.0 * stats.rejected_total as f64 / offered as f64
        );
    }
    for (i, w) in stats.stage_waits.iter().enumerate() {
        println!(
            "stage {:>2}: E(w) = {:.4}  Var(w) = {:.4}",
            i + 1,
            w.mean(),
            w.variance()
        );
    }
    println!(
        "total waiting: mean = {:.4}, var = {:.4}, p99 = {}",
        stats.total_wait.mean(),
        stats.total_wait.variance(),
        stats.total_wait.quantile(0.99).unwrap_or(0)
    );
    // Drift gauges + reports: observed per-stage pmfs vs Theorem 1 /
    // §IV–§V analytics, computed before any artifact is written so the
    // manifest's metrics snapshot includes the ppm gauges.
    let drift = if tel.metrics_enabled() {
        let reports = drift_reports(
            &tel,
            k,
            n,
            p,
            q,
            &cfg.workload.service,
            cfg.buffer_capacity.is_some(),
        );
        for r in &reports {
            tel.registry()
                .gauge(&format!("net.drift.ks_ppm.{}", r.name))
                .set(r.ks_ppm());
        }
        reports
    } else {
        Vec::new()
    };
    if let Some(path) = &dist_path {
        let mut o = JsonObject::new();
        o.field_str("schema", DIST_SCHEMA)
            .field_str("name", "banyan-simulate")
            .field_u64("k", u64::from(k))
            .field_u64("stages", u64::from(n))
            .field_f64("p", p)
            .field_str("service", &service_desc)
            .field_u64("seed", seed)
            .field_u64("reps", u64::from(reps))
            .field_raw("distributions", &tel.sketches().snapshot_json())
            .field_raw("drift", &drift_array_json(&drift));
        let mut json = o.finish_pretty(2);
        json.push('\n');
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory for --dist-out {path}: {e}"))?;
        }
        std::fs::write(path, json).map_err(|e| format!("cannot write --dist-out {path}: {e}"))?;
        eprintln!("distribution dump written to {path}");
    }
    if let Some(path) = &trace_path {
        write_trace(std::path::Path::new(path), tel.spans())
            .map_err(|e| format!("cannot write --trace-out {path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    if let Some(path) = &msg_trace_path {
        let tracer = tracer.as_ref().expect("tracer exists when --msg-trace is set");
        let records = tracer.finish();
        let mut h = msgtrace::header_object("banyan-simulate", n, seed, reps, tracer.rate());
        h.field_u64("k", u64::from(k))
            .field_f64("p", p)
            .field_str("service", &service_desc);
        if let ServiceDist::Constant(m) = &cfg.workload.service {
            h.field_u64("m", u64::from(*m));
        }
        if q > 0.0 {
            h.field_f64("q", q);
        }
        if let Some(cap) = cfg.buffer_capacity {
            h.field_u64("capacity", cap as u64);
        }
        let doc = msgtrace::render_jsonl(&h.finish(), &records);
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory for --msg-trace {path}: {e}"))?;
        }
        std::fs::write(path, doc).map_err(|e| format!("cannot write --msg-trace {path}: {e}"))?;
        eprintln!(
            "message trace written to {path} ({} records, rate {})",
            records.len(),
            tracer.rate()
        );
    }
    if let Some(path) = telemetry_path {
        let mut m = Manifest::new("banyan-simulate");
        m.config("k", k)
            .config("stages", n)
            .config("p", p)
            .config("q", q)
            .config("cycles", cycles)
            .config("service", &service_desc)
            .seed("base", seed)
            .reps(reps)
            .threads(threads)
            .phase("run", run_secs);
        if let Some(cap) = cfg.buffer_capacity {
            m.config("capacity", cap);
        }
        if let Some(dist) = &dist_path {
            m.artifact(dist);
        }
        if let Some(trace) = &trace_path {
            m.artifact(trace);
        }
        if let Some(mt) = &msg_trace_path {
            m.artifact(mt);
        }
        if !drift.is_empty() {
            m.section_raw("drift", &drift_array_json(&drift));
        }
        let written = m
            .write(&path, Some(&tel))
            .map_err(|e| format!("cannot write --telemetry {path}: {e}"))?;
        eprintln!("telemetry manifest written to {}", written.display());
    }
    Ok(())
}

/// `banyan report` — run the simulator with distribution capture on and
/// print an observed-vs-analytic table: per-stage and total exact
/// moments, KS drift against Theorem 1 (stage 1), the §IV
/// stage-constant gamma (later stages) and the §V gamma (total), plus
/// fitted vs analytic geometric tail rates and report quantiles.
fn cmd_report(flags: &Flags) -> Result<(), String> {
    let k: u32 = get(flags, "k", 2)?;
    let n: u32 = get(flags, "stages", 6)?;
    let p: f64 = get_prob(flags, "p", 0.5)?;
    let m: u32 = get(flags, "m", 1)?;
    let cycles: u64 = get(flags, "cycles", 20_000u64)?;
    let seed: u64 = get(flags, "seed", 1u64)?;
    let reps: u32 = get(flags, "reps", 1u32)?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let threads: usize = get(flags, "threads", 1usize)?;
    if (f64::from(m)) * p >= 1.0 {
        return Err(format!("unstable load: rho = {}", f64::from(m) * p));
    }
    let service = ServiceDist::Constant(m);
    let mut cfg = NetworkConfig::new(k, n, Workload { p, q: 0.0, service: service.clone() });
    cfg.measure_cycles = cycles;
    cfg.warmup_cycles = (cycles / 10).max(500);
    cfg.seed = seed;
    check_config(&cfg)?;
    let mut tcfg = TelemetryConfig::on();
    if flags.contains_key("progress") {
        tcfg = tcfg.with_progress();
    }
    let tel = Telemetry::new(tcfg);
    let stats = run_network_replicated_instrumented(&cfg, reps, threads, &tel);
    tel.heartbeat_final();
    let drift = drift_reports(&tel, k, n, p, 0.0, &service, false);
    if drift.is_empty() {
        return Err("no delivered messages to report on (try more --cycles)".into());
    }
    if flags.contains_key("json") {
        // Machine-readable drift table for CI gates and dashboards.
        let mut o = JsonObject::new();
        o.field_str("schema", "banyan-obs/report/v1")
            .field_u64("k", u64::from(k))
            .field_u64("stages", u64::from(n))
            .field_f64("p", p)
            .field_u64("m", u64::from(m))
            .field_u64("cycles", cycles)
            .field_u64("seed", seed)
            .field_u64("reps", u64::from(reps))
            .field_u64("delivered", stats.delivered)
            .field_raw("drift", &drift_array_json(&drift));
        let mut json = o.finish_pretty(2);
        json.push('\n');
        print!("{json}");
    } else {
        println!(
            "waiting-time distributions, observed vs analytic (k={k}, stages={n}, p={p}, m={m}, \
             {} messages)",
            stats.delivered
        );
        for r in &drift {
            println!("{}", drift_line(r));
        }
        println!("quantiles (observed):");
        for (name, sk) in tel.sketches().snapshot() {
            let qs: Vec<String> = banyan_repro::obs::sketch::REPORT_QUANTILES
                .iter()
                .map(|&level| {
                    format!(
                        "{} {}",
                        banyan_repro::obs::sketch::quantile_label(level),
                        sk.quantile(level).unwrap_or(0)
                    )
                })
                .collect();
            println!("  {name:<18} {}", qs.join("  "));
        }
    }
    if flags.contains_key("fail-on-drift") {
        let gate: u64 = get(flags, "fail-on-drift", 0u64)?;
        if gate == 0 {
            return Err("--fail-on-drift needs a positive KS threshold in ppm".into());
        }
        let offenders: Vec<String> = drift
            .iter()
            .filter(|r| r.ks_ppm() > gate)
            .map(|r| format!("{} ks={} ppm", r.name, r.ks_ppm()))
            .collect();
        if !offenders.is_empty() {
            return Err(format!(
                "drift gate exceeded ({} ppm allowed): {}",
                gate,
                offenders.join(", ")
            ));
        }
    }
    Ok(())
}

/// Largest total wait, in cycles, `banyan trace` accepts from a file.
/// Its pmfs are dense, one bin per cycle, so a single hostile record
/// could otherwise demand a table of billions of bins; 2^24 cycles caps
/// each table at 128 MiB. Every stage wait is at most its record's
/// total, so the bound covers the per-stage tables too.
const MAX_TRACE_WAIT: u64 = 1 << 24;

/// `banyan trace` — inspect a `banyan-obs/msgtrace/v1` file written by
/// `banyan simulate --msg-trace`: validate it, print per-stage
/// observed waiting moments rebuilt from the sampled records, compare
/// them against the analytic model when the header carries the
/// workload (KS drift per stage: Theorem 1 exact for stage 1, the §IV
/// stage-constant gammas beyond, the §V gamma for the total — the
/// drill-down companion to `banyan report`), and list the slowest
/// sampled messages with their full per-stage wait decomposition.
/// `--chrome-out FILE` additionally renders the records as
/// `chrome://tracing` span events (one lane per message).
fn cmd_trace(flags: &Flags) -> Result<(), String> {
    use banyan_repro::obs::json::JsonValue;
    let path = flags.get("file").ok_or("--file FILE is required")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read --file {path}: {e}"))?;
    let parsed = msgtrace::parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = &parsed.records;
    if let Some(r) = records.iter().find(|r| r.total_wait() > MAX_TRACE_WAIT) {
        return Err(format!(
            "{path}: rep {} msg {}: total wait {} exceeds the {MAX_TRACE_WAIT}-cycle limit",
            r.rep,
            r.ord,
            r.total_wait()
        ));
    }
    let stages_desc = parsed
        .stages
        .map_or("variable".to_string(), |s| s.to_string());
    println!(
        "{}: {} sampled records (stages {stages_desc}, seed {}, reps {}, rate {})",
        parsed.name,
        records.len(),
        parsed.seed,
        parsed.reps,
        parsed.rate
    );
    // Write the artifact before the (long) stdout report: a reader
    // closing the pipe early must not cost the --chrome-out file.
    if let Some(out) = flags.get("chrome-out") {
        let events = msgtrace::chrome_events(records);
        let json = trace_json_from_events(&events);
        if let Some(dir) = std::path::Path::new(out).parent().filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory for --chrome-out {out}: {e}"))?;
        }
        std::fs::write(out, json).map_err(|e| format!("cannot write --chrome-out {out}: {e}"))?;
        eprintln!("chrome trace written to {out} ({} events)", events.len());
    }
    if records.is_empty() {
        println!("no records to analyze (raise --msg-trace-rate or --cycles)");
        return Ok(());
    }
    // Rebuild the per-stage and total pmfs from the records. Flow
    // traces have per-record hop counts; stage j covers the records
    // long enough to reach it.
    let max_hops = records.iter().map(|r| r.waits.len()).max().unwrap_or(0);
    let mut stage_sk = vec![DistSketch::new(); max_hops];
    let mut total_sk = DistSketch::new();
    for r in records {
        for (j, &w) in r.waits.iter().enumerate() {
            stage_sk[j].record(u64::from(w));
        }
        total_sk.record(r.total_wait());
    }
    // Drift vs the analytic model when the header identifies a uniform
    // constant-service workload (the model's reach — mirrors the
    // gating in drift_reports).
    let hdr = &parsed.header;
    let hdr_u32 = |key: &str| hdr.get(key).and_then(JsonValue::as_u64).map(|v| v as u32);
    let workload = match (parsed.stages, hdr_u32("k"), hdr.get("p").and_then(JsonValue::as_f64)) {
        (Some(n), Some(k), Some(p)) => Some((n, k, p, hdr_u32("m").unwrap_or(1))),
        _ => None,
    };
    let finite = hdr.get("capacity").is_some();
    let q = hdr.get("q").and_then(JsonValue::as_f64).unwrap_or(0.0);
    let drift = workload.map_or_else(Vec::new, |(n, k, p, m)| {
        let tel = Telemetry::new(TelemetryConfig::on());
        for (j, sk) in stage_sk.iter().enumerate() {
            tel.sketches()
                .merge_sketch(&format!("net.wait.stage{:02}", j + 1), sk);
        }
        tel.sketches().merge_sketch("net.wait.total", &total_sk);
        drift_reports(&tel, k, n, p, q, &ServiceDist::Constant(m), finite)
    });
    if drift.is_empty() {
        println!("observed (no analytic reference for this workload):");
        for (j, sk) in stage_sk.iter().enumerate() {
            println!(
                "  stage {:>2}: n = {:>7}  E(w) = {:.4}  Var(w) = {:.4}  p99 = {}",
                j + 1,
                sk.total(),
                sk.mean(),
                sk.variance(),
                sk.quantile(0.99).unwrap_or(0)
            );
        }
        println!(
            "  total   : n = {:>7}  E(w) = {:.4}  Var(w) = {:.4}  p99 = {}",
            total_sk.total(),
            total_sk.mean(),
            total_sk.variance(),
            total_sk.quantile(0.99).unwrap_or(0)
        );
    } else {
        println!("observed vs analytic (sampled records only):");
        for r in &drift {
            println!("{}", drift_line(r));
        }
    }
    // The slowest sampled messages, fully decomposed — the provenance
    // view aggregate reports cannot give.
    let mut slowest: Vec<&banyan_repro::obs::MsgRecord> = records.iter().collect();
    slowest.sort_by_key(|r| std::cmp::Reverse(r.total_wait()));
    println!("slowest sampled messages:");
    for r in slowest.iter().take(5) {
        let waits: Vec<String> = r.waits.iter().map(|w| w.to_string()).collect();
        let digits = if r.digits.is_empty() {
            String::new()
        } else {
            let d: Vec<String> = r.digits.iter().map(|d| d.to_string()).collect();
            format!("  digits {}", d.join(""))
        };
        println!(
            "  rep {:>3} msg {:>8}: injected @{:<8} total {:>5}  waits [{}]{digits}",
            r.rep,
            r.ord,
            r.inject,
            r.total_wait(),
            waits.join(", ")
        );
    }
    Ok(())
}

fn cmd_pmf(flags: &Flags) -> Result<(), String> {
    let k: u32 = get(flags, "k", 2)?;
    let p: f64 = get_prob(flags, "p", 0.5)?;
    let m: u32 = get(flags, "m", 1)?;
    let len: usize = get(flags, "len", 32usize)?;
    let fs = uniform_queue(k, p, m).map_err(|e| e.to_string())?;
    let pmf = fs.pmf(len);
    println!("{:>5}  {:>12}  {:>12}", "w", "P(w)", "P(W<=w)");
    let mut acc = 0.0;
    for (v, &pr) in pmf.iter().enumerate() {
        acc += pr;
        println!("{v:>5}  {pr:>12.8}  {acc:>12.8}");
    }
    Ok(())
}

/// `banyan flow` — end-to-end waiting/delay analysis of a routed
/// feed-forward topology (mesh, omega, butterfly, fat-tree) via the
/// generalized `banyan-flow` engine. `--json` prints the exact
/// `/v1/flow` answer body (byte-identical to what `banyan serve`
/// returns for the same query); `--dist-out` additionally runs the
/// event-check simulator and dumps per-flow waiting sketches plus KS
/// drift reports against the analytic densities in the standard
/// `banyan-obs/dist/v1` format.
fn cmd_flow(flags: &Flags) -> Result<(), String> {
    use banyan_repro::flow::simulate_network;
    use banyan_repro::serve::flow::{flow_body, FlowQuery, FLOW_FIELDS};
    // The engine fields ride the shared hardened decode path; the
    // CLI-only output flags are stripped first (main already validated
    // the full set against FLOW_FLAGS).
    let mut engine_flags = Flags::new();
    for (name, value) in flags {
        if FLOW_FIELDS.contains(&name.as_str()) {
            engine_flags.insert(name.clone(), value.clone());
        }
    }
    let q = FlowQuery::from_flags(&engine_flags)?;
    let graph = q.build_graph();
    let an = FlowAnalysis::new(&graph)?;
    if flags.contains_key("json") {
        // Byte-identical to GET /v1/flow — verify.sh cross-checks this.
        print!("{}", flow_body(&q)?);
    } else {
        println!(
            "{}: {} nodes, {} links, {} flows (p = {}, m = {})",
            q.topo.label(),
            graph.nodes().len(),
            graph.links().len(),
            graph.flows().len(),
            q.p,
            q.m,
        );
        println!(
            "{:>4}  {:>8} {:>8} {:>4}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
            "flow", "src", "dst", "hops", "E(w)", "Var(w)", "E(delay)", "delay p99", "delay p999"
        );
        for (f, flow) in graph.flows().iter().enumerate() {
            println!(
                "{f:>4}  {:>8} {:>8} {:>4}  {:>9.4}  {:>9.4}  {:>9.4}  {:>9.2}  {:>9.2}",
                graph.nodes()[flow.src].name,
                graph.nodes()[flow.dst].name,
                flow.path.len(),
                an.mean_wait(f),
                an.var_wait(f),
                an.mean_delay(f),
                an.delay_quantile(f, 0.99),
                an.delay_quantile(f, 0.999),
            );
        }
    }
    if let Some(path) = flags.get("dist-out") {
        let cycles: u64 = get(flags, "cycles", 20_000u64)?;
        let reps: u32 = get(flags, "reps", 4u32)?;
        let seed: u64 = get(flags, "seed", 1u64)?;
        if reps == 0 {
            return Err("--reps must be at least 1".into());
        }
        let report = simulate_network(
            &graph,
            &FlowSimConfig {
                warmup_cycles: (cycles / 10).max(500),
                measure_cycles: cycles,
                reps,
                seed,
            },
        );
        let tel = Telemetry::new(TelemetryConfig::on());
        let mut drift = Vec::new();
        for (f, sk) in report.flows.iter().enumerate() {
            let name = format!("flow.wait.{f:03}");
            tel.sketches().merge_sketch(&name, sk);
            if sk.total() == 0 {
                continue;
            }
            let table = an.wait_cdf_table(f)?;
            let r = DriftReport::against(&name, sk, |x| table_cdf(&table, x), an.mean_wait(f), None);
            tel.registry()
                .gauge(&format!("net.drift.ks_ppm.{name}"))
                .set(r.ks_ppm());
            drift.push(r);
        }
        let mut o = JsonObject::new();
        o.field_str("schema", DIST_SCHEMA)
            .field_str("name", "banyan-flow")
            .field_str("topo", &q.topo.label())
            .field_f64("p", q.p)
            .field_u64("m", u64::from(q.m))
            .field_u64("cycles", cycles)
            .field_u64("seed", seed)
            .field_u64("reps", u64::from(reps))
            .field_raw("distributions", &tel.sketches().snapshot_json())
            .field_raw("drift", &drift_array_json(&drift));
        let mut json = o.finish_pretty(2);
        json.push('\n');
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory for --dist-out {path}: {e}"))?;
        }
        std::fs::write(path, json).map_err(|e| format!("cannot write --dist-out {path}: {e}"))?;
        eprintln!("distribution dump written to {path}");
    }
    Ok(())
}

/// `banyan serve` — run the capacity-planning daemon until a client
/// POSTs `/shutdown`, then write the run manifest (when `--telemetry`
/// names a file). The listening line goes to stdout (flushed) so
/// wrappers binding port 0 can discover the ephemeral address.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use banyan_repro::serve::{ServeConfig, Server};
    let mut cfg = ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.clone();
    }
    cfg.workers = get(flags, "threads", cfg.workers)?;
    cfg.cache_cap = get(flags, "cache-cap", cfg.cache_cap)?;
    // A KS distance is a probability, so --drift-threshold rides the
    // same hardened [0,1] gate as --p and --q.
    cfg.drift_threshold = get_prob(flags, "drift-threshold", cfg.drift_threshold)?;
    cfg.probe_cycles = get(flags, "probe-cycles", cfg.probe_cycles)?;
    cfg.probe_reps = get(flags, "probe-reps", cfg.probe_reps)?;
    cfg.sim_cycles = get(flags, "sim-cycles", cfg.sim_cycles)?;
    cfg.sim_reps = get(flags, "sim-reps", cfg.sim_reps)?;
    cfg.seed = get(flags, "seed", cfg.seed)?;
    if cfg.probe_reps == 0 || cfg.sim_reps == 0 {
        return Err("--probe-reps and --sim-reps must be at least 1".into());
    }
    cfg.access_log = flags.get("access-log").cloned();
    cfg.access_log_sample_ms = get(flags, "access-log-sample-ms", cfg.access_log_sample_ms)?;
    cfg.drift_poll_ms = get(flags, "drift-poll-ms", cfg.drift_poll_ms)?;
    if flags.get("no-rolling").is_some() {
        cfg.rolling = false;
    }
    if let Some(port) = flags.get("admin-port") {
        let port: u16 = port
            .parse()
            .map_err(|_| format!("--admin-port must be a port number, got '{port}'"))?;
        // The admin surface binds the same host as the main listener.
        let host = cfg.addr.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
        cfg.admin_addr = Some(format!("{host}:{port}"));
    }
    let telemetry_path = flags.get("telemetry").cloned();
    let tel = Telemetry::new(TelemetryConfig::on());
    let server =
        Server::bind(cfg.clone(), tel).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let addr = server.local_addr();
    let state = server.state();
    println!("banyan serve listening on {addr}");
    if let Some(admin) = state.admin_addr() {
        println!("banyan serve admin listening on {admin}");
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let started = std::time::Instant::now();
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    let run_secs = started.elapsed().as_secs_f64();
    let reg = state.telemetry().registry();
    let served = reg.counter_value("serve.http.responses_total").unwrap_or(0);
    let hits = reg.counter_value("serve.cache.hits").unwrap_or(0);
    let misses = reg.counter_value("serve.cache.misses").unwrap_or(0);
    println!(
        "banyan serve stopped after {run_secs:.2}s: {served} responses, \
         cache {hits} hits / {misses} misses"
    );
    if let Some(path) = telemetry_path {
        let mut m = Manifest::new("banyan-serve");
        m.config("addr", addr)
            .config("threads", cfg.workers)
            .config("cache_cap", cfg.cache_cap)
            .config("drift_threshold", cfg.drift_threshold)
            .config("probe_cycles", cfg.probe_cycles)
            .config("probe_reps", cfg.probe_reps)
            .config("sim_cycles", cfg.sim_cycles)
            .config("sim_reps", cfg.sim_reps)
            .config("drift_poll_ms", cfg.drift_poll_ms)
            .config("rolling", cfg.rolling)
            .config(
                "access_log",
                cfg.access_log.as_deref().unwrap_or("-").to_string(),
            )
            .seed("base", cfg.seed)
            .phase("serve", run_secs);
        let written = m
            .write(&path, Some(state.telemetry()))
            .map_err(|e| format!("cannot write --telemetry {path}: {e}"))?;
        eprintln!("telemetry manifest written to {}", written.display());
    }
    Ok(())
}

const USAGE: &str = "usage: banyan <command> [--flag value ...]\n\
commands:\n  first-stage  exact Theorem-1 analysis of one output port\n  total        total waiting/delay through an n-stage network\n  flow         end-to-end delay per flow on a routed feed-forward topology\n  simulate     run the clocked network simulator\n  report       simulate, then print observed-vs-analytic drift per stage\n  trace        inspect a --msg-trace file (per-stage drift, slowest messages)\n  pmf          print the exact first-stage waiting distribution\n  serve        capacity-planning HTTP daemon (POST /query, GET /metrics)\n\
common flags: --k --p --m --stages --q --b --geometric-mu --mix 4:0.5,8:0.5\n              --cycles --seed --capacity --quantiles --len\n\
flow-only:     --topo mesh|omega|butterfly|fat-tree --rows --cols --extra\n               --leaves --spines --hosts --json (print the /v1/flow body)\n               --dist-out FILE (event-check sketches + KS drift; --cycles\n               --reps --seed size the simulation)\n\
simulate-only: --reps N --threads T (replicated run, merged stats)\n               --engine auto|scalar|sweep (replication engine)\n               --telemetry FILE (write a JSON run manifest)\n               --dist-out FILE (per-stage waiting-time pmfs + drift vs theory)\n               --trace-out FILE (chrome://tracing span events)\n               --msg-trace FILE (sampled per-message lifecycle JSONL;\n               --msg-trace-rate R sets the sampling probability, default 0.01)\n               --progress (heartbeat on stderr; stdout unchanged)\n\
report-only:   --json (machine-readable drift table)\n               --fail-on-drift PPM (exit nonzero when any KS gauge exceeds)\n\
trace-only:    --file FILE (the msg-trace JSONL to inspect)\n               --chrome-out FILE (render records as chrome://tracing spans)\n\
serve-only:    --addr HOST:PORT (port 0 = ephemeral) --threads N --cache-cap N\n               --drift-threshold KS --probe-cycles N --probe-reps R\n               --sim-cycles N --sim-reps R --telemetry FILE\n               --access-log FILE (JSONL; --access-log-sample-ms MS rate-limits)\n               --admin-port PORT (separate ops listener; 0 = ephemeral)\n               --drift-poll-ms MS (0 disables the drift monitor)\n               --no-rolling (disable rolling-window SLO aggregation)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "first-stage" => {
            validate_flags(&flags, FIRST_STAGE_FLAGS).and_then(|()| cmd_first_stage(&flags))
        }
        "total" => validate_flags(&flags, TOTAL_FLAGS).and_then(|()| cmd_total(&flags)),
        "flow" => validate_flags(&flags, FLOW_FLAGS).and_then(|()| cmd_flow(&flags)),
        "simulate" => validate_flags(&flags, SIMULATE_FLAGS).and_then(|()| cmd_simulate(&flags)),
        "report" => validate_flags(&flags, REPORT_FLAGS).and_then(|()| cmd_report(&flags)),
        "trace" => validate_flags(&flags, TRACE_FLAGS).and_then(|()| cmd_trace(&flags)),
        "pmf" => validate_flags(&flags, PMF_FLAGS).and_then(|()| cmd_pmf(&flags)),
        "serve" => validate_flags(&flags, SERVE_FLAGS).and_then(|()| cmd_serve(&flags)),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
