//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--trace-out FILE] [--smoke]
//! benchmark compare A/ B/
//! ```
//!
//! One run executes one seeded workload (see `README.md`) in this
//! process, checks every operation's output, and prints a report whose
//! last line is one JSON object: `correct`, `attempted`, `failed`, and
//! the metrics. Untraced runs print the end-to-end metrics; `--trace 1`
//! runs the same inputs with spans around the calls into each layer and
//! prints the per-layer metrics instead.

mod compare;
mod flow;
mod obs;
mod serve;
mod sim;
mod stats;
mod trace;

use banyan_repro::obs::json::JsonObject;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] = [
    "sim_sweep",
    "sim_blocking",
    "flow_mesh",
    "flow_banyan",
    "serve_mixed",
];

/// Set-up samples per run: this process plus fresh child processes, at
/// least the first count and, while sampling has taken under
/// `SETUP_BUDGET`, up to the second.
const SETUP_SAMPLES: (usize, usize) = (3, 9);
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Set in the environment of a `serve_mixed` run that already runs
/// pinned to one CPU.
const PINNED: &str = "BANYAN_BENCHMARK_PINNED";

/// Schema of the detailed result line `compare` reads.
pub const RESULT_SCHEMA: &str = "banyan-benchmark/result/v1";

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Tiny inputs for the smoke test.
    pub smoke: bool,
    /// Child mode: set up, run the first op, print the set-up time, exit.
    setup_only: bool,
    started: Instant,
}

impl Ctx {
    /// The instant `share` of `--seconds` from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }

    /// Records this process's time to its first result (set-up plus the
    /// first op) and, in a normal run, gathers the same from fresh child
    /// processes. Returns `None` in child mode, after printing the sample.
    pub fn setup_metric(&self) -> Option<Metric> {
        let own = self.started.elapsed().as_secs_f64();
        if self.setup_only {
            println!("setup_s {own}");
            return None;
        }
        if self.trace {
            return Some(Metric::point("setup_s", "s", own));
        }
        let mut samples = vec![own];
        let exe = std::env::current_exe().expect("path of the running benchmark");
        let begun = Instant::now();
        let (min, max) = SETUP_SAMPLES;
        while samples.len() < min || (samples.len() < max && begun.elapsed() < SETUP_BUDGET) {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                &self.workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .arg("--setup-only")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
            if self.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().expect("spawn a set-up child");
            let text = String::from_utf8_lossy(&out.stdout);
            let secs = text
                .lines()
                .filter_map(|l| l.strip_prefix("setup_s "))
                .find_map(|v| v.trim().parse::<f64>().ok());
            match (out.status.success(), secs) {
                (true, Some(s)) => samples.push(s),
                _ => panic!("set-up child failed: {} {text}", out.status),
            }
        }
        Some(Metric::median("setup_s", "s", &samples))
    }
}

/// Runs `op(i)` for i = 1, 2, … until `deadline` has passed and at least
/// `min` ops ran, or until `max` ran; returns the count.
pub fn run_until(deadline: Instant, min: u64, max: u64, mut op: impl FnMut(u64)) -> u64 {
    let mut i = 0;
    while i < max && (i < min || Instant::now() < deadline) {
        i += 1;
        op(i);
    }
    i
}

/// Every per-layer metric a traced run prints, in `BENCHMARK.json`
/// order. A workload that never reaches a layer reports its metrics as
/// 0 (no calls were made).
const PER_LAYER: [(&str, &str); 39] = [
    ("sim.warmup_share", "share"),
    ("sim.measure_share", "share"),
    ("sim.drain_share", "share"),
    ("sim.merge_ns", "ns"),
    ("sim.build_ns", "ns"),
    ("sim.run_ns", "ns"),
    ("sim.host_ns_per_msg", "ns"),
    ("sim.useful_frac", "share"),
    ("sim.rejected_frac", "share"),
    ("sim.delivered_total", "count"),
    ("flow.build_graph_ns", "ns"),
    ("flow.analysis_new_ns", "ns"),
    ("flow.gamma_ns", "ns"),
    ("flow.mean_wait_ns", "ns"),
    ("flow.var_wait_ns", "ns"),
    ("flow.wait_quantile_ns", "ns"),
    ("flow.mean_delay_ns", "ns"),
    ("flow.delay_quantile_ns", "ns"),
    ("flow.render_ns", "ns"),
    ("flow.per_flow_share", "share"),
    ("flow.tagged_hops", "count"),
    ("flow.multi_stream_links", "count"),
    ("serve.parse_ns", "ns"),
    ("serve.decode_ns", "ns"),
    ("serve.key_ns", "ns"),
    ("serve.cache_get_ns", "ns"),
    ("serve.cache_insert_ns", "ns"),
    ("serve.model_ns", "ns"),
    ("serve.render_ns", "ns"),
    ("serve.write_ns", "ns"),
    ("serve.ops_ns", "ns"),
    ("serve.hit_ratio", "share"),
    ("serve.server_p50_us", "us"),
    ("serve.transport_us", "us"),
    ("obs.counter_ns", "ns"),
    ("obs.counter_contended_ns", "ns"),
    ("obs.span_ns", "ns"),
    ("trace.overhead", "ratio"),
    ("trace.residual_share", "share"),
];

/// Ends a traced run: adds the obs-layer costs, puts the metrics in
/// `PER_LAYER` order with 0 for layers the workload does not reach, and
/// writes the spans as JSONL (`--trace-out`, or `benchmark-trace/` next
/// to the executable).
pub fn finish_trace(ctx: &Ctx, rec: &trace::Recorder, out: &mut Outcome) {
    out.metrics.extend(obs::layer_metrics());
    out.metrics = PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match out.metrics.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None => Metric::point(name, unit, 0.0),
            },
        )
        .collect();
    let path = ctx.trace_out.clone().unwrap_or_else(|| {
        let exe = std::env::current_exe().expect("path of the running benchmark");
        let dir = exe
            .parent()
            .expect("the executable has a directory")
            .join("benchmark-trace");
        dir.join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed))
    });
    let ledger = trace::Ledger::of(rec.spans());
    println!(
        "ledger: self time per span name, as a share of the {} traced ops (or of the replays outside them)",
        ledger.ops.len()
    );
    for (name, selfs) in &ledger.calls {
        println!(
            "  {name:<24} calls {:>8}  median {:>14.1} ns  share {:>7.4}",
            selfs.len(),
            stats::median(selfs),
            ledger.share(name)
        );
    }
    println!(
        "  {:<24} {:>46.4}",
        "(no layer span)",
        ledger.residual_share()
    );
    match rec.write_jsonl(&path, &ctx.workload, ctx.seed) {
        Ok(()) => eprintln!("trace: {} spans in {}", rec.spans().len(), path.display()),
        Err(e) => out.fail(format!("writing the trace {}: {e}", path.display())),
    }
}

/// One reported number with the quartiles and count of the samples it
/// summarises (`n = 1` for a single measurement).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// `value` summarises `samples`.
    pub fn from_samples(
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: &[f64],
    ) -> Metric {
        let (q1, q3) = stats::quartiles(samples);
        Metric {
            name,
            unit,
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// The median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::from_samples(name, unit, stats::median(samples), samples)
    }

    /// A single measurement or exact count.
    pub fn point(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted (the untimed first op included).
    pub attempted: u64,
    /// Operations whose output failed a check or that returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Printed and saved, never gated.
    pub diagnostics: Vec<Metric>,
}

impl Outcome {
    /// Counts one failed operation and says why on stderr (the first
    /// `MAX_REPORTED` only).
    pub fn fail(&mut self, what: String) {
        const MAX_REPORTED: u64 = 20;
        if self.failed < MAX_REPORTED {
            eprintln!("check failed: {what}");
        }
        self.failed += 1;
    }
}

/// The end-to-end metrics every untraced run reports: `throughput` in
/// units of work per second, the median latency of one op, time to the
/// first result, and peak resident memory.
pub fn end_to_end(throughput: Metric, op_ms: &[f64], setup: Metric, rss: Metric) -> Vec<Metric> {
    vec![
        throughput,
        Metric::median("latency_p50_ms", "ms", op_ms),
        setup,
        rss,
    ]
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so the next reading is the peak of what ran in between.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset the peak RSS ({e}); peaks cover the whole run");
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// CPUs of the host; a pinned run reports the count its parent saw.
fn nproc() -> usize {
    std::env::var(PINNED)
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `git rev-parse --short HEAD` when the working directory is the root
/// of a git checkout (git is not asked to search parent directories).
fn git_rev() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn metrics_json(metrics: &[Metric], detail: bool) -> String {
    let mut o = JsonObject::new();
    for m in metrics {
        let mut v = JsonObject::new();
        v.field_f64("value", m.value).field_str("unit", m.unit);
        if detail {
            v.field_f64("q1", m.q1)
                .field_f64("q3", m.q3)
                .field_u64("n", m.n as u64);
        }
        o.field_raw(m.name, &v.finish());
    }
    o.finish()
}

fn report(ctx: &Ctx, out: &Outcome) {
    let kind = if ctx.trace { "per-layer" } else { "end-to-end" };
    println!(
        "{} seed {} ({kind}, {} of {} ops failed)",
        ctx.workload, ctx.seed, out.failed, out.attempted
    );
    for (title, list) in [("metric", &out.metrics), ("diagnostic", &out.diagnostics)] {
        for m in list.iter() {
            println!(
                "  {title:<10} {:<26} {:>18.6} {:<6} n {:>7}  q1 {:.6}  q3 {:.6}",
                m.name, m.value, m.unit, m.n, m.q1, m.q3
            );
        }
    }
    let mut detail = JsonObject::new();
    detail
        .field_str("schema", RESULT_SCHEMA)
        .field_str("workload", &ctx.workload)
        .field_u64("seed", ctx.seed)
        .field_f64("seconds", ctx.seconds)
        .field_raw("trace", if ctx.trace { "true" } else { "false" })
        .field_u64("nproc", nproc() as u64);
    match git_rev() {
        Some(rev) => detail.field_str("git_rev", &rev),
        None => detail.field_raw("git_rev", "null"),
    };
    detail
        .field_u64("attempted", out.attempted)
        .field_u64("failed", out.failed)
        .field_raw("metrics", &metrics_json(&out.metrics, true))
        .field_raw("diagnostics", &metrics_json(&out.diagnostics, true));
    println!("{}", detail.finish());
    let mut last = JsonObject::new();
    last.field_raw("correct", if out.failed == 0 { "true" } else { "false" })
        .field_u64("attempted", out.attempted)
        .field_u64("failed", out.failed)
        .field_raw("metrics", &metrics_json(&out.metrics, false));
    println!("{}", last.finish());
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchmark --workload <{}> [--seed S] [--seconds N] [--trace 0|1] [--trace-out FILE] [--smoke]\n       benchmark compare <dirA> <dirB>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String], started: Instant) -> Ctx {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        smoke: false,
        setup_only: false,
        started,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => ctx.workload = value().clone(),
            "--seed" => {
                ctx.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                ctx.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                ctx.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--trace-out" => ctx.trace_out = Some(PathBuf::from(value())),
            "--smoke" => ctx.smoke = true,
            "--setup-only" => ctx.setup_only = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        usage(&format!("unknown workload '{}'", ctx.workload));
    }
    ctx
}

/// Re-runs this invocation on CPU 0 (`taskset`) and exits with its
/// status. `serve_mixed` runs pinned so its closed loop never leaves a
/// CPU idle: the client and the daemon worker hand the request over on
/// one CPU, and a round trip measures the daemon's work rather than the
/// host's wake-up latency for an idle virtual CPU, which moved qps by
/// 30% from one minute to the next on a 2-vCPU host. Without `taskset`
/// the run continues unpinned.
fn run_pinned(args: &[String]) {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let status = Command::new("taskset")
        .args(["-c", "0"])
        .arg(exe)
        .args(args)
        .env(PINNED, nproc().to_string())
        .status();
    match status {
        Ok(s) => std::process::exit(s.code().unwrap_or(1)),
        Err(e) => eprintln!("warning: cannot pin to one CPU with taskset ({e}); running unpinned"),
    }
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let ctx = parse_args(&args, started);
    if ctx.workload == "serve_mixed" && std::env::var_os(PINNED).is_none() {
        run_pinned(&args);
    }
    let outcome = match ctx.workload.as_str() {
        "sim_sweep" => sim::run(&ctx, sim::Spec::sweep(ctx.smoke)),
        "sim_blocking" => sim::run(&ctx, sim::Spec::blocking(ctx.smoke)),
        "flow_mesh" => flow::run(&ctx, flow::Spec::mesh(ctx.smoke)),
        "flow_banyan" => flow::run(&ctx, flow::Spec::banyan(ctx.smoke)),
        "serve_mixed" => serve::run(&ctx),
        _ => unreachable!("parse_args checked the workload"),
    };
    if let Some(out) = outcome {
        report(&ctx, &out);
    }
}
