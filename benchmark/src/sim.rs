//! `sim_sweep` and `sim_blocking`: replicated clocked-network simulations
//! through `run_network_replicated_with_engine(Auto)`.
//!
//! Op `i` simulates `reps` replications with base seed `seed + reps·i`,
//! so ops never share a replication seed. Op 0 is the untimed first op.
//! Replications run on one worker thread: on a 2-CPU host a second
//! worker made every op wait for whichever CPU the host slowed, and the
//! run-to-run spread grew by half.

use crate::stats::median;
use crate::trace::{Ledger, Recorder};
use crate::{end_to_end, peak_rss_mib, reset_peak_rss, run_until, Ctx, Metric, Outcome};
use banyan_repro::core::models::uniform_queue;
use banyan_repro::obs::{Telemetry, TelemetryConfig};
use banyan_repro::sim::network::{NetworkConfig, NetworkSim, NetworkStats};
use banyan_repro::sim::runner::{run_network_replicated_with_engine, ReplicationEngine};
use banyan_repro::sim::traffic::Workload;
use std::time::Instant;

/// One simulation workload.
pub struct Spec {
    k: u32,
    stages: u32,
    workload: Workload,
    buffer: Option<usize>,
    reps: u32,
    warmup: u64,
    measure: u64,
    /// Check stage 1 against Theorem 1 (uniform traffic, infinite buffers).
    theorem1: bool,
}

impl Spec {
    /// The Table-I reference point: infinite buffers, so `Auto` runs the
    /// stage-sweep lane engine.
    pub fn sweep(smoke: bool) -> Spec {
        Spec {
            k: 2,
            stages: if smoke { 4 } else { 8 },
            workload: Workload::uniform(0.5, 1),
            buffer: None,
            reps: 16,
            warmup: 200,
            measure: 2_000,
            theorem1: true,
        }
    }

    /// A hot spot into capacity-4 buffers: blocking and rejections, which
    /// the sweep cannot run, so `Auto` picks the scalar engine.
    pub fn blocking(smoke: bool) -> Spec {
        Spec {
            k: 2,
            stages: if smoke { 4 } else { 8 },
            workload: Workload::hotspot(0.6, 0.1),
            buffer: Some(4),
            reps: 4,
            warmup: 200,
            measure: 2_000,
            theorem1: false,
        }
    }

    fn config(&self, ctx: &Ctx, op: u64) -> NetworkConfig {
        let mut cfg = NetworkConfig::new(self.k, self.stages, self.workload.clone());
        cfg.buffer_capacity = self.buffer;
        cfg.warmup_cycles = self.warmup;
        cfg.measure_cycles = self.measure;
        cfg.seed = ctx.seed.wrapping_add(u64::from(self.reps) * op);
        cfg
    }

    fn run(&self, cfg: &NetworkConfig, tel: &Telemetry, engine: ReplicationEngine) -> NetworkStats {
        run_network_replicated_with_engine(cfg, self.reps, 1, tel, engine)
    }

    /// The output checks of one op (never inside a timed region).
    fn check(&self, s: &NetworkStats) -> Result<(), String> {
        if s.injected_total != s.delivered_total + s.in_flight_at_end {
            return Err(format!(
                "ledger open: injected {} != delivered {} + in flight {}",
                s.injected_total, s.delivered_total, s.in_flight_at_end
            ));
        }
        if self.theorem1 {
            let exact = uniform_queue(self.k, self.workload.p, 1)
                .expect("stable uniform queue")
                .mean_wait();
            let got = s.stage_waits[0].mean();
            if (got - exact).abs() > 0.01 {
                return Err(format!(
                    "stage-1 mean {got} is not within 0.01 of Theorem 1's {exact}"
                ));
            }
        }
        Ok(())
    }
}

/// Bit-for-bit equality of two merged results.
fn identical(a: &NetworkStats, b: &NetworkStats) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.injected == b.injected
        && a.delivered == b.delivered
        && a.injected_total == b.injected_total
        && a.delivered_total == b.delivered_total
        && a.rejected_total == b.rejected_total
        && a.in_flight_at_end == b.in_flight_at_end
        && a.cycles == b.cycles
        && a.total_hist == b.total_hist
        && same(a.total_wait.mean(), b.total_wait.mean())
        && same(a.total_wait.variance(), b.total_wait.variance())
        && a.stage_waits.len() == b.stage_waits.len()
        && a.stage_waits
            .iter()
            .zip(&b.stage_waits)
            .all(|(x, y)| same(x.mean(), y.mean()) && same(x.variance(), y.variance()))
}

pub fn run(ctx: &Ctx, spec: Spec) -> Option<Outcome> {
    let off = Telemetry::off();
    let cfg0 = spec.config(ctx, 0);
    let first = spec.run(&cfg0, &off, ReplicationEngine::Auto);
    let setup = ctx.setup_metric()?;
    let mut out = Outcome {
        attempted: 1,
        failed: 0,
        metrics: Vec::new(),
        diagnostics: Vec::new(),
    };
    if let Err(e) = spec.check(&first) {
        out.fail(format!("op 0: {e}"));
    }
    if ctx.trace {
        traced(ctx, &spec, &mut out);
    } else {
        let (mut rates, mut op_ms, mut rss, mut failures) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        out.attempted += run_until(ctx.deadline(1.0), 3, u64::MAX, |i| {
            let cfg = spec.config(ctx, i);
            reset_peak_rss();
            let t = Instant::now();
            let s = spec.run(&cfg, &off, ReplicationEngine::Auto);
            let secs = t.elapsed().as_secs_f64();
            rss.push(peak_rss_mib());
            rates.push(s.delivered_total as f64 / secs);
            op_ms.push(secs * 1e3);
            if let Err(e) = spec.check(&s) {
                failures.push(format!("op {i}: {e}"));
            }
        });
        failures.into_iter().for_each(|f| out.fail(f));
        out.metrics = end_to_end(
            Metric::median("throughput", "1/s", &rates),
            &op_ms,
            setup,
            Metric::median("peak_rss_mib", "MiB", &rss),
        );
    }
    // The scalar engine is the bit-identity witness for op 0.
    let scalar = spec.run(&cfg0, &off, ReplicationEngine::Scalar);
    if !identical(&first, &scalar) {
        out.fail("op 0: the scalar re-run is not bit-identical to Auto".to_string());
    }
    Some(out)
}

/// The traced run: ops alternate untraced and traced. A traced op runs
/// the same call with `Telemetry::on()` and imports the runner's worker,
/// merge and phase spans under the benchmark's `sim.runner` span; it
/// then replays the scalar path one replication at a time around
/// `NetworkSim::new` and `NetworkSim::run` and checks the replay is
/// bit-identical to the runner.
fn traced(ctx: &Ctx, spec: &Spec, out: &mut Outcome) {
    let mut rec = Recorder::new();
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut merge = Vec::new();
    let mut phases = [0.0f64; 3];
    let mut worker_total = 0.0;
    let mut counts: Option<NetworkStats> = None;
    let mut failures = Vec::new();
    let ops = run_until(ctx.deadline(0.25), 4, 16, |i| {
        let cfg = spec.config(ctx, i);
        if i % 2 == 1 {
            let t = Instant::now();
            let s = spec.run(&cfg, &Telemetry::off(), ReplicationEngine::Auto);
            plain_ns.push(t.elapsed().as_nanos() as f64 / s.delivered_total as f64);
            if let Err(e) = spec.check(&s) {
                failures.push(format!("op {i}: {e}"));
            }
            counts.get_or_insert(s);
            return;
        }
        rec.set_enabled(true);
        rec.set_op(i);
        rec.begin("op");
        rec.begin("sim.runner");
        let runner_id = rec.current();
        let tel = Telemetry::new(TelemetryConfig::on());
        let tel_epoch = rec.ns_at(Instant::now());
        let t = Instant::now();
        let s = spec.run(&cfg, &tel, ReplicationEngine::Auto);
        let wall = t.elapsed().as_nanos() as f64;
        rec.end();
        rec.end();
        traced_ns.push(wall / s.delivered_total as f64);
        // The runner's worker and merge spans become children of
        // sim.runner, its phase spans children of the (single) worker.
        let events = tel.spans().events();
        let mut worker = runner_id;
        for e in events.iter().filter(|e| e.name.starts_with("runner/")) {
            let start = tel_epoch + e.ts_us * 1_000;
            let id = rec.add(e.name.clone(), runner_id, start, start + e.dur_us * 1_000);
            if e.name == "runner/worker00" {
                worker = id;
            }
        }
        for e in events.iter().filter(|e| e.name.starts_with("net/")) {
            let start = tel_epoch + e.ts_us * 1_000;
            rec.add(e.name.clone(), worker, start, start + e.dur_us * 1_000);
        }
        let stat = |name: &str| tel.spans().stat(name).map_or(0.0, |s| s.total_ns as f64);
        worker_total += stat("runner/worker00");
        merge.push(stat("runner/merge"));
        for (slot, name) in phases
            .iter_mut()
            .zip(["net/warmup", "net/measure", "net/drain"])
        {
            *slot += stat(name);
        }
        // Scalar replay: seeds base + r, merged in replication order.
        rec.begin("sim.replay");
        let mut acc: Option<NetworkStats> = None;
        for r in 0..spec.reps {
            let mut c = cfg.clone();
            c.seed = cfg.seed.wrapping_add(u64::from(r));
            let sim = rec.span("sim.build", || NetworkSim::new(c));
            let part = rec.span("sim.run", || sim.run());
            match &mut acc {
                Some(a) => a.merge(&part),
                None => acc = Some(part),
            }
        }
        rec.end();
        rec.set_enabled(false);
        if !identical(&s, &acc.expect("reps > 0")) {
            failures.push(format!(
                "op {i}: the scalar replay is not bit-identical to the runner"
            ));
        } else if let Err(e) = spec.check(&s) {
            failures.push(format!("op {i}: {e}"));
        }
    });
    out.attempted += ops;
    failures.into_iter().for_each(|f| out.fail(f));
    let ledger = Ledger::of(rec.spans());
    let s = counts.expect("op 1 runs untraced");
    let worker_total = worker_total.max(1.0);
    out.metrics = vec![
        Metric::point("sim.warmup_share", "share", phases[0] / worker_total),
        Metric::point("sim.measure_share", "share", phases[1] / worker_total),
        Metric::point("sim.drain_share", "share", phases[2] / worker_total),
        Metric::median("sim.merge_ns", "ns", &merge),
        Metric::median("sim.build_ns", "ns", ledger.samples("sim.build")),
        Metric::median("sim.run_ns", "ns", ledger.samples("sim.run")),
        Metric::median("sim.host_ns_per_msg", "ns", &plain_ns),
        Metric::point(
            "sim.useful_frac",
            "share",
            s.delivered as f64 / s.delivered_total as f64,
        ),
        Metric::point(
            "sim.rejected_frac",
            "share",
            s.rejected_total as f64 / (s.injected_total + s.rejected_total) as f64,
        ),
        Metric::point("sim.delivered_total", "count", s.delivered_total as f64),
        Metric::point(
            "trace.overhead",
            "ratio",
            median(&traced_ns) / median(&plain_ns),
        ),
        Metric::point("trace.residual_share", "share", ledger.residual_share()),
    ];
    crate::finish_trace(ctx, &rec, out);
}
