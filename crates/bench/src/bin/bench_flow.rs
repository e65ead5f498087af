//! Benchmark + validation harness for the feed-forward flow engine
//! (`crates/flow`).
//!
//! Times `FlowAnalysis` end to end — graph construction, stream
//! decomposition, and every flow's mean/variance/p99 delay quantile —
//! over a spread of built-in topologies, and records
//! `results/BENCH_flow.json` (schema `banyan-bench/flow/v1`). A
//! validation block re-runs the acceptance gate: the 2×2 mesh's
//! analytic per-flow waiting distributions against an event simulation,
//! reporting the worst per-flow KS distance. Engine telemetry (spans,
//! drift gauges) lands in `results/bench_flow.manifest.json`.
//!
//! `--quick` shrinks the repeat counts and simulation budget for smoke
//! runs.

use banyan_bench::manifest::workspace_root;
use banyan_obs::json::JsonObject;
use banyan_obs::tail::{table_cdf, DriftReport};
use banyan_obs::{Manifest, Telemetry, TelemetryConfig};
use banyan_repro::flow::{butterfly, fat_tree, mesh, omega, FlowAnalysis, FlowGraph};
use banyan_repro::flow::{simulate_network, FlowSimConfig};
use std::time::Instant;

/// One timed topology: how long a full analysis takes and how it
/// scales per flow.
struct Row {
    name: String,
    nodes: usize,
    links: usize,
    flows: usize,
    wall_secs: f64,
    max_mean_wait: f64,
}

impl Row {
    fn flows_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.flows as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("name", &self.name)
            .field_u64("nodes", self.nodes as u64)
            .field_u64("links", self.links as u64)
            .field_u64("flows", self.flows as u64)
            .field_f64("wall_secs", self.wall_secs)
            .field_f64("flows_per_sec", self.flows_per_sec())
            .field_f64("max_mean_wait", self.max_mean_wait);
        o.finish()
    }
}

/// Analyzes `graph` `repeats` times (quantiles included, the full
/// query surface) and reports the best wall time — the usual
/// min-of-N benchmarking convention to suppress scheduler noise.
fn run_case(name: &str, graph: &FlowGraph, repeats: u32, tel: &Telemetry) -> Row {
    let mut best = f64::INFINITY;
    let mut max_mean_wait = 0.0f64;
    for _ in 0..repeats {
        let _span = tel.span("bench/flow/analyze");
        let t0 = Instant::now();
        let an = FlowAnalysis::new(graph).expect("bench topology must be stable");
        for f in 0..graph.flows().len() {
            max_mean_wait = max_mean_wait.max(an.mean_wait(f));
            std::hint::black_box(an.var_wait(f));
            std::hint::black_box(an.delay_quantile(f, 0.99));
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let row = Row {
        name: name.to_string(),
        nodes: graph.nodes().len(),
        links: graph.links().len(),
        flows: graph.flows().len(),
        wall_secs: best,
        max_mean_wait,
    };
    eprintln!(
        "{name}: {} flows over {} links in {:.2}ms = {:.0} flows/sec, max E(w) {:.4}",
        row.flows,
        row.links,
        best * 1e3,
        row.flows_per_sec(),
        max_mean_wait,
    );
    row
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (repeats, sim_cycles, sim_reps) = if quick { (3, 4_000, 2) } else { (10, 20_000, 4) };
    let tel = Telemetry::new(TelemetryConfig::on());
    eprintln!("bench_flow (quick={quick})");

    let cases: Vec<(&str, FlowGraph)> = vec![
        ("mesh_2x2", mesh(2, 2, 0.5, 1)),
        ("mesh_4x4", mesh(4, 4, 0.12, 1)),
        ("mesh_8x8", mesh(8, 8, 0.025, 1)),
        ("omega_k2_n6", omega(2, 6, 0.5, 1)),
        ("omega_k2_n9", omega(2, 9, 0.5, 1)),
        ("butterfly_k2_n6_extra2", butterfly(2, 6, 2, 0.5, 1)),
        ("fat_tree_8x4x4", fat_tree(8, 4, 4, 0.3, 1)),
    ];

    let started = Instant::now();
    let mut phases: Vec<(String, f64)> = Vec::new();
    let mut rows = Vec::new();
    for (name, graph) in &cases {
        let t0 = Instant::now();
        rows.push(run_case(name, graph, repeats, &tel));
        phases.push(((*name).to_string(), t0.elapsed().as_secs_f64()));
    }

    // Validation: the acceptance-gate mesh, analytic vs event sim.
    // Worst per-flow KS distance must stay inside the pinned 0.05 gate
    // (tests/flow.rs enforces it; here it is recorded as data).
    let t0 = Instant::now();
    let graph = mesh(2, 2, 0.5, 1);
    let an = FlowAnalysis::new(&graph).expect("2x2 mesh is stable at p=0.5");
    let report = simulate_network(
        &graph,
        &FlowSimConfig {
            warmup_cycles: (sim_cycles / 10).max(500),
            measure_cycles: sim_cycles,
            reps: sim_reps,
            seed: 1,
        },
    );
    let mut max_ks = 0.0f64;
    let mut sim_messages = 0u64;
    for (f, sk) in report.flows.iter().enumerate() {
        sim_messages += sk.total();
        if sk.total() == 0 {
            continue;
        }
        let table = an.wait_cdf_table(f).expect("cdf table");
        let name = format!("flow.wait.{f:03}");
        let drift = DriftReport::against(&name, sk, |x| table_cdf(&table, x), an.mean_wait(f), None);
        tel.registry()
            .gauge(&format!("net.drift.ks_ppm.{name}"))
            .set(drift.ks_ppm());
        max_ks = max_ks.max(drift.ks);
    }
    phases.push(("validation".to_string(), t0.elapsed().as_secs_f64()));
    eprintln!(
        "validation: mesh_2x2 analytic vs sim, {} messages, max KS {:.4}",
        sim_messages, max_ks
    );

    // results/BENCH_flow.json
    let mut o = JsonObject::new();
    o.field_str("schema", "banyan-bench/flow/v1")
        .field_str("suite", "flow")
        .field_str("mode", if quick { "quick" } else { "full" })
        .field_u64("repeats", u64::from(repeats));
    let row_json: Vec<String> = rows.iter().map(Row::to_json).collect();
    o.field_raw("rows", &format!("[{}]", row_json.join(", ")));
    let mut v = JsonObject::new();
    v.field_str("topo", "mesh:rows=2,cols=2")
        .field_f64("p", 0.5)
        .field_u64("cycles", sim_cycles)
        .field_u64("reps", u64::from(sim_reps))
        .field_u64("sim_messages", sim_messages)
        .field_f64("max_ks", max_ks);
    o.field_raw("validation", &v.finish());
    let mut json = o.finish_pretty(2);
    json.push('\n');
    let results = workspace_root().join("results");
    std::fs::create_dir_all(&results).expect("create results/");
    let bench_path = results.join("BENCH_flow.json");
    std::fs::write(&bench_path, json).expect("write BENCH_flow.json");
    eprintln!("wrote {}", bench_path.display());

    // The engine's manifest: span quantiles for the analysis loop and
    // the validation drift gauges.
    let mut m = Manifest::new("bench_flow");
    m.config("quick", quick)
        .config("repeats", repeats)
        .config("sim_cycles", sim_cycles)
        .config("sim_reps", sim_reps)
        .seed("sim", 1u64)
        .artifact("results/BENCH_flow.json");
    for (label, secs) in &phases {
        m.phase(label, *secs);
    }
    m.phase("total", started.elapsed().as_secs_f64());
    let manifest_path = results.join("bench_flow.manifest.json");
    let written = m
        .write(&manifest_path, Some(&tel))
        .expect("write bench_flow manifest");
    eprintln!("wrote {}", written.display());
}
