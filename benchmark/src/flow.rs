//! `flow_mesh` and `flow_banyan`: the `/v1/flow` miss path.
//!
//! One op calls `serve::flow::flow_body` (the exact body `banyan flow
//! --json` prints and `/v1/flow` serves on a cache miss) once per
//! topology of the workload, each at a load `p` drawn for that op from
//! the seed. Throughput counts analysed flows.

use crate::stats::{median, Rng};
use crate::trace::{Ledger, Recorder};
use crate::{end_to_end, peak_rss_mib, reset_peak_rss, run_until, Ctx, Metric, Outcome};
use banyan_repro::core::total_delay::TotalWaiting;
use banyan_repro::flow::FlowAnalysis;
use banyan_repro::numerics::series::pmf_mean_var;
use banyan_repro::obs::json::JsonValue;
use banyan_repro::serve::answer::LEVELS;
use banyan_repro::serve::flow::{flow_body, FlowQuery, Topo};
use std::time::Instant;

/// One flow workload: topologies (query strings without `p`) with the
/// range each op's `p` is drawn from.
pub struct Spec {
    topologies: Vec<(&'static str, f64, f64)>,
    /// Check one seeded flow's full waiting pmf per op.
    pmf_check: bool,
}

impl Spec {
    /// Meshes and a fat-tree: links shared by many streams, so the
    /// tagged-stream pmf path dominates.
    pub fn mesh(smoke: bool) -> Spec {
        let topologies = if smoke {
            vec![
                ("topo=mesh&rows=3&cols=3", 0.10, 0.14),
                ("topo=fat-tree&leaves=4&spines=2&hosts=2", 0.25, 0.35),
            ]
        } else {
            vec![
                ("topo=mesh&rows=8&cols=8", 0.02, 0.03),
                ("topo=fat-tree&leaves=8&spines=4&hosts=4", 0.25, 0.35),
                ("topo=mesh&rows=4&cols=4", 0.10, 0.14),
            ]
        };
        Spec {
            topologies,
            pmf_check: true,
        }
    }

    /// Omega and butterfly banyans: one stream per link, so the §IV
    /// closure runs and the tagged path is bypassed.
    pub fn banyan(smoke: bool) -> Spec {
        let topologies = if smoke {
            vec![
                ("topo=omega&k=2&stages=5", 0.3, 0.7),
                ("topo=butterfly&k=2&stages=3&extra=1", 0.3, 0.7),
            ]
        } else {
            vec![
                ("topo=omega&k=2&stages=9", 0.3, 0.7),
                ("topo=butterfly&k=2&stages=6&extra=2", 0.3, 0.7),
            ]
        };
        Spec {
            topologies,
            pmf_check: false,
        }
    }

    /// The decoded queries of op `op`.
    fn queries(&self, ctx: &Ctx, op: u64) -> Vec<FlowQuery> {
        let mut rng = Rng::new(ctx.seed, op);
        self.topologies
            .iter()
            .map(|&(base, lo, hi)| {
                let p = rng.prob(lo, hi);
                FlowQuery::from_query_string(&format!("{base}&p={p}"))
                    .expect("workload query decodes")
            })
            .collect()
    }
}

/// One untimed-checkable op: the bodies `flow_body` returned.
fn op(qs: &[FlowQuery]) -> Result<Vec<String>, String> {
    qs.iter().map(flow_body).collect()
}

/// Output checks of op `i`; returns the number of flows analysed.
fn check(
    ctx: &Ctx,
    spec: &Spec,
    i: u64,
    qs: &[FlowQuery],
    bodies: &[String],
) -> Result<usize, String> {
    let mut flows = 0;
    for (q, body) in qs.iter().zip(bodies) {
        let doc = JsonValue::parse(body)
            .map_err(|e| format!("{}: body does not parse: {e}", q.cache_key()))?;
        let rows = doc
            .get("per_flow")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{}: no per_flow array", q.cache_key()))?;
        let omega = match q.topo {
            Topo::Omega { k, stages } => Some(TotalWaiting::new(k, stages, q.p, q.m).mean_total()),
            _ => None,
        };
        for (f, row) in rows.iter().enumerate() {
            for section in ["wait", "delay"] {
                let get = |field: &str| {
                    row.get(section)
                        .and_then(|s| s.get(field))
                        .and_then(JsonValue::as_f64)
                };
                let mean = get("mean").filter(|m| m.is_finite());
                let qs: Option<Vec<f64>> = ["p50", "p90", "p99", "p999"]
                    .iter()
                    .map(|l| get(l))
                    .collect();
                match (mean, qs) {
                    (Some(_), Some(qs)) if qs.windows(2).all(|w| w[0] <= w[1]) => {}
                    _ => {
                        return Err(format!(
                            "{} flow {f}: {section} is not finite and monotone",
                            q.cache_key()
                        ))
                    }
                }
            }
            if let Some(exact) = omega {
                let got = row
                    .get("wait")
                    .and_then(|w| w.get("mean"))
                    .and_then(JsonValue::as_f64);
                if got.map(f64::to_bits) != Some(exact.to_bits()) {
                    return Err(format!(
                        "{} flow {f}: wait.mean {got:?} != §V mean {exact}",
                        q.cache_key()
                    ));
                }
            }
        }
        flows += rows.len();
    }
    if spec.pmf_check {
        check_pmf(&qs[0], &mut Rng::new(ctx.seed, u64::MAX - i))?;
    }
    Ok(flows)
}

/// One seeded flow whose every hop is a multi-stream link (where the
/// hop pmf is exact): its waiting pmf must sum to one and carry the
/// flow's mean.
fn check_pmf(q: &FlowQuery, rng: &mut Rng) -> Result<(), String> {
    let g = q.build_graph();
    let an = FlowAnalysis::new(&g)?;
    let exact: Vec<usize> = (0..g.flows().len())
        .filter(|&f| {
            g.flows()[f]
                .path
                .iter()
                .all(|&l| an.link_streams(l).len() >= 2)
        })
        .collect();
    if exact.is_empty() {
        return Err(format!(
            "{}: no flow crosses only multi-stream links",
            q.cache_key()
        ));
    }
    let f = exact[rng.below(exact.len())];
    let pmf = an.waiting_pmf(f)?;
    let total: f64 = pmf.iter().sum();
    let (mean, _) = pmf_mean_var(&pmf);
    if (total - 1.0).abs() > 1e-9 || (mean - an.mean_wait(f)).abs() > 1e-9 {
        return Err(format!(
            "{} flow {f}: pmf sums to {total} with mean {mean}, mean_wait {}",
            q.cache_key(),
            an.mean_wait(f)
        ));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, spec: Spec) -> Option<Outcome> {
    let qs0 = spec.queries(ctx, 0);
    let first = op(&qs0);
    let setup = ctx.setup_metric()?;
    let mut out = Outcome {
        attempted: 1,
        failed: 0,
        metrics: Vec::new(),
        diagnostics: Vec::new(),
    };
    if let Err(e) = first.and_then(|b| check(ctx, &spec, 0, &qs0, &b)) {
        out.fail(format!("op 0: {e}"));
    }
    if ctx.trace {
        traced(ctx, &spec, &mut out);
        return Some(out);
    }
    let (mut rates, mut op_ms, mut rss, mut failures) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let ops = run_until(ctx.deadline(1.0), 3, u64::MAX, |i| {
        let qs = spec.queries(ctx, i);
        reset_peak_rss();
        let t = Instant::now();
        let bodies = op(&qs);
        let secs = t.elapsed().as_secs_f64();
        rss.push(peak_rss_mib());
        match bodies.and_then(|b| check(ctx, &spec, i, &qs, &b)) {
            Ok(flows) => {
                rates.push(flows as f64 / secs);
                op_ms.push(secs * 1e3);
            }
            Err(e) => failures.push(format!("op {i}: {e}")),
        }
    });
    out.attempted += ops;
    failures.into_iter().for_each(|f| out.fail(f));
    out.metrics = end_to_end(
        Metric::median("throughput", "1/s", &rates),
        &op_ms,
        setup,
        Metric::median("peak_rss_mib", "MiB", &rss),
    );
    Some(out)
}

/// The per-flow calls `flow_body` makes, in its order, each inside a
/// span; the JSON rendering is left out.
fn replay(rec: &mut Recorder, qs: &[FlowQuery]) -> Result<(), String> {
    for q in qs {
        let g = rec.span("flow.build_graph", || q.build_graph());
        let an = rec.span("flow.analysis_new", || FlowAnalysis::new(&g))?;
        for f in 0..g.flows().len() {
            let gamma = rec.span("flow.gamma", || an.gamma(f));
            rec.span("flow.mean_wait", || an.mean_wait(f));
            rec.span("flow.var_wait", || an.var_wait(f));
            for level in LEVELS {
                rec.span("flow.wait_quantile", || {
                    gamma.as_ref().map_or(0.0, |g| g.quantile(level))
                });
            }
            rec.span("flow.mean_delay", || an.mean_delay(f));
            for level in LEVELS {
                rec.span("flow.delay_quantile", || an.delay_quantile(f, level));
            }
        }
    }
    Ok(())
}

/// The traced run: every op times `flow_body` itself, then replays its
/// analytic calls once without and once with spans. Rendering is what
/// `flow_body` spends beyond the untraced replay.
fn traced(ctx: &Ctx, spec: &Spec, out: &mut Outcome) {
    let mut rec = Recorder::new();
    let (mut body_ns, mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let ops = run_until(ctx.deadline(0.25), 2, 8, |i| {
        let qs = spec.queries(ctx, i);
        let t = Instant::now();
        let bodies = op(&qs);
        body_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let plain = replay(&mut rec, &qs);
        plain_ns.push(t.elapsed().as_nanos() as f64);
        rec.set_enabled(true);
        rec.set_op(i);
        let t = Instant::now();
        rec.begin("op");
        let traced = replay(&mut rec, &qs);
        rec.end();
        traced_ns.push(t.elapsed().as_nanos() as f64);
        rec.set_enabled(false);
        if let Err(e) = plain
            .and(traced)
            .and(bodies)
            .and_then(|b| check(ctx, spec, i, &qs, &b))
        {
            failures.push(format!("op {i}: {e}"));
        }
    });
    out.attempted += ops;
    failures.into_iter().for_each(|f| out.fail(f));
    // Input shape of op 1: links fed by two or more streams, and the
    // hops that cross them.
    let (mut links, mut hops) = (0usize, 0usize);
    for q in spec.queries(ctx, 1) {
        let g = q.build_graph();
        let an = FlowAnalysis::new(&g).expect("op 1 passed its checks");
        let multi = |l: usize| an.link_streams(l).len() >= 2;
        links += (0..g.links().len()).filter(|&l| multi(l)).count();
        hops += g
            .flows()
            .iter()
            .flat_map(|f| &f.path)
            .filter(|&&l| multi(l))
            .count();
    }
    let ledger = Ledger::of(rec.spans());
    let per_flow = [
        "flow.gamma",
        "flow.mean_wait",
        "flow.var_wait",
        "flow.wait_quantile",
        "flow.mean_delay",
        "flow.delay_quantile",
    ];
    let call = |name: &'static str, metric: &'static str| {
        Metric::median(metric, "ns", ledger.samples(name))
    };
    out.metrics = vec![
        call("flow.build_graph", "flow.build_graph_ns"),
        call("flow.analysis_new", "flow.analysis_new_ns"),
        call("flow.gamma", "flow.gamma_ns"),
        call("flow.mean_wait", "flow.mean_wait_ns"),
        call("flow.var_wait", "flow.var_wait_ns"),
        call("flow.wait_quantile", "flow.wait_quantile_ns"),
        call("flow.mean_delay", "flow.mean_delay_ns"),
        call("flow.delay_quantile", "flow.delay_quantile_ns"),
        Metric::point("flow.render_ns", "ns", median(&body_ns) - median(&plain_ns)),
        Metric::point(
            "flow.per_flow_share",
            "share",
            per_flow.iter().map(|n| ledger.share(n)).sum(),
        ),
        Metric::point("flow.tagged_hops", "count", hops as f64),
        Metric::point("flow.multi_stream_links", "count", links as f64),
        Metric::point(
            "trace.overhead",
            "ratio",
            median(&traced_ns) / median(&plain_ns),
        ),
        Metric::point("trace.residual_share", "share", ledger.residual_share()),
    ];
    out.diagnostics = vec![Metric::median("flow.op_ns", "ns", &body_ns)];
    crate::finish_trace(ctx, &rec, out);
}
