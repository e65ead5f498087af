//! Event check: a small cycle-driven simulator that replays a
//! [`FlowGraph`]'s routed traffic over real queues and records each
//! flow's *observed* end-to-end waiting time as an exact
//! [`DistSketch`] — the ground truth the KS drift gauges compare the
//! analytic engine against (the `network_vs_analysis` pattern).
//!
//! Semantics mirror the clocked model everywhere the analytic engine
//! makes an assumption: every link is a batch-Lindley output port
//! (`banyan_sim::PortQueue`, the same cell as the single-queue
//! simulator), injections are Bernoulli per flow per cycle, and a
//! message whose head waited `w` cycles at one hop arrives at the next
//! hop's queue at `c + w + 1` (cut-through: the head advances after one
//! cycle of transmission). What the simulator does **not** assume is
//! independence between hops — that is precisely the Kleinrock
//! approximation under test.

use crate::graph::FlowGraph;
use banyan_obs::msgtrace::{MsgTracer, RepTrace};
use banyan_obs::DistSketch;
use banyan_prng::rngs::SmallRng;
use banyan_prng::{Rng, SeedableRng};
use banyan_sim::PortQueue;
use std::collections::BTreeMap;

/// Knobs for the event check.
#[derive(Clone, Copy, Debug)]
pub struct FlowSimConfig {
    /// Cycles discarded before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles during which injected messages are measured.
    pub measure_cycles: u64,
    /// Independent replications (seeded `seed + i`), sketches merged.
    pub reps: u32,
    /// Base seed.
    pub seed: u64,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            reps: 4,
            seed: 1,
        }
    }
}

/// Injection keeps running this long past the measure window so the
/// last measured messages traverse the network under steady load.
const COOLDOWN_CYCLES: u64 = 512;

/// Hard cap on post-injection drain cycles (a message stuck longer than
/// this means the instance is effectively unstable).
const DRAIN_CAP: u64 = 1_000_000;

/// `Msg::trace` value for untraced messages.
const TRACE_NONE: u32 = u32::MAX;

/// A message in flight: which flow it belongs to, which hop it is about
/// to queue at, the waiting accumulated so far, whether it was injected
/// inside the measure window, and (for sampled messages) its open
/// record index in the replication's [`RepTrace`].
#[derive(Clone, Copy, Debug)]
struct Msg {
    flow: u32,
    hop: u32,
    wait_acc: u64,
    measured: bool,
    trace: u32,
}

/// What the event check observed: exact waiting-time sketches per flow
/// (end-to-end) and per link (single-hop), indexed like
/// `graph.flows()` / `graph.links()`.
#[derive(Clone, Debug)]
pub struct FlowSimReport {
    /// End-to-end waiting time of each flow's measured messages.
    pub flows: Vec<DistSketch>,
    /// Per-hop waiting time observed at each link (all measured
    /// messages crossing it) — the instrument for localizing where the
    /// analytic kernel drifts.
    pub links: Vec<DistSketch>,
}

/// Runs the event check and returns one merged waiting-time sketch per
/// flow (indexed like `graph.flows()`). Deterministic for a given
/// config: replication `i` is seeded `seed + i` and replications are
/// merged in order.
pub fn simulate_flows(graph: &FlowGraph, cfg: &FlowSimConfig) -> Vec<DistSketch> {
    simulate_network(graph, cfg).flows
}

/// Like [`simulate_flows`], but also reports the per-link hop-wait
/// sketches.
pub fn simulate_network(graph: &FlowGraph, cfg: &FlowSimConfig) -> FlowSimReport {
    simulate_network_traced(graph, cfg, None)
}

/// Like [`simulate_network`], with an optional sampled per-message
/// lifecycle tracer. A traced record holds the message's injection
/// cycle and one wait per hop of its flow's path (no routing digits —
/// the path is the flow's, not per-message); the sampled set is a pure
/// function of `(seed, ordinal)` where the ordinal counts measured
/// injections in injection order, so tracing never perturbs the
/// simulation.
pub fn simulate_network_traced(
    graph: &FlowGraph,
    cfg: &FlowSimConfig,
    tracer: Option<&MsgTracer>,
) -> FlowSimReport {
    assert!(cfg.reps >= 1, "need at least one replication");
    let mut merged = FlowSimReport {
        flows: vec![DistSketch::new(); graph.flows().len()],
        links: vec![DistSketch::new(); graph.links().len()],
    };
    for i in 0..cfg.reps {
        let seed = cfg.seed.wrapping_add(u64::from(i));
        let mut rt = tracer.map(|tc| tc.rep(i, seed));
        let rep = run_once(graph, cfg, seed, &mut rt);
        if let (Some(tc), Some(rt)) = (tracer, rt) {
            tc.commit(rt);
        }
        for (m, r) in merged.flows.iter_mut().zip(&rep.flows) {
            m.merge(r);
        }
        for (m, r) in merged.links.iter_mut().zip(&rep.links) {
            m.merge(r);
        }
    }
    merged
}

fn run_once(
    graph: &FlowGraph,
    cfg: &FlowSimConfig,
    seed: u64,
    trace: &mut Option<RepTrace>,
) -> FlowSimReport {
    let links = graph.links();
    let flows = graph.flows();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ports = vec![PortQueue::new(); links.len()];
    // Calendar of future hop arrivals; forwarded messages always land
    // strictly in the future (w + 1 ≥ 1), so the current cycle's list
    // can be drained up front.
    let mut calendar: BTreeMap<u64, Vec<Msg>> = BTreeMap::new();
    let mut sketches = vec![DistSketch::new(); flows.len()];
    let mut link_sketches = vec![DistSketch::new(); links.len()];
    let inject_end = cfg.warmup_cycles + cfg.measure_cycles + COOLDOWN_CYCLES;
    let measure_end = cfg.warmup_cycles + cfg.measure_cycles;
    // Tracked-injection ordinal: counts measured injections in
    // injection order (cycle-major, flow-index-minor) whether or not a
    // tracer is attached, so the sampled set is seed-deterministic.
    let mut ord = 0u64;
    let mut cycle = 0u64;
    while cycle < inject_end || !calendar.is_empty() {
        assert!(
            cycle < inject_end + DRAIN_CAP,
            "flow event check failed to drain — instance unstable?"
        );
        let mut today = calendar.remove(&cycle).unwrap_or_default();
        if cycle < inject_end {
            for (fi, f) in flows.iter().enumerate() {
                if f.rate > 0.0 && rng.gen_bool(f.rate) {
                    let measured = cycle >= cfg.warmup_cycles && cycle < measure_end;
                    let mut tid = TRACE_NONE;
                    if measured {
                        if let Some(tr) = trace.as_mut() {
                            if tr.sampled(ord) {
                                tid = tr.begin(ord, cycle) as u32;
                            }
                        }
                        ord += 1;
                    }
                    today.push(Msg {
                        flow: fi as u32,
                        hop: 0,
                        wait_acc: 0,
                        measured,
                        trace: tid,
                    });
                }
            }
        }
        // Messages landing at the same port in the same cycle are
        // served in *random* order — a Fisher–Yates pass before the
        // stable per-port sort. Theorem 1's within-batch term averages
        // over batch positions uniformly; a deterministic tie-break
        // (e.g. flow id) would hand the same flow the front of the
        // batch every cycle and bias its observed wait low.
        for i in (1..today.len()).rev() {
            today.swap(i, rng.gen_range(0..i + 1));
        }
        today.sort_by_key(|m| flows[m.flow as usize].path[m.hop as usize]);
        for msg in today {
            let path = &flows[msg.flow as usize].path;
            let link = path[msg.hop as usize];
            let service = graph.nodes()[links[link].from].service.sample(&mut rng) as u64;
            let w = ports[link].arrive(service);
            let total = msg.wait_acc + w;
            if msg.measured {
                link_sketches[link].record(w);
            }
            if msg.trace != TRACE_NONE {
                if let Some(tr) = trace.as_mut() {
                    tr.push_wait(
                        msg.trace as usize,
                        u32::try_from(w).expect("hop wait exceeds u32"),
                    );
                }
            }
            if msg.hop as usize + 1 == path.len() {
                if msg.measured {
                    sketches[msg.flow as usize].record(total);
                }
            } else {
                calendar.entry(cycle + w + 1).or_default().push(Msg {
                    hop: msg.hop + 1,
                    wait_acc: total,
                    ..msg
                });
            }
        }
        for p in ports.iter_mut() {
            p.end_cycle();
        }
        cycle += 1;
    }
    FlowSimReport {
        flows: sketches,
        links: link_sketches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::omega;

    fn quick_cfg() -> FlowSimConfig {
        FlowSimConfig {
            warmup_cycles: 500,
            measure_cycles: 8_000,
            reps: 2,
            seed: 7,
        }
    }

    #[test]
    fn single_queue_matches_eq6_moments() {
        // One k=2-ish port fed by two flows of rate 0.25: total λ = 0.5
        // Bernoulli-superposed — close to the Binomial(2, 0.25) switch
        // port, whose Eq. 6/7 moments are E(w) = 0.25, Var(w) = 0.25.
        // Two independent Bernoulli injectors ARE Binomial(2, λ/2), so
        // the match is within statistical noise, not just approximate.
        use banyan_sim::traffic::ServiceDist;
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let out = g.add_link(a, None);
        g.add_flow(a, a, 0.25, vec![out]).unwrap();
        g.add_flow(a, a, 0.25, vec![out]).unwrap();
        let cfg = FlowSimConfig {
            measure_cycles: 60_000,
            ..quick_cfg()
        };
        let sk = simulate_flows(&g, &cfg);
        let mut all = DistSketch::new();
        all.merge(&sk[0]);
        all.merge(&sk[1]);
        assert!((all.mean() - 0.25).abs() < 0.02, "{}", all.mean());
        assert!((all.variance() - 0.25).abs() < 0.04, "{}", all.variance());
    }

    #[test]
    fn deterministic_for_fixed_seed_and_merged_across_reps() {
        let g = omega(2, 2, 0.4, 1);
        let a = simulate_flows(&g, &quick_cfg());
        let b = simulate_flows(&g, &quick_cfg());
        assert_eq!(a, b);
        let single = simulate_flows(
            &g,
            &FlowSimConfig {
                reps: 1,
                ..quick_cfg()
            },
        );
        // More reps → strictly more samples.
        assert!(a[0].total() > single[0].total());
    }

    #[test]
    fn traced_run_matches_untraced_and_validates() {
        use banyan_obs::msgtrace::{header_object, parse_trace, render_jsonl, MsgTracer};
        let g = omega(2, 2, 0.4, 1);
        let cfg = FlowSimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            reps: 2,
            seed: 11,
        };
        let plain = simulate_network(&g, &cfg);
        let tracer = MsgTracer::new(1.0);
        let traced = simulate_network_traced(&g, &cfg, Some(&tracer));
        // Tracing is purely observational.
        assert_eq!(plain.flows, traced.flows);
        let records = tracer.finish();
        // Rate 1.0: one record per measured message.
        let measured: u64 = plain.flows.iter().map(DistSketch::total).sum();
        assert_eq!(records.len() as u64, measured);
        // Hop counts are variable; the header declares stages: 0 and the
        // parser accepts per-record lengths.
        let header = header_object("flow", 0, cfg.seed, cfg.reps, 1.0).finish();
        let doc = render_jsonl(&header, &records);
        let parsed = parse_trace(&doc).expect("flow trace validates");
        assert_eq!(parsed.stages, None);
        assert_eq!(parsed.records.len(), records.len());
        // Record totals replay the end-to-end pmf exactly.
        let mut sk = vec![DistSketch::new(); g.flows().len()];
        let mut all = DistSketch::new();
        for r in &records {
            assert!(r.digits.is_empty());
            all.record(r.total_wait());
        }
        for f in &plain.flows {
            sk[0].merge(f);
        }
        assert_eq!(all, sk[0]);
        // Sub-rate sampling is a subset and deterministic.
        let t1 = MsgTracer::new(0.25);
        simulate_network_traced(&g, &cfg, Some(&t1));
        let t2 = MsgTracer::new(0.25);
        simulate_network_traced(&g, &cfg, Some(&t2));
        let (r1, r2) = (t1.finish(), t2.finish());
        assert!(!r1.is_empty() && r1.len() < records.len());
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!((a.rep, a.ord, a.inject), (b.rep, b.ord, b.inject));
            assert_eq!(a.waits, b.waits);
        }
    }

    #[test]
    fn zero_rate_flows_record_nothing() {
        use banyan_sim::traffic::ServiceDist;
        let mut g = FlowGraph::new();
        let a = g.add_node("a", 2, ServiceDist::unit());
        let out = g.add_link(a, None);
        g.add_flow(a, a, 0.0, vec![out]).unwrap();
        let sk = simulate_flows(&g, &quick_cfg());
        assert_eq!(sk[0].total(), 0);
    }
}
