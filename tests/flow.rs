//! Tier-1 contracts for the feed-forward flow engine (`banyan-flow`).
//!
//! Two pillars:
//!
//! * **Banyan collapse** — on an omega or butterfly `FlowGraph` routing
//!   the identity permutation, the generalized engine must reproduce the
//!   §V `TotalWaiting` closed form *bit for bit* (`f64::to_bits`
//!   equality): the per-hop kernel is the same `StageConstants` law at
//!   the same `(i, k, p, m)` arguments, summed in the same order, so any
//!   bit of drift means the generalization silently changed the model.
//! * **Mesh validation** — on a 2×2 mesh with XY routing (a topology the
//!   banyan machinery cannot express) the analytic per-flow density must
//!   track the event simulator within KS < 0.05 at p = 0.5 — the
//!   `network_vs_analysis` pattern applied to the Kleinrock
//!   independence assumption.

use banyan_obs::tail::{ks_distance, table_cdf};
use banyan_prng::check::check;
use banyan_repro::flow::{butterfly, mesh, omega, simulate_flows, FlowAnalysis, FlowGraph, FlowSimConfig};
use banyan_repro::prelude::*;

/// The six table/figure-family configurations plus wider switches.
const COLLAPSE_CONFIGS: &[(u32, u32, f64, u32)] = &[
    (2, 3, 0.5, 1),
    (2, 6, 0.2, 1),
    (2, 9, 0.8, 1),
    (2, 4, 0.125, 4),
    (2, 3, 0.2, 4),
    (3, 3, 0.4, 1),
    (4, 2, 0.3, 1),
    (4, 3, 0.15, 2),
];

#[test]
fn omega_collapses_to_total_delay_bit_for_bit() {
    for &(k, n, p, m) in COLLAPSE_CONFIGS {
        let g = omega(k, n, p, m);
        let an = FlowAnalysis::new(&g).unwrap();
        let t = TotalWaiting::new(k, n, p, m);
        for f in 0..g.flows().len() {
            assert_eq!(
                an.mean_wait(f).to_bits(),
                t.mean_total().to_bits(),
                "mean k={k} n={n} p={p} m={m} flow={f}"
            );
            assert_eq!(
                an.var_wait(f).to_bits(),
                t.var_total().to_bits(),
                "var k={k} n={n} p={p} m={m} flow={f}"
            );
            assert_eq!(an.total_service(f), t.total_service());
            assert_eq!(
                an.delay_quantile(f, 0.99).to_bits(),
                t.delay_quantile(0.99).to_bits(),
                "p99 k={k} n={n} p={p} m={m} flow={f}"
            );
        }
    }
}

#[test]
fn butterfly_with_extra_stages_collapses_at_total_depth() {
    // `extra` straight stages in front of an n-stage butterfly behave
    // like an (n + extra)-stage banyan.
    for &(k, n, extra, p, m) in &[(2u32, 3u32, 0u32, 0.5, 1u32), (2, 3, 2, 0.5, 1), (3, 2, 1, 0.2, 2)] {
        let g = butterfly(k, n, extra, p, m);
        let an = FlowAnalysis::new(&g).unwrap();
        let t = TotalWaiting::new(k, n + extra, p, m);
        for f in 0..g.flows().len() {
            assert_eq!(an.mean_wait(f).to_bits(), t.mean_total().to_bits());
            assert_eq!(an.var_wait(f).to_bits(), t.var_total().to_bits());
            assert_eq!(an.total_service(f), t.total_service());
        }
    }
}

#[test]
fn random_feedforward_dags_yield_finite_normalized_densities() {
    check(24, |g| {
        // A random layered DAG: every node links forward to one random
        // next-layer node (last layer ejects), flows follow the links
        // from random start layers, so the precedence relation is
        // automatically feed-forward.
        let layers = g.usize(2..5);
        let width = g.usize(1..4);
        let mut fg = FlowGraph::new();
        let mut ids = Vec::new();
        for l in 0..layers {
            let mut row = Vec::new();
            for w in 0..width {
                let fan_in = g.u32(2..6);
                let m = g.u32(1..4);
                row.push(fg.add_node(
                    format!("n{l}x{w}"),
                    fan_in,
                    ServiceDist::Constant(m),
                ));
            }
            ids.push(row);
        }
        // One forward link per node; ejection ports on the last layer.
        let mut out_link = vec![0usize; layers * width];
        for l in 0..layers {
            for w in 0..width {
                let to = (l + 1 < layers).then(|| ids[l + 1][g.usize(0..width)]);
                out_link[ids[l][w]] = fg.add_link(ids[l][w], to);
            }
        }
        // Flows: from every node, follow out-links to ejection. Rates
        // small enough that even fully-shared links stay at ρ < 0.9
        // (≤ layers·width flows of size ≤ 3 on one link).
        let cap = 0.9 / (3.0 * (layers * width) as f64);
        for l in 0..layers {
            for w in 0..width {
                let rate = g.f64(0.001..cap);
                let mut path = vec![out_link[ids[l][w]]];
                while let Some(next) = fg.links()[*path.last().unwrap()].to {
                    path.push(out_link[next]);
                }
                let dst = {
                    let last = fg.links()[*path.last().unwrap()];
                    last.from
                };
                fg.add_flow(ids[l][w], dst, rate, path).unwrap();
            }
        }
        let an = FlowAnalysis::new(&fg).expect("ρ < 0.9 everywhere by construction");
        for f in 0..fg.flows().len() {
            let mean = an.mean_wait(f);
            let var = an.var_wait(f);
            assert!(mean.is_finite() && mean >= 0.0, "mean {mean}");
            assert!(var.is_finite() && var >= 0.0, "var {var}");
            let pmf = an.waiting_pmf(f).expect("density within support budget");
            let total: f64 = pmf.iter().sum();
            assert_eq!(total.to_bits(), 1.0f64.to_bits(), "flow {f} mass {total}");
            assert!(pmf.iter().all(|&x| (0.0..=1.0).contains(&x) && x.is_finite()));
        }
    });
}

/// The pinned acceptance gate: analytic per-flow densities on a 2×2
/// mesh (XY routing, all-to-all, p = 0.5, m = 1) vs the event
/// simulator, KS < 0.05 for every one of the 12 flows.
#[test]
fn mesh_2x2_analytic_density_matches_event_sim() {
    let g = mesh(2, 2, 0.5, 1);
    let an = FlowAnalysis::new(&g).unwrap();
    let sketches = simulate_flows(
        &g,
        &FlowSimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 40_000,
            reps: 4,
            seed: 42,
        },
    );
    for (f, sk) in sketches.iter().enumerate() {
        assert!(sk.total() > 5_000, "flow {f} undersampled: {}", sk.total());
        let table = an.wait_cdf_table(f).unwrap();
        let ks = ks_distance(sk, |x| table_cdf(&table, x));
        assert!(
            ks < 0.05,
            "flow {f}: KS {ks:.4} vs analytic density (mean sim {:.3} vs analytic {:.3})",
            sk.mean(),
            an.mean_wait(f)
        );
    }
}
