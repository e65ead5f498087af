//! Integration: the §V total-waiting-time predictions and the gamma
//! approximation of the full distribution (Tables VII–XII, Figs. 3–8)
//! against the network simulator.

use banyan_core::total_delay::TotalWaiting;
use banyan_obs::tail::ks_distance;
use banyan_sim::network::{run_network, NetworkConfig};
use banyan_sim::traffic::Workload;
use banyan_stats::distance::total_variation;

fn run(p: f64, m: u32, n: u32, cycles: u64) -> banyan_sim::NetworkStats {
    let mut cfg = NetworkConfig::new(2, n, Workload::uniform(p, m));
    cfg.warmup_cycles = cycles / 10;
    cfg.measure_cycles = cycles;
    cfg.seed = 0x70_7A1;
    run_network(cfg)
}

#[test]
fn mean_total_prediction_tables_vii_ix() {
    for &(p, m, n, cycles) in &[
        (0.2, 1u32, 6u32, 200_000u64),
        (0.5, 1, 6, 60_000),
        (0.5, 1, 9, 30_000),
    ] {
        let stats = run(p, m, n, cycles);
        let model = TotalWaiting::new(2, n, p, m);
        let sim = stats.total_wait.mean();
        let pred = model.mean_total();
        assert!(
            (sim - pred).abs() < 0.05 * pred + 0.02,
            "p={p} m={m} n={n}: sim {sim} vs pred {pred}"
        );
    }
}

#[test]
fn variance_total_prediction_with_covariances() {
    for &(p, m, n, cycles) in &[(0.5, 1u32, 9u32, 60_000u64), (0.2, 1, 6, 200_000)] {
        let stats = run(p, m, n, cycles);
        let model = TotalWaiting::new(2, n, p, m);
        let sim = stats.total_wait.variance();
        let pred = model.var_total();
        assert!(
            (sim - pred).abs() < 0.10 * pred + 0.02,
            "p={p} m={m} n={n}: sim var {sim} vs pred {pred}"
        );
        // The covariance model must beat the independence assumption.
        let indep = model.var_total_independent();
        assert!(
            (sim - pred).abs() <= (sim - indep).abs() + 1e-9,
            "covariance model should not be worse: sim {sim}, cov {pred}, indep {indep}"
        );
    }
}

#[test]
fn m4_total_prediction() {
    let (p, m, n) = (0.125, 4u32, 6u32);
    let stats = run(p, m, n, 300_000);
    let model = TotalWaiting::new(2, n, p, m);
    let sim = stats.total_wait.mean();
    let pred = model.mean_total();
    assert!(
        (sim - pred).abs() < 0.08 * pred,
        "sim {sim} vs pred {pred}"
    );
}

#[test]
fn gamma_approximation_matches_distribution() {
    // Fig. 5 (p = 0.5, m = 1), 6 and 9 stages: the gamma fitted to the
    // *predicted* moments tracks the simulated histogram closely.
    for &n in &[6u32, 9] {
        let stats = run(0.5, 1, n, 80_000);
        let model = TotalWaiting::new(2, n, 0.5, 1);
        let g = model.gamma().unwrap();
        let ks = ks_distance(&stats.total_wait, |x| g.cdf(x));
        assert!(ks < 0.05, "n={n}: KS = {ks}");
        let tv = total_variation(&stats.total_wait, |v| g.bin_prob(v));
        assert!(tv < 0.08, "n={n}: TV = {tv}");
    }
}

#[test]
fn gamma_tail_is_accurate() {
    // The paper stresses the tails. Compare P(W > q99) under the gamma
    // against the empirical 1%.
    let n = 9;
    let stats = run(0.5, 1, n, 150_000);
    let model = TotalWaiting::new(2, n, 0.5, 1);
    let g = model.gamma().unwrap();
    let q99 = stats.total_wait.quantile(0.99).unwrap();
    let emp = 1.0 - stats.total_wait.cdf_at(q99);
    let gam = g.sf(q99 as f64 + 1.0);
    assert!(
        (gam - emp).abs() < 0.6 * emp,
        "tail: gamma {gam} vs empirical {emp}"
    );
}

#[test]
fn total_delay_equals_waiting_plus_pipeline_service() {
    // Empty-network check embedded in a loaded one: minimum total delay
    // equals n + m − 1, i.e. minimum total waiting is 0.
    let stats = run(0.2, 4, 3, 50_000);
    assert_eq!(
        stats.total_wait.quantile(0.0),
        Some(0),
        "some message must traverse unobstructed at this load"
    );
    let model = TotalWaiting::new(2, 3, 0.2, 4);
    assert_eq!(model.total_service(), 6);
}
