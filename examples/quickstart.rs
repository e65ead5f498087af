//! Quickstart: analyze one network configuration end to end and check the
//! formulas against a live simulation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the paper's pipeline for a 6-stage network of 2×2
//! switches at load p = 0.5 with single-cycle messages:
//!  1. exact first-stage waiting time (Theorem 1): mean, variance, full
//!     distribution, tail decay rate;
//!  2. later-stage approximations (§IV);
//!  3. total waiting time and its gamma approximation (§V);
//!  4. a simulation of the same network to confirm all of it.

use banyan_repro::prelude::*;

fn main() {
    let (k, n, p, m) = (2u32, 6u32, 0.5f64, 1u32);
    println!("=== Banyan network: {n} stages of {k}x{k} switches, p = {p}, m = {m} ===\n");

    // 1. Exact first-stage analysis (paper §II–III).
    let q = uniform_queue(k, p, m).expect("load is stable");
    println!("first stage (exact, Theorem 1):");
    println!("  traffic intensity rho      = {:.4}", q.rho());
    println!("  mean waiting time  E(w)    = {:.4}  (paper Eq. 6)", q.mean_wait());
    println!("  waiting variance   Var(w)  = {:.4}  (paper Eq. 7)", q.var_wait());
    if let Some(r) = q.tail_decay_rate() {
        println!("  tail decay                 : P(w = j) ~ C * {r:.4}^j");
    }
    let pmf = q.pmf(8);
    println!("  first probabilities        : {}",
        pmf.iter().map(|p| format!("{p:.4}")).collect::<Vec<_>>().join(" "));

    // 2. Later stages (paper §IV).
    let consts = StageConstants::default();
    println!("\nlater stages (spatial steady state approximation):");
    for i in [1u32, 2, 3, 6] {
        println!("  stage {i}: w ≈ {:.4}", consts.w_stage(i, p, k));
    }
    println!("  limit   : w∞ ≈ {:.4}, v∞ ≈ {:.4}", consts.w_inf(p, k), consts.v_inf(p, k));

    // 3. Total waiting time and the gamma approximation (paper §V).
    let model = TotalWaiting::new(k, n, p, m);
    let gamma = model.gamma().expect("nonzero load");
    println!("\ntotal waiting time over {n} stages (predicted):");
    println!("  mean = {:.4}, variance = {:.4}", model.mean_total(), model.var_total());
    println!(
        "  gamma approximation: shape {:.3}, scale {:.3}; 99th percentile = {:.2} cycles",
        gamma.shape(),
        gamma.scale(),
        gamma.quantile(0.99)
    );
    println!(
        "  total delay = waiting + service = {:.4} + {} cycles",
        model.mean_total(),
        model.total_service()
    );

    // 4. Confirm by simulation.
    println!("\nsimulating the same network (deterministic seed)...");
    let mut cfg = NetworkConfig::new(k, n, Workload::uniform(p, m));
    cfg.warmup_cycles = 5_000;
    cfg.measure_cycles = 60_000;
    let stats = run_network(cfg);
    println!("  {} messages delivered", stats.delivered);
    println!(
        "  stage-1 sim: w = {:.4}, v = {:.4}   (exact: {:.4}, {:.4})",
        stats.stage_waits[0].mean(),
        stats.stage_waits[0].variance(),
        q.mean_wait(),
        q.var_wait()
    );
    println!(
        "  total   sim: mean = {:.4}, var = {:.4}   (predicted: {:.4}, {:.4})",
        stats.total_wait.mean(),
        stats.total_wait.variance(),
        model.mean_total(),
        model.var_total()
    );
    let sim99 = stats.total_wait.quantile(0.99).unwrap();
    println!(
        "  total   sim: 99th percentile = {} cycles   (gamma: {:.2})",
        sim99,
        gamma.quantile(0.99)
    );
}
