//! Integration: the exact first-stage analysis (banyan-core, Theorem 1)
//! against the single-queue Lindley simulator (banyan-sim), across every
//! §III traffic/service class.

use banyan_core::models::{
    bulk_queue, geometric_queue, mixed_queue, nonuniform_queue, uniform_queue,
};
use banyan_obs::DistSketch;
use banyan_sim::queue::{ArrivalDist, QueueConfig};
use banyan_sim::runner::run_queue_replicated;
use banyan_sim::traffic::ServiceDist;
use banyan_stats::distance::total_variation;

/// Replications sharded across threads via `run_queue_replicated` — the
/// same total measured-cycle budget as the old single `run_queue` call,
/// split four ways (identical for any thread count, so this suite's
/// tolerances are as reproducible as before).
fn sim(arrivals: ArrivalDist, service: ServiceDist, cycles: u64) -> banyan_sim::QueueStats {
    const REPS: u32 = 4;
    run_queue_replicated(
        &QueueConfig {
            warmup_cycles: 20_000,
            measure_cycles: cycles / REPS as u64,
            seed: 0xD15C0,
            arrivals,
            service,
        },
        REPS,
        REPS as usize,
    )
}

/// Exact integer power sums `[n, Σv, Σv², Σv³]` over a pmf.
fn power_sums(h: &DistSketch) -> [i128; 4] {
    h.count_points().fold([0; 4], |[n, s1, s2, s3], (v, c)| {
        let (v, c) = (i128::from(v), i128::from(c));
        [n + c, s1 + v * c, s2 + v * v * c, s3 + v * v * v * c]
    })
}

/// Standard error of the mean, `s/√n` with the unbiased variance
/// `(n·Σv² − (Σv)²)/(n(n − 1))`, from the pmf's exact sums.
fn std_err(h: &DistSketch) -> f64 {
    let [n, s1, s2, _] = power_sums(h);
    if n < 2 {
        return f64::INFINITY;
    }
    let var = (n * s2 - s1 * s1) as f64 / (n * (n - 1)) as f64;
    (var / n as f64).sqrt()
}

/// Skewness `μ₃/σ³` from the pmf's exact sums: with the exact
/// numerators `n³μ₃ = n²Σv³ − 3nΣvΣv² + 2(Σv)³` and `n²σ² = nΣv² − (Σv)²`
/// the powers of `n` cancel. `0.0` for a degenerate pmf.
fn skewness(h: &DistSketch) -> f64 {
    let [n, s1, s2, s3] = power_sums(h);
    let m2 = n * s2 - s1 * s1;
    if m2 == 0 {
        return 0.0;
    }
    let m3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 * s1 * s1;
    m3 as f64 / (m2 as f64).powf(1.5)
}

fn pmf_of(values: &[u64]) -> DistSketch {
    let mut h = DistSketch::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn known_small_sample() {
    // Unbiased standard error: s² = 32/7 over eight observations; a
    // single observation has no spread estimate.
    let h = pmf_of(&[2, 4, 4, 4, 5, 5, 7, 9]);
    assert!((std_err(&h) - (32.0f64 / 7.0 / 8.0).sqrt()).abs() < 1e-15);
    assert_eq!(std_err(&pmf_of(&[3])), f64::INFINITY);
}

#[test]
fn third_moment_matches_direct_computation() {
    let xs = [1u64, 2, 2, 3, 7, 9];
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<u64>() as f64 / n;
    let mu2 = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    let mu3 = xs.iter().map(|&x| (x as f64 - mean).powi(3)).sum::<f64>() / n;
    assert!((skewness(&pmf_of(&xs)) - mu3 / mu2.powf(1.5)).abs() < 1e-12);
}

#[test]
fn symmetric_data_has_zero_skewness() {
    assert_eq!(skewness(&pmf_of(&[0, 2, 3, 4, 6])), 0.0);
    assert_eq!(skewness(&pmf_of(&[5, 5, 5])), 0.0);
}

#[test]
fn exponential_like_data_is_right_skewed() {
    // Deterministic geometric quantile sample with a small success
    // probability: skewness (2 − q)/√(1 − q) ≈ 2.
    let n = 10_000;
    let q = 0.01f64;
    let xs: Vec<u64> = (0..n)
        .map(|i| ((1.0 - (i as f64 + 0.5) / n as f64).ln() / (1.0 - q).ln()).floor() as u64)
        .collect();
    let skew = skewness(&pmf_of(&xs));
    assert!((skew - 2.0).abs() < 0.1, "{skew}");
}

/// Mean and variance agree within a few standard errors plus a small
/// relative slack.
fn assert_moments(stats: &banyan_sim::QueueStats, mean: f64, var: f64, label: &str) {
    let se = std_err(&stats.wait);
    let tol_mean = (4.0 * se + 0.01 * mean.abs()).max(0.01);
    assert!(
        (stats.wait.mean() - mean).abs() < tol_mean,
        "{label}: sim mean {} vs exact {mean}",
        stats.wait.mean()
    );
    let tol_var = (0.05 * var.abs()).max(0.02);
    assert!(
        (stats.wait.variance() - var).abs() < tol_var,
        "{label}: sim var {} vs exact {var}",
        stats.wait.variance()
    );
}

#[test]
fn uniform_single_arrivals_all_loads() {
    for &(k, p) in &[(2u32, 0.2), (2, 0.5), (2, 0.8), (4, 0.5), (8, 0.5)] {
        let q = uniform_queue(k, p, 1).unwrap();
        let stats = sim(
            ArrivalDist::UniformSwitch { k, s: k, p },
            ServiceDist::Constant(1),
            600_000,
        );
        assert_moments(&stats, q.mean_wait(), q.var_wait(), &format!("k={k},p={p}"));
    }
}

#[test]
fn constant_message_sizes() {
    for &(p, m) in &[(0.25, 2u32), (0.125, 4), (0.0625, 8)] {
        let q = uniform_queue(2, p, m).unwrap();
        let stats = sim(
            ArrivalDist::UniformSwitch { k: 2, s: 2, p },
            ServiceDist::Constant(m),
            600_000,
        );
        assert_moments(&stats, q.mean_wait(), q.var_wait(), &format!("m={m}"));
    }
}

#[test]
fn bulk_arrivals() {
    for &(p, b) in &[(0.2, 2u32), (0.1, 4)] {
        let q = bulk_queue(2, p, b).unwrap();
        let stats = sim(
            ArrivalDist::BulkSwitch { k: 2, s: 2, p, b },
            ServiceDist::Constant(1),
            600_000,
        );
        assert_moments(&stats, q.mean_wait(), q.var_wait(), &format!("b={b}"));
    }
}

#[test]
fn nonuniform_favorite_output() {
    for &(p, qf) in &[(0.5, 0.1), (0.5, 0.3), (0.8, 0.5)] {
        let q = nonuniform_queue(2, p, qf, 1).unwrap();
        let stats = sim(
            ArrivalDist::Nonuniform { k: 2, p, q: qf, b: 1 },
            ServiceDist::Constant(1),
            600_000,
        );
        assert_moments(&stats, q.mean_wait(), q.var_wait(), &format!("q={qf}"));
    }
}

#[test]
fn geometric_service() {
    for &(p, mu) in &[(0.3, 0.75), (0.2, 0.5)] {
        let q = geometric_queue(2, p, mu).unwrap();
        let stats = sim(
            ArrivalDist::UniformSwitch { k: 2, s: 2, p },
            ServiceDist::Geometric(mu),
            600_000,
        );
        assert_moments(&stats, q.mean_wait(), q.var_wait(), &format!("mu={mu}"));
    }
}

#[test]
fn mixed_sizes() {
    let sizes = vec![(4u32, 0.5), (8u32, 0.5)];
    let q = mixed_queue(2, 0.05, sizes.clone()).unwrap();
    let stats = sim(
        ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.05 },
        ServiceDist::Mixed(sizes),
        800_000,
    );
    assert_moments(&stats, q.mean_wait(), q.var_wait(), "mixed 4/8");
}

#[test]
fn full_pmf_matches_simulated_histogram() {
    // Beyond moments: the entire FFT-inverted distribution matches the
    // simulated one in total variation.
    let q = uniform_queue(2, 0.5, 1).unwrap();
    let stats = sim(
        ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.5 },
        ServiceDist::Constant(1),
        800_000,
    );
    let pmf = q.pmf(128);
    let tv = total_variation(&stats.wait, |v| pmf.get(v as usize).copied().unwrap_or(0.0));
    assert!(tv < 0.01, "TV distance = {tv}");
}

#[test]
fn utilization_equals_rho() {
    let q = uniform_queue(2, 0.6, 1).unwrap();
    let stats = sim(
        ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.6 },
        ServiceDist::Constant(1),
        400_000,
    );
    assert!((stats.utilization() - q.rho()).abs() < 0.01);
}

#[test]
fn exact_skewness_matches_simulation() {
    // Third-order transform expansion vs the exact third moment of the
    // Lindley simulator's waiting-time pmf.
    for &(k, p) in &[(2u32, 0.5), (2, 0.7)] {
        let q = uniform_queue(k, p, 1).unwrap();
        let stats = sim(
            ArrivalDist::UniformSwitch { k, s: k, p },
            ServiceDist::Constant(1),
            2_000_000,
        );
        let exact = q.skewness_wait();
        let simmed = skewness(&stats.wait);
        assert!(
            (exact - simmed).abs() < 0.05 * exact.abs().max(1.0),
            "k={k} p={p}: exact skew {exact} vs sim {simmed}"
        );
    }
}

#[test]
fn unfinished_work_moments_match_simulated_backlog() {
    // The Ψ(z) factor of Theorem 1: E[s] and Var[s] of the end-of-cycle
    // unfinished work, plus the idle probability Ψ(0).
    for &(k, p) in &[(2u32, 0.5), (4, 0.7)] {
        let q = uniform_queue(k, p, 1).unwrap();
        let stats = sim(
            ArrivalDist::UniformSwitch { k, s: k, p },
            ServiceDist::Constant(1),
            600_000,
        );
        let (es, vs) = q.unfinished_work_moments();
        assert!(
            (stats.backlog.mean() - es).abs() < 0.02 * (1.0 + es),
            "k={k} p={p}: backlog mean {} vs {es}",
            stats.backlog.mean()
        );
        assert!(
            (stats.backlog.variance() - vs).abs() < 0.05 * (1.0 + vs),
            "k={k} p={p}: backlog var {} vs {vs}",
            stats.backlog.variance()
        );
        assert!(
            (stats.idle_fraction() - q.idle_probability()).abs() < 0.01,
            "k={k} p={p}: idle {} vs {}",
            stats.idle_fraction(),
            q.idle_probability()
        );
    }
}

#[test]
fn unfinished_work_pmf_matches_simulated_backlog_distribution() {
    // The inverted Ψ(z) against the simulated backlog histogram, in
    // total variation — the quantity the §VI finite-buffer idea hinges on.
    let q = uniform_queue(2, 0.6, 1).unwrap();
    let stats = sim(
        ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.6 },
        ServiceDist::Constant(1),
        800_000,
    );
    let pmf = q.unfinished_work_pmf(128);
    let tv = total_variation(&stats.backlog, |v| {
        pmf.get(v as usize).copied().unwrap_or(0.0)
    });
    assert!(tv < 0.01, "TV = {tv}");
    // Overflow predictor vs empirical tail at a few buffer sizes.
    for b in [2usize, 4, 8] {
        let pred = q.backlog_overflow_probability(b);
        let emp = 1.0 - stats.backlog.cdf_at(b as u64 - 1);
        assert!(
            (pred - emp).abs() < 0.15 * emp.max(0.005),
            "b={b}: pred {pred} vs emp {emp}"
        );
    }
}

#[test]
fn exact_tail_decay_shows_in_simulation() {
    let q = uniform_queue(2, 0.7, 1).unwrap();
    let rate = q.tail_decay_rate().unwrap();
    let stats = sim(
        ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.7 },
        ServiceDist::Constant(1),
        2_000_000,
    );
    // Empirical log-slope of the histogram between quantile 0.9 and
    // 0.9999 (the 0.999 quantile sits on a bin boundary here, so the
    // window it spans depends on the pseudo-random stream).
    let lo = stats.wait.quantile(0.9).unwrap();
    let hi = stats.wait.quantile(0.9999).unwrap();
    assert!(hi > lo + 3, "need a visible tail: {lo}..{hi}");
    let p_lo = stats.wait.pmf_at(lo);
    let p_hi = stats.wait.pmf_at(hi);
    let emp_rate = (p_hi / p_lo).powf(1.0 / (hi - lo) as f64);
    assert!(
        (emp_rate - rate).abs() < 0.03,
        "empirical decay {emp_rate} vs analytic {rate}"
    );
}
