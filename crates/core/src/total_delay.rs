//! Total waiting time through an `n`-stage network (§V of the paper).
//!
//! The total waiting time is the sum of the per-stage waits. Its mean is
//! the sum of the stage means (Eq. 12 / §IV-B); its variance is the sum
//! of all covariances, which the paper approximates with a geometric
//! covariance model fitted to Table VI:
//!
//! ```text
//! σ_{i,i}   = v_i,
//! σ_{i,i+j} = a·b^{j−1}·v_i   (j ≥ 1),
//! a = (1 − 2ρ/5)·3ρ/(5k),   b = (1 − 2ρ/5)/k,   ρ = mp,
//! ```
//!
//! so the total variance is `Σ_i v_i·(1 + 2a(1 − b^{n−i})/(1 − b))`.
//! Finally, the *distribution* of the total waiting time is approximated
//! by a gamma with the predicted mean and variance — the smooth curves of
//! Figs. 3–8.

use crate::later_stages::StageConstants;
use crate::models::uniform_queue;
use banyan_stats::Gamma;

/// Prediction model for the total waiting time of a message through an
/// `n`-stage banyan network of `k × k` switches under uniform traffic
/// with constant message size `m` and input load `p`.
#[derive(Clone, Copy, Debug)]
pub struct TotalWaiting {
    k: u32,
    n: u32,
    p: f64,
    m: u32,
    constants: StageConstants,
}

impl TotalWaiting {
    /// Builds the model. Requires a stable load `ρ = mp < 1` and at
    /// least one stage.
    ///
    /// # Panics
    /// Panics on `ρ >= 1`, `n = 0`, or parameters outside their domains.
    pub fn new(k: u32, n: u32, p: f64, m: u32) -> Self {
        Self::with_constants(k, n, p, m, StageConstants::default())
    }

    /// Same, with custom interpolation constants (e.g. re-calibrated).
    pub fn with_constants(k: u32, n: u32, p: f64, m: u32, constants: StageConstants) -> Self {
        assert!(k >= 2, "switch size must be at least 2");
        assert!(n >= 1, "need at least one stage");
        assert!(m >= 1, "message size must be at least 1");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let rho = m as f64 * p;
        assert!(rho < 1.0, "traffic intensity ρ = {rho} must be below 1");
        TotalWaiting {
            k,
            n,
            p,
            m,
            constants,
        }
    }

    /// Traffic intensity `ρ = mp`.
    pub fn rho(&self) -> f64 {
        self.m as f64 * self.p
    }

    /// Number of stages.
    pub fn stages(&self) -> u32 {
        self.n
    }

    /// Predicted mean waiting time at stage `i ∈ [1, n]`.
    pub fn stage_mean(&self, i: u32) -> f64 {
        if self.m == 1 {
            self.constants.w_stage(i, self.p, self.k)
        } else {
            self.constants.w_stage_m(i, self.p, self.k, self.m as f64)
        }
    }

    /// Predicted waiting-time variance at stage `i ∈ [1, n]`.
    pub fn stage_var(&self, i: u32) -> f64 {
        if self.m == 1 {
            self.constants.v_stage(i, self.p, self.k)
        } else {
            self.constants.v_stage_m(i, self.p, self.k, self.m as f64)
        }
    }

    /// Predicted mean **total waiting time** (sum of stage means).
    pub fn mean_total(&self) -> f64 {
        (1..=self.n).map(|i| self.stage_mean(i)).sum()
    }

    /// Total-waiting variance under the *independence* assumption (sum of
    /// stage variances). §V: "summing the variances should be a good
    /// approximation" because inter-stage correlations are small.
    pub fn var_total_independent(&self) -> f64 {
        (1..=self.n).map(|i| self.stage_var(i)).sum()
    }

    /// The geometric covariance-model parameters `(a, b)` (§V):
    /// `a = (1 − 2ρ/5)·3ρ/(5k)`, `b = (1 − 2ρ/5)/k`.
    pub fn cov_params(&self) -> (f64, f64) {
        covariance_params(self.rho(), self.k)
    }

    /// The model's predicted correlation between the waiting times at two
    /// stages `lag` apart: `a·b^{lag−1}` (compared against Table VI).
    pub fn predicted_correlation(&self, lag: u32) -> f64 {
        assert!(lag >= 1, "lag must be at least 1");
        let (a, b) = self.cov_params();
        a * b.powi(lag as i32 - 1)
    }

    /// Total-waiting variance under the geometric covariance model:
    /// `Σ_i v_i·(1 + 2a(1 − b^{n−i})/(1 − b))`.
    pub fn var_total(&self) -> f64 {
        let (a, b) = self.cov_params();
        (1..=self.n)
            .map(|i| {
                let tail_len = (self.n - i) as i32;
                let factor = 1.0 + 2.0 * a * (1.0 - b.powi(tail_len)) / (1.0 - b);
                self.stage_var(i) * factor
            })
            .sum()
    }

    /// The gamma approximation of the total waiting-time distribution
    /// (§V, Figs. 3–8): moment-matched to [`TotalWaiting::mean_total`]
    /// and [`TotalWaiting::var_total`]. `None` when the load is zero
    /// (degenerate distribution at 0).
    pub fn gamma(&self) -> Option<Gamma> {
        Gamma::from_mean_var(self.mean_total(), self.var_total())
    }

    /// Total network **service** time for a constant-size message:
    /// `n + m − 1` cycles (cut-through pipelining, §V end).
    pub fn total_service(&self) -> u32 {
        self.n + self.m - 1
    }

    /// Predicted mean total *delay* (waiting plus service).
    pub fn mean_total_delay(&self) -> f64 {
        self.mean_total() + self.total_service() as f64
    }

    /// Alternative distributional approximation (§V discusses it before
    /// settling on the gamma): treat the stages as **independent and
    /// identically distributed** like the first stage and convolve the
    /// exact first-stage waiting pmf `n` times.
    ///
    /// Slightly light in the mean (deep stages wait a bit longer than
    /// the first — Eq. 10) and in the variance (it ignores the positive
    /// inter-stage covariance); the `ablation_convolution` experiment
    /// quantifies this against both the gamma model and simulation.
    pub fn waiting_pmf_convolution(&self, len: usize) -> Vec<f64> {
        let q = uniform_queue(self.k, self.p, self.m)
            .expect("constructor already validated stability");
        let stage = q.pmf(len);
        let mut acc = vec![0.0; len];
        acc[0] = 1.0;
        for _ in 0..self.n {
            let mut next = banyan_numerics::fft::convolve(&acc, &stage);
            next.truncate(len);
            acc = next;
        }
        acc
    }

    /// Approximate `q`-th quantile of the total delay.
    ///
    /// # Panics
    /// Panics unless `q ∈ (0, 1)`.
    pub fn delay_quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile level must be in (0,1)");
        let shift = self.total_service() as f64;
        match self.gamma() {
            Some(g) => shift + g.quantile(q),
            None => shift,
        }
    }
}

/// The §V geometric covariance-model parameters `(a, b)` for traffic
/// intensity `ρ` through `k × k` switches:
/// `a = (1 − 2ρ/5)·3ρ/(5k)`, `b = (1 − 2ρ/5)/k`.
///
/// Shared by [`TotalWaiting::cov_params`] and the feed-forward flow
/// engine (`banyan-flow`), which applies it per hop with that hop's
/// aggregated link intensity.
pub fn covariance_params(rho: f64, k: u32) -> (f64, f64) {
    let damp = 1.0 - 2.0 * rho / 5.0;
    let a = damp * 3.0 * rho / (5.0 * k as f64);
    let b = damp / k as f64;
    (a, b)
}

/// Total mean waiting time through `n` stages under **hot-spot**
/// (favorite-output) traffic — a §V-style composition the paper did not
/// tabulate: the exact nonuniform first stage (§III-A-3) plus the §IV-D
/// limiting approximation, interpolated with the same geometric rate `α`
/// as the uniform case.
pub fn nonuniform_total_mean(c: &StageConstants, k: u32, n: u32, p: f64, q: f64) -> f64 {
    assert!(n >= 1, "need at least one stage");
    let w1 = crate::models::nonuniform_queue(k, p, q, 1)
        .map(|fs| fs.mean_wait())
        .unwrap_or(0.0);
    let w_inf = c.w_inf_nonuniform(p, k, q, w1);
    (1..=n)
        .map(|i| {
            let frac = 1.0 - c.alpha.powi(i as i32 - 1);
            w1 + frac * (w_inf - w1)
        })
        .sum()
}

/// Total waiting-time **variance** under hot-spot traffic: per-stage §IV-D
/// variances combined with the §V geometric covariance model (`ρ = p`).
pub fn nonuniform_total_var(c: &StageConstants, k: u32, n: u32, p: f64, q: f64) -> f64 {
    assert!(n >= 1, "need at least one stage");
    let (v1, v_inf) = match crate::models::nonuniform_queue(k, p, q, 1) {
        Ok(fs) => {
            let v1 = fs.var_wait();
            (v1, c.v_inf_nonuniform(p, k, q, v1))
        }
        Err(_) => return 0.0,
    };
    let damp = 1.0 - 2.0 * p / 5.0;
    let a = damp * 3.0 * p / (5.0 * k as f64);
    let b = damp / k as f64;
    (1..=n)
        .map(|i| {
            let frac = 1.0 - c.alpha.powi(i as i32 - 1);
            let vi = v1 + frac * (v_inf - v1);
            let tail_len = (n - i) as i32;
            vi * (1.0 + 2.0 * a * (1.0 - b.powi(tail_len)) / (1.0 - b))
        })
        .sum()
}

/// Total mean waiting time through `n` stages for a **mixture of message
/// sizes** (§IV-C composition): exact mixed first stage plus `n − 1`
/// interior stages at the §IV-C corrected limit.
pub fn multi_size_total_mean(
    c: &StageConstants,
    k: u32,
    n: u32,
    p: f64,
    sizes: &[(u32, f64)],
) -> f64 {
    assert!(n >= 1, "need at least one stage");
    let fs = crate::models::mixed_queue(k, p, sizes.to_vec()).expect("stable load");
    let mbar: f64 = sizes.iter().map(|&(m, g)| m as f64 * g).sum();
    let w1 = fs.mean_wait();
    w1 + (n as f64 - 1.0) * c.w_inf_multi(p, k, mbar, w1)
}

/// Total waiting-time **variance** for a mixture of sizes: exact first
/// stage plus `n − 1` interior stages at the §IV-C corrected limiting
/// variance, combined with the §V covariance model at `ρ = m̄p`.
pub fn multi_size_total_var(
    c: &StageConstants,
    k: u32,
    n: u32,
    p: f64,
    sizes: &[(u32, f64)],
) -> f64 {
    assert!(n >= 1, "need at least one stage");
    let fs = crate::models::mixed_queue(k, p, sizes.to_vec()).expect("stable load");
    let mbar: f64 = sizes.iter().map(|&(m, g)| m as f64 * g).sum();
    let v1 = fs.var_wait();
    let v_inf = c.v_inf_multi(p, k, mbar, v1);
    let rho = mbar * p;
    let damp = 1.0 - 2.0 * rho / 5.0;
    let a = damp * 3.0 * rho / (5.0 * k as f64);
    let b = damp / k as f64;
    (1..=n)
        .map(|i| {
            let vi = if i == 1 { v1 } else { v_inf };
            let tail_len = (n - i) as i32;
            vi * (1.0 + 2.0 * a * (1.0 - b.powi(tail_len)) / (1.0 - b))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_vi_covariance_parameters() {
        // k = 2, p = 0.5, m = 1: a = 0.12, b = 0.4. Table VI's measured
        // adjacent correlations are 0.118–0.124, then 0.044–0.048 ≈ ab,
        // 0.018–0.020 ≈ ab², …
        let t = TotalWaiting::new(2, 8, 0.5, 1);
        let (a, b) = t.cov_params();
        assert!((a - 0.12).abs() < 1e-12);
        assert!((b - 0.4).abs() < 1e-12);
        assert!((t.predicted_correlation(1) - 0.12).abs() < 1e-12);
        assert!((t.predicted_correlation(2) - 0.048).abs() < 1e-12);
        assert!((t.predicted_correlation(3) - 0.0192).abs() < 1e-12);
    }

    #[test]
    fn mean_total_is_sum_of_stage_means() {
        let t = TotalWaiting::new(2, 6, 0.5, 1);
        let sum: f64 = (1..=6).map(|i| t.stage_mean(i)).sum();
        assert!((t.mean_total() - sum).abs() < 1e-13);
    }

    #[test]
    fn single_stage_is_exact_first_stage() {
        for &(p, m) in &[(0.5, 1u32), (0.125, 4)] {
            let t = TotalWaiting::new(2, 1, p, m);
            let q = uniform_queue(2, p, m).unwrap();
            let (w1, v1) = (q.mean_wait(), q.var_wait());
            assert!((t.mean_total() - w1).abs() < 1e-12);
            assert!((t.var_total_independent() - v1).abs() < 1e-10);
            // With one stage there are no cross terms.
            assert!((t.var_total() - v1).abs() < 1e-10);
        }
    }

    #[test]
    fn covariance_model_exceeds_independence() {
        // Positive inter-stage correlation ⇒ the covariance-model total
        // variance is strictly larger than the independent sum (n ≥ 2).
        for &(p, m) in &[(0.2, 1u32), (0.5, 1), (0.8, 1), (0.125, 4)] {
            let t = TotalWaiting::new(2, 9, p, m);
            assert!(t.var_total() > t.var_total_independent());
            // …but only modestly (correlations are small).
            assert!(t.var_total() < 1.6 * t.var_total_independent());
        }
    }

    #[test]
    fn mean_grows_linearly_in_stages_asymptotically() {
        let t12 = TotalWaiting::new(2, 12, 0.5, 1);
        let t9 = TotalWaiting::new(2, 9, 0.5, 1);
        let diff = t12.mean_total() - t9.mean_total();
        let winf = StageConstants::default().w_inf(0.5, 2);
        // Stages 10–12 are within α⁹ ≈ 2.6e-4 of the limit.
        assert!((diff - 3.0 * winf).abs() < 1e-4);
    }

    #[test]
    fn gamma_approx_matches_moments() {
        let t = TotalWaiting::new(2, 12, 0.5, 1);
        let g = t.gamma().unwrap();
        assert!((g.mean() - t.mean_total()).abs() < 1e-10);
        assert!((g.variance() - t.var_total()).abs() < 1e-10);
    }

    #[test]
    fn zero_load_has_no_gamma() {
        let t = TotalWaiting::new(2, 3, 0.0, 1);
        assert_eq!(t.mean_total(), 0.0);
        assert!(t.gamma().is_none());
    }

    #[test]
    fn total_service_is_cut_through() {
        assert_eq!(TotalWaiting::new(2, 12, 0.1, 4).total_service(), 15);
        assert_eq!(TotalWaiting::new(2, 3, 0.1, 1).total_service(), 3);
        let t = TotalWaiting::new(2, 6, 0.2, 4);
        assert!((t.mean_total_delay() - t.mean_total() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn m4_first_stage_uses_exact_formula() {
        let t = TotalWaiting::new(2, 6, 0.125, 4);
        let q = uniform_queue(2, 0.125, 4).unwrap();
        let (w1, v1) = (q.mean_wait(), q.var_wait());
        assert!((t.stage_mean(1) - w1).abs() < 1e-12);
        assert!((t.stage_var(1) - v1).abs() < 1e-10);
        // Interior stages use the scaled-cycle limit.
        let c = StageConstants::default();
        assert!((t.stage_mean(3) - c.w_inf_m(0.125, 2, 4.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_configurations_construct() {
        // The six table/figure configurations (VII–XII, Figs. 3–8).
        for &(p, m) in &[
            (0.2, 1u32),
            (0.05, 4),
            (0.5, 1),
            (0.125, 4),
            (0.8, 1),
            (0.2, 4),
        ] {
            for &n in &[3u32, 6, 9, 12] {
                let t = TotalWaiting::new(2, n, p, m);
                assert!(t.mean_total() > 0.0);
                assert!(t.var_total() > 0.0);
                assert!(t.gamma().is_some());
            }
        }
    }

    #[test]
    fn nonuniform_total_reduces_to_uniform_at_q0() {
        let c = StageConstants::default();
        let t = TotalWaiting::new(2, 6, 0.5, 1);
        let nu = nonuniform_total_mean(&c, 2, 6, 0.5, 0.0);
        assert!((nu - t.mean_total()).abs() < 1e-10);
    }

    #[test]
    fn nonuniform_total_decreases_with_locality() {
        let c = StageConstants::default();
        let mut prev = f64::INFINITY;
        for &q in &[0.0, 0.25, 0.5, 0.75] {
            let v = nonuniform_total_mean(&c, 2, 8, 0.5, q);
            assert!(v < prev, "q={q}");
            prev = v;
        }
        // q = 1: dedicated links, no waiting at all.
        assert!(nonuniform_total_mean(&c, 2, 8, 0.5, 1.0).abs() < 1e-10);
    }

    #[test]
    fn nonuniform_total_var_reduces_to_uniform_at_q0() {
        let c = StageConstants::default();
        let t = TotalWaiting::new(2, 6, 0.5, 1);
        let v = nonuniform_total_var(&c, 2, 6, 0.5, 0.0);
        assert!((v - t.var_total()).abs() < 1e-10, "{v} vs {}", t.var_total());
    }

    #[test]
    fn nonuniform_total_var_decreases_with_locality() {
        let c = StageConstants::default();
        let mut prev = f64::INFINITY;
        for &q in &[0.0, 0.25, 0.5, 0.75] {
            let v = nonuniform_total_var(&c, 2, 8, 0.5, q);
            assert!(v < prev && v > 0.0, "q={q}");
            prev = v;
        }
    }

    #[test]
    fn multi_size_total_var_reduces_to_constant_for_single_size() {
        let c = StageConstants::default();
        let t = TotalWaiting::new(2, 6, 0.125, 4);
        let v = multi_size_total_var(&c, 2, 6, 0.125, &[(4, 1.0)]);
        assert!(
            (v - t.var_total()).abs() < 1e-9 * (1.0 + t.var_total()),
            "{v} vs {}",
            t.var_total()
        );
    }

    #[test]
    fn multi_size_total_reduces_to_constant_for_single_size() {
        let c = StageConstants::default();
        let t = TotalWaiting::new(2, 6, 0.125, 4);
        let ms = multi_size_total_mean(&c, 2, 6, 0.125, &[(4, 1.0)]);
        assert!((ms - t.mean_total()).abs() < 1e-9, "{ms} vs {}", t.mean_total());
    }

    #[test]
    fn multi_size_total_grows_with_long_message_share() {
        let c = StageConstants::default();
        let p = 0.05;
        let lo = multi_size_total_mean(&c, 2, 6, p, &[(4, 0.9), (8, 0.1)]);
        let hi = multi_size_total_mean(&c, 2, 6, p, &[(4, 0.1), (8, 0.9)]);
        assert!(hi > lo);
    }

    #[test]
    fn convolution_model_moments_are_n_times_first_stage() {
        let t = TotalWaiting::new(2, 6, 0.5, 1);
        let pmf = t.waiting_pmf_convolution(160);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "mass {total}");
        let (mean, var) = banyan_numerics::series::pmf_mean_var(&pmf);
        let q = uniform_queue(2, 0.5, 1).unwrap();
        let (w1, v1) = (q.mean_wait(), q.var_wait());
        assert!((mean - 6.0 * w1).abs() < 1e-6);
        assert!((var - 6.0 * v1).abs() < 1e-5);
        // And therefore slightly below the §IV-aware predictions.
        assert!(mean < t.mean_total());
        assert!(var < t.var_total());
    }

    #[test]
    fn delay_distribution_is_shifted_waiting() {
        let t = TotalWaiting::new(2, 6, 0.5, 1);
        let g = t.gamma().unwrap();
        let q = t.delay_quantile(0.99);
        assert!((g.cdf(q - 6.0) - 0.99).abs() < 1e-6);
        assert!(q > t.total_service() as f64);
    }

    #[test]
    fn zero_load_delay_is_deterministic_service() {
        let t = TotalWaiting::new(2, 4, 0.0, 2);
        assert_eq!(t.delay_quantile(0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn saturated_load_panics() {
        TotalWaiting::new(2, 3, 0.25, 4);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        TotalWaiting::new(2, 0, 0.5, 1);
    }
}
