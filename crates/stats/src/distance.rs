//! Distances between an empirical integer pmf and a model distribution.
//!
//! The paper judges the gamma approximation of Figs. 3–8 by eye ("an
//! incredibly good match … especially at the tails"). We quantify that
//! claim: total-variation distance against binned probabilities and the
//! relative tail-probability error here, and the Kolmogorov–Smirnov
//! distance against the continuous gamma CDF in
//! [`banyan_obs::tail::ks_distance`]. All three read the same exact pmf,
//! [`DistSketch`].

use banyan_obs::DistSketch;

/// Total-variation distance `½ Σ_v |p_emp(v) − p_model(v)|`, where the
/// model bin probability comes from `bin_prob(v)`; the model's mass beyond
/// the pmf's support is added as unmatched mass.
pub fn total_variation<F: Fn(u64) -> f64>(pmf: &DistSketch, model_bin_prob: F) -> f64 {
    let Some(last) = pmf.max_value() else {
        return 0.0;
    };
    let mut sum = 0.0;
    let mut model_mass = 0.0;
    for v in 0..=last {
        let pm = model_bin_prob(v);
        model_mass += pm;
        sum += (pmf.pmf_at(v) - pm).abs();
    }
    // Model mass beyond the observed support is pure discrepancy.
    sum += (1.0 - model_mass).max(0.0);
    0.5 * sum
}

/// Relative error of the model tail probability at the empirical `q`-th
/// quantile: `|P_model(X > x_q) − P_emp(X > x_q)| / P_emp(X > x_q)`. The
/// empirical tail is the exact count ratio `ccdf_at(x_q + 1)`, free of
/// the cancellation error in `1 − cdf_at(x_q)`.
///
/// Returns `None` if the pmf is empty or the empirical tail at that
/// point has no mass.
pub fn tail_relative_error<F: Fn(f64) -> f64>(
    pmf: &DistSketch,
    model_sf: F,
    q: f64,
) -> Option<f64> {
    let xq = pmf.quantile(q)?;
    let emp_tail = pmf.ccdf_at(xq + 1);
    if emp_tail <= 0.0 {
        return None;
    }
    let model_tail = model_sf(xq as f64 + 1.0);
    Some((model_tail - emp_tail).abs() / emp_tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::Gamma;
    use banyan_obs::tail::ks_distance;

    fn geometric_hist(r: f64, n: u64) -> DistSketch {
        // Deterministic "perfect sample": counts proportional to the pmf.
        let mut h = DistSketch::new();
        let mut remaining = n;
        let mut v = 0u64;
        while remaining > 0 && v < 200 {
            let c = ((1.0 - r) * r.powi(v as i32) * n as f64).round() as u64;
            let c = c.min(remaining);
            if c > 0 {
                h.record_n(v, c);
            }
            remaining -= c;
            v += 1;
        }
        if remaining > 0 {
            h.record_n(v, remaining);
        }
        h
    }

    #[test]
    fn ks_zero_for_matching_step_model() {
        let mut h = DistSketch::new();
        h.record_n(0, 50);
        h.record_n(1, 50);
        // Model: continuous CDF that matches the empirical one at bin edges.
        let model = |x: f64| {
            if x < 0.0 {
                0.0
            } else if x < 1.0 {
                0.5
            } else {
                1.0
            }
        };
        assert!(ks_distance(&h, model) < 1e-12);
    }

    #[test]
    fn ks_detects_shift() {
        let mut h = DistSketch::new();
        h.record_n(0, 100);
        // Model mass entirely above 5 → KS = 1.
        let model = |x: f64| if x < 5.0 { 0.0 } else { 1.0 };
        assert!((ks_distance(&h, model) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_catches_pre_jump_deviation_across_support_gap() {
        // 10% of the mass at 0, the rest at 10, model CDF climbing
        // linearly across the gap: the post-jump candidates are 0.05
        // and 0 (what the old one-sided statistic reported), but just
        // before the v=10 jump the model has climbed to 0.95 while the
        // empirical CDF is still 0.1.
        let mut h = DistSketch::new();
        h.record_n(0, 1);
        h.record_n(10, 9);
        let model = |x: f64| (x / 10.0).clamp(0.0, 1.0);
        let ks = ks_distance(&h, model);
        assert!((ks - 0.85).abs() < 1e-12, "ks = {ks}");
    }

    #[test]
    fn ks_empty_hist_is_zero() {
        let h = DistSketch::new();
        assert_eq!(ks_distance(&h, |_| 0.5), 0.0);
    }

    #[test]
    fn tv_zero_for_identical_distributions() {
        let h = geometric_hist(0.5, 1 << 20);
        let tv = total_variation(&h, |v| h.pmf_at(v));
        assert!(tv < 1e-12);
    }

    #[test]
    fn tv_one_for_disjoint_support() {
        let mut h = DistSketch::new();
        h.record_n(0, 10);
        let tv = total_variation(&h, |v| if v == 5 { 1.0 } else { 0.0 });
        assert!((tv - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_fit_to_gamma_like_histogram_is_close() {
        // Build a histogram from binned Gamma(4, 2) probabilities, then
        // check the moment-matched gamma has a small KS distance.
        let g = Gamma::new(4.0, 2.0);
        let mut h = DistSketch::new();
        let n = 1u64 << 24;
        for v in 0..200 {
            // Centered bins [v−½, v+½): integer v carries the continuous
            // mass nearest to it.
            let c = (g.bin_prob(v) * n as f64).round() as u64;
            if c > 0 {
                h.record_n(v, c);
            }
        }
        // Centered binning is mean-unbiased and inflates the variance by
        // 1/12 (Sheppard); undo it before fitting.
        let fit = Gamma::from_mean_var(h.mean(), h.variance() - 1.0 / 12.0).unwrap();
        assert!((fit.mean() - 8.0).abs() < 0.05);
        assert!((fit.variance() - 16.0).abs() < 0.2);
        let ks = ks_distance(&h, |x| fit.cdf(x));
        assert!(ks < 0.01, "ks = {ks}");
        let tv = total_variation(&h, |v| fit.bin_prob(v));
        assert!(tv < 0.02, "tv = {tv}");
    }

    #[test]
    fn tail_relative_error_of_exact_model_is_small() {
        let h = geometric_hist(0.6, 1 << 22);
        // Geometric(1-r) survival: P(X > x) = r^{floor(x)+1} for integer
        // edges; pass the continuous interpolation used by the helper.
        let r: f64 = 0.6;
        let err = tail_relative_error(&h, |x| r.powf(x), 0.9).unwrap();
        assert!(err < 0.05, "err = {err}");
    }

    #[test]
    fn tail_relative_error_none_when_no_tail() {
        let mut h = DistSketch::new();
        h.record_n(3, 10);
        assert!(tail_relative_error(&h, |_| 0.5, 0.5).is_none());
        let empty = DistSketch::new();
        assert!(tail_relative_error(&empty, |_| 0.5, 0.5).is_none());
    }
}
