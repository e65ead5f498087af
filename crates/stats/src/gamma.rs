//! The gamma distribution, fitted by moment matching.
//!
//! Paper §V: "we expect a gamma distribution with the proper expected value
//! and variance to be a good approximation [of the total waiting time] for
//! even small networks." The smooth curves in Figs. 3–8 are exactly this
//! distribution; [`Gamma::from_mean_var`] performs the fit and the methods
//! here evaluate the CDF, tail, quantiles, and per-integer-bin
//! probabilities used to overlay the simulated histograms.

use banyan_numerics::special::{inv_reg_gamma, reg_gamma_lower, reg_gamma_upper};

/// A gamma distribution with shape `α > 0` and scale `θ > 0`
/// (mean `αθ`, variance `αθ²`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution from shape and scale.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape > 0.0 && shape.is_finite(),
            "shape must be positive and finite, got {shape}"
        );
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite, got {scale}"
        );
        Gamma { shape, scale }
    }

    /// Moment-matching fit: the gamma with the given mean and variance
    /// (`shape = mean²/var`, `scale = var/mean`).
    ///
    /// Returns `None` unless both fitted parameters are positive and
    /// finite: when `mean <= 0` or `var <= 0` (a degenerate or empty
    /// waiting-time distribution, e.g. zero load), when a moment is not
    /// finite, and when `mean²/var` or `var/mean` under- or overflows
    /// (a load of `1e-300` drives `mean²/var` to 0).
    pub fn from_mean_var(mean: f64, var: f64) -> Option<Self> {
        let (shape, scale) = (mean * mean / var, var / mean);
        let valid = |x: f64| x > 0.0 && x.is_finite();
        (valid(shape) && valid(scale)).then_some(Gamma { shape, scale })
    }

    /// Shape parameter `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Mean `αθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// Variance `αθ²`.
    pub fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    /// Cumulative distribution `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_gamma_lower(self.shape, x / self.scale)
        }
    }

    /// Survival function `P(X > x)`, computed directly for tail precision.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            reg_gamma_upper(self.shape, x / self.scale)
        }
    }

    /// Probability mass the continuous approximation assigns to the
    /// integer value `v`: the mass of the centered bin `[v−½, v+½)`
    /// (clamped at 0). This is the standard continuity correction for
    /// comparing a continuous model against integer-cycle waiting times,
    /// and is what the figure overlays use.
    pub fn bin_prob(&self, v: u64) -> f64 {
        let mid = v as f64;
        self.cdf(mid + 0.5) - self.cdf(mid - 0.5)
    }

    /// Quantile function: the `q`-th quantile, `q ∈ (0, 1)`.
    ///
    /// `scale · inv_reg_gamma(shape, q)`: a Halley inversion of the
    /// regularized incomplete gamma on `P` below the median level and on
    /// the tail `Q = 1 − q` above it, so the upper quantiles the figures
    /// judge the fit by keep full relative precision. Accurate to about
    /// `1e-12` relative for every shape from `0.01` to `1000` (mesh flows
    /// fit shapes of `0.01`–`0.1`); by `1e4` the cancellation in
    /// `a ln x − x − ln Γ(a)` costs a digit, and past a few `1e4` the
    /// incomplete-gamma series itself stops converging. A quantile below
    /// the smallest normal `f64`, as very small shapes give at low
    /// levels, comes back as 0 or a subnormal.
    ///
    /// # Panics
    /// Panics if `q` is outside `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.scale * inv_reg_gamma(self.shape, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moment_fit_round_trips() {
        let g = Gamma::from_mean_var(7.5, 3.2).unwrap();
        assert!((g.mean() - 7.5).abs() < 1e-12);
        assert!((g.variance() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_fit_rejected() {
        assert!(Gamma::from_mean_var(0.0, 1.0).is_none());
        assert!(Gamma::from_mean_var(1.0, 0.0).is_none());
        assert!(Gamma::from_mean_var(-1.0, 1.0).is_none());
        assert!(Gamma::from_mean_var(f64::NAN, 1.0).is_none());
    }

    /// Finite positive moments whose fitted parameters under- or
    /// overflow are degenerate too, not a panic in `Gamma::new`.
    #[test]
    fn underflowing_or_overflowing_fit_rejected() {
        // A load of 1e-300: mean²/var underflows to 0.
        assert!(Gamma::from_mean_var(1e-300, 1e-300).is_none());
        // var/mean underflows to 0.
        assert!(Gamma::from_mean_var(1e300, 1e-300).is_none());
        // mean²/var overflows to infinity.
        assert!(Gamma::from_mean_var(1e200, 1.0).is_none());
        assert!(Gamma::from_mean_var(1.0, f64::INFINITY).is_none());
        assert!(Gamma::from_mean_var(1e-150, 1e-150).is_some());
    }

    #[test]
    fn exponential_special_case() {
        // shape 1, scale 2 is Exp(rate 1/2).
        let g = Gamma::new(1.0, 2.0);
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert!((g.cdf(x) - (1.0 - (-x / 2.0f64).exp())).abs() < 1e-12);
            assert!((g.sf(x) - (-x / 2.0f64).exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_plus_sf_is_one() {
        let g = Gamma::new(2.2, 0.9);
        for &x in &[0.0, 0.01, 1.0, 5.0, 30.0] {
            assert!((g.cdf(x) + g.sf(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bin_probs_sum_to_one() {
        let g = Gamma::new(4.0, 2.5);
        let s: f64 = (0..200).map(|v| g.bin_prob(v)).sum();
        assert!((s - 1.0).abs() < 1e-10);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let g = Gamma::new(5.5, 1.3);
        for &q in &[0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let x = g.quantile(q);
            assert!((g.cdf(x) - q).abs() < 1e-9, "q={q}");
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let g = Gamma::new(0.7, 3.0);
        let mut prev = 0.0;
        for i in 1..100 {
            let x = g.quantile(i as f64 / 100.0);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn median_of_shape1_is_ln2_scaled() {
        let g = Gamma::new(1.0, 4.0);
        assert!((g.quantile(0.5) - 4.0 * std::f64::consts::LN_2).abs() < 1e-8);
    }

    /// The median of the gamma fit to flow 0 of `banyan flow --topo mesh
    /// --rows 8 --cols 8 --p 0.025` (shape 0.0235) matches a bisection of
    /// the CDF to adjacent floats. An absolute root tolerance near
    /// `1e-12` would miss it by 10×: the median is 8.9e-14.
    #[test]
    fn mesh_8x8_flow_0_median_matches_a_bisection_oracle() {
        let g = Gamma::from_mean_var(0.023526581810293837, 0.02354966718139343).unwrap();
        assert!((g.shape() - 0.0235).abs() < 1e-4, "shape {}", g.shape());
        let (mut lo, mut hi) = (0u64, 1f64.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if g.cdf(f64::from_bits(mid)) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let oracle = f64::from_bits(hi);
        let got = g.quantile(0.5);
        assert!((got - oracle).abs() <= 1e-12 * oracle, "{got:e} vs {oracle:e}");
        assert!((8.9e-14..9.0e-14).contains(&got), "{got:e}");
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn invalid_shape_panics() {
        Gamma::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn quantile_out_of_range_panics() {
        Gamma::new(1.0, 1.0).quantile(1.0);
    }
}
