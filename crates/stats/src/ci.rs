//! Quantiles for confidence intervals on simulation output.
//!
//! Replications are independent and seeded `base + i`, so the interval
//! for a simulated mean is a Student-t interval over replication means:
//! [`student_t_quantile`] gives its critical value and
//! [`normal_quantile`] the large-sample limit.

/// Standard-normal quantile (inverse CDF) via the Acklam rational
/// approximation (~1e-9 absolute accuracy), refined with one Halley step
/// against `erf`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1), got {p}");
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement using Φ(x) = (1 + erf(x/√2))/2 — except in
    // the extreme tails: `(x²/2).exp()` overflows to `inf` once
    // `x² / 2 > ln(f64::MAX) ≈ 709` (|x| ≳ 37.6, p ≲ 1e-308), turning
    // the result into NaN via inf·0. Out there `erf` is saturated at
    // ±1 anyway, so the refinement has no signal to work with — return
    // the Acklam estimate (~1e-9 absolute) directly.
    if x.abs() > 37.5 {
        return x;
    }
    let e = 0.5 * (1.0 + banyan_numerics::special::erf(x / std::f64::consts::SQRT_2)) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Student-t quantile (inverse CDF) with `df > 0` degrees of freedom.
///
/// Uses the exact CDF identity `F(t) = 1 − ½ I_x(df/2, ½)` with
/// `x = df/(df + t²)` for `t ≥ 0` (regularized incomplete beta from
/// `banyan_numerics`), inverted by safeguarded Newton iteration started
/// from the normal quantile. Converges to [`normal_quantile`] as
/// `df → ∞`.
pub fn student_t_quantile(p: f64, df: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1), got {p}");
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    if p == 0.5 {
        return 0.0;
    }
    // Symmetry: solve the upper half only.
    if p < 0.5 {
        return -student_t_quantile(1.0 - p, df);
    }
    // Beyond ~1e6 the t and normal quantiles agree to full f64
    // precision in the probability range callers can express.
    if df > 1e7 {
        return normal_quantile(p);
    }
    let cdf = |t: f64| 1.0 - 0.5 * banyan_numerics::reg_beta(df / 2.0, 0.5, df / (df + t * t));
    let ln_norm = banyan_numerics::ln_gamma((df + 1.0) / 2.0)
        - banyan_numerics::ln_gamma(df / 2.0)
        - 0.5 * (df * std::f64::consts::PI).ln();
    let pdf = |t: f64| (ln_norm - 0.5 * (df + 1.0) * (1.0 + t * t / df).ln()).exp();
    // Bracket [lo, hi] with cdf(lo) < p <= cdf(hi); the t quantile is
    // never below the normal one for p > 0.5.
    let mut lo = normal_quantile(p).max(0.0);
    let mut hi = (lo + 1.0) * 2.0;
    while cdf(hi) < p {
        lo = hi;
        hi *= 2.0;
        assert!(hi.is_finite(), "t-quantile bracket diverged (p={p}, df={df})");
    }
    let mut t = lo;
    for _ in 0..100 {
        let err = cdf(t) - p;
        if err >= 0.0 {
            hi = t;
        } else {
            lo = t;
        }
        let d = pdf(t);
        let mut next = if d > 0.0 { t - err / d } else { 0.5 * (lo + hi) };
        // Newton safeguard: fall back to bisection when the step leaves
        // the bracket (heavy tails make the CDF very flat for small df).
        if !(next > lo && next < hi) {
            next = 0.5 * (lo + hi);
        }
        if (next - t).abs() <= 1e-12 * t.abs().max(1.0) {
            return next;
        }
        t = next;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-12);
        assert!((normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-8);
        assert!((normal_quantile(0.841_344_746_068_542_9) - 1.0).abs() < 1e-7);
        assert!((normal_quantile(0.025) + 1.959_963_984_540_054).abs() < 1e-8);
        assert!((normal_quantile(0.999) - 3.090_232_306_167_813).abs() < 1e-7);
    }

    #[test]
    fn normal_quantile_symmetry() {
        for &p in &[0.01, 0.1, 0.3, 0.45] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn normal_quantile_rejects_bounds() {
        normal_quantile(0.0);
    }

    #[test]
    fn normal_quantile_extreme_tails_stay_finite() {
        // Regression: the Halley step's (x²/2).exp() used to overflow to
        // inf for p ≲ 1e-308 and poison the result with NaN.
        for &p in &[1e-300, 1e-305, f64::MIN_POSITIVE, 1e-308, 5e-310, 1e-312] {
            let lo = normal_quantile(p);
            assert!(lo.is_finite(), "p={p}: {lo}");
            assert!(lo < -35.0, "p={p}: {lo}");
        }
        // The upper tail saturates near 1 − ε/2 (f64 can't express
        // probabilities closer to 1); it must stay finite there too.
        let hi = normal_quantile(1.0 - f64::EPSILON / 2.0);
        assert!(hi.is_finite());
        assert!(hi > 8.0, "{hi}");
    }

    #[test]
    fn normal_quantile_monotone_into_the_tail() {
        // Monotonicity across the refinement cutoff (|x| ≈ 37.5 sits
        // between 1e-300 and 1e-310) and deep into the subnormals.
        let ps = [
            0.25,
            1e-3,
            1e-9,
            1e-30,
            1e-100,
            1e-200,
            1e-290,
            1e-300,
            1e-305,
            f64::MIN_POSITIVE,
            1e-308,
            1e-310,
            1e-315,
        ];
        let mut prev = f64::INFINITY;
        for &p in &ps {
            let x = normal_quantile(p);
            assert!(x.is_finite(), "p={p}");
            assert!(x < prev, "p={p}: {x} !< {prev}");
            prev = x;
        }
    }

    #[test]
    fn student_t_matches_published_table() {
        // Two-sided 95% critical values (p = 0.975) from standard
        // t-tables.
        for &(df, want) in &[
            (2.0, 4.302_653),
            (5.0, 2.570_582),
            (10.0, 2.228_139),
            (29.0, 2.045_230),
        ] {
            let got = student_t_quantile(0.975, df);
            assert!((got - want).abs() < 5e-6, "df={df}: {got} vs {want}");
        }
        // One-sided 95% (p = 0.95) spot checks.
        for &(df, want) in &[(1.0, 6.313_752), (4.0, 2.131_847), (29.0, 1.699_127)] {
            let got = student_t_quantile(0.95, df);
            assert!((got - want).abs() < 5e-6, "df={df}: {got} vs {want}");
        }
    }

    #[test]
    fn student_t_symmetry_and_median() {
        assert_eq!(student_t_quantile(0.5, 7.0), 0.0);
        for &p in &[0.6, 0.9, 0.99, 0.999] {
            for &df in &[1.0, 3.0, 12.0] {
                let hi = student_t_quantile(p, df);
                let lo = student_t_quantile(1.0 - p, df);
                assert!((hi + lo).abs() < 1e-9, "p={p} df={df}");
            }
        }
    }

    #[test]
    fn student_t_converges_to_normal() {
        for &p in &[0.9, 0.975, 0.995] {
            let z = normal_quantile(p);
            let mut prev = student_t_quantile(p, 2.0);
            for &df in &[5.0, 30.0, 300.0, 30_000.0] {
                let t = student_t_quantile(p, df);
                assert!(t > z - 1e-9, "t below normal at df={df}");
                assert!(t < prev + 1e-9, "not decreasing toward normal at df={df}");
                prev = t;
            }
            assert!((student_t_quantile(p, 1e6) - z).abs() < 1e-5, "p={p}");
            assert!((student_t_quantile(p, 1e8) - z).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn student_t_round_trips_through_cdf() {
        // cdf(quantile(p)) == p to high accuracy.
        for &df in &[1.0, 2.0, 7.0, 50.0] {
            for &p in &[0.55, 0.8, 0.95, 0.999] {
                let t = student_t_quantile(p, df);
                let back =
                    1.0 - 0.5 * banyan_numerics::reg_beta(df / 2.0, 0.5, df / (df + t * t));
                assert!((back - p).abs() < 1e-10, "df={df} p={p}: {back}");
            }
        }
    }
}
