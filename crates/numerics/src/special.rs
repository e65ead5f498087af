//! Special functions: log-gamma and the regularized incomplete gamma
//! function.
//!
//! The paper (§V) approximates the distribution of a message's *total*
//! waiting time through an `n`-stage network by a gamma distribution whose
//! mean and variance come from the stage-by-stage formulas. Evaluating that
//! approximation — the smooth curves in Figs. 3–8 — requires `ln Γ(a)` and
//! the regularized lower/upper incomplete gamma functions `P(a, x)`,
//! `Q(a, x)`. These are implemented with the classic Lanczos approximation
//! and the series / continued-fraction pair (Numerical-Recipes style), both
//! standard, well-conditioned constructions. Their inverse
//! [`inv_reg_gamma`] gives the approximation's quantiles.

/// Lanczos coefficients (g = 7, n = 9), giving ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function for `x > 0`.
///
/// Accurate to roughly 14–15 significant digits over the range used here.
///
/// # Panics
/// Panics if `x <= 0` (the reflection branch is not needed by this project
/// and keeping the domain positive avoids silent NaNs).
///
/// # Examples
/// ```
/// use banyan_numerics::ln_gamma;
/// assert!((ln_gamma(1.0)).abs() < 1e-14);          // Γ(1) = 1
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12); // Γ(5) = 24
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the Lanczos sum well conditioned near 0.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = LANCZOS[0];
    let t = x + LANCZOS_G + 0.5;
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Maximum iterations for the series / continued-fraction evaluations.
const MAX_ITER: usize = 500;
const EPS: f64 = 1e-15;

/// Lower regularized incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// This is the CDF of a Gamma(shape `a`, scale 1) random variable at `x`.
/// Valid for `a > 0`, `x >= 0`; monotone from 0 to 1 in `x`.
pub fn reg_gamma_lower(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape must be positive, got {a}");
    assert!(x >= 0.0, "argument must be nonnegative, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        series_p(a, x)
    } else {
        1.0 - cont_frac_q(a, x)
    }
}

/// Upper regularized incomplete gamma `Q(a, x) = 1 − P(a, x)`.
///
/// Computed directly from the continued fraction when `x` is large so the
/// tail keeps full relative precision — this matters for the paper's
/// tail-probability comparisons (Figs. 3–8 emphasize the tails).
pub fn reg_gamma_upper(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape must be positive, got {a}");
    assert!(x >= 0.0, "argument must be nonnegative, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - series_p(a, x)
    } else {
        cont_frac_q(a, x)
    }
}

/// `P(a, x)` from the series, for `x < a + 1`.
fn series_p(a: f64, x: f64) -> f64 {
    (gamma_series(a, x).ln() + a * x.ln() - x - ln_gamma(a)).exp().min(1.0)
}

/// `Q(a, x)` from the continued fraction, for `x >= a + 1`.
fn cont_frac_q(a: f64, x: f64) -> f64 {
    ((a * x.ln() - x - ln_gamma(a)).exp() * gamma_cont_frac(a, x)).min(1.0)
}

/// Series `Σ xⁿ / (a (a+1) ⋯ (a+n))`, convergent for `x < a + 1`:
/// `P(a, x)` is this sum times the prefactor `xᵃ e⁻ˣ / Γ(a)`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum
}

/// Continued fraction (modified Lentz), convergent for `x >= a + 1`:
/// `Q(a, x)` is its value times the prefactor `xᵃ e⁻ˣ / Γ(a)`.
fn gamma_cont_frac(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Iteration cap of [`inv_reg_gamma`]; it converges in 2–5 steps.
const INV_MAX_ITER: usize = 64;

/// Upper end of [`inv_reg_gamma`]'s series window past `x = a + 1`.
/// Below `x ≈ 7` one series call costs a third or less of one
/// continued-fraction call at shapes 0.01–0.3, so accuracy and the
/// shapes in use pick the bound. With the prefactor gate below, bound
/// 3.5 still sent 72% of the p999 steps of the 4×4 mesh at p = 0.12 to
/// the continued fraction, and 4 sent none. Bounds 4 and 5 each added
/// two bisection-oracle misses on a 301-shape × 41-level probe of
/// shapes 1e-3..10 and upper levels 0.5..1 − 5e-6 (residual 2.15e-12
/// against 2e-12); bound 6 added five and bound 8 fourteen.
const SERIES_X_MAX: f64 = 4.0;

/// Smallest prefactor `xᵃ e⁻ˣ / Γ(a)` for which [`inv_reg_gamma`] uses
/// the series past `x = a + 1`. The `1 − P` it then takes for an upper
/// target carries an absolute error of about 1e-15 (mostly from
/// `ln Γ(a)`), so `x` is off by about 1e-15 / prefactor relative. On the
/// probe above, with bound 4, gates 1e-3, 2e-3, 3e-3 and 4e-3 added
/// 84, 9, 2 and 0 oracle misses (1e-3 reached 1.7e-12 in `x`, over the
/// 1e-12 tolerance); at 4e-3 the p999 of the 8×8 mesh at p = 0.025
/// falls back to the continued fraction and costs 1.9 µs instead of
/// 0.45 µs.
const SERIES_MIN_PREFACTOR: f64 = 3e-3;

/// Inverse of the lower regularized incomplete gamma: the `x >= 0` with
/// `P(a, x) = q`, i.e. the `q`-th quantile of a Gamma(shape `a`, scale 1)
/// random variable, for `a > 0` and `q ∈ (0, 1)`.
///
/// Halley's method from a Wilson–Hilferty guess (`a > 1`) or the
/// small-`x` power law `P ≈ xᵃ / Γ(a+1)` (`a <= 1`, and deep in the
/// lower tail). It solves `P(a, x) = q` for `q <= ½` and
/// `Q(a, x) = 1 − q` above, so both tails keep full relative
/// precision. `ln Γ(a)` is computed once; each step
/// computes the prefactor `xᵃ e⁻ˣ / Γ(a)` once and uses it both for
/// `P` or `Q` (times the series or continued fraction) and for the
/// density `prefactor / x` the step needs.
///
/// A step evaluates by the series where the forward functions do,
/// `x < a + 1`, and also for `x < 4` while the prefactor is at least
/// `3e-3`; elsewhere by the continued fraction. Past `a + 1` an upper
/// target then reads `Q` as `1 − P`, which costs about `ε / prefactor`
/// relative in `x`, and the prefactor gate keeps that under the
/// tolerance. The small shapes meshes fit put their upper quantiles
/// and the Halley iterates toward them in that window (shape 0.05: p99
/// at `x ≈ 1.1`, p999 at `x ≈ 2.7`), where the series converges in
/// 15–30 terms of one division each, against 35–65 terms of two
/// divisions for the continued fraction. On a 2-vCPU Xeon VM a shape-0.05
/// p99 takes 0.35 µs instead of 4.8 µs and a p999 0.32 µs instead of
/// 1.85 µs; p50 and p90 (0.1–0.3 µs) never left the series.
///
/// A step that would leave the bracket of points already evaluated is
/// replaced by a bisection. Stops when a step moves `x` by at most
/// `1e-12·x`. A quantile below the smallest normal `f64` comes back as
/// 0 or a subnormal.
///
/// # Panics
/// Panics unless `a > 0` and `q ∈ (0, 1)`.
///
/// # Examples
/// ```
/// use banyan_numerics::special::{inv_reg_gamma, reg_gamma_lower};
/// let x = inv_reg_gamma(2.5, 0.9);
/// assert!((reg_gamma_lower(2.5, x) - 0.9).abs() < 1e-14);
/// // Shape 1 is the unit exponential: the median is ln 2.
/// assert!((inv_reg_gamma(1.0, 0.5) - std::f64::consts::LN_2).abs() < 1e-15);
/// ```
pub fn inv_reg_gamma(a: f64, q: f64) -> f64 {
    assert!(a > 0.0 && a.is_finite(), "shape must be positive and finite, got {a}");
    assert!(q > 0.0 && q < 1.0, "quantile level must be in (0,1), got {q}");
    let lga = ln_gamma(a);
    // 1 − q is exact for q >= ½ (Sterbenz), so the upper target is too.
    let upper = q > 0.5;
    let mut x = inv_gamma_guess(a, q, lga);
    if x == 0.0 {
        // The power law underflowed: the quantile is below every f64.
        return 0.0;
    }
    // Bracket: P(lo) < q <= P(hi).
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    for _ in 0..INV_MAX_ITER {
        let pref = (a * x.ln() - x - lga).exp();
        let series = x < a + 1.0 || (x < SERIES_X_MAX && pref >= SERIES_MIN_PREFACTOR);
        // err = P(x) − q, evaluated on the side that keeps its digits.
        let err = match (upper, series) {
            (false, true) => pref * gamma_series(a, x) - q,
            (false, false) => (1.0 - pref * gamma_cont_frac(a, x)) - q,
            (true, true) => (1.0 - q) - (1.0 - pref * gamma_series(a, x)),
            (true, false) => (1.0 - q) - pref * gamma_cont_frac(a, x),
        };
        if err == 0.0 {
            return x;
        }
        if err < 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        // Halley: f = P − q, f' = pref/x, f''/f' = (a − 1)/x − 1, with the
        // curvature correction capped so the denominator stays >= ½.
        let u = err * x / pref;
        let step = u / (1.0 - 0.5 * (u * ((a - 1.0) / x - 1.0)).min(1.0));
        let next = x - step;
        if step.abs() <= 1e-12 * next.abs() {
            // Converged. A step this small can leave the bracket only by
            // rounding onto one of its ends.
            return next.clamp(lo, hi);
        }
        x = if next > lo && next < hi {
            next
        } else if hi.is_infinite() {
            2.0 * lo
        } else if lo == 0.0 {
            // P ∝ xᵃ near 0: this halves P.
            hi * 0.5f64.powf(1.0 / a)
        } else {
            // Not (lo·hi).sqrt(): the product underflows to 0 once the
            // bracket lies below about 1e-154, and 0 is a fixed point.
            lo.sqrt() * hi.sqrt()
        };
    }
    x
}

/// Starting point of [`inv_reg_gamma`] (after Numerical Recipes §6.2.1).
fn inv_gamma_guess(a: f64, q: f64, lga: f64) -> f64 {
    // P(a, x) ≈ xᵃ / Γ(a + 1) for small x, and ln Γ(a + 1) = ln Γ(a) + ln a.
    let power_law = ((q.ln() + lga + a.ln()) / a).exp();
    if a > 1.0 {
        // Wilson–Hilferty: (X/a)^(1/3) is nearly normal. z ≈ Φ⁻¹(q)
        // from a rational approximation good to ~3e-3. Deep in the lower
        // tail the cube collapses and the power law is the better guess.
        let tail = if q < 0.5 { q } else { 1.0 - q };
        let t = (-2.0 * tail.ln()).sqrt();
        let mut z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
        if q > 0.5 {
            z = -z;
        }
        let base = (1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt())).max(0.0);
        let wilson_hilferty = a * base * base * base;
        return if q < 0.5 { wilson_hilferty.max(power_law) } else { wilson_hilferty };
    }
    let t = 1.0 - a * (0.253 + a * 0.12);
    if q < t {
        return power_law;
    }
    // Upper tail: Q(a, x) ≈ x^(a−1) e⁻ˣ / Γ(a), solved by one fixed-point
    // step from the exponential guess Q ≈ e^(1−x)·(1 − t).
    let x0 = 1.0 - ((1.0 - q) / (1.0 - t)).ln();
    -(1.0 - q).ln() - lga + (a - 1.0) * x0.ln()
}

/// Natural logarithm of the (complete) beta function,
/// `ln B(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a + b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive, got ({a}, {b})");
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Regularized incomplete beta function `I_x(a, b)` — the CDF of a
/// Beta(a, b) random variable at `x`. Monotone from 0 to 1 in `x`, with
/// the symmetry `I_x(a, b) = 1 − I_{1−x}(b, a)`.
///
/// Evaluated by the standard continued fraction (modified Lentz), using
/// whichever of the two symmetric forms converges fast
/// (`x < (a+1)/(a+b+2)` picks the direct one). This is the machinery
/// behind the Student-t CDF of `banyan_stats::ci::student_t_quantile`:
/// `F_df(t) = 1 − ½ I_{df/(df+t²)}(df/2, ½)` for `t ≥ 0`.
pub fn reg_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive, got ({a}, {b})");
    assert!((0.0..=1.0).contains(&x), "argument must be in [0,1], got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() * beta_cont_frac(a, b, x) / a).clamp(0.0, 1.0)
    } else {
        (1.0 - ln_front.exp() * beta_cont_frac(b, a, 1.0 - x) / b).clamp(0.0, 1.0)
    }
}

/// Continued fraction for the incomplete beta (modified Lentz),
/// convergent for `x < (a+1)/(a+b+2)`.
fn beta_cont_frac(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Error function, via the incomplete gamma identity
/// `erf(x) = P(1/2, x²)` for `x >= 0` (odd extension for `x < 0`).
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        reg_gamma_lower(0.5, x * x)
    } else {
        -reg_gamma_lower(0.5, x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_of_integers_is_factorial() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            let lg = ln_gamma(n as f64);
            assert!(
                (lg - fact.ln()).abs() < 1e-11 * fact.ln().abs().max(1.0),
                "Γ({n})"
            );
            fact *= n as f64;
        }
    }

    #[test]
    fn gamma_half_is_sqrt_pi() {
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-13);
    }

    #[test]
    fn gamma_recurrence_holds() {
        for &x in &[0.1, 0.7, 1.3, 2.9, 7.5, 31.4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            assert!((lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0), "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn incomplete_gamma_limits() {
        assert_eq!(reg_gamma_lower(2.5, 0.0), 0.0);
        assert_eq!(reg_gamma_upper(2.5, 0.0), 1.0);
        assert!((reg_gamma_lower(2.5, 1e3) - 1.0).abs() < 1e-12);
        assert!(reg_gamma_upper(2.5, 1e3) < 1e-12);
    }

    #[test]
    fn lower_plus_upper_is_one() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 50.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 60.0] {
                let s = reg_gamma_lower(a, x) + reg_gamma_upper(a, x);
                assert!((s - 1.0).abs() < 1e-12, "a={a} x={x} s={s}");
            }
        }
    }

    #[test]
    fn exponential_special_case() {
        // a = 1: P(1, x) = 1 - e^{-x}.
        for &x in &[0.1f64, 0.5, 1.0, 2.0, 5.0, 20.0] {
            let want: f64 = 1.0 - (-x).exp();
            assert!((reg_gamma_lower(1.0, x) - want).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn erlang_special_case() {
        // a = 3 (integer): Q(3, x) = e^{-x}(1 + x + x²/2).
        for &x in &[0.2f64, 1.0, 2.5, 8.0] {
            let want = (-x).exp() * (1.0 + x + 0.5 * x * x);
            assert!((reg_gamma_upper(3.0, x) - want).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn p_is_monotone_in_x() {
        let a = 4.2;
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = reg_gamma_lower(a, x);
            assert!(p >= prev - 1e-15);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    /// Independent reference for [`inv_reg_gamma`]: bisection on the bit
    /// patterns of non-negative floats (which order like the floats)
    /// down to two adjacent floats, on `P` for `q <= ½` and on `Q`
    /// above. Returns the smallest float on the far side of the level.
    fn inv_reg_gamma_by_bisection(a: f64, q: f64) -> f64 {
        let below = |x: f64| {
            if q <= 0.5 {
                reg_gamma_lower(a, x) < q
            } else {
                reg_gamma_upper(a, x) > 1.0 - q
            }
        };
        let (mut lo, mut hi) = (0u64, f64::MAX.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if below(f64::from_bits(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        f64::from_bits(hi)
    }

    /// Asserts that `inv_reg_gamma(a, q)` agrees with the bisection
    /// oracle to 1e-12 relative, and that its residual in the tail it
    /// solves on (`P` for `q <= ½`, `Q` above) is at most 2e-12
    /// relative. A quantile below the smallest normal float must come
    /// back below it.
    fn assert_matches_the_oracle(a: f64, q: f64) {
        let x = inv_reg_gamma(a, q);
        let x_ref = inv_reg_gamma_by_bisection(a, q);
        if x_ref < f64::MIN_POSITIVE {
            assert!(
                x < f64::MIN_POSITIVE,
                "a={a} q={q}: {x} vs subnormal {x_ref}"
            );
            return;
        }
        let rel = (x - x_ref).abs() / x_ref;
        assert!(rel <= 1e-12, "a={a} q={q}: x={x} x_ref={x_ref} rel={rel:e}");
        let residual = if q <= 0.5 {
            (reg_gamma_lower(a, x) - q).abs() / q
        } else {
            (reg_gamma_upper(a, x) - (1.0 - q)).abs() / (1.0 - q)
        };
        assert!(
            residual <= 2e-12,
            "a={a} q={q}: x={x} residual={residual:e}"
        );
    }

    /// Shapes 1e-3..1000 (geometric, ratio 1.70) × fourteen levels from
    /// 1e-6 to 1 − 1e-9. The upper levels 0.95–0.9999 at shapes below 1
    /// land in the series window past `a + 1`; a prefactor gate of 3e-4
    /// fails here at q = 0.9999.
    #[test]
    fn inv_reg_gamma_matches_the_bisection_oracle() {
        const LEVELS: [f64; 14] = [
            1e-6,
            1e-3,
            0.05,
            0.3,
            0.5,
            0.7,
            0.9,
            0.95,
            0.99,
            0.995,
            0.999,
            0.9999,
            1.0 - 1e-6,
            1.0 - 1e-9,
        ];
        const STEPS: i32 = 26;
        for i in 0..=STEPS {
            let a = 1e-3 * 1e6f64.powf(f64::from(i) / f64::from(STEPS));
            for q in LEVELS {
                assert_matches_the_oracle(a, q);
            }
        }
    }

    /// The series window's prefactor gate: at q = 0.9995 the shapes
    /// 0.003–0.1 put the quantile at `x ≈ 1.2–3.9` with prefactors
    /// 1e-3–2.4e-3, where `1 − P` has lost too many digits. Gates of
    /// 1e-3 and 2e-3 miss the oracle at 8 and 2 of these 61 shapes
    /// (up to 1.3e-12 in `x`, 3.8e-12 residual).
    #[test]
    fn inv_reg_gamma_gates_the_series_window_by_its_prefactor() {
        const STEPS: i32 = 60;
        for i in 0..=STEPS {
            let a = 3e-3 * (100.0f64 / 3.0).powf(f64::from(i) / f64::from(STEPS));
            assert_matches_the_oracle(a, 0.9995);
        }
    }

    /// A bisection fallback whose bracket lies below about 1e-154 must
    /// not underflow to 0 (from which the iteration never leaves). At
    /// shape 9.44e-5 the prefactor is about 9e-5, so the upper-tail
    /// residual `1 − P` resolves `x` only to ε / prefactor ≈ 2.5e-12
    /// relative: the oracle bound is 1e-11 here, not the grid's 1e-12.
    #[test]
    fn inv_reg_gamma_bisects_tiny_brackets_without_underflow() {
        let (a, q) = (9.44e-5, 0.95);
        let x = inv_reg_gamma(a, q);
        let x_ref = inv_reg_gamma_by_bisection(a, q);
        assert!(x_ref > f64::MIN_POSITIVE, "oracle {x_ref:e}");
        assert!(x > 0.0, "a={a} q={q}: underflowed to {x}");
        let rel = (x - x_ref).abs() / x_ref;
        assert!(
            rel <= 1e-11,
            "a={a} q={q}: x={x:e} x_ref={x_ref:e} rel={rel:e}"
        );
    }

    #[test]
    fn inv_reg_gamma_closed_forms() {
        // a = 1: the unit exponential, x = −ln(1 − q).
        for q in [1e-9f64, 0.1, 0.5, 0.9, 1.0 - 1e-9] {
            let want = -(-q).ln_1p();
            let got = inv_reg_gamma(1.0, q);
            assert!((got - want).abs() <= 1e-13 * want, "q={q}: {got} vs {want}");
        }
        // a = ½: P(½, x) = erf(√x), so x = erfinv(q)²; erf(1) pins one point.
        let q = erf(1.0);
        assert!((inv_reg_gamma(0.5, q) - 1.0).abs() < 1e-13);
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn inv_reg_gamma_rejects_level_one() {
        inv_reg_gamma(2.0, 1.0);
    }

    #[test]
    fn beta_endpoints_and_symmetry() {
        assert_eq!(reg_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(reg_beta(2.0, 3.0, 1.0), 1.0);
        for &(a, b) in &[(0.5f64, 0.5f64), (2.0, 3.0), (10.0, 0.5), (7.3, 7.3)] {
            for i in 1..20 {
                let x = i as f64 / 20.0;
                let s = reg_beta(a, b, x) + reg_beta(b, a, 1.0 - x);
                assert!((s - 1.0).abs() < 1e-12, "a={a} b={b} x={x}: {s}");
            }
        }
    }

    #[test]
    fn beta_uniform_special_case() {
        // I_x(1, 1) = x.
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert!((reg_beta(1.0, 1.0, x) - x).abs() < 1e-13);
        }
        // I_x(1, b) = 1 − (1−x)^b, I_x(a, 1) = x^a.
        for &x in &[0.1f64, 0.4, 0.9] {
            assert!((reg_beta(1.0, 3.0, x) - (1.0 - (1.0 - x).powi(3))).abs() < 1e-12);
            assert!((reg_beta(4.0, 1.0, x) - x.powi(4)).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_half_half_is_arcsine() {
        // I_x(1/2, 1/2) = (2/π) asin(√x).
        for &x in &[0.05f64, 0.25, 0.5, 0.75, 0.95] {
            let want = 2.0 / std::f64::consts::PI * x.sqrt().asin();
            assert!((reg_beta(0.5, 0.5, x) - want).abs() < 1e-11, "x={x}");
        }
    }

    #[test]
    fn beta_is_monotone_in_x() {
        let mut prev = -1.0;
        for i in 0..=400 {
            let x = i as f64 / 400.0;
            let v = reg_beta(3.7, 1.9, x);
            assert!(v >= prev - 1e-15);
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn ln_beta_matches_integer_values() {
        // B(a, b) = (a−1)!(b−1)!/(a+b−1)! for integers: B(3, 4) = 1/60.
        assert!((ln_beta(3.0, 4.0) - (1.0f64 / 60.0).ln()).abs() < 1e-12);
        assert!((ln_beta(1.0, 1.0)).abs() < 1e-13);
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-15);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(3.0) - 0.999_977_909_503_001_4).abs() < 1e-10);
    }
}
