//! Fitting the §IV interpolation constants from simulation output.
//!
//! The paper's methodology is explicitly empirical: "We use simulations to
//! estimate r(1/2), and then simply linearly interpolate" (§IV), following
//! Burman & Smith's light/heavy-traffic interpolation. This module
//! implements those fits so the whole calibration loop — simulate, fit,
//! predict — is reproducible, and so the constants lost to the illegible
//! scan can be re-derived the same way the authors derived them.

/// One observation for the mean-ratio fit: a simulated deep-stage mean
/// `w_inf` against the exact first-stage mean `w1` at load `p` on `k × k`
/// switches.
#[derive(Clone, Copy, Debug)]
pub struct MeanRatioPoint {
    /// Input load.
    pub p: f64,
    /// Switch size.
    pub k: u32,
    /// Exact first-stage mean waiting time.
    pub w1: f64,
    /// Simulated limiting (deep-stage) mean waiting time.
    pub w_inf: f64,
}

/// Least-squares fit of `mean_coeff` in `r(p, k) = 1 + mean_coeff·p/k`:
/// regression through the origin of `(w_inf/w1 − 1)` on `p/k`.
///
/// Returns `None` when no usable points are provided.
pub fn fit_mean_coeff(points: &[MeanRatioPoint]) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for pt in points {
        if pt.w1 <= 0.0 {
            continue;
        }
        let x = pt.p / pt.k as f64;
        let y = pt.w_inf / pt.w1 - 1.0;
        num += x * y;
        den += x * x;
    }
    (den > 0.0).then(|| num / den)
}

/// One observation for the variance-multiplier fit (unit-size messages).
#[derive(Clone, Copy, Debug)]
pub struct VarRatioPoint {
    /// Input load.
    pub p: f64,
    /// Switch size.
    pub k: u32,
    /// Exact first-stage waiting-time variance.
    pub v1: f64,
    /// Simulated limiting (deep-stage) waiting-time variance.
    pub v_inf: f64,
}

/// Least-squares fit of `(var_p1, var_p2)` in
/// `v_inf/v1 = 1 + (var_p1·p + var_p2·p²)/k` — a 2-parameter linear
/// regression through the origin with basis `(p/k, p²/k)`.
///
/// Returns `None` when the normal equations are singular (e.g. all points
/// share one `p`, making the two basis vectors collinear).
pub fn fit_var_coeffs(points: &[VarRatioPoint]) -> Option<(f64, f64)> {
    let (mut s11, mut s12, mut s22, mut b1, mut b2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for pt in points {
        if pt.v1 <= 0.0 {
            continue;
        }
        let x1 = pt.p / pt.k as f64;
        let x2 = pt.p * pt.p / pt.k as f64;
        let y = pt.v_inf / pt.v1 - 1.0;
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        b1 += x1 * y;
        b2 += x2 * y;
    }
    let det = s11 * s22 - s12 * s12;
    if det.abs() < 1e-12 * (s11 * s22).max(1e-300) {
        return None;
    }
    Some(((s22 * b1 - s12 * b2) / det, (s11 * b2 - s12 * b1) / det))
}

/// Fits the geometric stage-approach rate `α` from a profile of simulated
/// per-stage means `w_1, w_2, …` and the limit `w_inf`: the gaps
/// `g_i = w_inf − w_i` satisfy `g_i ∝ α^{i−1}`, so `ln g_i` is linear in
/// `i` with slope `ln α`.
///
/// Returns `None` with fewer than two positive gaps.
pub fn fit_alpha(stage_means: &[f64], w_inf: f64) -> Option<f64> {
    let pts: Vec<(f64, f64)> = stage_means
        .iter()
        .enumerate()
        .filter_map(|(idx, &w)| {
            let gap = w_inf - w;
            (gap > 0.0).then(|| (idx as f64, gap.ln()))
        })
        .collect();
    if pts.len() < 2 {
        return None;
    }
    // Simple least squares on (i, ln g).
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let alpha = slope.exp();
    (alpha > 0.0 && alpha < 1.0).then_some(alpha)
}

/// Fits a slope `B` of a ratio that is linear in a covariate `x` with a
/// known intercept: `y(x) ≈ intercept + B·x` (used for the §IV-D
/// nonuniform-traffic multipliers, `x = q`).
pub fn fit_slope_with_intercept(points: &[(f64, f64)], intercept: f64) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(x, y) in points {
        num += x * (y - intercept);
        den += x * x;
    }
    (den > 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_coeff_recovers_exact_relation() {
        // Synthesize points from r = 1 + 0.8·p/k exactly.
        let pts: Vec<MeanRatioPoint> = [(0.2, 2u32), (0.5, 2), (0.8, 2), (0.5, 4), (0.5, 8)]
            .iter()
            .map(|&(p, k)| {
                let w1 = 0.25; // arbitrary positive anchor
                MeanRatioPoint {
                    p,
                    k,
                    w1,
                    w_inf: (1.0 + 0.8 * p / k as f64) * w1,
                }
            })
            .collect();
        let c = fit_mean_coeff(&pts).unwrap();
        assert!((c - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mean_coeff_handles_noise_symmetrically() {
        let mut pts = Vec::new();
        for (i, &(p, k)) in [(0.2, 2u32), (0.5, 2), (0.8, 2)].iter().enumerate() {
            let w1 = 1.0;
            let noise = if i % 2 == 0 { 1.01 } else { 0.99 };
            pts.push(MeanRatioPoint {
                p,
                k,
                w1,
                w_inf: (1.0 + 0.8 * p / k as f64) * w1 * noise,
            });
        }
        let c = fit_mean_coeff(&pts).unwrap();
        assert!((c - 0.8).abs() < 0.15);
    }

    #[test]
    fn mean_coeff_empty_is_none() {
        assert!(fit_mean_coeff(&[]).is_none());
        let degenerate = [MeanRatioPoint {
            p: 0.5,
            k: 2,
            w1: 0.0,
            w_inf: 0.3,
        }];
        assert!(fit_mean_coeff(&degenerate).is_none());
    }

    #[test]
    fn var_coeffs_recover_exact_relation() {
        let (c1, c2) = (1.25, 0.75);
        let pts: Vec<VarRatioPoint> = [(0.2, 2u32), (0.5, 2), (0.8, 2), (0.5, 4)]
            .iter()
            .map(|&(p, k)| VarRatioPoint {
                p,
                k,
                v1: 0.4,
                v_inf: (1.0 + (c1 * p + c2 * p * p) / k as f64) * 0.4,
            })
            .collect();
        let (f1, f2) = fit_var_coeffs(&pts).unwrap();
        assert!((f1 - c1).abs() < 1e-10);
        assert!((f2 - c2).abs() < 1e-10);
    }

    #[test]
    fn var_coeffs_singular_when_single_p() {
        let pts: Vec<VarRatioPoint> = (0..4)
            .map(|_| VarRatioPoint {
                p: 0.5,
                k: 2,
                v1: 1.0,
                v_inf: 1.3,
            })
            .collect();
        assert!(fit_var_coeffs(&pts).is_none());
    }

    #[test]
    fn alpha_recovered_from_geometric_profile() {
        let alpha: f64 = 0.4;
        let w_inf = 0.3;
        let w1 = 0.25;
        let means: Vec<f64> = (1..=8)
            .map(|i| w_inf - (w_inf - w1) * alpha.powi(i - 1))
            .collect();
        let fitted = fit_alpha(&means, w_inf).unwrap();
        assert!((fitted - alpha).abs() < 1e-10);
    }

    #[test]
    fn alpha_needs_two_gaps() {
        assert!(fit_alpha(&[0.25], 0.3).is_none());
        assert!(fit_alpha(&[0.31, 0.32], 0.3).is_none(), "no positive gaps");
    }

    #[test]
    fn slope_fit_with_intercept() {
        let pts: Vec<(f64, f64)> = [0.0, 0.1, 0.2, 0.3]
            .iter()
            .map(|&q| (q, 1.2 - 0.75 * q))
            .collect();
        let b = fit_slope_with_intercept(&pts, 1.2).unwrap();
        assert!((b + 0.75).abs() < 1e-12);
        assert!(fit_slope_with_intercept(&[(0.0, 1.2)], 1.2).is_none());
    }
}
