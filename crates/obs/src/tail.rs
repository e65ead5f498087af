//! Tail tracking and analytic drift checks.
//!
//! The paper's Theorem 1 gives waiting-time distributions whose tails
//! decay geometrically: `P(w = j) ~ C·r^j` with `r = 1/σ`. This module
//! turns an exact [`DistSketch`] into the complementary tail
//! `P(w >= t)`, fits the geometric decay rate from the log-ccdf, and
//! measures drift between the observed distribution and an analytic
//! CDF via the Kolmogorov–Smirnov distance — the "is the simulator
//! still on theory?" gauge surfaced in run manifests.

use crate::json::JsonObject;
use crate::sketch::DistSketch;

/// Complementary CDF points `(t, P(X >= t))` at the sketch's support
/// values, ascending. Exact: integer tail counts divided once, never
/// accumulated floats. Sparse — a heavy-traffic sketch with support
/// `{0, 10_000}` yields two points, not a dense `O(max)` vector; the
/// ccdf is constant between support points, so nothing is lost.
pub fn ccdf_points(sketch: &DistSketch) -> Vec<(u64, f64)> {
    let total = sketch.total();
    // Count of observations >= the current support point; starts at the
    // full total (every observation is >= the smallest support value).
    let mut ge = total;
    sketch
        .count_points()
        .map(|(v, c)| {
            let p = (v, ge as f64 / total as f64);
            ge -= c;
            p
        })
        .collect()
}

/// Least-squares fit of `log P(X >= t) = a + t·log r` over the tail
/// region (the upper half of the *support points*, at least two).
/// Returns the decay rate `r` in `(0, 1)`, or `None` when the support
/// is too small to fit.
///
/// For a geometric tail `P(w = j) ~ C·r^j` the ccdf also decays as
/// `r^t`, so the fitted slope estimates the paper's `1/σ` directly.
/// Fitting over support points only matters when the support has gaps:
/// a dense-range fit would weight every zero-mass plateau value as an
/// extra sample of the same ccdf level, flattening the least-squares
/// slope and biasing the fitted rate upward, away from `1/σ`.
pub fn fit_geometric_tail(sketch: &DistSketch) -> Option<f64> {
    let ccdf = ccdf_points(sketch);
    // Tail region: upper half of the support. Every ccdf value at a
    // support point is strictly positive (P(X >= v) >= P(X = v) > 0),
    // so no filtering is needed.
    let pts: Vec<(f64, f64)> = ccdf
        .iter()
        .skip(ccdf.len() / 2)
        .map(|&(t, p)| (t as f64, p.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
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
    let r = slope.exp();
    (r > 0.0 && r < 1.0).then_some(r)
}

/// Kolmogorov–Smirnov distance between the sketch's empirical CDF and
/// a model CDF, evaluated with the half-integer continuity correction
/// (`model_cdf(v ± 0.5)`) so discrete and continuous CDFs compare
/// fairly. `0.0` on an empty sketch. The one KS body in the workspace.
///
/// A message that waited `v` whole cycles corresponds, in a continuous
/// approximation, to mass spread over `[v, v+1)`; evaluating the model
/// at the bin edges removes the half-cycle discretization offset that
/// would otherwise dominate the statistic. The empirical CDF is a step
/// function, so the supremum at each jump has two candidates: the
/// post-jump side `|F_emp(v) − F_model(v+½)|` and the pre-jump side
/// `|F_emp(v⁻) − F_model(v−½)|`. Both are checked; dropping the pre-jump
/// side (as an earlier version did) misses deviations where the model
/// CDF rises across gaps in the data's support and systematically
/// underestimates drift. Values without mass need no candidates of
/// their own: `F_emp` is constant across a gap and `F_model` monotone,
/// so the deviation on a gap is bounded by the candidates at its
/// endpoints.
pub fn ks_distance(sketch: &DistSketch, model_cdf: impl Fn(f64) -> f64) -> f64 {
    let total = sketch.total() as f64;
    let mut acc = 0u64;
    let mut worst = 0.0f64;
    for (v, c) in sketch.count_points() {
        let before = acc as f64 / total; // F_emp(v⁻)
        acc += c;
        let after = acc as f64 / total; // F_emp(v)
        worst = worst.max((model_cdf(v as f64 - 0.5) - before).abs());
        worst = worst.max((model_cdf(v as f64 + 0.5) - after).abs());
    }
    worst
}

/// Evaluates a dense integer CDF table at a continuity-corrected point:
/// `table[floor(x)]`, clamped to `[0, 1]` outside the table.
/// [`ks_distance`] probes the model at `v ± 0.5`, so a discrete
/// analytic model tabulated at integers is compared at exactly `F(v)`
/// on the post-jump side. Shared by the CLI drift reports and the flow
/// engine's analytic-vs-event-sim gauges.
pub fn table_cdf(table: &[f64], x: f64) -> f64 {
    if x < 0.0 {
        return 0.0;
    }
    let i = x.floor() as usize;
    if i >= table.len() {
        1.0
    } else {
        table[i]
    }
}

/// A drift report comparing one observed sketch against analytic
/// theory: KS distance, fitted vs analytic geometric tail rate, and
/// observed vs analytic mean.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Which distribution this covers (e.g. `net.wait.stage01`).
    pub name: String,
    /// Observations behind the empirical side.
    pub count: u64,
    /// KS distance between empirical and analytic CDFs.
    pub ks: f64,
    /// Empirical mean (exact).
    pub observed_mean: f64,
    /// Analytic mean from Theorem 1 / stage constants.
    pub analytic_mean: f64,
    /// Fitted geometric tail decay rate, when the support allows a fit.
    pub fitted_tail_rate: Option<f64>,
    /// Analytic tail decay rate `1/σ`, when the model provides one.
    pub analytic_tail_rate: Option<f64>,
}

impl DriftReport {
    /// Build a report for `sketch` against an analytic CDF and moments.
    pub fn against(
        name: &str,
        sketch: &DistSketch,
        model_cdf: impl Fn(f64) -> f64,
        analytic_mean: f64,
        analytic_tail_rate: Option<f64>,
    ) -> Self {
        DriftReport {
            name: name.to_string(),
            count: sketch.total(),
            ks: ks_distance(sketch, model_cdf),
            observed_mean: sketch.mean(),
            analytic_mean,
            fitted_tail_rate: fit_geometric_tail(sketch),
            analytic_tail_rate,
        }
    }

    /// KS distance in parts-per-million, for the integer `Gauge`
    /// surface (`net.drift.ks_ppm`).
    pub fn ks_ppm(&self) -> u64 {
        (self.ks * 1e6).round() as u64
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("name", &self.name)
            .field_u64("count", self.count)
            .field_f64("ks", self.ks)
            .field_f64("observed_mean", self.observed_mean)
            .field_f64("analytic_mean", self.analytic_mean);
        match self.fitted_tail_rate {
            Some(r) => o.field_f64("fitted_tail_rate", r),
            None => o.field_raw("fitted_tail_rate", "null"),
        };
        match self.analytic_tail_rate {
            Some(r) => o.field_f64("analytic_tail_rate", r),
            None => o.field_raw("analytic_tail_rate", "null"),
        };
        o.finish()
    }
}

/// Format a drift list as a JSON array.
pub fn drift_array_json(reports: &[DriftReport]) -> String {
    let parts: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    format!("[{}]", parts.join(", "))
}

/// Render one human line for a drift report (used by `banyan report`).
pub fn drift_line(r: &DriftReport) -> String {
    let fitted = r
        .fitted_tail_rate
        .map_or("    n/a".to_string(), |x| format!("{x:.5}"));
    let analytic = r
        .analytic_tail_rate
        .map_or("    n/a".to_string(), |x| format!("{x:.5}"));
    format!(
        "{:<18} n={:>9}  E(w) obs {:>8.4} vs thy {:>8.4}  KS {:.5}  tail r obs {} vs thy {}",
        r.name, r.count, r.observed_mean, r.analytic_mean, r.ks, fitted, analytic
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric_sketch(r: f64, n_per_level: u64, levels: u64) -> DistSketch {
        // counts proportional to r^j — an exactly geometric pmf.
        let mut s = DistSketch::new();
        for j in 0..levels {
            let c = (n_per_level as f64 * r.powi(j as i32)).round() as u64;
            if c > 0 {
                s.record_n(j, c);
            }
        }
        s
    }

    #[test]
    fn ccdf_points_sum_and_monotone() {
        let mut s = DistSketch::new();
        s.record_n(0, 6);
        s.record_n(2, 3);
        s.record_n(3, 1);
        let pts = ccdf_points(&s);
        // Sparse: one point per support value, not per value in 0..=max.
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (0, 1.0));
        assert_eq!(pts[1].0, 2);
        assert!((pts[1].1 - 0.4).abs() < 1e-12); // P(X >= 2)
        assert_eq!(pts[2].0, 3);
        assert!((pts[2].1 - 0.1).abs() < 1e-12); // P(X >= 3)
        for w in pts.windows(2) {
            assert!(w[0].1 >= w[1].1, "ccdf must be non-increasing");
        }
    }

    #[test]
    fn ccdf_points_stay_sparse_on_gapped_support() {
        // A heavy-traffic-style sketch: two support points far apart
        // yield two ccdf points, not one per value in 0..=max.
        let mut s = DistSketch::new();
        s.record_n(0, 1);
        s.record_n(100_000, 1);
        let pts = ccdf_points(&s);
        assert_eq!(pts, vec![(0, 1.0), (100_000, 0.5)]);
    }

    #[test]
    fn geometric_fit_recovers_rate() {
        let r = 0.3;
        let s = geometric_sketch(r, 1_000_000, 12);
        let fitted = fit_geometric_tail(&s).expect("fit");
        assert!((fitted - r).abs() < 0.02, "fitted {fitted} vs true {r}");
    }

    #[test]
    fn geometric_fit_unbiased_by_support_gaps() {
        // Mass only on even values, counts ∝ ρ^j at value 2j: the true
        // per-unit decay rate is √ρ. The old dense-range fit also fed
        // every odd value (a zero-mass plateau repeating the even
        // neighbour's ccdf) into the least squares, flattening the
        // slope and biasing the rate upward.
        let rho: f64 = 0.25;
        let mut s = DistSketch::new();
        for j in 0..10u64 {
            let c = (1_000_000.0 * rho.powi(j as i32)).round() as u64;
            if c > 0 {
                s.record_n(2 * j, c);
            }
        }
        let fitted = fit_geometric_tail(&s).expect("fit");
        let want = rho.sqrt(); // 0.5 per unit t
        assert!(
            (fitted - want).abs() < 0.02,
            "fitted {fitted} vs true {want}"
        );
    }

    #[test]
    fn fit_declines_on_tiny_support() {
        let mut s = DistSketch::new();
        s.record_n(0, 10);
        assert!(fit_geometric_tail(&s).is_none());
        assert!(fit_geometric_tail(&DistSketch::new()).is_none());
    }

    #[test]
    fn ks_zero_against_own_cdf() {
        let mut s = DistSketch::new();
        s.record_n(0, 5);
        s.record_n(1, 3);
        s.record_n(2, 2);
        let clone = s.clone();
        // Model CDF = the sketch's own empirical step CDF: 0 below the
        // support, then the exact cdf at floor(x).
        let model = move |x: f64| {
            if x < 0.0 {
                0.0
            } else {
                clone.cdf_at(x.floor() as u64)
            }
        };
        let ks = ks_distance(&s, model);
        assert!(ks < 1e-12, "ks {ks}");
    }

    #[test]
    fn ks_catches_pre_jump_deviation_across_support_gap() {
        // Support {0, 10} with 10% of the mass at 0; the model CDF
        // climbs linearly across the gap. Post-jump candidates alone:
        // |F(0.5) − 0.1| = 0.05 at v=0 and |F(10.5) − 1| = 0 at v=10 —
        // the old one-sided statistic reported 0.05. The true KS lies
        // on the pre-jump side of the v=10 jump, where the model has
        // climbed to 0.95 but the empirical CDF is still 0.1.
        let mut s = DistSketch::new();
        s.record_n(0, 1);
        s.record_n(10, 9);
        let model = |x: f64| (x / 10.0).clamp(0.0, 1.0);
        let ks = ks_distance(&s, model);
        assert!(
            (ks - 0.85).abs() < 1e-12,
            "ks {ks}, want pre-jump 0.95 − 0.1"
        );
    }

    #[test]
    fn ks_detects_mean_shift() {
        let mut s = DistSketch::new();
        s.record_n(0, 50);
        s.record_n(1, 50);
        // Model: all mass at 0.
        let ks = ks_distance(&s, |x| if x >= 0.0 { 1.0 } else { 0.0 });
        assert!((ks - 0.5).abs() < 1e-12);
        assert_eq!(ks_distance(&DistSketch::new(), |_| 0.0), 0.0);
    }

    #[test]
    fn drift_report_serializes_with_null_rates() {
        let mut s = DistSketch::new();
        s.record_n(0, 10);
        let r = DriftReport::against("net.wait.total", &s, |_| 1.0, 0.0, None);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"net.wait.total\""));
        assert!(json.contains("\"fitted_tail_rate\": null"));
        assert!(json.contains("\"analytic_tail_rate\": null"));
        assert_eq!(r.ks_ppm(), (r.ks * 1e6).round() as u64);
    }
}
