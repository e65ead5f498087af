//! Service-time distributions (§III-A/B/D of the paper).
//!
//! Service time is the number of cycles an output port needs to forward
//! one message; it is always at least 1. "Constant service time is usually
//! the appropriate assumption for interconnection networks realized with
//! synchronous logic" (§I), but the analysis is fully general, so we also
//! provide the geometric distribution (§III-B, whose continuous limit is
//! M/M/1) and finite mixtures of constant sizes (§III-D-2, e.g. short read
//! requests mixed with long writes).

use crate::gf::Pgf;
use banyan_numerics::Complex;

/// Constant (deterministic) service of `m >= 1` cycles: `U(z) = z^m`
/// (§III-D-1).
#[derive(Clone, Copy, Debug)]
pub struct ConstantService {
    m: u32,
}

impl ConstantService {
    /// Creates a deterministic service time of `m >= 1` cycles.
    pub fn new(m: u32) -> Self {
        assert!(m >= 1, "service time must be at least one cycle");
        ConstantService { m }
    }

    /// Unit service — every message forwarded in one cycle (§III-A).
    pub fn unit() -> Self {
        ConstantService { m: 1 }
    }

    /// The service time in cycles.
    pub fn cycles(&self) -> u32 {
        self.m
    }
}

impl Pgf for ConstantService {
    fn eval(&self, z: f64) -> f64 {
        z.powi(self.m as i32)
    }

    fn eval_complex(&self, z: Complex) -> Complex {
        z.powi(self.m as i32)
    }

    fn d1(&self) -> f64 {
        self.m as f64
    }

    fn d2(&self) -> f64 {
        let m = self.m as f64;
        m * (m - 1.0)
    }

    fn d3(&self) -> f64 {
        let m = self.m as f64;
        m * (m - 1.0) * (m - 2.0)
    }

    fn d4(&self) -> f64 {
        let m = self.m as f64;
        m * (m - 1.0) * (m - 2.0) * (m - 3.0)
    }
}

/// Geometric service (§III-B): `P(S = j) = μ(1−μ)^{j−1}`, `j >= 1`.
///
/// ```text
/// U(z) = μz / (1 − (1−μ)z),   mean 1/μ.
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GeometricService {
    mu: f64,
}

impl GeometricService {
    /// Creates a geometric service distribution with success probability
    /// `mu ∈ (0, 1]` (mean `1/mu`).
    pub fn new(mu: f64) -> Self {
        assert!(
            mu > 0.0 && mu <= 1.0,
            "μ must be in (0, 1], got {mu}"
        );
        GeometricService { mu }
    }

    /// Success probability per cycle.
    pub fn mu(&self) -> f64 {
        self.mu
    }
}

impl Pgf for GeometricService {
    fn eval(&self, z: f64) -> f64 {
        self.mu * z / (1.0 - (1.0 - self.mu) * z)
    }

    fn eval_complex(&self, z: Complex) -> Complex {
        z * self.mu / (Complex::ONE - z * (1.0 - self.mu))
    }

    fn d1(&self) -> f64 {
        1.0 / self.mu
    }

    fn d2(&self) -> f64 {
        2.0 * (1.0 - self.mu) / (self.mu * self.mu)
    }

    fn d3(&self) -> f64 {
        6.0 * (1.0 - self.mu).powi(2) / self.mu.powi(3)
    }

    fn d4(&self) -> f64 {
        24.0 * (1.0 - self.mu).powi(3) / self.mu.powi(4)
    }

    fn radius_hint(&self) -> f64 {
        if self.mu == 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.mu)
        }
    }
}

/// Finite mixture of constant service times (§III-D-2): size `m_i` with
/// probability `g_i`, e.g. "read requests are likely to have different
/// sizes than write requests".
#[derive(Clone, Debug)]
pub struct MixedService {
    sizes: Vec<(u32, f64)>,
}

impl MixedService {
    /// Creates a mixture from `(size, probability)` pairs. Sizes must be
    /// `>= 1`, probabilities nonnegative and summing to 1 within `1e-9`.
    pub fn new(sizes: Vec<(u32, f64)>) -> Self {
        assert!(!sizes.is_empty(), "mixture must have at least one size");
        assert!(
            sizes.iter().all(|&(m, _)| m >= 1),
            "service times must be at least one cycle"
        );
        assert!(
            sizes.iter().all(|&(_, g)| g >= 0.0),
            "mixture weights must be nonnegative"
        );
        let total: f64 = sizes.iter().map(|&(_, g)| g).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "mixture weights must sum to 1, got {total}"
        );
        MixedService { sizes }
    }

    /// The `(size, probability)` pairs.
    pub fn sizes(&self) -> &[(u32, f64)] {
        &self.sizes
    }
}

impl Pgf for MixedService {
    fn eval(&self, z: f64) -> f64 {
        self.sizes
            .iter()
            .map(|&(m, g)| g * z.powi(m as i32))
            .sum()
    }

    fn eval_complex(&self, z: Complex) -> Complex {
        self.sizes
            .iter()
            .map(|&(m, g)| z.powi(m as i32) * g)
            .sum()
    }

    fn d1(&self) -> f64 {
        self.sizes.iter().map(|&(m, g)| m as f64 * g).sum()
    }

    fn d2(&self) -> f64 {
        self.sizes
            .iter()
            .map(|&(m, g)| {
                let m = m as f64;
                m * (m - 1.0) * g
            })
            .sum()
    }

    fn d3(&self) -> f64 {
        self.sizes
            .iter()
            .map(|&(m, g)| {
                let m = m as f64;
                m * (m - 1.0) * (m - 2.0) * g
            })
            .sum()
    }

    fn d4(&self) -> f64 {
        self.sizes
            .iter()
            .map(|&(m, g)| {
                let m = m as f64;
                m * (m - 1.0) * (m - 2.0) * (m - 3.0) * g
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf::numeric_derivatives;

    #[test]
    fn constant_service_moments() {
        let u = ConstantService::new(4);
        assert_eq!(u.d1(), 4.0);
        assert_eq!(u.d2(), 12.0);
        assert_eq!(u.d3(), 24.0);
        assert_eq!(u.variance(), 0.0);
        let (n1, n2, n3) = numeric_derivatives(&u, 1e-3);
        assert!((n1 - 4.0).abs() < 1e-8);
        assert!((n2 - 12.0).abs() < 1e-6);
        assert!((n3 - 24.0).abs() < 1e-3);
    }

    #[test]
    fn unit_service_is_identity_pgf() {
        let u = ConstantService::unit();
        for &z in &[0.0, 0.3, 1.0] {
            assert_eq!(u.eval(z), z);
        }
        assert_eq!(u.d2(), 0.0);
        assert_eq!(u.d3(), 0.0);
    }

    #[test]
    fn geometric_moments_match_numeric() {
        for &mu in &[0.25, 0.5, 0.9, 1.0] {
            let u = GeometricService::new(mu);
            let (n1, n2, n3) = numeric_derivatives(&u, 1e-4);
            assert!((n1 - u.d1()).abs() < 1e-6, "μ={mu}");
            assert!((n2 - u.d2()).abs() < 1e-3, "μ={mu}");
            assert!((n3 - u.d3()).abs() < 0.5, "μ={mu}");
            assert!((u.eval(1.0) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn geometric_mu_one_is_unit_service() {
        let g = GeometricService::new(1.0);
        let u = ConstantService::unit();
        for &z in &[0.0, 0.5, 1.0] {
            assert!((g.eval(z) - u.eval(z)).abs() < 1e-15);
        }
        assert_eq!(g.d1(), 1.0);
        assert_eq!(g.d2(), 0.0);
        assert_eq!(g.radius_hint(), f64::INFINITY);
    }

    #[test]
    fn geometric_variance_closed_form() {
        // Var = (1−μ)/μ².
        let mu = 0.4;
        let g = GeometricService::new(mu);
        assert!((g.variance() - (1.0 - mu) / (mu * mu)).abs() < 1e-12);
    }

    #[test]
    fn geometric_pgf_matches_series() {
        let mu: f64 = 0.3;
        let g = GeometricService::new(mu);
        let z: f64 = 0.8;
        let series: f64 = (1i32..200)
            .map(|j| mu * (1.0 - mu).powi(j - 1) * z.powi(j))
            .sum();
        assert!((g.eval(z) - series).abs() < 1e-12);
        // On the unit circle, where the pmf inversion samples it.
        let w = Complex::cis(1.1);
        let series: Complex = (1i32..400)
            .map(|j| w.powi(j) * (mu * (1.0 - mu).powi(j - 1)))
            .sum();
        assert!((g.eval_complex(w) - series).abs() < 1e-12);
    }

    #[test]
    fn mixed_service_moments() {
        // Table IV's workload: sizes 4 and 8.
        let u = MixedService::new(vec![(4, 0.5), (8, 0.5)]);
        assert_eq!(u.d1(), 6.0);
        assert_eq!(u.d2(), 0.5 * 12.0 + 0.5 * 56.0);
        assert_eq!(u.d3(), 0.5 * 24.0 + 0.5 * 336.0);
        let (n1, n2, _) = numeric_derivatives(&u, 1e-3);
        assert!((n1 - u.d1()).abs() < 1e-6);
        assert!((n2 - u.d2()).abs() < 1e-4);
        // Var = E S² − 36 = (0.5·16 + 0.5·64) − 36 = 4.
        assert!((u.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_mixture_equals_constant() {
        let mix = MixedService::new(vec![(5, 1.0)]);
        let cst = ConstantService::new(5);
        for &z in &[0.0, 0.6, 1.0] {
            assert!((mix.eval(z) - cst.eval(z)).abs() < 1e-15);
        }
        assert_eq!(mix.d2(), cst.d2());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_constant_service_rejected() {
        ConstantService::new(0);
    }

    #[test]
    #[should_panic(expected = "μ must be in")]
    fn zero_mu_rejected() {
        GeometricService::new(0.0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mixture_weights_rejected() {
        MixedService::new(vec![(1, 0.5), (2, 0.2)]);
    }
}
