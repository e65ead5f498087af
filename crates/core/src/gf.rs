//! Probability generating functions (the paper's working currency).
//!
//! Section II of the paper describes first-stage traffic by two pgfs:
//!
//! * `R(z) = Σ f_j z^j` — the number of messages arriving at an output
//!   queue in one cycle (`f_j` = probability of a batch of `j`),
//! * `U(z) = Σ g_j z^j` — the service time of one message in cycles.
//!
//! Everything downstream (Theorem 1, Eqs. 2–3, the §III closed forms)
//! consumes only `R`, `U`, their values on `[0, 1]` / the complex unit
//! disk, and their first three derivatives at `z = 1` (the factorial
//! moments). [`Pgf`] captures exactly that interface.

use banyan_numerics::Complex;

/// A probability generating function `G(z) = Σ_j P(X = j) z^j` of a
/// nonnegative integer random variable, exposing values and the first
/// three derivatives at `z = 1`.
pub trait Pgf {
    /// `G(z)` for real `z` in `[0, 1]` (implementations are typically
    /// valid on a larger disk; callers may rely on correctness slightly
    /// beyond 1 for tail analysis when [`Pgf::radius_hint`] allows).
    fn eval(&self, z: f64) -> f64;

    /// `G(z)` for complex `z` on the closed unit disk.
    fn eval_complex(&self, z: Complex) -> Complex;

    /// First derivative at 1: the mean `E[X]`.
    fn d1(&self) -> f64;

    /// Second derivative at 1: `E[X(X−1)]`.
    fn d2(&self) -> f64;

    /// Third derivative at 1: `E[X(X−1)(X−2)]`.
    fn d3(&self) -> f64;

    /// Fourth derivative at 1: `E[X(X−1)(X−2)(X−3)]`. Needed only for
    /// third-moment (skewness) analysis of the waiting time.
    fn d4(&self) -> f64;

    /// Mean `E[X]` (alias of [`Pgf::d1`]).
    fn mean(&self) -> f64 {
        self.d1()
    }

    /// Variance `E[X²] − (E[X])²`, from the factorial moments.
    fn variance(&self) -> f64 {
        let m = self.d1();
        self.d2() + m - m * m
    }

    /// A radius `ζ > 1` up to which [`Pgf::eval`] remains valid, used by
    /// tail-exponent searches. Defaults to `+∞` for entire functions
    /// (polynomial pgfs); distributions with geometric tails override it.
    fn radius_hint(&self) -> f64 {
        f64::INFINITY
    }
}

/// A pgf given explicitly by a (finite) pmf `pmf[j] = P(X = j)`.
///
/// The workhorse for tests and for exotic traffic classes not covered by
/// the named constructors.
#[derive(Clone, Debug)]
pub struct TabulatedPgf {
    pmf: Vec<f64>,
}

impl TabulatedPgf {
    /// Creates a pgf from a pmf. The probabilities must be nonnegative
    /// and sum to 1 within `1e-9`.
    ///
    /// # Panics
    /// Panics on negative entries or a total mass away from 1.
    pub fn new(pmf: Vec<f64>) -> Self {
        assert!(
            pmf.iter().all(|&p| p >= 0.0),
            "pmf entries must be nonnegative"
        );
        let total: f64 = banyan_numerics::kahan_sum(&pmf);
        assert!(
            (total - 1.0).abs() < 1e-9,
            "pmf must sum to 1, got {total}"
        );
        TabulatedPgf { pmf }
    }

    /// The underlying pmf.
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }
}

impl Pgf for TabulatedPgf {
    fn eval(&self, z: f64) -> f64 {
        self.pmf.iter().rev().fold(0.0, |acc, &p| acc * z + p)
    }

    fn eval_complex(&self, z: Complex) -> Complex {
        self.pmf
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &p| acc * z + p)
    }

    fn d1(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| j as f64 * p)
            .sum()
    }

    fn d2(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| (j * j.saturating_sub(1)) as f64 * p)
            .sum()
    }

    fn d3(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                if j >= 3 {
                    (j * (j - 1) * (j - 2)) as f64 * p
                } else {
                    0.0
                }
            })
            .sum()
    }

    fn d4(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(j, &p)| {
                if j >= 4 {
                    (j * (j - 1) * (j - 2) * (j - 3)) as f64 * p
                } else {
                    0.0
                }
            })
            .sum()
    }
}

/// Numerical cross-check: estimates `(d1, d2, d3)` of any [`Pgf`] by
/// finite differences at `z = 1`.
///
/// Used throughout the test suites to confirm that hand-derived moment
/// formulas match the implementations' `eval`.
pub fn numeric_derivatives<G: Pgf + ?Sized>(g: &G, h: f64) -> (f64, f64, f64) {
    banyan_numerics::series::finite_derivatives(|z| g.eval(z), 1.0, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulated_pgf_basic_properties() {
        let g = TabulatedPgf::new(vec![0.2, 0.3, 0.5]);
        assert!((g.eval(1.0) - 1.0).abs() < 1e-15);
        assert!((g.eval(0.0) - 0.2).abs() < 1e-15);
        assert!((g.d1() - (0.3 + 1.0)).abs() < 1e-15);
        // E X(X-1) = 2·0.5 = 1
        assert!((g.d2() - 1.0).abs() < 1e-15);
        assert_eq!(g.d3(), 0.0);
        // Var = EX² − (EX)²; EX² = 0.3 + 4·0.5 = 2.3; EX = 1.3.
        assert!((g.variance() - (2.3 - 1.69)).abs() < 1e-14);
        // On the unit circle, where the pmf inversion samples it.
        let w = Complex::cis(0.7);
        let direct = w * w * 0.5 + w * 0.3 + 0.2;
        assert!((g.eval_complex(w) - direct).abs() < 1e-15);
    }

    #[test]
    fn tabulated_matches_numeric_derivatives() {
        let g = TabulatedPgf::new(vec![0.1, 0.2, 0.3, 0.25, 0.15]);
        let (d1, d2, d3) = numeric_derivatives(&g, 1e-3);
        assert!((d1 - g.d1()).abs() < 1e-8);
        assert!((d2 - g.d2()).abs() < 1e-6);
        assert!((d3 - g.d3()).abs() < 1e-4);
    }

    #[test]
    fn complex_eval_agrees_on_real_axis() {
        let g = TabulatedPgf::new(vec![0.5, 0.25, 0.25]);
        for &x in &[0.0, 0.3, 0.9, 1.0] {
            let zc = g.eval_complex(Complex::from_real(x));
            assert!((zc.re - g.eval(x)).abs() < 1e-14);
            assert!(zc.im.abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn non_normalized_pmf_rejected() {
        TabulatedPgf::new(vec![0.5, 0.4]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_pmf_rejected() {
        TabulatedPgf::new(vec![1.5, -0.5]);
    }
}
