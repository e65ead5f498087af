//! Exact first-stage analysis — Theorem 1 of the paper.
//!
//! An output port of a first-stage switch is a discrete-time single-server
//! queue: at each cycle a batch of messages arrives (count pgf `R`, mean
//! `λ`), each message needs an i.i.d. service time (pgf `U`, mean `m`),
//! and the server completes one cycle of work per cycle. With traffic
//! intensity `ρ = mλ < 1` the steady-state waiting time `w` of a message
//! has z-transform (Theorem 1):
//!
//! ```text
//! t(z) = E(z^w) = Ψ(z)·φ(U(z))
//!      = [(1−mλ)(1−z) / (R(U(z)) − z)] · [(1 − R(U(z))) / (λ(1 − U(z)))]
//! ```
//!
//! where `Ψ` is the transform of the unfinished work seen by an arriving
//! batch and `φ(U(z))` accounts for batch-mates served first. From the
//! transform this module computes:
//!
//! * the exact mean (paper Eq. 2) and variance (paper Eq. 3) — derived
//!   here by series expansion of `t` at `z = 1` rather than transcribing
//!   the printed formulas, and cross-checked against them in tests,
//! * the **full pmf** of `w`, by sampling `t` on the unit circle and
//!   inverting with an FFT ("in principle, this gives the complete
//!   distribution of the waiting time" — here it does in practice too),
//! * the geometric decay rate of the tail, from the dominant real
//!   singularity of `t` (the root of `R(U(z)) = z` beyond 1).

use crate::gf::Pgf;
use banyan_numerics::fft::coefficients_from_unit_circle;
use banyan_numerics::{brent, next_pow2, Complex};

/// Exact mean and variance of the first-stage waiting time from raw
/// factorial moments, without constructing pgf objects.
///
/// Inputs: arrival rate `λ = R'(1)`, mean service `m = U'(1)`, and the
/// higher factorial moments `r2 = R''(1)`, `r3 = R'''(1)`, `u2 = U''(1)`,
/// `u3 = U'''(1)`. Requires `ρ = mλ ∈ (0, 1)`.
///
/// Derivation (used instead of transcribing the paper's printed Eq. 3,
/// whose scan is partly illegible; tests confirm it reproduces Eq. 5/7/9
/// and simulation): write `z = 1 + ε` and `V(z) = R(U(z))`, so
/// `V₂ = m²r2 + λu2` and `V₃ = m³r3 + 3m·u2·r2 + λu3`. The two factors of
/// Theorem 1's `t(z) = Ψ(z)·φ(U(z))` expand as
///
/// ```text
/// Ψ = 1 − aε + (a² − b)ε²,        a = −V₂/(2(1−ρ)), b = −V₃/(6(1−ρ)),
/// φ∘U = 1 + (V₂/(2ρ) − u₁)ε + (V₃/(6ρ) − u₁V₂/(2ρ) + u₁² − u₂)ε²,
///        u₁ = u2/(2m), u₂ = u3/(6m),
/// ```
///
/// giving `t'(1)`, `t''(1)` and hence `E(w) = t'(1)`,
/// `Var(w) = t''(1) + t'(1) − t'(1)²`.
///
/// This extends verbatim to *real* `m` (pseudo-deterministic service of
/// non-integer mean size), which §IV-C uses for multi-size traffic.
pub fn wait_moments(lambda: f64, m: f64, r2: f64, r3: f64, u2: f64, u3: f64) -> (f64, f64) {
    if lambda == 0.0 {
        // No traffic: waiting time is identically zero (continuous limit
        // of the formulas below).
        return (0.0, 0.0);
    }
    let rho = lambda * m;
    assert!(
        lambda > 0.0 && rho < 1.0,
        "wait_moments requires 0 < ρ < 1, got λ={lambda}, m={m}"
    );
    let v2 = m * m * r2 + lambda * u2;
    let v3 = m * m * m * r3 + 3.0 * m * u2 * r2 + lambda * u3;

    let a1 = v2 / (2.0 * (1.0 - rho));
    let a2 = v2 * v2 / (2.0 * (1.0 - rho).powi(2)) + v3 / (3.0 * (1.0 - rho));

    let q1 = u2 / (2.0 * m);
    let q2 = u3 / (6.0 * m);
    let b1 = v2 / (2.0 * rho) - q1;
    let b2 = 2.0 * (v3 / (6.0 * rho) - v2 / (2.0 * rho) * q1 + q1 * q1 - q2);

    let t1 = a1 + b1;
    let t2 = a2 + 2.0 * a1 * b1 + b2;
    (t1, t2 + t1 - t1 * t1)
}

/// Exact mean, variance, and **third central moment** of the waiting
/// time, from factorial moments up to the fourth order.
///
/// Extends the series of [`wait_moments`] one order: with
/// `V₄ = m⁴r4 + 6m²r3·u2 + r2(4m·u3 + 3u2²) + λu4` (Faà di Bruno at 1)
/// and `s₁ = V₂/(2(1−ρ))`,
///
/// ```text
/// Ψ'''(1)     = 6s₁³ + 2s₁V₃/(1−ρ) + V₄/(4(1−ρ)),
/// (φ∘U)'''(1) = 6[n₃ − n₂u₁ + n₁(u₁²−u₂) + (−u₁³ + 2u₁u₂ − u₃)],
///   n_j = V_{j+1}/((j+1)!·ρ),  u_j = U^{(j+1)}(1)/((j+1)!·m),
/// ```
///
/// and `t''' = Ψ''' + 3Ψ''·(φ∘U)' + 3Ψ'·(φ∘U)'' + (φ∘U)'''`. The raw
/// moments then give `μ₃ = E w³ − 3·E w·E w² + 2(E w)³`.
///
/// Used to quantify how close the waiting-time *skewness* is to the
/// gamma approximation's `2/√shape` (paper §V).
#[allow(clippy::too_many_arguments)]
pub fn wait_three_moments(
    lambda: f64,
    m: f64,
    r2: f64,
    r3: f64,
    r4: f64,
    u2: f64,
    u3: f64,
    u4: f64,
) -> (f64, f64, f64) {
    if lambda == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let rho = lambda * m;
    assert!(
        lambda > 0.0 && rho < 1.0,
        "wait_three_moments requires 0 < ρ < 1, got λ={lambda}, m={m}"
    );
    let v2 = m * m * r2 + lambda * u2;
    let v3 = m * m * m * r3 + 3.0 * m * u2 * r2 + lambda * u3;
    let v4 = m.powi(4) * r4 + 6.0 * m * m * r3 * u2 + r2 * (4.0 * m * u3 + 3.0 * u2 * u2)
        + lambda * u4;

    let om = 1.0 - rho;
    let s1 = v2 / (2.0 * om);
    let a1 = s1;
    let a2 = v2 * v2 / (2.0 * om * om) + v3 / (3.0 * om);
    let a3 = 6.0 * s1.powi(3) + 2.0 * s1 * v3 / om + v4 / (4.0 * om);

    let n1 = v2 / (2.0 * rho);
    let n2 = v3 / (6.0 * rho);
    let n3 = v4 / (24.0 * rho);
    let q1 = u2 / (2.0 * m);
    let q2 = u3 / (6.0 * m);
    let q3 = u4 / (24.0 * m);
    let b1 = n1 - q1;
    let b2c = n2 - n1 * q1 + (q1 * q1 - q2);
    let b3c = n3 - n2 * q1 + n1 * (q1 * q1 - q2) + (-q1.powi(3) + 2.0 * q1 * q2 - q3);
    let b2 = 2.0 * b2c;
    let b3 = 6.0 * b3c;

    let t1 = a1 + b1;
    let t2 = a2 + 2.0 * a1 * b1 + b2;
    let t3 = a3 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + b3;

    let ew = t1;
    let ew2 = t2 + t1;
    let ew3 = t3 + 3.0 * t2 + t1;
    let var = ew2 - ew * ew;
    let mu3 = ew3 - 3.0 * ew * ew2 + 2.0 * ew.powi(3);
    (ew, var, mu3)
}

/// Errors constructing a first-stage model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelError {
    /// Traffic intensity `ρ = mλ` is not below 1 — no steady state.
    Unstable {
        /// The offending traffic intensity.
        rho: f64,
    },
    /// No traffic at all (`λ = 0`); waiting time is identically zero and
    /// the transform machinery degenerates.
    ZeroTraffic,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Unstable { rho } => {
                write!(f, "traffic intensity ρ = {rho} >= 1: queue is unstable")
            }
            ModelError::ZeroTraffic => write!(f, "arrival rate is zero"),
        }
    }
}

impl std::error::Error for ModelError {}

/// The exact first-stage queueing model for an arrival pgf `R` and a
/// service pgf `U` (paper §II).
///
/// ```
/// use banyan_core::{FirstStage, UniformBernoulli, ConstantService};
///
/// // One output port of a 2×2 switch at input load p = 0.5.
/// let q = FirstStage::new(
///     UniformBernoulli::square(2, 0.5),
///     ConstantService::unit(),
/// ).unwrap();
/// assert_eq!(q.mean_wait(), 0.25);           // paper Eq. 6
/// assert_eq!(q.var_wait(), 0.25);            // paper Eq. 7
/// let pmf = q.pmf(16);                       // the full distribution
/// assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-6);
/// assert!((q.tail_decay_rate().unwrap() - 1.0 / 9.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct FirstStage<R, U> {
    arrivals: R,
    service: U,
    lambda: f64,
    m: f64,
}

impl<R: Pgf, U: Pgf> FirstStage<R, U> {
    /// Builds the model, validating stability (`ρ = mλ < 1`, `λ > 0`).
    pub fn new(arrivals: R, service: U) -> Result<Self, ModelError> {
        let lambda = arrivals.d1();
        let m = service.d1();
        if lambda <= 0.0 {
            return Err(ModelError::ZeroTraffic);
        }
        let rho = lambda * m;
        if rho >= 1.0 {
            return Err(ModelError::Unstable { rho });
        }
        Ok(FirstStage {
            arrivals,
            service,
            lambda,
            m,
        })
    }

    /// Arrival rate `λ` (messages per cycle).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Traffic intensity `ρ = mλ` (also the long-run utilization of the
    /// output port).
    pub fn rho(&self) -> f64 {
        self.lambda * self.m
    }

    /// The arrival process.
    pub fn arrivals(&self) -> &R {
        &self.arrivals
    }

    /// The service distribution.
    pub fn service(&self) -> &U {
        &self.service
    }

    /// `(E(w), Var(w))` from the series expansion of `t` at `z = 1`
    /// (see [`wait_moments`]).
    fn moments(&self) -> (f64, f64) {
        wait_moments(
            self.lambda,
            self.m,
            self.arrivals.d2(),
            self.arrivals.d3(),
            self.service.d2(),
            self.service.d3(),
        )
    }

    /// Exact mean waiting time `E(w)` (paper Eq. 2):
    ///
    /// ```text
    /// E(w) = (m·R''(1) + λ²·U''(1)) / (2λ(1 − mλ)).
    /// ```
    pub fn mean_wait(&self) -> f64 {
        // Equivalent to transform_derivatives().0; kept in the paper's
        // printed form so the two can cross-check each other in tests.
        let lam = self.lambda;
        let m = self.m;
        (m * self.arrivals.d2() + lam * lam * self.service.d2())
            / (2.0 * lam * (1.0 - m * lam))
    }

    /// Exact variance of the waiting time (paper Eq. 3), via
    /// `Var(w) = t''(1) + t'(1) − t'(1)²`.
    pub fn var_wait(&self) -> f64 {
        self.moments().1
    }

    /// Mean *delay* through the stage: waiting plus own service.
    pub fn mean_delay(&self) -> f64 {
        self.mean_wait() + self.m
    }

    /// Variance of the delay. Arrivals are independent of queue length,
    /// so the delay variance is the waiting variance plus the service
    /// variance (paper §III, opening remarks).
    pub fn var_delay(&self) -> f64 {
        self.var_wait() + self.service.variance()
    }

    /// The waiting-time transform `t(z)` at a complex point on the closed
    /// unit disk. `t(1) = 1` by convention (removable singularity).
    pub fn transform(&self, z: Complex) -> Complex {
        if (z - Complex::ONE).abs() < 1e-12 {
            return Complex::ONE;
        }
        let rho = self.rho();
        let uz = self.service.eval_complex(z);
        let ruz = self.arrivals.eval_complex(uz);
        let psi = (Complex::ONE - z) * (1.0 - rho) / (ruz - z);
        let phi = (Complex::ONE - ruz) / ((Complex::ONE - uz) * self.lambda);
        psi * phi
    }

    /// `t(z)` for real `z` (valid on `[0, 1]` and slightly beyond).
    pub fn transform_real(&self, z: f64) -> f64 {
        self.transform(Complex::from_real(z)).re
    }

    /// The full waiting-time pmf `P(w = 0), …, P(w = len−1)`, recovered
    /// by inverse DFT of `t` sampled on the unit circle.
    ///
    /// The FFT size is chosen from the tail decay rate so that aliasing
    /// is below `1e-10`; tiny negative round-off values are clamped to 0.
    pub fn pmf(&self, len: usize) -> Vec<f64> {
        let n = self.fft_size(len);
        let samples: Vec<Complex> = (0..n)
            .map(|l| {
                let theta = 2.0 * std::f64::consts::PI * l as f64 / n as f64;
                self.transform(Complex::cis(theta))
            })
            .collect();
        let mut coeffs = coefficients_from_unit_circle(&samples);
        coeffs.truncate(len);
        for c in coeffs.iter_mut() {
            if *c < 0.0 && *c > -1e-9 {
                *c = 0.0;
            }
        }
        coeffs
    }

    /// Exact third central moment `μ₃` of the waiting time (see
    /// [`wait_three_moments`]).
    pub fn third_central_moment(&self) -> f64 {
        wait_three_moments(
            self.lambda,
            self.m,
            self.arrivals.d2(),
            self.arrivals.d3(),
            self.arrivals.d4(),
            self.service.d2(),
            self.service.d3(),
            self.service.d4(),
        )
        .2
    }

    /// Exact skewness `μ₃/σ³` of the waiting time. Infinite when the
    /// variance is zero.
    pub fn skewness_wait(&self) -> f64 {
        let v = self.var_wait();
        self.third_central_moment() / v.powf(1.5)
    }

    /// Moments `(E[s], Var[s])` of the steady-state **unfinished work**
    /// `s` at the end of a cycle — the `Ψ(z)` factor in Theorem 1's
    /// proof, with transform `Ψ(z) = (1−ρ)(1−z)/(R(U(z)) − z)`.
    ///
    /// An arriving batch sees exactly this backlog (the arrival process
    /// is memoryless), so `w = s + (work of batch-mates served first)`.
    pub fn unfinished_work_moments(&self) -> (f64, f64) {
        let rho = self.rho();
        let r2 = self.arrivals.d2();
        let r3 = self.arrivals.d3();
        let u2 = self.service.d2();
        let u3 = self.service.d3();
        let m = self.m;
        let lam = self.lambda;
        let v2 = m * m * r2 + lam * u2;
        let v3 = m * m * m * r3 + 3.0 * m * u2 * r2 + lam * u3;
        let mean = v2 / (2.0 * (1.0 - rho));
        let second_fact = v2 * v2 / (2.0 * (1.0 - rho).powi(2)) + v3 / (3.0 * (1.0 - rho));
        (mean, second_fact + mean - mean * mean)
    }

    /// Probability that the port is idle at the end of a cycle,
    /// `P(s = 0) = Ψ(0)`.
    pub fn idle_probability(&self) -> f64 {
        let ru0 = self.arrivals.eval(self.service.eval(0.0));
        (1.0 - self.rho()) / ru0
    }

    /// The unfinished-work transform `Ψ(z)` on the closed unit disk
    /// (`Ψ(1) = 1` by convention).
    pub fn unfinished_work_transform(&self, z: Complex) -> Complex {
        if (z - Complex::ONE).abs() < 1e-12 {
            return Complex::ONE;
        }
        let uz = self.service.eval_complex(z);
        let ruz = self.arrivals.eval_complex(uz);
        (Complex::ONE - z) * (1.0 - self.rho()) / (ruz - z)
    }

    /// The full pmf of the end-of-cycle unfinished work `s`, recovered by
    /// inverting `Ψ` on the unit circle.
    ///
    /// This is the quantity a *finite* buffer truncates: `P(s >= B)`
    /// approximates how often a buffer of `B` work units would overflow —
    /// the bridge the paper's §VI sketches toward finite-buffer formulas
    /// ("given our formulas for infinite buffer delays … one could
    /// develop good approximate formulas for finite buffer delays").
    pub fn unfinished_work_pmf(&self, len: usize) -> Vec<f64> {
        let n = self.fft_size(len);
        let samples: Vec<Complex> = (0..n)
            .map(|l| {
                let theta = 2.0 * std::f64::consts::PI * l as f64 / n as f64;
                self.unfinished_work_transform(Complex::cis(theta))
            })
            .collect();
        let mut coeffs = coefficients_from_unit_circle(&samples);
        coeffs.truncate(len);
        for c in coeffs.iter_mut() {
            if *c < 0.0 && *c > -1e-9 {
                *c = 0.0;
            }
        }
        coeffs
    }

    /// Tail probability `P(s >= b)` of the unfinished work — a first-cut
    /// buffer-overflow estimate for a buffer holding `b` work units.
    pub fn backlog_overflow_probability(&self, b: usize) -> f64 {
        let pmf = self.unfinished_work_pmf(b);
        (1.0 - pmf.iter().sum::<f64>()).clamp(0.0, 1.0)
    }

    /// CDF of the waiting time at integer `v`, from the inverted pmf.
    pub fn wait_cdf(&self, v: u64) -> f64 {
        let pmf = self.pmf(v as usize + 1);
        pmf.iter().sum::<f64>().min(1.0)
    }

    /// Cumulative table `[P(w <= 0), …, P(w <= len−1)]` from a single
    /// pmf inversion. Prefer this over repeated [`Self::wait_cdf`] calls when
    /// the CDF is needed at many points (e.g. KS drift checks): one FFT
    /// instead of `len`.
    pub fn wait_cdf_table(&self, len: usize) -> Vec<f64> {
        let pmf = self.pmf(len);
        let mut acc = 0.0;
        pmf.iter()
            .map(|&p| {
                acc += p;
                acc.min(1.0)
            })
            .collect()
    }

    /// Smallest `v` with `P(w <= v) >= q`, for `q ∈ (0, 1)`.
    ///
    /// Markov's inequality `P(w >= 1) <= E(w)` puts the quantile at 0
    /// whenever `E(w) <= 1 − q`, without inverting the transform. That
    /// covers loads so light (`p ≲ 1e-16`) that the sampled transform is
    /// round-off, or NaN once `p ≲ 1e-154`. Otherwise the pmf window
    /// doubles until it covers mass `q`; if a doubling adds no mass, the
    /// rest is round-off, and the answer is the first `v` that reaches
    /// the mass covered.
    ///
    /// # Panics
    /// Panics if `q` is outside `(0, 1)`.
    pub fn wait_quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q < 1.0, "quantile level must be in (0,1)");
        if self.mean_wait() <= 1.0 - q {
            return 0;
        }
        let mut len = 64usize;
        let mut covered = 0.0;
        loop {
            let pmf = self.pmf(len);
            let mass: f64 = pmf.iter().sum();
            if mass >= q || mass <= covered {
                let target = q.min(mass);
                let mut acc = 0.0;
                if let Some(v) = pmf.iter().position(|&p| {
                    acc += p;
                    acc >= target
                }) {
                    return v as u64;
                }
            }
            covered = mass;
            len *= 2;
            assert!(len <= 1 << 22, "quantile window blew up (load too close to 1?)");
        }
    }

    /// Picks an FFT size large enough that the aliased tail mass is
    /// negligible.
    fn fft_size(&self, len: usize) -> usize {
        let base = next_pow2(2 * len.max(32));
        match self.tail_decay_rate() {
            Some(r) if r < 1.0 && r > 0.0 => {
                // Need r^N < 1e-12 → N > −12 ln 10 / ln r.
                let need = (-12.0 * std::f64::consts::LN_10 / r.ln()).ceil();
                let need = if need.is_finite() { need as usize } else { 1 << 20 };
                next_pow2(base.max(need)).min(1 << 20)
            }
            _ => base.clamp(1 << 14, 1 << 20),
        }
    }

    /// Geometric decay rate `r ∈ (0, 1)` of the waiting-time tail:
    /// `P(w = j) ~ C·r^j`. Computed as `1/σ` where `σ > 1` is the
    /// smallest real root of `R(U(z)) = z` beyond 1 — the dominant pole
    /// of `t`.
    ///
    /// Returns `None` when the search cannot bracket a root inside the
    /// region where both pgfs converge (e.g. extremely light traffic,
    /// where the pole sits beyond the service pgf's radius).
    pub fn tail_decay_rate(&self) -> Option<f64> {
        let zmax = self.service.radius_hint().min(1e6);
        let f = |z: f64| self.arrivals.eval(self.service.eval(z)) - z;
        // f(1) = 0, f'(1) = ρ − 1 < 0, and f is convex on [1, zmax), so
        // the second root (if any) is where f crosses back up through 0.
        // March outward until the sign flips.
        let mut lo = 1.0 + 1e-9;
        if f(lo) >= 0.0 {
            // ρ ≈ 1: no usable gap below the pole.
            return None;
        }
        let mut step = 1e-3;
        let mut hi = lo + step;
        for _ in 0..200 {
            if hi >= zmax {
                hi = zmax * (1.0 - 1e-12);
                if f(hi) <= 0.0 || !f(hi).is_finite() {
                    return None;
                }
                break;
            }
            let fh = f(hi);
            if !fh.is_finite() {
                return None;
            }
            if fh > 0.0 {
                break;
            }
            lo = hi;
            step *= 2.0;
            hi += step;
        }
        if f(hi) <= 0.0 {
            return None;
        }
        let sigma = brent(f, lo, hi, 1e-13).ok()?;
        if sigma > 1.0 {
            Some(1.0 / sigma)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{PoissonArrivals, UniformBernoulli, UniformBulk};
    use crate::gf::TabulatedPgf;
    use crate::service::{ConstantService, GeometricService, MixedService};
    use banyan_numerics::series::{finite_derivatives, pmf_mean_var};

    #[test]
    fn rejects_unstable_and_empty() {
        let r = UniformBernoulli::square(2, 0.5);
        let err = FirstStage::new(r, ConstantService::new(4)).unwrap_err();
        assert!(matches!(err, ModelError::Unstable { .. }));
        let empty = UniformBernoulli::square(2, 0.0);
        assert_eq!(
            FirstStage::new(empty, ConstantService::unit()).unwrap_err(),
            ModelError::ZeroTraffic
        );
    }

    #[test]
    fn eq6_uniform_unit_service_mean() {
        // E(w) = (1 − 1/k)·λ / (2(1 − λ))  (paper Eq. 6, λ = kp/s = p).
        for &(k, p) in &[(2u32, 0.2), (2, 0.5), (2, 0.8), (4, 0.5), (8, 0.5)] {
            let q = FirstStage::new(
                UniformBernoulli::square(k, p),
                ConstantService::unit(),
            )
            .unwrap();
            let want = (1.0 - 1.0 / k as f64) * p / (2.0 * (1.0 - p));
            assert!((q.mean_wait() - want).abs() < 1e-13, "k={k} p={p}");
        }
    }

    #[test]
    fn eq7_uniform_unit_service_variance() {
        // Var(w) = (1−1/k)λ[6 − 5λ(1+1/k) + 2λ²(1+1/k)] / (12(1−λ)²).
        for &(k, p) in &[(2u32, 0.2), (2, 0.5), (2, 0.8), (4, 0.5), (8, 0.3)] {
            let q = FirstStage::new(
                UniformBernoulli::square(k, p),
                ConstantService::unit(),
            )
            .unwrap();
            let ik = 1.0 / k as f64;
            let want = (1.0 - ik) * p
                * (6.0 - 5.0 * p * (1.0 + ik) + 2.0 * p * p * (1.0 + ik))
                / (12.0 * (1.0 - p) * (1.0 - p));
            assert!(
                (q.var_wait() - want).abs() < 1e-12,
                "k={k} p={p}: {} vs {want}",
                q.var_wait()
            );
        }
    }

    #[test]
    fn table_i_anchor_point() {
        // k = 2, p = 0.5, m = 1: w₁ = 0.25, v₁ = 0.25 (used throughout
        // §IV as the calibration anchor).
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        assert!((q.mean_wait() - 0.25).abs() < 1e-14);
        assert!((q.var_wait() - 0.25).abs() < 1e-14);
    }

    #[test]
    fn eq8_constant_service_mean() {
        // E(w) = ρ(m − 1/k) / (2(1 − ρ)) with ρ = mλ (paper Eq. 8
        // rearranged; reduces to Eq. 6 at m = 1).
        for &(k, p, m) in &[(2u32, 0.25, 2u32), (2, 0.125, 4), (2, 0.0625, 8), (4, 0.1, 5)] {
            let q = FirstStage::new(
                UniformBernoulli::square(k, p),
                ConstantService::new(m),
            )
            .unwrap();
            let rho = m as f64 * p;
            let want = rho * (m as f64 - 1.0 / k as f64) / (2.0 * (1.0 - rho));
            assert!((q.mean_wait() - want).abs() < 1e-12, "k={k} p={p} m={m}");
        }
    }

    #[test]
    fn mean_matches_series_derivation() {
        // Paper Eq. 2 (printed form) vs our series expansion t'(1): the
        // two must agree identically for every traffic/service class.
        let cases: Vec<(Box<dyn Pgf>, Box<dyn Pgf>)> = vec![
            (
                Box::new(UniformBernoulli::square(4, 0.6)),
                Box::new(ConstantService::new(1)),
            ),
            (
                Box::new(UniformBulk::new(2, 2, 0.2, 3)),
                Box::new(ConstantService::new(1)),
            ),
            (
                Box::new(UniformBernoulli::square(2, 0.3)),
                Box::new(GeometricService::new(0.5)),
            ),
            (
                Box::new(PoissonArrivals::new(0.1)),
                Box::new(MixedService::new(vec![(4, 0.5), (8, 0.5)])),
            ),
        ];
        for (r, u) in cases {
            let q = FirstStage::new(r, u).unwrap();
            let (t1, _) = q.moments();
            assert!(
                (q.mean_wait() - t1).abs() < 1e-11 * t1.abs().max(1.0),
                "printed Eq. 2 disagrees with series derivation"
            );
        }
    }

    // Pgf for Box<dyn Pgf> so the table-driven test above can mix types.
    impl Pgf for Box<dyn Pgf> {
        fn eval(&self, z: f64) -> f64 {
            (**self).eval(z)
        }
        fn eval_complex(&self, z: Complex) -> Complex {
            (**self).eval_complex(z)
        }
        fn d1(&self) -> f64 {
            (**self).d1()
        }
        fn d2(&self) -> f64 {
            (**self).d2()
        }
        fn d3(&self) -> f64 {
            (**self).d3()
        }
        fn d4(&self) -> f64 {
            (**self).d4()
        }
        fn radius_hint(&self) -> f64 {
            (**self).radius_hint()
        }
    }

    #[test]
    fn moments_match_numerical_transform_derivatives() {
        // Differentiate t(z) numerically at z = 1 and compare with the
        // closed forms — this validates the *transform* too.
        let q = FirstStage::new(
            UniformBulk::new(2, 2, 0.15, 2),
            MixedService::new(vec![(1, 0.6), (3, 0.4)]),
        )
        .unwrap();
        let (d1, d2, _) = finite_derivatives(|z| q.transform_real(z), 1.0, 1e-4);
        let m = q.mean_wait();
        assert!((d1 - m).abs() < 1e-3 * m.abs().max(1.0), "{d1} vs {m}");
        let var = d2 + d1 - d1 * d1;
        let v = q.var_wait();
        assert!((var - v).abs() < 1e-2 * v.abs().max(1.0), "{var} vs {v}");
    }

    #[test]
    fn transform_is_one_at_one_and_bounded_on_circle() {
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        assert!((q.transform(Complex::ONE) - Complex::ONE).abs() < 1e-12);
        for l in 1..64 {
            let z = Complex::cis(2.0 * std::f64::consts::PI * l as f64 / 64.0);
            let t = q.transform(z);
            assert!(t.abs() <= 1.0 + 1e-9, "|t| = {} at l = {l}", t.abs());
        }
    }

    #[test]
    fn pmf_is_a_distribution_with_matching_moments() {
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        let pmf = q.pmf(128);
        assert!(pmf.iter().all(|&p| p >= 0.0));
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass = {total}");
        let (mean, var) = pmf_mean_var(&pmf);
        assert!((mean - q.mean_wait()).abs() < 1e-8);
        assert!((var - q.var_wait()).abs() < 1e-6);
    }

    #[test]
    fn pmf_matches_known_geo_distribution_for_unit_queue() {
        // k = 2, p = 0.5, m = 1. Here t(z) is rational of degree 2 and the
        // pmf can be computed by the direct recursion on the unfinished
        // work; instead we verify the first probabilities against direct
        // enumeration of the Lindley recursion via the transform's own
        // Taylor series at 0 (finite differences on [0, small]).
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        let pmf = q.pmf(64);
        // P(w=0) = t(0).
        assert!((pmf[0] - q.transform_real(0.0)).abs() < 1e-10);
        // Tail ratio approaches the computed decay rate (use indices where
        // the mass, ~r^j, is still far above FFT round-off).
        let r = q.tail_decay_rate().unwrap();
        let ratio = pmf[8] / pmf[7];
        assert!((ratio - r).abs() < 1e-4, "ratio {ratio} vs decay {r}");
    }

    #[test]
    fn tail_decay_rate_unit_service_closed_form() {
        // For R(z) = (1−a+az)² with a = p/2, unit service:
        // R(z) = z has roots z = 1 and z = (1−a)²/a². Decay = a²/(1−a)².
        let p = 0.5f64;
        let a = p / 2.0;
        let q = FirstStage::new(
            UniformBernoulli::square(2, p),
            ConstantService::unit(),
        )
        .unwrap();
        let want = (a / (1.0 - a)).powi(2);
        let got = q.tail_decay_rate().unwrap();
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn mm1_limit_of_geometric_service() {
        // §III-C: scale time by n; the discrete queue converges to M/M/1
        // with ρ = pk/(s·μ_cont). Check the mean against ρ/(μ(1−ρ)) as n
        // grows.
        let rho = 0.6;
        let mut prev_err = f64::INFINITY;
        for &n in &[8u32, 64, 512] {
            let mu_n = 1.0 / n as f64; // mean service n cycles
            let p_n = rho / n as f64; // keeps ρ fixed
            let q = FirstStage::new(
                PoissonArrivals::new(p_n),
                GeometricService::new(mu_n),
            )
            .unwrap();
            // In unscaled time units (divide cycles by n):
            let mean_scaled = q.mean_wait() / n as f64;
            let want = rho / (1.0 - rho); // ρ/(μ(1−ρ)) with μ = 1
            let err = (mean_scaled - want).abs();
            assert!(err < prev_err + 1e-12, "not converging at n={n}");
            prev_err = err;
        }
        assert!(prev_err < 0.01, "final error {prev_err}");
    }

    #[test]
    fn md1_limit_of_constant_service() {
        // Poisson arrivals + deterministic service ⇒ M/D/1:
        // E(w) = ρm/(2(1−ρ)), Var(w) = ρm²(4−ρ)/(12(1−ρ)²) − wait, use
        // the known Pollaczek–Khinchine moments: for M/G/1,
        // E(w) = λE[S²]/(2(1−ρ)) and
        // Var(w) = E(w)² + λE[S³]/(3(1−ρ)).
        // Our discrete queue with large m approaches this.
        let rho = 0.5;
        let m = 256u32;
        let lam = rho / m as f64;
        let q = FirstStage::new(PoissonArrivals::new(lam), ConstantService::new(m)).unwrap();
        let mf = m as f64;
        let ew = lam * mf * mf / (2.0 * (1.0 - rho));
        let vw = ew * ew + lam * mf.powi(3) / (3.0 * (1.0 - rho));
        assert!((q.mean_wait() - ew).abs() / ew < 1e-12);
        // The discrete correction is O(1/m) relative.
        assert!((q.var_wait() - vw).abs() / vw < 0.02, "{} vs {vw}", q.var_wait());
    }

    #[test]
    fn bulk_arrival_mean_closed_form() {
        // §III-A-2 with constant batch size b, unit service:
        // E(w) = (b − 1 + (1−1/k)λ) / (2(1−λ)).
        for &(k, p, b) in &[(2u32, 0.2, 2u32), (2, 0.1, 4), (4, 0.05, 8)] {
            let q = FirstStage::new(UniformBulk::new(k, k, p, b), ConstantService::unit())
                .unwrap();
            let lam = p * b as f64;
            let want =
                ((b as f64 - 1.0) + (1.0 - 1.0 / k as f64) * lam) / (2.0 * (1.0 - lam));
            assert!((q.mean_wait() - want).abs() < 1e-12, "k={k} p={p} b={b}");
        }
    }

    #[test]
    fn geometric_service_mean_closed_form() {
        // §III-B with uniform single arrivals:
        // Eq. 2 with U'' = 2(1−μ)/μ²:
        // E(w) = [R''/μ + 2λ²(1−μ)/μ²] / (2λ(1−λ/μ)).
        let (k, p, mu) = (2u32, 0.3, 0.75);
        let r = UniformBernoulli::square(k, p);
        let q = FirstStage::new(r, GeometricService::new(mu)).unwrap();
        let lam = p;
        let r2 = lam * lam * 0.5;
        let want = (r2 / mu + 2.0 * lam * lam * (1.0 - mu) / (mu * mu))
            / (2.0 * lam * (1.0 - lam / mu));
        assert!((q.mean_wait() - want).abs() < 1e-13);
    }

    #[test]
    fn delay_moments_add_service() {
        let u = MixedService::new(vec![(2, 0.5), (6, 0.5)]);
        let q = FirstStage::new(UniformBernoulli::square(2, 0.2), u.clone()).unwrap();
        assert!((q.mean_delay() - (q.mean_wait() + 4.0)).abs() < 1e-13);
        assert!((q.var_delay() - (q.var_wait() + u.variance())).abs() < 1e-13);
    }

    #[test]
    fn tabulated_arrivals_work_end_to_end() {
        // Arbitrary batch distribution: P(0)=0.5, P(1)=0.3, P(2)=0.2.
        let r = TabulatedPgf::new(vec![0.5, 0.3, 0.2]);
        let q = FirstStage::new(r, ConstantService::unit()).unwrap();
        let pmf = q.pmf(64);
        let (mean, var) = pmf_mean_var(&pmf);
        assert!((mean - q.mean_wait()).abs() < 1e-9);
        assert!((var - q.var_wait()).abs() < 1e-7);
    }

    #[test]
    fn three_moments_agree_with_wait_moments() {
        // The third-order expansion must reproduce the second-order one.
        for &(k, p, m) in &[(2u32, 0.5, 1u32), (4, 0.3, 2), (2, 0.1, 4)] {
            let q = FirstStage::new(
                UniformBernoulli::square(k, p),
                ConstantService::new(m),
            )
            .unwrap();
            let (ew, var, _) = wait_three_moments(
                q.lambda(),
                q.m,
                q.arrivals().d2(),
                q.arrivals().d3(),
                q.arrivals().d4(),
                q.service().d2(),
                q.service().d3(),
                q.service().d4(),
            );
            assert!((ew - q.mean_wait()).abs() < 1e-12, "k={k} p={p} m={m}");
            assert!((var - q.var_wait()).abs() < 1e-11, "k={k} p={p} m={m}");
        }
    }

    #[test]
    fn third_moment_matches_inverted_pmf() {
        for &(k, p, m) in &[(2u32, 0.5, 1u32), (2, 0.7, 1), (4, 0.4, 1), (2, 0.15, 3)] {
            let q = FirstStage::new(
                UniformBernoulli::square(k, p),
                ConstantService::new(m),
            )
            .unwrap();
            let pmf = q.pmf(512);
            let mean: f64 = pmf.iter().enumerate().map(|(j, &pr)| j as f64 * pr).sum();
            let mu3_pmf: f64 = pmf
                .iter()
                .enumerate()
                .map(|(j, &pr)| (j as f64 - mean).powi(3) * pr)
                .sum();
            let mu3 = q.third_central_moment();
            assert!(
                (mu3 - mu3_pmf).abs() < 1e-4 * (1.0 + mu3.abs()),
                "k={k} p={p} m={m}: {mu3} vs pmf {mu3_pmf}"
            );
        }
    }

    #[test]
    fn skewness_is_positive_and_grows_with_load() {
        // Waiting times are right-skewed; the geometric tail thickens
        // with load but skewness (normalized) actually decreases toward
        // the exponential's 2 — just check positivity and finiteness.
        for &p in &[0.2, 0.5, 0.8] {
            let q = FirstStage::new(
                UniformBernoulli::square(2, p),
                ConstantService::unit(),
            )
            .unwrap();
            let s = q.skewness_wait();
            assert!(s.is_finite() && s > 0.0, "p={p}: skew {s}");
        }
    }

    #[test]
    fn unfinished_work_relation_to_waiting() {
        // With single arrivals (no batch-mates) w = s seen at arrival;
        // by memorylessness E[w] = E[s] and Var[w] = Var[s]: check for a
        // near-single-arrival case… more robustly, for unit service and
        // k = 2 the relation E(w) = E(s) + E(batch-mate work) holds with
        // E(batch-mate work) = φ'(1) = R''/(2λ).
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        let (es, _) = q.unfinished_work_moments();
        let r2 = q.arrivals().d2();
        let batch_part = r2 / (2.0 * q.lambda());
        assert!((q.mean_wait() - (es + batch_part)).abs() < 1e-13);
    }

    #[test]
    fn idle_probability_closed_form() {
        // P(s = 0) = (1−ρ)/R(U(0)); unit service ⇒ R(0) = (1 − p/2)².
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        assert!((q.idle_probability() - 0.5 / 0.5625).abs() < 1e-13);
        assert!(q.idle_probability() <= 1.0);
        assert!(q.idle_probability() >= 1.0 - q.rho());
    }

    #[test]
    fn unfinished_work_pmf_is_consistent() {
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        let pmf = q.unfinished_work_pmf(128);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // P(s=0) matches the closed form Ψ(0).
        assert!((pmf[0] - q.idle_probability()).abs() < 1e-10);
        // Moments match the series expansion.
        let (mean, var) = pmf_mean_var(&pmf);
        let (es, vs) = q.unfinished_work_moments();
        assert!((mean - es).abs() < 1e-8);
        assert!((var - vs).abs() < 1e-6);
        // Overflow probability is the tail of the same pmf.
        let p4 = q.backlog_overflow_probability(4);
        let tail: f64 = 1.0 - pmf[..4].iter().sum::<f64>();
        assert!((p4 - tail).abs() < 1e-9);
        // ...and decreases in the buffer size.
        assert!(q.backlog_overflow_probability(8) < p4);
    }

    #[test]
    fn wait_cdf_and_quantile_consistent_with_pmf() {
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.7),
            ConstantService::unit(),
        )
        .unwrap();
        let pmf = q.pmf(64);
        let cdf3: f64 = pmf[..4].iter().sum();
        assert!((q.wait_cdf(3) - cdf3).abs() < 1e-10);
        for &level in &[0.5, 0.9, 0.99] {
            let v = q.wait_quantile(level);
            assert!(q.wait_cdf(v) >= level - 1e-9);
            if v > 0 {
                assert!(q.wait_cdf(v - 1) < level);
            }
        }
    }

    /// At loads so light that the sampled transform is round-off (or
    /// NaN), every quantile is 0 by Markov's inequality, not a panic.
    #[test]
    fn tiny_load_quantiles_are_zero() {
        for p in [1e-300, 1e-100, 1e-17] {
            let q = FirstStage::new(UniformBernoulli::square(2, p), ConstantService::unit())
                .unwrap();
            for level in [0.5, 0.9, 0.99, 0.999, 1.0 - 1e-12] {
                assert_eq!(q.wait_quantile(level), 0, "p={p} level={level}");
            }
        }
    }

    /// A level closer to 1 than the pmf's round-off. At ρ = 0.9 the mass
    /// of the 512-wide window falls below the 256-wide one's, so the
    /// window stops growing there; the answer still lies past every
    /// lower level's and its CDF is 1 to within round-off.
    #[test]
    fn quantile_above_the_round_off_mass_stops_growing() {
        let q = FirstStage::new(UniformBernoulli::square(2, 0.9), ConstantService::unit())
            .unwrap();
        let top = q.wait_quantile(1.0 - f64::EPSILON / 2.0);
        assert!(top >= q.wait_quantile(1.0 - 1e-9), "{top}");
        assert!(q.wait_cdf(top) > 1.0 - 1e-12, "{top}");
    }

    #[test]
    fn wait_cdf_table_matches_pointwise_cdf() {
        let q = FirstStage::new(
            UniformBernoulli::square(2, 0.5),
            ConstantService::unit(),
        )
        .unwrap();
        let table = q.wait_cdf_table(12);
        assert_eq!(table.len(), 12);
        for (v, &c) in table.iter().enumerate() {
            assert!((c - q.wait_cdf(v as u64)).abs() < 1e-12, "v={v}");
            assert!((0.0..=1.0).contains(&c));
        }
        // Monotone nondecreasing, approaching 1.
        assert!(table.windows(2).all(|w| w[1] >= w[0]));
        assert!(table[11] > 0.999);
    }

    #[test]
    fn heavier_load_means_longer_waits() {
        let mk = |p: f64| {
            FirstStage::new(UniformBernoulli::square(2, p), ConstantService::unit())
                .unwrap()
                .mean_wait()
        };
        let mut prev = 0.0;
        for &p in &[0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let w = mk(p);
            assert!(w > prev);
            prev = w;
        }
    }

    /// §III-C: with `n` cycles per time unit, geometric service
    /// `μ = 1/n` and Poisson arrivals `λ = ρ/n`, the scaled discrete
    /// queue converges to M/M/1 with `μ = 1`, whose waiting time has
    /// `E(w) = ρ/(1−ρ)` and `Var(w) = ρ(2−ρ)/(1−ρ)²`. Errors shrink
    /// monotonically.
    #[test]
    fn discrete_geometric_queue_converges_to_mm1() {
        let rho: f64 = 0.6;
        let want_m = rho / (1.0 - rho);
        let want_v = rho * (2.0 - rho) / ((1.0 - rho) * (1.0 - rho));
        let mut prev = f64::INFINITY;
        for &n in &[4u32, 16, 64, 256] {
            let q = FirstStage::new(
                PoissonArrivals::new(rho / n as f64),
                GeometricService::new(1.0 / n as f64),
            )
            .unwrap();
            let got_m = q.mean_wait() / n as f64;
            let got_v = q.var_wait() / (n as f64 * n as f64);
            let err = (got_m - want_m).abs() / want_m + (got_v - want_v).abs() / want_v;
            assert!(err < prev, "error should shrink with n: {err} vs {prev}");
            prev = err;
        }
        assert!(prev < 0.02, "final combined error {prev}");
    }

    /// §IV-B: Poisson arrivals and constant size `m → ∞` at fixed
    /// `ρ = mλ` converge in scaled time to M/D/1 with unit service,
    /// whose Pollaczek–Khinchine moments are `E(w) = ρ/(2(1−ρ))` and
    /// `Var(w) = E(w)² + ρ/(3(1−ρ))`.
    #[test]
    fn discrete_constant_queue_converges_to_md1() {
        let rho: f64 = 0.5;
        let want_m = rho / (2.0 * (1.0 - rho));
        let want_v = want_m * want_m + rho / (3.0 * (1.0 - rho));
        let mut prev = f64::INFINITY;
        for &m in &[4u32, 16, 64, 256] {
            let q = FirstStage::new(
                PoissonArrivals::new(rho / m as f64),
                ConstantService::new(m),
            )
            .unwrap();
            let got_m = q.mean_wait() / m as f64;
            let got_v = q.var_wait() / (m as f64 * m as f64);
            let err = (got_m - want_m).abs() / want_m + (got_v - want_v).abs() / want_v;
            assert!(err < prev, "error should shrink with m: {err} vs {prev}");
            prev = err;
        }
        assert!(prev < 0.02, "final combined error {prev}");
    }

    #[test]
    fn error_display() {
        let e = ModelError::Unstable { rho: 1.25 };
        assert!(e.to_string().contains("unstable"));
        assert!(ModelError::ZeroTraffic.to_string().contains("zero"));
    }
}
