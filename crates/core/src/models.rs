//! Named first-stage scenarios and the paper's closed forms (§III).
//!
//! These are thin, self-documenting constructors over [`FirstStage`] for
//! the traffic classes the paper works through, plus the printed closed
//! forms (Eqs. 6–8) as standalone functions. The generic machinery and
//! the closed forms must agree to machine precision — that redundancy is
//! the transcription check for a paper whose scan is partly illegible.

use crate::arrivals::{NonuniformFavorite, UniformBernoulli, UniformBulk};
use crate::first_stage::{wait_moments, FirstStage, ModelError};
use crate::service::{ConstantService, GeometricService, MixedService};

/// Uniform traffic, single arrivals, constant message size `m` (§III-A-1
/// and §III-D-1): the workhorse configuration of every table.
pub fn uniform_queue(
    k: u32,
    p: f64,
    m: u32,
) -> Result<FirstStage<UniformBernoulli, ConstantService>, ModelError> {
    FirstStage::new(UniformBernoulli::square(k, p), ConstantService::new(m))
}

/// Bulk arrivals of `b` unit-service packets (§III-A-2).
pub fn bulk_queue(
    k: u32,
    p: f64,
    b: u32,
) -> Result<FirstStage<UniformBulk, ConstantService>, ModelError> {
    FirstStage::new(UniformBulk::new(k, k, p, b), ConstantService::unit())
}

/// Nonuniform favorite-output traffic (§III-A-3).
pub fn nonuniform_queue(
    k: u32,
    p: f64,
    q: f64,
    b: u32,
) -> Result<FirstStage<NonuniformFavorite, ConstantService>, ModelError> {
    FirstStage::new(NonuniformFavorite::new(k, p, q, b), ConstantService::unit())
}

/// Geometric service times (§III-B).
pub fn geometric_queue(
    k: u32,
    p: f64,
    mu: f64,
) -> Result<FirstStage<UniformBernoulli, GeometricService>, ModelError> {
    FirstStage::new(UniformBernoulli::square(k, p), GeometricService::new(mu))
}

/// A mixture of constant message sizes (§III-D-2), e.g. reads and writes.
pub fn mixed_queue(
    k: u32,
    p: f64,
    sizes: Vec<(u32, f64)>,
) -> Result<FirstStage<UniformBernoulli, MixedService>, ModelError> {
    FirstStage::new(UniformBernoulli::square(k, p), MixedService::new(sizes))
}

/// Paper Eq. 6 — mean first-stage waiting, uniform traffic, unit service
/// on a square `k × k` switch (`λ = p`):
///
/// ```text
/// E(w) = (1 − 1/k)·p / (2(1 − p)).
/// ```
pub fn eq6_mean_wait(k: u32, p: f64) -> f64 {
    let ik = 1.0 / k as f64;
    (1.0 - ik) * p / (2.0 * (1.0 - p))
}

/// Paper Eq. 7 — the matching variance:
///
/// ```text
/// Var(w) = (1 − 1/k)·p·[6 − 5p(1 + 1/k) + 2p²(1 + 1/k)] / (12(1 − p)²).
/// ```
pub fn eq7_var_wait(k: u32, p: f64) -> f64 {
    let ik = 1.0 / k as f64;
    (1.0 - ik) * p * (6.0 - 5.0 * p * (1.0 + ik) + 2.0 * p * p * (1.0 + ik))
        / (12.0 * (1.0 - p) * (1.0 - p))
}

/// Paper Eq. 8 — mean waiting with constant size `m` messages, in the
/// compact rearrangement `E(w) = ρ(m − 1/k)/(2(1 − ρ))`, `ρ = mp`.
///
/// Accepts a *real* `m` so §IV-C can evaluate it at an average message
/// size.
pub fn eq8_mean_wait(k: u32, p: f64, m: f64) -> f64 {
    let rho = m * p;
    rho * (m - 1.0 / k as f64) / (2.0 * (1.0 - rho))
}

/// Paper Eq. 9 — the variance for constant size `m`, evaluated through
/// the generic machinery with the moments of a (pseudo-)deterministic
/// size-`m` service: `U'' = m(m−1)`, `U''' = m(m−1)(m−2)`. Accepts real
/// `m` for the §IV-C average-size correction.
pub fn eq9_var_wait(k: u32, p: f64, m: f64) -> f64 {
    let kf = k as f64;
    let lam = p;
    let r2 = lam * lam * (1.0 - 1.0 / kf);
    let r3 = lam * lam * lam * (1.0 - 1.0 / kf) * (1.0 - 2.0 / kf);
    let u2 = m * (m - 1.0);
    let u3 = m * (m - 1.0) * (m - 2.0);
    wait_moments(lam, m, r2, r3, u2, u3).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq6_eq7_match_generic_machinery() {
        for &(k, p) in &[(2u32, 0.2), (2, 0.5), (2, 0.8), (4, 0.5), (8, 0.5), (16, 0.9)] {
            let q = uniform_queue(k, p, 1).unwrap();
            assert!((q.mean_wait() - eq6_mean_wait(k, p)).abs() < 1e-13);
            assert!((q.var_wait() - eq7_var_wait(k, p)).abs() < 1e-12);
        }
    }

    #[test]
    fn eq8_eq9_match_generic_machinery() {
        for &(k, p, m) in &[(2u32, 0.25, 2u32), (2, 0.125, 4), (2, 0.05, 8), (4, 0.02, 16)] {
            let q = uniform_queue(k, p, m).unwrap();
            assert!((q.mean_wait() - eq8_mean_wait(k, p, m as f64)).abs() < 1e-12);
            assert!((q.var_wait() - eq9_var_wait(k, p, m as f64)).abs() < 1e-10);
        }
    }

    #[test]
    fn eq8_eq9_reduce_to_eq6_eq7_at_m1() {
        for &(k, p) in &[(2u32, 0.5), (4, 0.3), (8, 0.7)] {
            assert!((eq8_mean_wait(k, p, 1.0) - eq6_mean_wait(k, p)).abs() < 1e-14);
            assert!((eq9_var_wait(k, p, 1.0) - eq7_var_wait(k, p)).abs() < 1e-13);
        }
    }

    #[test]
    fn nonuniform_q_one_has_zero_wait() {
        // Paper §III-A-3: "for q = 1, we get E(w) = 0" (b = 1; every
        // output is a private link, single arrivals never queue).
        let q = nonuniform_queue(4, 0.7, 1.0, 1).unwrap();
        assert!(q.mean_wait().abs() < 1e-14);
        assert!(q.var_wait().abs() < 1e-13);
    }

    #[test]
    fn nonuniform_q_zero_reduces_to_uniform() {
        let nu = nonuniform_queue(2, 0.5, 0.0, 1).unwrap();
        assert!((nu.mean_wait() - eq6_mean_wait(2, 0.5)).abs() < 1e-13);
        assert!((nu.var_wait() - eq7_var_wait(2, 0.5)).abs() < 1e-13);
    }

    #[test]
    fn nonuniform_wait_decreases_with_q() {
        let mut prev = f64::INFINITY;
        for &q in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let w = nonuniform_queue(2, 0.5, q, 1).unwrap().mean_wait();
            assert!(w < prev, "q={q}");
            prev = w;
        }
    }

    #[test]
    fn bulk_b1_reduces_to_uniform() {
        let b = bulk_queue(2, 0.5, 1).unwrap();
        assert!((b.mean_wait() - eq6_mean_wait(2, 0.5)).abs() < 1e-13);
        assert!((b.var_wait() - eq7_var_wait(2, 0.5)).abs() < 1e-13);
    }

    #[test]
    fn geometric_mu_one_reduces_to_unit_service() {
        let g = geometric_queue(2, 0.5, 1.0).unwrap();
        assert!((g.mean_wait() - eq6_mean_wait(2, 0.5)).abs() < 1e-13);
        assert!((g.var_wait() - eq7_var_wait(2, 0.5)).abs() < 1e-13);
    }

    #[test]
    fn mixed_queue_mean_matches_section_iii_d2() {
        // §III-D-2 via Eq. 2 with R'' = λ²(1−1/k), U'' = Σ m_i(m_i−1)g_i:
        // E(w) = λ[(1−1/k)m̄ + Σ m_i(m_i−1)g_i] / (2(1−m̄λ)).
        let k = 2u32;
        let p = 0.05;
        let sizes = vec![(4u32, 0.5), (8u32, 0.5)];
        let q = mixed_queue(k, p, sizes.clone()).unwrap();
        let mbar: f64 = sizes.iter().map(|&(m, g)| m as f64 * g).sum();
        let u2: f64 = sizes
            .iter()
            .map(|&(m, g)| m as f64 * (m as f64 - 1.0) * g)
            .sum();
        let want = p * ((1.0 - 0.5) * mbar + u2) / (2.0 * (1.0 - mbar * p));
        assert!((q.mean_wait() - want).abs() < 1e-12);
    }

    #[test]
    fn rectangular_queue_lambda() {
        let q =
            FirstStage::new(UniformBernoulli::new(4, 8, 0.6), ConstantService::unit()).unwrap();
        assert!((q.lambda() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn eq9_is_nonnegative_and_grows_with_m() {
        let mut prev = 0.0;
        for m in 1..=8 {
            let v = eq9_var_wait(2, 0.05, m as f64);
            assert!(v >= prev, "m={m}");
            prev = v;
        }
    }
}
