//! Discrete sampling helpers for the workloads of the paper: Bernoulli
//! per-input arrivals, binomial batch counts (§III-A-1), and geometric
//! service times (§III-B).

use crate::Rng;

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        Bernoulli { p }
    }

    /// Draws one trial.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.p)
    }
}

/// Binomial(n, p): the number of successes in `n` Bernoulli trials —
/// the per-cycle batch count at a uniform-traffic switch output.
///
/// Sampling is by direct summation of trials, O(n) per draw: exact, and
/// fast for the switch arities this project uses (`n = k ≤ 16`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Binomial {
    n: u32,
    p: f64,
}

impl Binomial {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn new(n: u32, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        Binomial { n, p }
    }

    /// Draws one batch count in `0..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        (0..self.n).filter(|_| rng.gen_bool(self.p)).count() as u32
    }
}

/// Geometric with success probability `p ∈ (0, 1]` on support
/// `{1, 2, …}` (trials until first success) — the paper's geometric
/// message-size distribution with mean `1/p`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `0 < p ≤ 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        Geometric { p }
    }

    /// Mean `1/p`.
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draws one value ≥ 1 by CDF inversion:
    /// `S = 1 + ⌊ln U / ln(1 − p)⌋`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let s = 1.0 + (u.ln() / (1.0 - self.p).ln()).floor();
        s.min(u64::MAX as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;
    use crate::SeedableRng;

    #[test]
    fn bernoulli_frequency() {
        let d = Bernoulli::new(0.7);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let hits = (0..n).filter(|_| d.sample(&mut rng)).count();
        assert!((hits as f64 / n as f64 - 0.7).abs() < 0.01);
    }

    #[test]
    fn binomial_mean_and_support() {
        let d = Binomial::new(8, 0.25);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 50_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let v = d.sample(&mut rng);
            assert!(v <= 8);
            sum += v as u64;
        }
        assert!((sum as f64 / n as f64 - 2.0).abs() < 0.03);
    }

    #[test]
    fn geometric_mean_and_min() {
        let d = Geometric::new(0.25);
        assert_eq!(d.mean(), 4.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        for _ in 0..n {
            let v = d.sample(&mut rng);
            min = min.min(v);
            sum += v;
        }
        assert_eq!(min, 1);
        assert!((sum as f64 / n as f64 - 4.0).abs() < 0.06);
    }

    #[test]
    fn geometric_p1_is_constant_one() {
        let d = Geometric::new(1.0);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!((0..100).all(|_| d.sample(&mut rng) == 1));
    }
}
