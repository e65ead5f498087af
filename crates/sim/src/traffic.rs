//! Traffic generation: arrival patterns and service-time samplers.
//!
//! Mirrors the §III traffic classes of the paper on the *sampling* side
//! (the analytical side lives in `banyan-core`). Destinations are either
//! uniform over all network outputs or "favorite" with probability `q`
//! (§III-A-3 / §IV-D, hot-spot traffic where each input owns a private
//! memory module); message sizes come from a [`ServiceDist`].

use banyan_prng::Rng;

/// A sampleable service-time (message size) distribution.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceDist {
    /// Every message takes exactly `m >= 1` cycles per stage.
    Constant(u32),
    /// Finite mixture of constant sizes: `(size, probability)` pairs.
    Mixed(Vec<(u32, f64)>),
    /// Geometric with success probability `μ ∈ (0, 1]` (mean `1/μ`),
    /// capped at `u32::MAX` cycles.
    Geometric(f64),
}

impl ServiceDist {
    /// Unit service: one cycle per stage.
    pub fn unit() -> Self {
        ServiceDist::Constant(1)
    }

    /// Validates the parameters, naming the first nonsense one.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ServiceDist::Constant(0) => Err("size must be >= 1".into()),
            ServiceDist::Mixed(sizes) if sizes.is_empty() => Err("mixture must be non-empty".into()),
            ServiceDist::Mixed(sizes) if sizes.iter().any(|&(m, _)| m == 0) => {
                Err("sizes must be >= 1".into())
            }
            ServiceDist::Mixed(sizes) => {
                let total: f64 = sizes.iter().map(|&(_, g)| g).sum();
                if (total - 1.0).abs() < 1e-9 {
                    Ok(())
                } else {
                    Err(format!("mixture weights must sum to 1, got {total}"))
                }
            }
            ServiceDist::Geometric(mu) if !(*mu > 0.0 && *mu <= 1.0) => {
                Err(format!("μ must be in (0,1], got {mu}"))
            }
            ServiceDist::Constant(_) | ServiceDist::Geometric(_) => Ok(()),
        }
    }

    /// Mean service time.
    pub fn mean(&self) -> f64 {
        match self {
            ServiceDist::Constant(m) => *m as f64,
            ServiceDist::Mixed(sizes) => sizes.iter().map(|&(m, g)| m as f64 * g).sum(),
            ServiceDist::Geometric(mu) => 1.0 / mu,
        }
    }

    /// Draws one service time.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self {
            ServiceDist::Constant(m) => *m,
            ServiceDist::Mixed(sizes) => {
                let mut u: f64 = rng.gen();
                for &(m, g) in sizes {
                    if u < g {
                        return m;
                    }
                    u -= g;
                }
                sizes.last().expect("validated non-empty").0
            }
            ServiceDist::Geometric(mu) => {
                // Inverse-CDF sampling: S = 1 + ⌊ln U / ln(1−μ)⌋.
                if *mu >= 1.0 {
                    return 1;
                }
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let s = 1.0 + (u.ln() / (1.0 - mu).ln()).floor();
                s.min(u32::MAX as f64) as u32
            }
        }
    }
}

/// Workload offered to the network: per-input per-cycle arrival
/// probability `p`, hot-spot factor `q`, and a message-size distribution.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Probability that an input port generates a message in a cycle.
    pub p: f64,
    /// Probability that a generated message goes to the input's favorite
    /// output (its own index); with probability `1 − q` the destination
    /// is uniform over all outputs (including the favorite), as in
    /// §III-A-3.
    pub q: f64,
    /// Message-size distribution.
    pub service: ServiceDist,
}

impl Workload {
    /// Uniform traffic with constant message size.
    pub fn uniform(p: f64, m: u32) -> Self {
        Workload {
            p,
            q: 0.0,
            service: ServiceDist::Constant(m),
        }
    }

    /// Hot-spot traffic (§IV-D) with unit-size messages.
    pub fn hotspot(p: f64, q: f64) -> Self {
        Workload {
            p,
            q,
            service: ServiceDist::unit(),
        }
    }

    /// Validates all fields, naming the first invalid one.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p) {
            return Err("p must be a probability".into());
        }
        if !(0.0..=1.0).contains(&self.q) {
            return Err("q must be a probability".into());
        }
        self.service.validate()
    }

    /// Offered traffic intensity per output port, `ρ = p·E[S]` (square
    /// switches: λ = p).
    pub fn rho(&self) -> f64 {
        self.p * self.service.mean()
    }

    /// Samples this cycle's arrival at one input: `None` (no message) or
    /// `Some((dest, size))`.
    pub fn sample_arrival<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        input: u64,
        ports: u64,
    ) -> Option<(u64, u32)> {
        if !rng.gen_bool(self.p) {
            return None;
        }
        Some(self.sample_arrival_tail(rng, input, ports))
    }

    /// The destination/size draws of [`Workload::sample_arrival`], after
    /// the Bernoulli arrival draw has already come up positive. Split out
    /// so the stage sweep — which inlines the Bernoulli draw into its
    /// generation loop — consumes the *same* code (and thus the same
    /// RNG draw sequence) for the remainder of the arrival. Keeping one
    /// implementation is what makes sweep-vs-scalar bit-identity a local
    /// argument instead of a cross-file invariant.
    #[inline]
    pub(crate) fn sample_arrival_tail<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        input: u64,
        ports: u64,
    ) -> (u64, u32) {
        let dest = if self.q > 0.0 && rng.gen_bool(self.q) {
            input
        } else {
            rng.gen_range(0..ports)
        };
        (dest, self.service.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banyan_prng::rngs::SmallRng;
    use banyan_prng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn constant_service_is_constant() {
        let d = ServiceDist::Constant(4);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 4);
        }
        assert_eq!(d.mean(), 4.0);
    }

    #[test]
    fn mixed_service_frequencies_match_weights() {
        let d = ServiceDist::Mixed(vec![(4, 0.25), (8, 0.75)]);
        d.validate().unwrap();
        assert_eq!(d.mean(), 7.0);
        let mut r = rng();
        let n = 200_000;
        let mut c4 = 0u32;
        for _ in 0..n {
            match d.sample(&mut r) {
                4 => c4 += 1,
                8 => {}
                other => panic!("unexpected size {other}"),
            }
        }
        let f4 = c4 as f64 / n as f64;
        assert!((f4 - 0.25).abs() < 0.01, "f4 = {f4}");
    }

    #[test]
    fn geometric_service_mean_and_min() {
        let mu = 0.25;
        let d = ServiceDist::Geometric(mu);
        let mut r = rng();
        let n = 200_000;
        let mut sum = 0u64;
        let mut min = u32::MAX;
        for _ in 0..n {
            let s = d.sample(&mut r);
            assert!(s >= 1);
            min = min.min(s);
            sum += s as u64;
        }
        assert_eq!(min, 1);
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn geometric_mu_one_is_unit() {
        let d = ServiceDist::Geometric(1.0);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 1);
        }
    }

    #[test]
    fn arrival_rate_matches_p() {
        let w = Workload::uniform(0.3, 1);
        let mut r = rng();
        let n = 200_000;
        let mut hits = 0u32;
        for _ in 0..n {
            if w.sample_arrival(&mut r, 0, 64).is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn uniform_destinations_cover_all_ports() {
        let w = Workload::uniform(1.0, 1);
        let mut r = rng();
        let ports = 16u64;
        let mut counts = vec![0u32; ports as usize];
        let n = 160_000;
        for _ in 0..n {
            let (dest, _) = w.sample_arrival(&mut r, 3, ports).unwrap();
            counts[dest as usize] += 1;
        }
        let expect = n as f64 / ports as f64;
        for (d, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 0.1 * expect,
                "dest {d}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn hotspot_bias_toward_own_output() {
        let w = Workload::hotspot(1.0, 0.5);
        let mut r = rng();
        let ports = 8u64;
        let input = 5u64;
        let n = 100_000;
        let mut own = 0u32;
        for _ in 0..n {
            let (dest, _) = w.sample_arrival(&mut r, input, ports).unwrap();
            if dest == input {
                own += 1;
            }
        }
        // P(own) = q + (1−q)/ports = 0.5 + 0.0625 = 0.5625.
        let f = own as f64 / n as f64;
        assert!((f - 0.5625).abs() < 0.01, "f = {f}");
    }

    #[test]
    fn rho_accounts_for_size() {
        assert!((Workload::uniform(0.125, 4).rho() - 0.5).abs() < 1e-15);
        let w = Workload {
            p: 0.1,
            q: 0.0,
            service: ServiceDist::Mixed(vec![(4, 0.5), (8, 0.5)]),
        };
        assert!((w.rho() - 0.6).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mixture_rejected() {
        ServiceDist::Mixed(vec![(1, 0.3)]).validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_p_rejected() {
        Workload::uniform(1.5, 1).validate().unwrap();
    }
}
