//! Randomized property tests for the statistics substrate, driven by
//! the seeded in-repo harness (`banyan_prng::check`).

use banyan_obs::DistSketch;
use banyan_prng::check::check;
use banyan_stats::ci::normal_quantile;
use banyan_stats::{CorrelationMatrix, Gamma};

const CASES: u32 = 256;

fn pmf_of(values: &[u64]) -> DistSketch {
    let mut h = DistSketch::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn corr_of(obs: &[[u32; 2]]) -> CorrelationMatrix {
    let mut m = CorrelationMatrix::new(2);
    for o in obs {
        m.push(o);
    }
    m
}

#[test]
fn merge_equals_concatenation() {
    // Exact integer sums: merging is addition, so the merged estimator
    // equals the one-pass estimator in either merge order.
    check(CASES, |g| {
        let xs = g.vec_with(0..100, |g| [g.u32(0..1000), g.u32(0..1000)]);
        let ys = g.vec_with(0..100, |g| [g.u32(0..1000), g.u32(0..1000)]);
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let whole = corr_of(&all);
        let mut xy = corr_of(&xs);
        xy.merge(&corr_of(&ys));
        let mut yx = corr_of(&ys);
        yx.merge(&corr_of(&xs));
        assert_eq!(xy, whole);
        assert_eq!(yx, whole);
    });
}

#[test]
fn variance_is_translation_invariant() {
    // An integer shift leaves every exact covariance numerator unchanged,
    // so the covariances agree to the bit.
    check(CASES, |g| {
        let xs = g.vec_with(2..100, |g| [g.u32(0..200), g.u32(0..200)]);
        let shift = g.u32(0..1_000_000);
        let shifted: Vec<[u32; 2]> = xs.iter().map(|&[a, b]| [a + shift, b]).collect();
        let (m0, m1) = (corr_of(&xs), corr_of(&shifted));
        for (i, j) in [(0, 0), (0, 1), (1, 1)] {
            assert_eq!(m0.covariance(i, j).to_bits(), m1.covariance(i, j).to_bits());
        }
    });
}

#[test]
fn correlation_bounded() {
    check(CASES, |g| {
        let pts = g.vec_with(2..200, |g| [g.u32(0..100), g.u32(0..100)]);
        let r = corr_of(&pts).correlation(0, 1);
        assert!((-1.0..=1.0).contains(&r));
    });
}

#[test]
fn correlation_scale_invariant() {
    check(CASES, |g| {
        let pts = g.vec_with(3..100, |g| [g.u32(0..100), g.u32(0..100)]);
        let a = g.u32(1..100);
        let b = g.u32(0..10_000);
        let scaled: Vec<[u32; 2]> = pts.iter().map(|&[x, y]| [a * x + b, y]).collect();
        let (r1, r2) = (
            corr_of(&pts).correlation(0, 1),
            corr_of(&scaled).correlation(0, 1),
        );
        assert!((r1 - r2).abs() < 1e-12, "{r1} vs {r2}");
    });
}

#[test]
fn histogram_pmf_is_distribution() {
    check(CASES, |g| {
        let values = g.vec_with(1..500, |g| g.u64(0..200));
        let h = pmf_of(&values);
        let pmf = h.pmf_points();
        let total: f64 = pmf.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pmf.iter().all(|&(_, p)| p > 0.0 && p <= 1.0));
        assert!(pmf.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(h.total(), values.len() as u64);
    });
}

#[test]
fn histogram_merge_equals_union() {
    check(CASES, |g| {
        let xs = g.vec_with(0..200, |g| g.u64(0..64));
        let ys = g.vec_with(0..200, |g| g.u64(0..64));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let mut xy = pmf_of(&xs);
        xy.merge(&pmf_of(&ys));
        let mut yx = pmf_of(&ys);
        yx.merge(&pmf_of(&xs));
        assert_eq!(xy, pmf_of(&all));
        assert_eq!(yx, pmf_of(&all));
        // Batched recording is the same multiset.
        let mut batched = DistSketch::new();
        for (v, c) in pmf_of(&all).count_points() {
            batched.record_n(v, c);
        }
        assert_eq!(batched, xy);
    });
}

#[test]
fn histogram_quantiles_monotone() {
    check(CASES, |g| {
        let values = g.vec_with(1..300, |g| g.u64(0..100));
        let h = pmf_of(&values);
        let mut prev = 0;
        for i in 1..=10 {
            let q = h.quantile(i as f64 / 10.0).unwrap();
            assert!(q >= prev);
            prev = q;
        }
        assert_eq!(h.quantile(1.0), h.max_value());
    });
}

#[test]
fn histogram_mean_between_min_and_max() {
    check(CASES, |g| {
        let values = g.vec_with(1..200, |g| g.u64(0..1000));
        let h = pmf_of(&values);
        let lo = *values.iter().min().unwrap() as f64;
        let hi = *values.iter().max().unwrap() as f64;
        assert!(h.mean() >= lo - 1e-9 && h.mean() <= hi + 1e-9);
    });
}

#[test]
fn gamma_cdf_quantile_round_trip() {
    check(CASES, |g| {
        // Shapes below ~0.05 put low quantiles beneath f64 range; the
        // distributions in this project (total waiting times) have
        // shape >= O(1).
        let shape = g.f64(0.1..50.0);
        let scale = g.f64(0.05..20.0);
        let q = g.f64(0.01..0.99);
        let gamma = Gamma::new(shape, scale);
        let x = gamma.quantile(q);
        assert!((gamma.cdf(x) - q).abs() < 1e-7);
    });
}

#[test]
fn gamma_moment_fit_round_trips() {
    check(CASES, |g| {
        let mean = g.f64(0.1..100.0);
        let var = g.f64(0.01..500.0);
        let gamma = Gamma::from_mean_var(mean, var).unwrap();
        assert!((gamma.mean() - mean).abs() < 1e-9 * mean);
        assert!((gamma.variance() - var).abs() < 1e-9 * var);
    });
}

#[test]
fn gamma_bin_probs_nonnegative_and_bounded() {
    check(CASES, |g| {
        let shape = g.f64(0.2..20.0);
        let scale = g.f64(0.1..10.0);
        let v = g.u64(0..500);
        let gamma = Gamma::new(shape, scale);
        let p = gamma.bin_prob(v);
        assert!((0.0..=1.0).contains(&p));
    });
}

#[test]
fn normal_quantile_is_odd() {
    check(CASES, |g| {
        let p = g.f64(0.001..0.499);
        let a = normal_quantile(p);
        let b = normal_quantile(1.0 - p);
        assert!((a + b).abs() < 1e-8);
        assert!(a < 0.0);
    });
}
