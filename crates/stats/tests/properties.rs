//! Randomized property tests for the statistics substrate, driven by
//! the seeded in-repo harness (`banyan_prng::check`).

use banyan_obs::DistSketch;
use banyan_prng::check::check;
use banyan_stats::ci::normal_quantile;
use banyan_stats::{CoMoment, Gamma, OnlineStats};

const CASES: u32 = 256;

fn stats_of(xs: &[f64]) -> OnlineStats {
    let mut s = OnlineStats::new();
    for &x in xs {
        s.push(x);
    }
    s
}

fn pmf_of(values: &[u64]) -> DistSketch {
    let mut h = DistSketch::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn merge_equals_concatenation() {
    check(CASES, |g| {
        let xs = g.vec_with(0..100, |g| g.f64(-1e3..1e3));
        let ys = g.vec_with(0..100, |g| g.f64(-1e3..1e3));
        let mut merged = stats_of(&xs);
        merged.merge(&stats_of(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let whole = stats_of(&all);
        assert_eq!(merged.count(), whole.count());
        if !all.is_empty() {
            assert!((merged.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
            assert!((merged.variance() - whole.variance()).abs() < 1e-7 * (1.0 + whole.variance()));
            assert_eq!(merged.min(), whole.min());
            assert_eq!(merged.max(), whole.max());
        }
    });
}

#[test]
fn variance_is_translation_invariant() {
    check(CASES, |g| {
        let xs = g.vec_with(2..100, |g| g.f64(-100.0..100.0));
        let shift = g.f64(-1e4..1e4);
        let v0 = stats_of(&xs).variance();
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let v1 = stats_of(&shifted).variance();
        assert!((v0 - v1).abs() < 1e-6 * (1.0 + v0));
    });
}

#[test]
fn correlation_bounded() {
    check(CASES, |g| {
        let pts = g.vec_with(2..200, |g| (g.f64(-50.0..50.0), g.f64(-50.0..50.0)));
        let mut c = CoMoment::new();
        for &(x, y) in &pts {
            c.push(x, y);
        }
        let r = c.correlation();
        assert!((-1.0..=1.0).contains(&r));
    });
}

#[test]
fn correlation_scale_invariant() {
    check(CASES, |g| {
        let pts = g.vec_with(3..100, |g| (g.f64(-50.0..50.0), g.f64(-50.0..50.0)));
        let a = g.f64(0.1..10.0);
        let b = g.f64(-100.0..100.0);
        let mut c1 = CoMoment::new();
        let mut c2 = CoMoment::new();
        for &(x, y) in &pts {
            c1.push(x, y);
            c2.push(a * x + b, y);
        }
        assert!((c1.correlation() - c2.correlation()).abs() < 1e-7);
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
fn third_moment_merge_equals_concatenation() {
    check(CASES, |g| {
        let xs = g.vec_with(3..80, |g| g.f64(-100.0..100.0));
        let ys = g.vec_with(3..80, |g| g.f64(-100.0..100.0));
        let mut merged = stats_of(&xs);
        merged.merge(&stats_of(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        let whole = stats_of(&all);
        let scale = 1.0 + whole.third_central_moment().abs();
        assert!(
            (merged.third_central_moment() - whole.third_central_moment()).abs() < 1e-7 * scale
        );
    });
}

#[test]
fn skewness_sign_flips_under_negation() {
    check(CASES, |g| {
        let xs = g.vec_with(5..100, |g| g.f64(-50.0..50.0));
        let s = stats_of(&xs);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        let sn = stats_of(&neg);
        assert!((s.skewness() + sn.skewness()).abs() < 1e-8);
    });
}

#[test]
fn sectioned_mean_agrees_with_overall() {
    check(CASES, |g| {
        use banyan_stats::Sectioned;
        let xs = g.vec_with(40..400, |g| g.f64(0.0..10.0));
        let mut sec = Sectioned::new(10);
        let mut all = OnlineStats::new();
        for &x in &xs {
            sec.push(x);
            all.push(x);
        }
        if let Some((est, _)) = sec.mean_ci(0.95) {
            // Section means average the first 10·B observations only.
            let covered = (xs.len() / 10) * 10;
            let partial: f64 = xs[..covered].iter().sum::<f64>() / covered as f64;
            assert!((est - partial).abs() < 1e-9 * (1.0 + partial.abs()));
        }
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
