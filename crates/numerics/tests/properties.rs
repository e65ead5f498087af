//! Randomized property tests for the numerical substrate, driven by the
//! seeded in-repo harness (`banyan_prng::check`): each property runs
//! against many deterministic pseudo-random cases, and a failure prints
//! the drawn inputs plus the seed that reproduces it.

use banyan_numerics::fft::{convolve, fft, ifft};
use banyan_numerics::series::kahan_sum;
use banyan_numerics::special::{ln_gamma, reg_gamma_lower, reg_gamma_upper};
use banyan_numerics::{brent, Complex};
use banyan_prng::check::check;

const CASES: u32 = 256;

#[test]
fn fft_round_trip_is_identity() {
    check(CASES, |g| {
        let orig: Vec<Complex> = (0..64)
            .map(|_| Complex::new(g.f64(-100.0..100.0), g.f64(-100.0..100.0)))
            .collect();
        let mut data = orig.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-9);
        }
    });
}

#[test]
fn fft_is_linear() {
    check(CASES, |g| {
        let x: Vec<Complex> = (0..32)
            .map(|_| Complex::from_real(g.f64(-10.0..10.0)))
            .collect();
        let y: Vec<Complex> = (0..32)
            .map(|_| Complex::from_real(g.f64(-10.0..10.0)))
            .collect();
        let c = g.f64(-5.0..5.0);
        let mut fx = x.clone();
        fft(&mut fx);
        let mut fy = y.clone();
        fft(&mut fy);
        let mut combined: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a * c + *b).collect();
        fft(&mut combined);
        for i in 0..32 {
            let expect = fx[i] * c + fy[i];
            assert!((combined[i] - expect).abs() < 1e-8);
        }
    });
}

#[test]
fn convolution_is_commutative() {
    check(CASES, |g| {
        let a = g.vec_with(1..12, |g| g.f64(-5.0..5.0));
        let b = g.vec_with(1..12, |g| g.f64(-5.0..5.0));
        let ab = convolve(&a, &b);
        let ba = convolve(&b, &a);
        assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            assert!((x - y).abs() < 1e-10);
        }
    });
}

#[test]
fn convolution_preserves_total_mass() {
    check(CASES, |g| {
        let a = g.vec_with(1..10, |g| g.f64(0.0..5.0));
        let b = g.vec_with(1..10, |g| g.f64(0.0..5.0));
        let sa: f64 = a.iter().sum();
        let sb: f64 = b.iter().sum();
        let sc: f64 = convolve(&a, &b).iter().sum();
        assert!((sc - sa * sb).abs() < 1e-8 * (1.0 + sa * sb));
    });
}

#[test]
fn ln_gamma_satisfies_recurrence() {
    check(CASES, |g| {
        let x = g.f64(0.05..50.0);
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    });
}

#[test]
fn incomplete_gamma_complement() {
    check(CASES, |g| {
        let a = g.f64(0.1..50.0);
        let x = g.f64(0.0..100.0);
        let s = reg_gamma_lower(a, x) + reg_gamma_upper(a, x);
        assert!((s - 1.0).abs() < 1e-10);
    });
}

#[test]
fn incomplete_gamma_monotone_in_x() {
    check(CASES, |g| {
        let a = g.f64(0.1..20.0);
        let x = g.f64(0.0..50.0);
        let dx = g.f64(0.001..5.0);
        assert!(reg_gamma_lower(a, x + dx) >= reg_gamma_lower(a, x) - 1e-12);
    });
}

#[test]
fn kahan_matches_exact_on_integers() {
    check(CASES, |g| {
        let xs = g.vec_with(1..200, |g| g.i64(-1000..1000));
        let floats: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        let exact: i64 = xs.iter().sum();
        assert_eq!(kahan_sum(&floats), exact as f64);
        assert_eq!(kahan_sum(&[]), 0.0);
    });
}

#[test]
fn brent_finds_root_of_shifted_cubic() {
    check(CASES, |g| {
        // f(x) = x³ + x − shift is strictly increasing with a unique root.
        let shift = g.f64(-10.0..10.0);
        let f = |x: f64| x * x * x + x - shift;
        let root = brent(f, -20.0, 20.0, 1e-12).unwrap();
        assert!(f(root).abs() < 1e-6);
    });
}

#[test]
fn complex_field_axioms() {
    check(CASES, |g| {
        let a = Complex::new(g.f64(-10.0..10.0), g.f64(-10.0..10.0));
        let b = Complex::new(g.f64(-10.0..10.0), g.f64(-10.0..10.0));
        let c = Complex::new(g.f64(-10.0..10.0), g.f64(-10.0..10.0));
        // Distributivity.
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
        // |ab| = |a||b|.
        assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + a.abs() * b.abs()));
    });
}
