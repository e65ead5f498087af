//! Minimal double-precision complex arithmetic.
//!
//! Only the operations needed by the FFT and by generating-function
//! evaluation on the unit circle are provided. The type is `Copy`, always
//! finite-friendly, and has no external dependencies.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` with `f64` components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates `r·e^{iθ}` from polar coordinates.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}`, a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Squared modulus `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed with `hypot` for robustness.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns infinities when `self` is zero,
    /// mirroring `1.0 / 0.0` semantics for reals.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Self {
        if n < 0 {
            return self.recip().powi(-n);
        }
        let mut base = self;
        let mut acc = Complex::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base *= base;
            n >>= 1;
        }
        acc
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Principal natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        Complex::new(self.abs().ln(), self.arg())
    }

    /// Returns true when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Sub<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self - rhs.re, -rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert!(close(z * z.recip(), Complex::ONE, 1e-15));
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn conjugate_multiplication_gives_norm() {
        let z = Complex::new(1.5, 2.5);
        let n = z * Complex::new(z.re, -z.im);
        assert!((n.re - z.norm_sqr()).abs() < 1e-15);
        assert!(n.im.abs() < 1e-15);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-15);
        assert!((z.arg() - 0.7).abs() < 1e-15);
    }

    #[test]
    fn exp_ln_round_trip() {
        let z = Complex::new(0.3, -1.2);
        assert!(close(z.exp().ln(), z, 1e-14));
    }

    #[test]
    fn euler_identity() {
        let z = Complex::cis(std::f64::consts::PI);
        assert!(close(z, Complex::new(-1.0, 0.0), 1e-15));
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex::new(0.9, 0.2);
        let mut acc = Complex::ONE;
        for n in 0..12 {
            assert!(close(z.powi(n), acc, 1e-12));
            acc *= z;
        }
    }

    #[test]
    fn powi_negative_exponent() {
        let z = Complex::new(1.25, -0.5);
        assert!(close(z.powi(-3), (z * z * z).recip(), 1e-12));
    }

    #[test]
    fn division_matches_multiplication_by_reciprocal() {
        let a = Complex::new(2.0, 1.0);
        let b = Complex::new(-0.5, 3.0);
        assert!(close(a / b * b, a, 1e-14));
    }

    #[test]
    fn real_scalar_ops() {
        let z = Complex::new(1.0, 2.0);
        assert_eq!(z * 2.0, Complex::new(2.0, 4.0));
        assert_eq!(2.0 * z, Complex::new(2.0, 4.0));
        assert_eq!(z / 2.0, Complex::new(0.5, 1.0));
        assert_eq!(z + 1.0, Complex::new(2.0, 2.0));
        assert_eq!(1.0 - z, Complex::new(0.0, -2.0));
    }

    #[test]
    fn sum_iterator() {
        let zs = [Complex::new(1.0, 1.0), Complex::new(2.0, -3.0)];
        let s: Complex = zs.iter().copied().sum();
        assert_eq!(s, Complex::new(3.0, -2.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
