//! Brent's bracketing root finder.
//!
//! Used for locating the dominant real singularity of the
//! waiting-time transform `t(z)` — the smallest root of `R(U(z)) = z`
//! beyond `z = 1` — which gives the geometric decay rate of the
//! waiting-time tail ("typically in queueing systems, the distribution of
//! waiting times has an exponential or geometric tail", paper §V).

/// Error conditions for the root finder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign — no bracket.
    NoBracket,
    /// Iteration budget exhausted before the tolerance was met.
    NoConvergence,
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NoBracket => write!(f, "f(a) and f(b) have the same sign"),
            RootError::NoConvergence => write!(f, "root finder did not converge"),
        }
    }
}

impl std::error::Error for RootError {}

/// Brent's method: inverse-quadratic / secant steps with a bisection
/// safety net. Superlinear in practice, never worse than bisection.
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
) -> Result<f64, RootError> {
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NoBracket);
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..200 {
        if fb == 0.0 || (b - a).abs() <= tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let lo = (3.0 * a + b) / 4.0;
        let cond = !((lo.min(b) < s && s < lo.max(b))
            && if mflag {
                (s - b).abs() < 0.5 * (b - c).abs()
            } else {
                (s - b).abs() < 0.5 * (c - d).abs()
            });
        if cond {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::NoConvergence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_finds_sqrt2_fast() {
        let mut calls = 0;
        let r = brent(
            |x| {
                calls += 1;
                x * x - 2.0
            },
            0.0,
            2.0,
            1e-14,
        )
        .unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12);
        // Far fewer evaluations than bisection would need for 1e-14 width.
        assert!(calls < 60, "brent used {calls} evaluations");
    }

    #[test]
    fn brent_handles_flat_then_steep() {
        // Root of x^9 near zero: hard for pure secant, fine for Brent.
        let r = brent(|x| x.powi(9) - 0.5, 0.0, 2.0, 1e-13).unwrap();
        assert!((r - 0.5f64.powf(1.0 / 9.0)).abs() < 1e-10);
    }

    #[test]
    fn brent_no_bracket() {
        assert_eq!(
            brent(|x| x * x + 1.0, -3.0, 3.0, 1e-12),
            Err(RootError::NoBracket)
        );
    }

    #[test]
    fn brent_transcendental() {
        // x = cos x  →  0.7390851332151607
        let r = brent(|x| x - x.cos(), 0.0, 1.0, 1e-14).unwrap();
        assert!((r - 0.739_085_133_215_160_7).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        assert!(RootError::NoBracket.to_string().contains("same sign"));
        assert!(RootError::NoConvergence.to_string().contains("converge"));
    }
}
