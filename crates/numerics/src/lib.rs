//! # banyan-numerics
//!
//! Self-contained numerical substrate for the Kruskal–Snir–Weiss
//! reproduction. The paper's analysis needs a handful of numerical tools
//! that are deliberately implemented here from scratch (no external numeric
//! crates are used):
//!
//! * [`complex`] — double-precision complex arithmetic,
//! * [`mod@fft`] — an iterative radix-2 fast Fourier transform, used to invert
//!   probability generating functions sampled on the unit circle,
//! * [`special`] — log-gamma, the regularized incomplete gamma function
//!   and its inverse, used for the gamma approximation of the total
//!   waiting-time distribution (paper §V, Figs. 3–8),
//! * [`series`] — compensated (Kahan–Neumaier) summation and power-series
//!   helpers,
//! * [`roots`] — Brent's bracketing root finder, used for tail exponents.
//!
//! Everything is pure, deterministic, and tested against closed forms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod roots;
pub mod series;
pub mod special;

pub use complex::Complex;
pub use fft::{convolve, fft, ifft, next_pow2, normalize_pmf};
pub use roots::brent;
pub use series::{kahan_sum, KahanSum};
pub use special::{inv_reg_gamma, ln_beta, ln_gamma, reg_beta, reg_gamma_lower, reg_gamma_upper};
