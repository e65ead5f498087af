//! # banyan-core
//!
//! Analytical models from Kruskal, Snir & Weiss, *The Distribution of
//! Waiting Times in Clocked Multistage Interconnection Networks* (IEEE
//! Trans. Computers 37(11), 1988; ICPP 1986). The paper analyzes the
//! random delay of a message traversing a buffered, multistage,
//! packet-switching banyan network of clocked `k × s` output-queued
//! switches.
//!
//! ## Layout
//!
//! * [`gf`] — the [`gf::Pgf`] trait: probability generating functions
//!   with factorial moments, the paper's working representation.
//! * [`arrivals`] / [`service`] — the §III traffic and service classes
//!   (uniform Bernoulli, bulk, nonuniform favorite-output, Poisson;
//!   constant, geometric, mixed-size service).
//! * [`first_stage`] — **Theorem 1**: the exact waiting-time transform at
//!   the first stage, its mean (Eq. 2), variance (Eq. 3), full pmf (FFT
//!   inversion on the unit circle), and geometric tail rate.
//! * [`models`] — named scenario constructors and the printed closed
//!   forms (Eqs. 6–9) used as cross-checks.
//! * [`later_stages`] — the §IV spatial-steady-state approximations
//!   (Eqs. 10–16 plus the multi-size and nonuniform variants), with all
//!   interpolation constants exposed in
//!   [`later_stages::StageConstants`].
//! * [`total_delay`] — §V: total waiting time through `n` stages, the
//!   geometric covariance model, and the gamma approximation of the full
//!   distribution (Figs. 3–8).
//! * [`calibrate`] — re-fits the interpolation constants from simulation,
//!   reproducing the paper's own methodology.
//!
//! ## Quick example
//!
//! ```
//! use banyan_core::models::uniform_queue;
//! use banyan_core::total_delay::TotalWaiting;
//!
//! // First stage of a 2×2-switch network at load p = 0.5, 1-cycle messages.
//! let q = uniform_queue(2, 0.5, 1).unwrap();
//! assert!((q.mean_wait() - 0.25).abs() < 1e-12);   // paper Eq. 6
//! assert!((q.var_wait() - 0.25).abs() < 1e-12);    // paper Eq. 7
//!
//! // Total waiting time through 12 stages, with its gamma approximation.
//! let total = TotalWaiting::new(2, 12, 0.5, 1);
//! let gamma = total.gamma().unwrap();
//! assert!((gamma.mean() - total.mean_total()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod calibrate;
pub mod design;
pub mod first_stage;
pub mod gf;
pub mod later_stages;
pub mod models;
pub mod service;
pub mod total_delay;

pub use arrivals::{NonuniformFavorite, PoissonArrivals, UniformBernoulli, UniformBulk};
pub use first_stage::{wait_moments, FirstStage, ModelError};
pub use gf::{Pgf, TabulatedPgf};
pub use later_stages::StageConstants;
pub use service::{ConstantService, GeometricService, MixedService};
pub use total_delay::{covariance_params, TotalWaiting};
