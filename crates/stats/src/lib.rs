//! # banyan-stats
//!
//! Statistics substrate for the Kruskal–Snir–Weiss reproduction. The
//! paper's "extensive simulations" need to be reduced to exactly the
//! quantities the tables and figures report:
//!
//! * per-stage waiting-time **means and variances** (Tables I–V) —
//!   [`online::OnlineStats`], streaming Welford accumulators that never
//!   store samples,
//! * **cross-stage correlations** (Table VI) — [`online::CoMoment`] and
//!   [`correlation::CorrelationMatrix`],
//! * **distances** between a waiting-time pmf (Figs. 3–8, held in
//!   `banyan_obs::DistSketch`, the one integer pmf type) and a model —
//!   [`distance`],
//! * the **gamma approximation** of the total waiting time (§V) —
//!   [`gamma::Gamma`], fitted by moment matching,
//! * confidence intervals to quantify simulation/prediction agreement —
//!   [`ci`].
//!
//! Everything is streaming and mergeable so simulations can run sharded
//! across threads and be combined.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod correlation;
pub mod distance;
pub mod gamma;
pub mod online;
pub mod sections;

pub use correlation::CorrelationMatrix;
pub use gamma::Gamma;
pub use online::{CoMoment, OnlineStats};
pub use sections::Sectioned;
