//! # banyan-stats
//!
//! Statistics substrate for the Kruskal–Snir–Weiss reproduction. The
//! paper's "extensive simulations" need to be reduced to exactly the
//! quantities the tables and figures report:
//!
//! * per-stage waiting-time **means and variances** (Tables I–V) come
//!   straight from the exact integer pmfs (`banyan_obs::DistSketch`, the
//!   one integer pmf type), whose moments are exact `u128` sums rounded
//!   once when read,
//! * **cross-stage correlations** (Table VI) —
//!   [`correlation::CorrelationMatrix`], exact integer sums of products,
//! * **distances** between a waiting-time pmf (Figs. 3–8) and a model —
//!   [`distance`],
//! * the **gamma approximation** of the total waiting time (§V) —
//!   [`gamma::Gamma`], fitted by moment matching,
//! * normal and Student-t quantiles for confidence intervals — [`ci`].
//!
//! Every accumulator is exact integer state, so merging is addition and
//! simulations sharded across threads combine in any order to the same
//! result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod correlation;
pub mod distance;
pub mod gamma;

pub use correlation::CorrelationMatrix;
pub use gamma::Gamma;
