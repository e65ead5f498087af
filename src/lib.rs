//! # banyan-repro
//!
//! Umbrella crate for the reproduction of Kruskal, Snir & Weiss,
//! *The Distribution of Waiting Times in Clocked Multistage
//! Interconnection Networks* (IEEE Trans. Computers 37(11), 1988;
//! ICPP 1986).
//!
//! The work lives in four library crates, re-exported here:
//!
//! * [`banyan_core`] (re-exported as `core`) — the paper's analysis: Theorem 1 (exact
//!   first-stage waiting-time distribution), the §III closed forms, the
//!   §IV later-stage approximations, and the §V total-delay/gamma model.
//! * [`banyan_sim`] (re-exported as `sim`) — the clocked banyan (omega) network simulator
//!   and the single-queue Lindley simulator.
//! * [`banyan_flow`] (re-exported as `flow`) — the generalized feed-forward flow engine:
//!   per-flow end-to-end delay in arbitrary routed DAGs (meshes,
//!   fat-trees, butterflies) under Kleinrock's independence assumption.
//! * [`banyan_stats`] (re-exported as `stats`) — streaming statistics, the
//!   gamma distribution, distribution distances.
//! * [`banyan_numerics`] (re-exported as `numerics`) — FFT, special functions, root
//!   finding.
//!
//! See the `examples/` directory for end-to-end walkthroughs
//! (`quickstart`, `ultracomputer`, `rp3_memory_traffic`,
//! `message_size_tradeoff`) and the `banyan-bench` crate for the
//! table/figure regeneration harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod serve;

pub use banyan_core as core;
pub use banyan_flow as flow;
pub use banyan_numerics as numerics;
pub use banyan_obs as obs;
pub use banyan_sim as sim;
pub use banyan_stats as stats;

/// One-import convenience for examples and downstream experiments.
pub mod prelude {
    pub use banyan_core::later_stages::StageConstants;
    pub use banyan_core::models::{
        bulk_queue, geometric_queue, mixed_queue, nonuniform_queue, uniform_queue,
    };
    pub use banyan_core::total_delay::TotalWaiting;
    pub use banyan_core::{FirstStage, Pgf};
    pub use banyan_flow::{
        butterfly, fat_tree, mesh, omega, simulate_flows, FlowAnalysis, FlowGraph, FlowSimConfig,
    };
    pub use banyan_obs::{DistSketch, Manifest, Telemetry, TelemetryConfig};
    pub use banyan_sim::input_queued::{run_input_queued, InputQueuedConfig};
    pub use banyan_sim::network::{
        run_network, run_network_instrumented, NetworkConfig, NetworkStats, Routing,
    };
    pub use banyan_sim::queue::{run_queue, run_queue_instrumented, ArrivalDist, QueueConfig};
    pub use banyan_sim::runner::{
        run_network_replicated, run_network_replicated_instrumented, run_queue_replicated,
        run_queue_replicated_instrumented,
    };
    pub use banyan_sim::traffic::{ServiceDist, Workload};
    pub use banyan_stats::Gamma;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let q = uniform_queue(2, 0.5, 1).unwrap();
        assert!((q.mean_wait() - 0.25).abs() < 1e-12);
        let t = TotalWaiting::new(2, 3, 0.5, 1);
        assert!(t.mean_total() > 0.0);
    }
}
