//! # banyan-sim
//!
//! Clocked simulation of buffered multistage banyan (omega) networks —
//! the "extensive simulations" substrate of Kruskal–Snir–Weiss. Two
//! simulators are provided:
//!
//! * [`queue`] — one first-stage output port as a discrete-time
//!   batch-arrival queue (the exact §II model, via the Lindley
//!   recursion). Validates Theorem 1 and every §III closed form,
//!   including bulk and nonuniform arrival classes.
//! * [`network`] — the full `k^n`-port omega network ([`topology`]) of
//!   output-queued `k × k` switches with infinite FIFO buffers and
//!   cut-through forwarding, instrumented per stage. Produces everything
//!   the paper's tables and figures need: per-stage waiting means and
//!   variances (Tables I–V), cross-stage correlations (Table VI), and
//!   total-waiting-time histograms (Tables VII–XII, Figs. 3–8).
//!
//! Workloads ([`traffic`]) cover uniform Bernoulli arrivals, hot-spot
//! ("favorite output") traffic, and constant / mixed / geometric message
//! sizes. [`runner`] shards replications across threads and merges the
//! exact integer statistics by addition. Each replication runs either on the
//! scalar [`NetworkSim`] or, for infinite-buffer destination-tag
//! configurations ([`sweep_eligible`]), on the message-driven stage
//! sweep — bit-identical to the scalar simulator (see
//! [`ReplicationEngine`]).
//!
//! Simulations are deterministic given their seed.
//!
//! ```
//! use banyan_sim::network::{run_network, NetworkConfig};
//! use banyan_sim::traffic::Workload;
//!
//! let mut cfg = NetworkConfig::new(2, 3, Workload::uniform(0.5, 1));
//! cfg.warmup_cycles = 200;
//! cfg.measure_cycles = 2_000;
//! let stats = run_network(cfg);
//! assert_eq!(stats.injected, stats.delivered);
//! // First-stage mean waiting ≈ 0.25 (paper Eq. 6).
//! assert!((stats.stage_waits[0].mean() - 0.25).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod butterfly;
pub mod input_queued;
pub mod network;
pub mod queue;
pub mod runner;
mod sweep;
pub mod topology;
pub mod traffic;

pub use butterfly::ButterflyTopology;
pub use input_queued::{run_input_queued, InputQueuedConfig, InputQueuedSim};
pub use network::{run_network, NetworkConfig, NetworkSim, NetworkStats};
pub use queue::{run_queue, ArrivalDist, PortQueue, QueueConfig, QueueStats};
pub use runner::{
    run_network_replicated, run_network_replicated_traced, run_network_replicated_with_engine,
    run_queue_replicated, ReplicationEngine,
};
pub use sweep::sweep_eligible;
pub use topology::OmegaTopology;
pub use traffic::{ServiceDist, Workload};
