//! Shared simulation drivers for the table/figure experiments.
//!
//! Every experiment needs the same two shapes of run:
//!
//! * a **stage profile** — per-stage waiting means/variances (and
//!   optionally the cross-stage correlation matrix) of a deep network,
//! * a **total profile** — the total-waiting-time histogram of an
//!   `n`-stage banyan.
//!
//! Cycle counts are derived from a target number of measured messages so
//! light and heavy loads get comparable statistical accuracy, and a
//! [`Scale`] knob lets tests run the same code paths in milliseconds.

use banyan_sim::network::{NetworkConfig, NetworkStats};
use banyan_sim::runner::run_network_replicated_instrumented;
use banyan_sim::traffic::Workload;

/// Simulation effort level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Target number of measured messages per configuration.
    pub target_messages: u64,
    /// Independent replications (merged).
    pub reps: u32,
    /// Worker threads for replications.
    pub threads: usize,
}

impl Scale {
    /// Full quality: what the shipped tables in `EXPERIMENTS.md` use.
    /// Thread count adapts to the host (replications merge exactly, so
    /// parallelism never changes the statistics, only the wall clock).
    pub fn full() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4);
        Scale {
            target_messages: 2_000_000,
            reps: 2,
            threads,
        }
    }

    /// Fast smoke scale for tests (~30k messages).
    pub fn quick() -> Self {
        Scale {
            target_messages: 30_000,
            reps: 1,
            threads: 1,
        }
    }

    /// Cycles needed per replication for `ports` inputs at load `p`.
    fn measure_cycles(&self, ports: u64, p: f64) -> u64 {
        let per_cycle = (ports as f64 * p).max(1e-9);
        let need = self.target_messages as f64 / self.reps as f64 / per_cycle;
        let floor = if self.target_messages <= 100_000 { 300 } else { 2_000 };
        (need.ceil() as u64).clamp(floor, 4_000_000)
    }

    /// Warmup cycles to pair with a measure length.
    fn warmup_cycles(&self, measure: u64) -> u64 {
        let floor = if self.target_messages <= 100_000 { 200 } else { 2_000 };
        (measure / 10).max(floor)
    }
}

/// Runs a deep uniform-traffic network and returns merged statistics.
///
/// * `width_log_k` — `Some(w)`: cylinder (random-digit) mode with `k^w`
///   wires per stage (needed for `k = 4, 8` at 8 stages); `None`: full
///   banyan.
pub fn stage_profile(
    k: u32,
    stages: u32,
    workload: Workload,
    width_log_k: Option<u32>,
    collect_correlations: bool,
    scale: &Scale,
    seed: u64,
) -> NetworkStats {
    let mut cfg = NetworkConfig::new(k, stages, workload);
    if let Some(w) = width_log_k {
        cfg = cfg.with_random_digit_width(w);
    }
    let ports = (k as u64).pow(width_log_k.unwrap_or(stages));
    cfg.measure_cycles = scale.measure_cycles(ports, cfg.workload.p);
    cfg.warmup_cycles = scale.warmup_cycles(cfg.measure_cycles);
    cfg.collect_correlations = collect_correlations;
    cfg.seed = seed;
    run_network_replicated_instrumented(&cfg, scale.reps, scale.threads, crate::manifest::telemetry())
}

/// Runs an `n`-stage banyan under uniform constant-size traffic and
/// returns the merged statistics (total-waiting histogram included).
pub fn total_profile(k: u32, n: u32, p: f64, m: u32, scale: &Scale, seed: u64) -> NetworkStats {
    let mut cfg = NetworkConfig::new(k, n, Workload::uniform(p, m));
    let ports = (k as u64).pow(n);
    cfg.measure_cycles = scale.measure_cycles(ports, p);
    cfg.warmup_cycles = scale.warmup_cycles(cfg.measure_cycles);
    cfg.seed = seed;
    run_network_replicated_instrumented(&cfg, scale.reps, scale.threads, crate::manifest::telemetry())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_cycles_scales_with_ports_and_load() {
        let s = Scale {
            target_messages: 1_000_000,
            reps: 2,
            threads: 1,
        };
        // 1e6 / 2 reps / 500 per-cycle = 1000 → clamped up to the 2000 floor.
        assert_eq!(s.measure_cycles(1000, 0.5), 2_000);
        assert_eq!(s.measure_cycles(10, 0.5), 100_000);
        // Clamped above.
        assert_eq!(s.measure_cycles(1, 1e-6), 4_000_000);
    }

    #[test]
    fn quick_stage_profile_runs_and_matches_eq6_roughly() {
        let stats = stage_profile(
            2,
            4,
            Workload::uniform(0.5, 1),
            None,
            false,
            &Scale::quick(),
            7,
        );
        assert!(stats.delivered > 20_000);
        assert!((stats.stage_waits[0].mean() - 0.25).abs() < 0.05);
    }

    #[test]
    fn quick_total_profile_collects_histogram() {
        let stats = total_profile(2, 3, 0.5, 1, &Scale::quick(), 11);
        assert_eq!(stats.total_wait.total(), stats.delivered);
        assert!(stats.total_wait.mean() > 0.0);
    }
}
