//! Input-queued switch discipline — the contrast that motivates the
//! paper's output-queued model.
//!
//! The paper's switches buffer at the **outputs** and can accept any
//! number of arrivals per cycle (§II) — an idealization that requires a
//! switch fabric with internal speedup `k`. The cheaper alternative,
//! FIFO buffers at the **inputs**, suffers head-of-line (HOL) blocking:
//! a message stuck behind a head contending for a busy output cannot
//! move even when its own output is free. This simulator implements that
//! discipline on the same omega wiring, with per-switch rotating-priority
//! arbitration, so the two architectures can be compared directly — the
//! `ablation_discipline` experiment shows the input-queued network
//! saturating at far lower load, which is exactly why the
//! Ultracomputer/RP3 designs (and the paper's analysis) buffer at
//! outputs.

use crate::network::{NetworkStats, MAX_STAGES};
use crate::topology::OmegaTopology;
use crate::traffic::Workload;
use banyan_prng::rngs::SmallRng;
use banyan_prng::SeedableRng;
use std::collections::VecDeque;

/// Configuration of an input-queued network simulation.
#[derive(Clone, Debug)]
pub struct InputQueuedConfig {
    /// Switch arity `k` (network has `k^stages` ports).
    pub k: u32,
    /// Number of stages.
    pub stages: u32,
    /// Offered traffic (uniform only; hot-spot destinations are allowed
    /// but arbitration fairness is only rotating-priority).
    pub workload: Workload,
    /// Warmup cycles before measurement.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// RNG seed.
    pub seed: u64,
}

impl InputQueuedConfig {
    /// Default protocol for the given topology/workload.
    pub fn new(k: u32, stages: u32, workload: Workload) -> Self {
        InputQueuedConfig {
            k,
            stages,
            workload,
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            seed: 0x1BAD_5EED,
        }
    }
}

#[derive(Clone, Debug)]
struct Message {
    dest: u64,
    size: u32,
    entered: u64,
    /// Injection cycle (for the total wait).
    injected: u64,
    tracked: bool,
}

/// Input-queued network simulator. Construct and [`InputQueuedSim::run`].
pub struct InputQueuedSim {
    topo: OmegaTopology,
    cfg: InputQueuedConfig,
    /// FIFO per stage *input* wire: `queues[(stage-1)*N + wire]`.
    queues: Vec<VecDeque<Message>>,
    /// Output-port busy horizon: `busy[(stage-1)*N + out_wire]`.
    busy_until: Vec<u64>,
    /// Input wires feeding each switch (same at every stage).
    switch_inputs: Vec<Vec<u64>>,
    rng: SmallRng,
    now: u64,
    tracked_in_flight: u64,
    stats: NetworkStats,
}

impl InputQueuedSim {
    /// Builds the simulator.
    pub fn new(cfg: InputQueuedConfig) -> Self {
        cfg.workload.validate();
        assert!(
            (cfg.stages as usize) <= MAX_STAGES,
            "at most {MAX_STAGES} stages supported"
        );
        let topo = OmegaTopology::new(cfg.k, cfg.stages);
        let n = topo.ports();
        let switches = topo.switches_per_stage() as usize;
        let mut switch_inputs = vec![Vec::new(); switches];
        for w in 0..n {
            switch_inputs[(topo.shuffle(w) / cfg.k as u64) as usize].push(w);
        }
        let total = (n * cfg.stages as u64) as usize;
        InputQueuedSim {
            topo,
            rng: SmallRng::seed_from_u64(cfg.seed),
            queues: vec![VecDeque::new(); total],
            busy_until: vec![0; total],
            switch_inputs,
            now: 0,
            tracked_in_flight: 0,
            stats: NetworkStats::new(cfg.stages, false),
            cfg,
        }
    }

    #[inline]
    fn idx(&self, stage: u32, wire: u64) -> usize {
        ((stage as u64 - 1) * self.topo.ports() + wire) as usize
    }

    fn inject(&mut self, tracked_window: bool) {
        let ports = self.topo.ports();
        for input in 0..ports {
            if let Some((dest, size)) =
                self.cfg
                    .workload
                    .sample_arrival(&mut self.rng, input, ports)
            {
                self.stats.injected_total += 1;
                if tracked_window {
                    self.stats.injected += 1;
                    self.tracked_in_flight += 1;
                }
                let idx = self.idx(1, input);
                self.queues[idx].push_back(Message {
                    dest,
                    size,
                    entered: self.now,
                    injected: self.now,
                    tracked: tracked_window,
                });
            }
        }
    }

    /// One arbitration round at every switch of every stage.
    fn serve(&mut self) {
        let k = self.cfg.k as usize;
        let stages = self.cfg.stages;
        for stage in 1..=stages {
            for sw in 0..self.switch_inputs.len() {
                // Rotating priority: a different input wins ties each
                // cycle, so no input starves.
                let start = (self.now as usize + sw) % k;
                for off in 0..k {
                    let wire = self.switch_inputs[sw][(start + off) % k];
                    let qidx = self.idx(stage, wire);
                    let eligible =
                        matches!(self.queues[qidx].front(), Some(h) if h.entered <= self.now);
                    if !eligible {
                        continue;
                    }
                    let head = self.queues[qidx].front().expect("checked");
                    let out = self.topo.next_wire(stage, wire, head.dest);
                    let oidx = self.idx(stage, out);
                    if self.busy_until[oidx] > self.now {
                        continue; // HOL: this head blocks the whole queue
                    }
                    let mut msg = self.queues[qidx].pop_front().expect("checked");
                    self.busy_until[oidx] = self.now + msg.size as u64;
                    if msg.tracked {
                        self.stats.stage_waits[stage as usize - 1].record(self.now - msg.entered);
                    }
                    if stage < stages {
                        msg.entered = self.now + 1;
                        // Stage-(i+1) input wire = this stage's output wire.
                        let nidx = self.idx(stage + 1, out);
                        self.queues[nidx].push_back(msg);
                    } else {
                        self.deliver(msg);
                    }
                }
            }
        }
    }

    fn deliver(&mut self, msg: Message) {
        if !msg.tracked {
            return;
        }
        self.tracked_in_flight -= 1;
        self.stats.delivered += 1;
        // The stage waits sum to the transit time less one cycle per hop.
        let total = self.now - msg.injected - (u64::from(self.cfg.stages) - 1);
        self.stats.total_wait.record(total);
        self.stats.total_hist.record(total);
    }

    fn step(&mut self, tracked_window: bool) {
        self.inject(tracked_window);
        self.serve();
        self.now += 1;
    }

    /// Runs warmup → measure → drain and returns the statistics.
    ///
    /// # Panics
    /// Panics if tracked messages cannot drain within a generous bound —
    /// which happens when the offered load exceeds the (HOL-limited)
    /// saturation throughput and queues grow without bound.
    pub fn run(mut self) -> NetworkStats {
        for _ in 0..self.cfg.warmup_cycles {
            self.step(false);
        }
        for _ in 0..self.cfg.measure_cycles {
            self.step(true);
        }
        let max_drain = 200 * self.cfg.stages as u64 + 10 * self.cfg.measure_cycles + 100_000;
        let mut drained = 0u64;
        while self.tracked_in_flight > 0 {
            self.step(false);
            drained += 1;
            assert!(
                drained <= max_drain,
                "drain did not complete: {} tracked messages stuck (offered load beyond \
                 the input-queued saturation point?)",
                self.tracked_in_flight
            );
        }
        self.stats.cycles = self.now;
        self.stats
    }
}

/// Convenience: build and run in one call.
pub fn run_input_queued(cfg: InputQueuedConfig) -> NetworkStats {
    InputQueuedSim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{run_network, NetworkConfig};

    fn quick(k: u32, stages: u32, p: f64) -> InputQueuedConfig {
        InputQueuedConfig {
            warmup_cycles: 500,
            measure_cycles: 6_000,
            ..InputQueuedConfig::new(k, stages, Workload::uniform(p, 1))
        }
    }

    #[test]
    fn conserves_messages_at_light_load() {
        let stats = run_input_queued(quick(2, 4, 0.3));
        assert!(stats.injected > 0);
        assert_eq!(stats.injected, stats.delivered);
        assert_eq!(stats.total_wait.total(), stats.delivered);
    }

    #[test]
    fn light_load_matches_output_queued() {
        // With almost no contention the discipline cannot matter.
        let iq = run_input_queued(quick(2, 4, 0.05));
        let mut oq_cfg = NetworkConfig::new(2, 4, Workload::uniform(0.05, 1));
        oq_cfg.warmup_cycles = 500;
        oq_cfg.measure_cycles = 6_000;
        let oq = run_network(oq_cfg);
        assert!(
            (iq.total_wait.mean() - oq.total_wait.mean()).abs() < 0.02,
            "iq {} vs oq {}",
            iq.total_wait.mean(),
            oq.total_wait.mean()
        );
    }

    #[test]
    fn hol_blocking_costs_at_moderate_load() {
        // At p = 0.5 the input-queued network waits strictly longer than
        // the output-queued one (HOL blocking).
        let iq = run_input_queued(quick(2, 5, 0.5));
        let mut oq_cfg = NetworkConfig::new(2, 5, Workload::uniform(0.5, 1));
        oq_cfg.warmup_cycles = 500;
        oq_cfg.measure_cycles = 6_000;
        let oq = run_network(oq_cfg);
        assert!(
            iq.total_wait.mean() > 1.3 * oq.total_wait.mean(),
            "iq {} vs oq {}",
            iq.total_wait.mean(),
            oq.total_wait.mean()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_input_queued(quick(2, 3, 0.4));
        let b = run_input_queued(quick(2, 3, 0.4));
        assert_eq!(a.total_wait.mean(), b.total_wait.mean());
        assert_eq!(a.injected, b.injected);
    }

    #[test]
    fn rotating_priority_is_fair() {
        // Under symmetric saturating-ish traffic both inputs of a switch
        // should be served about equally: check stage-1 waits of the two
        // inputs of one switch differ by little. We proxy this with the
        // overall stage-1 wait being finite and the run draining.
        let stats = run_input_queued(quick(2, 3, 0.45));
        assert_eq!(stats.injected, stats.delivered);
        assert!(stats.stage_waits[0].mean() < 20.0);
    }
}
