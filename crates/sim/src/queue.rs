//! Single first-stage queue simulator (the exact §II model).
//!
//! Simulates one output port of a first-stage switch as a discrete-time
//! batch-arrival queue via the Lindley recursion the paper's proof uses:
//! with `s` the unfinished work at the end of the previous cycle, a batch
//! of messages arriving this cycle with service times `v₁, …, v_a` (in
//! arrival order) waits `w_i = s + v₁ + … + v_{i−1}`, and
//! `s ← max(0, s + Σv − 1)`.
//!
//! This validates Theorem 1 (and every §III closed form) directly — the
//! batch-count distributions below sample exactly the pgfs `R(z)` the
//! analysis uses, including bulk and nonuniform classes that the network
//! simulator does not exercise at a single port.

use crate::traffic::ServiceDist;
use banyan_obs::{DistSketch, Telemetry};
use banyan_prng::rngs::SmallRng;
use banyan_prng::{Rng, SeedableRng};

/// Per-cycle batch-size (message-count) distribution at the queue.
#[derive(Clone, Debug)]
pub enum ArrivalDist {
    /// Uniform traffic on a `k × s` switch: `Binomial(k, p/s)` messages
    /// per cycle (§III-A-1).
    UniformSwitch {
        /// Switch inputs.
        k: u32,
        /// Switch outputs.
        s: u32,
        /// Per-input arrival probability.
        p: f64,
    },
    /// Bulk arrivals (§III-A-2): each of the `k` inputs contributes, with
    /// probability `p/s`, a bulk of `b` messages.
    BulkSwitch {
        /// Switch inputs.
        k: u32,
        /// Switch outputs.
        s: u32,
        /// Per-input arrival probability.
        p: f64,
        /// Bulk size.
        b: u32,
    },
    /// Nonuniform favorite-output traffic on a square switch (§III-A-3):
    /// one favored input sends a bulk here with probability
    /// `α = p(q + (1−q)/k)`, each of the other `k−1` with
    /// `β = p(1−q)/k`.
    Nonuniform {
        /// Switch size (square).
        k: u32,
        /// Per-input arrival probability.
        p: f64,
        /// Hot-spot factor.
        q: f64,
        /// Bulk size.
        b: u32,
    },
    /// Arbitrary batch-count pmf (`pmf[j]` = probability of `j` messages).
    Tabulated(Vec<f64>),
}

impl ArrivalDist {
    /// Draws the number of messages arriving in one cycle.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self {
            ArrivalDist::UniformSwitch { k, s, p } => {
                let a = p / *s as f64;
                (0..*k).filter(|_| rng.gen_bool(a)).count() as u32
            }
            ArrivalDist::BulkSwitch { k, s, p, b } => {
                let a = p / *s as f64;
                (0..*k).filter(|_| rng.gen_bool(a)).count() as u32 * b
            }
            ArrivalDist::Nonuniform { k, p, q, b } => {
                let alpha = p * (q + (1.0 - q) / *k as f64);
                let beta = p * (1.0 - q) / *k as f64;
                let mut n = u32::from(rng.gen_bool(alpha));
                n += (1..*k).filter(|_| rng.gen_bool(beta)).count() as u32;
                n * b
            }
            ArrivalDist::Tabulated(pmf) => {
                let mut u: f64 = rng.gen();
                for (j, &g) in pmf.iter().enumerate() {
                    if u < g {
                        return j as u32;
                    }
                    u -= g;
                }
                (pmf.len() - 1) as u32
            }
        }
    }
}

/// Configuration of a single-queue run.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Batch-count distribution per cycle.
    pub arrivals: ArrivalDist,
    /// Per-message service-time distribution.
    pub service: ServiceDist,
    /// Cycles before measurement.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// RNG seed.
    pub seed: u64,
}

impl QueueConfig {
    /// Default protocol for the given distributions.
    pub fn new(arrivals: ArrivalDist, service: ServiceDist) -> Self {
        QueueConfig {
            arrivals,
            service,
            warmup_cycles: 10_000,
            measure_cycles: 500_000,
            seed: 0xFACE_FEED,
        }
    }
}

/// Output of a single-queue run: exact integer state, so replications
/// merge by addition and every fraction pools all measured cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueStats {
    /// Exact waiting-time pmf over measured messages.
    pub wait: DistSketch,
    /// Exact pmf of the end-of-cycle unfinished work (the `s` of Theorem
    /// 1's proof; its transform is `Ψ(z)`), one observation per measured
    /// cycle.
    pub backlog: DistSketch,
    /// Measured cycles in which the server was busy.
    pub busy_cycles: u64,
}

impl QueueStats {
    fn new() -> Self {
        QueueStats {
            wait: DistSketch::new(),
            backlog: DistSketch::new(),
            busy_cycles: 0,
        }
    }

    /// Fraction of measured cycles ending with zero backlog,
    /// `P(s = 0) = Ψ(0)` (`0.0` when nothing was measured).
    pub fn idle_fraction(&self) -> f64 {
        self.backlog.pmf_at(0)
    }

    /// Long-run fraction of busy cycles (utilization ≈ ρ; `0.0` when
    /// nothing was measured).
    pub fn utilization(&self) -> f64 {
        self.busy_cycles as f64 / self.backlog.total().max(1) as f64
    }

    /// Merges an independent replication: integer addition, so the
    /// fractions of the result pool every replication's cycles.
    pub fn merge(&mut self, other: &QueueStats) {
        self.wait.merge(&other.wait);
        self.backlog.merge(&other.backlog);
        self.busy_cycles += other.busy_cycles;
    }
}

/// The Lindley-recursion state, factored out so the plain and
/// instrumented entry points drive the *same* per-cycle body (identical
/// operation and RNG order → identical statistics).
struct LindleyState {
    rng: SmallRng,
    /// Unfinished work at end of previous cycle.
    s: u64,
    stats: QueueStats,
}

impl LindleyState {
    fn new(cfg: &QueueConfig) -> Self {
        cfg.service.validate().unwrap_or_else(|e| panic!("{e}"));
        LindleyState {
            rng: SmallRng::seed_from_u64(cfg.seed),
            s: 0,
            stats: QueueStats::new(),
        }
    }

    /// Advances one cycle of the batch-arrival Lindley recursion.
    #[inline]
    fn step(&mut self, cfg: &QueueConfig, measuring: bool) {
        let count = cfg.arrivals.sample(&mut self.rng);
        let mut batch_work: u64 = 0;
        for _ in 0..count {
            let v = cfg.service.sample(&mut self.rng) as u64;
            if measuring {
                self.stats.wait.record(self.s + batch_work);
            }
            batch_work += v;
        }
        let backlog = self.s + batch_work;
        self.s = backlog.saturating_sub(1);
        if measuring {
            self.stats.busy_cycles += u64::from(backlog > 0);
            self.stats.backlog.record(self.s);
        }
    }
}

/// A minimal reusable Lindley cell: the bare batch-arrival single-server
/// queue dynamics of `LindleyState::step` (same clocked semantics —
/// FIFO within a cycle's batch, one unit of work retired per cycle)
/// without any statistics machinery. External drivers that model a
/// network of output ports — e.g. the `banyan-flow` event check, where
/// arrivals come from routed messages rather than an [`ArrivalDist`] —
/// enqueue each arrival's service demand during the cycle and call
/// [`PortQueue::end_cycle`] once per clock tick for *every* port,
/// including idle ones (the server retires work unconditionally).
#[derive(Clone, Copy, Debug, Default)]
pub struct PortQueue {
    /// Unfinished work at the end of the previous cycle.
    backlog: u64,
    /// Work enqueued by arrivals so far *this* cycle.
    batch_work: u64,
}

impl PortQueue {
    /// A fresh, empty port.
    pub fn new() -> Self {
        PortQueue::default()
    }

    /// Enqueues one arrival with service demand `service` cycles and
    /// returns its waiting time: the backlog carried in from previous
    /// cycles plus the work of same-cycle arrivals already queued ahead
    /// of it (`w = s + batch_work`, exactly as `LindleyState::step`
    /// computes it).
    pub fn arrive(&mut self, service: u64) -> u64 {
        let wait = self.backlog + self.batch_work;
        self.batch_work += service;
        wait
    }

    /// Closes the cycle: folds this cycle's batch into the backlog and
    /// retires one unit of work (`s ← (s + batch) − 1`, floored at 0).
    /// Must be called every cycle, arrivals or not.
    pub fn end_cycle(&mut self) {
        self.backlog = (self.backlog + self.batch_work).saturating_sub(1);
        self.batch_work = 0;
    }

    /// Unfinished work carried into the next cycle (after
    /// [`PortQueue::end_cycle`]).
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// True when no work remains queued at this port.
    pub fn is_empty(&self) -> bool {
        self.backlog == 0 && self.batch_work == 0
    }
}

/// Runs the Lindley-recursion simulation.
pub fn run_queue(cfg: &QueueConfig) -> QueueStats {
    let mut st = LindleyState::new(cfg);
    for cycle in 0..(cfg.warmup_cycles + cfg.measure_cycles) {
        st.step(cfg, cycle >= cfg.warmup_cycles);
    }
    st.stats
}

/// How often (in cycles) the instrumented queue run pushes progress
/// deltas and lets the heartbeat check its interval.
const HEARTBEAT_CHECK_CYCLES: u64 = 65_536;

/// Like [`run_queue`], but reporting into `tel`: `queue/warmup` and
/// `queue/measure` spans, progress-ledger cycle deltas, and end-of-run
/// counters (`queue.cycles`, `queue.messages`, `queue.runs`). Telemetry
/// is observational only — the returned statistics equal [`run_queue`]'s
/// for any configuration; with telemetry off this *is* [`run_queue`].
pub fn run_queue_instrumented(cfg: &QueueConfig, tel: &Telemetry) -> QueueStats {
    if !tel.active() {
        return run_queue(cfg);
    }
    let mut st = LindleyState::new(cfg);
    let mut since_push = 0u64;
    {
        let _span = tel.span("queue/warmup");
        for _ in 0..cfg.warmup_cycles {
            st.step(cfg, false);
            since_push += 1;
            if since_push == HEARTBEAT_CHECK_CYCLES {
                tel.progress().add_cycles(since_push);
                since_push = 0;
                tel.heartbeat_tick();
            }
        }
    }
    {
        let _span = tel.span("queue/measure");
        for _ in 0..cfg.measure_cycles {
            st.step(cfg, true);
            since_push += 1;
            if since_push == HEARTBEAT_CHECK_CYCLES {
                tel.progress().add_cycles(since_push);
                since_push = 0;
                tel.heartbeat_tick();
            }
        }
    }
    tel.progress().add_cycles(since_push);
    let stats = st.stats;
    if tel.metrics_enabled() {
        let reg = tel.registry();
        reg.counter("queue.cycles").add(cfg.warmup_cycles + cfg.measure_cycles);
        reg.counter("queue.messages").add(stats.wait.total());
        reg.counter("queue.runs").inc();
        // Fold the exact waiting-time pmf (already collected by the
        // Lindley loop — zero extra hot-path work) into the sketch set.
        tel.sketches().merge_sketch("queue.wait", &stats.wait);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(arrivals: ArrivalDist, service: ServiceDist) -> QueueStats {
        run_queue(&QueueConfig {
            warmup_cycles: 5_000,
            measure_cycles: 400_000,
            ..QueueConfig::new(arrivals, service)
        })
    }

    #[test]
    fn port_queue_matches_lindley_semantics() {
        // Drive a PortQueue with an explicit arrival schedule and check
        // the waits against the hand-computed Lindley recursion.
        let mut q = PortQueue::new();
        assert!(q.is_empty());
        // Cycle 0: two unit-service arrivals. First waits 0, second 1.
        assert_eq!(q.arrive(1), 0);
        assert_eq!(q.arrive(1), 1);
        q.end_cycle();
        assert_eq!(q.backlog(), 1); // 2 units queued, 1 retired
        // Cycle 1: one m = 3 arrival behind the leftover unit.
        assert_eq!(q.arrive(3), 1);
        q.end_cycle();
        assert_eq!(q.backlog(), 3);
        // Cycles 2–4: empty cycles still retire one unit each.
        q.end_cycle();
        q.end_cycle();
        assert_eq!(q.backlog(), 1);
        assert!(!q.is_empty());
        q.end_cycle();
        assert_eq!(q.backlog(), 0);
        assert!(q.is_empty());
        // Drained port stays at zero (saturating decrement).
        q.end_cycle();
        assert_eq!(q.backlog(), 0);
    }

    #[test]
    fn uniform_unit_service_matches_eq6_eq7() {
        // k = 2, p = 0.5: E(w) = 0.25, Var(w) = 0.25.
        let stats = quick(
            ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.5 },
            ServiceDist::Constant(1),
        );
        assert!((stats.wait.mean() - 0.25).abs() < 0.01, "{}", stats.wait.mean());
        assert!(
            (stats.wait.variance() - 0.25).abs() < 0.02,
            "{}",
            stats.wait.variance()
        );
        assert!((stats.utilization() - 0.5).abs() < 0.01);
    }

    #[test]
    fn constant_m4_matches_eq8() {
        // k = 2, p = 0.125, m = 4: ρ = 0.5, E(w) = 0.5·3.5/(2·0.5) = 1.75.
        let stats = quick(
            ArrivalDist::UniformSwitch {
                k: 2,
                s: 2,
                p: 0.125,
            },
            ServiceDist::Constant(4),
        );
        assert!((stats.wait.mean() - 1.75).abs() < 0.06, "{}", stats.wait.mean());
    }

    #[test]
    fn bulk_arrivals_match_closed_form() {
        // k = 2, p = 0.1, b = 4, unit service: λ = kpb/s = 0.4,
        // E(w) = (b−1 + (1−1/k)λ)/(2(1−λ)) = (3 + 0.2)/1.2 = 2.667.
        let stats = quick(
            ArrivalDist::BulkSwitch {
                k: 2,
                s: 2,
                p: 0.1,
                b: 4,
            },
            ServiceDist::Constant(1),
        );
        let want = 3.2 / 1.2;
        assert!(
            (stats.wait.mean() - want).abs() < 0.08,
            "{} vs {want}",
            stats.wait.mean()
        );
    }

    #[test]
    fn nonuniform_q1_never_waits() {
        // q = 1, b = 1: single dedicated source, unit service — the queue
        // is always empty when a message arrives.
        let stats = quick(
            ArrivalDist::Nonuniform {
                k: 2,
                p: 0.9,
                q: 1.0,
                b: 1,
            },
            ServiceDist::Constant(1),
        );
        assert_eq!(stats.wait.max_value(), Some(0));
        assert!((stats.wait.mean()).abs() < 1e-12);
    }

    #[test]
    fn nonuniform_hand_checked_mean() {
        // k = 2, p = 0.5, q = 0.1: w₁ exact = R''/(2λ(1−λ)) with
        // R'' = 2αβ = 0.12375 → 0.2475.
        let stats = quick(
            ArrivalDist::Nonuniform {
                k: 2,
                p: 0.5,
                q: 0.1,
                b: 1,
            },
            ServiceDist::Constant(1),
        );
        assert!((stats.wait.mean() - 0.2475).abs() < 0.01, "{}", stats.wait.mean());
    }

    #[test]
    fn geometric_service_matches_theorem1() {
        // k = 2, p = 0.3, μ = 0.75: exact mean from the generic formula:
        // E(w) = (R''/μ + 2λ²(1−μ)/μ²)/(2λ(1−λ/μ)), R'' = λ²/2, λ = 0.3
        // = (0.045/0.75 + 2·0.09·0.25/0.5625)/(0.6·0.6) = 0.3888…
        let stats = quick(
            ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.3 },
            ServiceDist::Geometric(0.75),
        );
        let want = (0.045 / 0.75 + 2.0 * 0.09 * 0.25 / 0.5625) / (2.0 * 0.3 * (1.0 - 0.4));
        assert!(
            (stats.wait.mean() - want).abs() < 0.02,
            "{} vs {want}",
            stats.wait.mean()
        );
    }

    #[test]
    fn tabulated_arrivals_respected() {
        // Deterministic one arrival per cycle, unit service: the queue is
        // a D/D/1 at ρ = 1⁻ … use P(1) = 0.6, P(0) = 0.4 instead.
        let stats = quick(
            ArrivalDist::Tabulated(vec![0.4, 0.6]),
            ServiceDist::Constant(1),
        );
        // Single arrivals, unit service: nobody ever waits behind a
        // batch-mate, and the backlog never exceeds 0 after service:
        // w ≡ 0.
        assert_eq!(stats.wait.max_value(), Some(0));
        assert!((stats.utilization() - 0.6).abs() < 0.01);
    }

    #[test]
    fn instrumented_queue_run_is_bit_identical_and_records() {
        use banyan_obs::TelemetryConfig;
        let cfg = QueueConfig {
            warmup_cycles: 2_000,
            measure_cycles: 50_000,
            ..QueueConfig::new(
                ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.5 },
                ServiceDist::Geometric(0.75),
            )
        };
        let base = run_queue(&cfg);
        let tel = Telemetry::new(TelemetryConfig::on());
        let inst = run_queue_instrumented(&cfg, &tel);
        assert_eq!(inst, base);
        assert_eq!(tel.spans().stat("queue/warmup").unwrap().calls, 1);
        assert_eq!(tel.spans().stat("queue/measure").unwrap().calls, 1);
        let reg = tel.registry();
        assert_eq!(reg.counter_value("queue.cycles"), Some(52_000));
        assert_eq!(reg.counter_value("queue.messages"), Some(base.wait.total()));
        assert_eq!(reg.counter_value("queue.runs"), Some(1));
        assert_eq!(tel.progress().snapshot().cycles, 52_000);
        // The exact waiting-time pmf is mirrored into the sketch set.
        let sk = tel.sketches().get("queue.wait").expect("queue.wait sketch");
        assert_eq!(sk, base.wait);
        // A disabled sink takes the plain path and records nothing.
        let off = Telemetry::off();
        assert_eq!(run_queue_instrumented(&cfg, &off), base);
        assert!(off.registry().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = QueueConfig::new(
            ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.5 },
            ServiceDist::Constant(1),
        );
        assert_eq!(run_queue(&cfg), run_queue(&cfg));
    }

    #[test]
    fn backlog_and_idle_fraction_tracked() {
        // k = 2, p = 0.5, unit service: P(s = 0) = (1−ρ)/R(0)
        // = 0.5/0.5625 = 0.888…, and E[s] = V₂/(2(1−ρ)) = 0.125.
        let stats = quick(
            ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.5 },
            ServiceDist::Constant(1),
        );
        assert!((stats.idle_fraction() - 0.5 / 0.5625).abs() < 0.01, "{}", stats.idle_fraction());
        assert!((stats.backlog.mean() - 0.125).abs() < 0.01, "{}", stats.backlog.mean());
    }
}
