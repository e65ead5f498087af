//! Parallel replication of simulations across threads.
//!
//! Statistical accuracy in the tables comes from many independent
//! replications with distinct seeds. Every statistic is exact integer
//! state (pmfs, counters, integer sums), so merging is integer addition:
//! each worker (the calling thread, plus `std::thread` scoped threads
//! when there are more — no `'static` bounds needed) folds its own
//! replications into one accumulator, and the worker accumulators are
//! then added up, in any grouping, to the same result.
//!
//! Seeding scheme: replication `i` of a run with base seed `s` uses
//! seed `s + i` (wrapping). Results are therefore identical for any
//! thread count, and any published table row is reproducible from its
//! base seed alone.

use crate::network::{NetworkConfig, NetworkSim, NetworkStats};
use crate::queue::{run_queue_instrumented, QueueConfig, QueueStats};
use crate::sweep::{sweep_eligible, StageSweep};
use banyan_obs::msgtrace::MsgTracer;
use banyan_obs::Telemetry;

/// How [`run_network_replicated`] runs each replication. Every variant
/// produces **identical** merged statistics — the engine only changes
/// how one replication is computed, never its RNG stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationEngine {
    /// The stage sweep when the configuration passes
    /// [`sweep_eligible`], the scalar engine
    /// otherwise.
    Auto,
    /// One scalar [`NetworkSim`] per replication — the reference engine,
    /// which runs every configuration.
    Scalar,
    /// The message-driven stage sweep: each queue solved by one merge
    /// plus one Lindley pass per stage, one replication at a time on
    /// per-worker buffers. Refused (a panic naming the failed
    /// requirement) on configurations that fail
    /// [`sweep_eligible`].
    Sweep,
}

impl ReplicationEngine {
    /// Whether replications of `cfg` run on the stage sweep.
    ///
    /// # Panics
    /// Panics if [`ReplicationEngine::Sweep`] is forced on a
    /// configuration that fails [`sweep_eligible`].
    fn uses_sweep(self, cfg: &NetworkConfig) -> bool {
        match self {
            ReplicationEngine::Scalar => false,
            ReplicationEngine::Auto => sweep_eligible(cfg).is_ok(),
            ReplicationEngine::Sweep => match sweep_eligible(cfg) {
                Ok(()) => true,
                Err(why) => panic!("the stage-sweep engine cannot run this configuration: {why}"),
            },
        }
    }
}

/// Runs `reps` independent replications of a network simulation on up to
/// `threads` worker threads (seeds `cfg.seed + 0 … cfg.seed + reps − 1`)
/// and merges the statistics. The result is independent of `threads`
/// (including `threads > reps` and uneven replication counts per
/// worker); `threads == 0` is treated as 1. Uses
/// [`ReplicationEngine::Auto`], which runs the stage sweep on eligible
/// configurations and the scalar engine otherwise — bit-identical either
/// way.
///
/// # Panics
/// Panics if `reps == 0`, or if a worker's simulation panics.
pub fn run_network_replicated(cfg: &NetworkConfig, reps: u32, threads: usize) -> NetworkStats {
    run_network_replicated_instrumented(cfg, reps, threads, &Telemetry::off())
}

/// [`run_network_replicated`] with shared telemetry: per-worker spans
/// (`runner/workerNN`), a `runner/merge` span, expected-cycle
/// registration for heartbeat ETAs, and one run-log provenance line.
/// All sinks in `tel` are thread-safe, so every replication reports into
/// the same registry. Telemetry never touches a replication's RNG, so
/// the merged statistics are **bit-identical** for any
/// `TelemetryConfig` and any thread count.
///
/// # Panics
/// Panics if `reps == 0`, or if a worker's simulation panics.
pub fn run_network_replicated_instrumented(
    cfg: &NetworkConfig,
    reps: u32,
    threads: usize,
    tel: &Telemetry,
) -> NetworkStats {
    run_network_replicated_with_engine(cfg, reps, threads, tel, ReplicationEngine::Auto)
}

/// [`run_network_replicated_instrumented`] with an explicit
/// [`ReplicationEngine`]. The engine choice is recorded in the run log
/// (`engine=sweep` / `engine=scalar`) for provenance; the merged
/// statistics are bit-identical across engines, which the
/// `sweep_engine_bit_identity` property test and the `overhead_guard`
/// bench both enforce.
///
/// # Panics
/// Panics if `reps == 0`, if a worker's simulation panics, or if
/// [`ReplicationEngine::Sweep`] is forced on a configuration that fails
/// [`sweep_eligible`].
pub fn run_network_replicated_with_engine(
    cfg: &NetworkConfig,
    reps: u32,
    threads: usize,
    tel: &Telemetry,
    engine: ReplicationEngine,
) -> NetworkStats {
    run_network_replicated_traced(cfg, reps, threads, tel, engine, None)
}

/// [`run_network_replicated_with_engine`] with optional per-message
/// lifecycle tracing (see [`banyan_obs::msgtrace`]). With
/// `tracer = Some(..)`, replication `i` records its sampled messages
/// into `tracer` under rep index `i` and seed `cfg.seed + i` — the
/// sampling decision is a pure hash of `(seed, ordinal)`, so the traced
/// message set (and, after rendering, the trace file bytes) is
/// **identical** for any thread count and any [`ReplicationEngine`].
/// Tracing never touches a replication's RNG or dynamics, so the merged
/// statistics are bit-identical to an untraced run.
///
/// # Panics
/// Panics if `reps == 0`, if a worker's simulation panics, or if
/// [`ReplicationEngine::Sweep`] is forced on a configuration that fails
/// [`sweep_eligible`].
pub fn run_network_replicated_traced(
    cfg: &NetworkConfig,
    reps: u32,
    threads: usize,
    tel: &Telemetry,
    engine: ReplicationEngine,
    tracer: Option<&MsgTracer>,
) -> NetworkStats {
    assert!(reps > 0, "need at least one replication");
    let reps = reps as usize;
    let threads = threads.clamp(1, reps);
    let use_sweep = engine.uses_sweep(cfg);
    if tel.active() {
        tel.progress()
            .add_expected_cycles((cfg.warmup_cycles + cfg.measure_cycles) * reps as u64);
    }
    if tel.metrics_enabled() {
        let engine_tag = if use_sweep { "sweep" } else { "scalar" };
        tel.log_run(format!(
            "network reps={reps} threads={threads} engine={engine_tag} base_seed={:#x} cfg={:?}",
            cfg.seed, cfg
        ));
    }
    let worker = move || {
        // One sweep per worker: its tables and buffers are reused by
        // every replication the worker runs.
        let mut sweep = use_sweep.then(|| StageSweep::new(cfg));
        move |rep: usize| {
            let seed = cfg.seed.wrapping_add(rep as u64);
            let rt = tracer.map(|tc| tc.rep(rep as u32, seed));
            let (stats, rt) = match &mut sweep {
                Some(sweep) => sweep.run(seed, tel, rt),
                None => {
                    let mut c = cfg.clone();
                    c.seed = seed;
                    let sim = NetworkSim::new(c);
                    match rt {
                        Some(rt) => {
                            let (stats, rt) = sim.run_traced(tel, rt);
                            (stats, Some(rt))
                        }
                        None => (sim.run_instrumented(tel), None),
                    }
                }
            };
            if let (Some(tc), Some(rt)) = (tracer, rt) {
                tc.commit(rt);
            }
            stats
        }
    };
    replicate(reps, threads, tel, worker, NetworkStats::merge)
}

/// Runs replications `0..reps` on up to `threads` workers and merges
/// them. Each worker takes one contiguous chunk, builds its
/// per-replication runner once with `worker()` and folds its
/// replications into one accumulator inside its `runner/workerNN` span;
/// the worker accumulators are then merged inside `runner/merge`. Chunk
/// 0 runs on the calling thread and the rest on scoped threads, so a
/// single-threaded run spawns nothing. The merges are integer addition,
/// so the result does not depend on `threads`. A worker's panic is
/// re-raised with its own payload.
fn replicate<S, W, R>(
    reps: usize,
    threads: usize,
    tel: &Telemetry,
    worker: W,
    merge: fn(&mut S, &S),
) -> S
where
    S: Send,
    W: Fn() -> R + Sync,
    R: FnMut(usize) -> S,
{
    // ceil-split so no worker is idle while another holds 2+ extra reps;
    // the last chunk may be short, and trailing workers get nothing when
    // threads does not divide reps.
    let chunk_len = reps.div_ceil(threads);
    let (worker, tel) = (&worker, tel);
    let chunk = move |idx: usize| {
        let _span = tel
            .metrics_enabled()
            .then(|| tel.span(&format!("runner/worker{idx:02}")));
        let start = idx * chunk_len;
        let mut run = worker();
        let mut acc = run(start);
        for rep in start + 1..(start + chunk_len).min(reps) {
            merge(&mut acc, &run(rep));
        }
        acc
    };
    let partials: Vec<S> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..reps.div_ceil(chunk_len))
            .map(|idx| scope.spawn(move || chunk(idx)))
            .collect();
        let mut partials = vec![chunk(0)];
        partials.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        partials
    });
    let _span = tel.metrics_enabled().then(|| tel.span("runner/merge"));
    let mut iter = partials.into_iter();
    let mut acc = iter.next().expect("reps > 0");
    for s in iter {
        merge(&mut acc, &s);
    }
    acc
}

/// Runs `reps` independent replications of a single-queue simulation on
/// up to `threads` worker threads and merges them. Seeds follow the same
/// `base + i` scheme as [`run_network_replicated`]. `QueueStats` is
/// integer state (pmfs and counters; its fractions are computed when
/// read), so the merged result pools every replication's cycles equally
/// and is independent of `threads`.
///
/// # Panics
/// Panics if `reps == 0`, or if a worker's simulation panics.
pub fn run_queue_replicated(cfg: &QueueConfig, reps: u32, threads: usize) -> QueueStats {
    run_queue_replicated_instrumented(cfg, reps, threads, &Telemetry::off())
}

/// [`run_queue_replicated`] with shared telemetry — the queue-side
/// counterpart of [`run_network_replicated_instrumented`], with the same
/// guarantee that telemetry changes no statistic.
///
/// # Panics
/// Panics if `reps == 0`, or if a worker's simulation panics.
pub fn run_queue_replicated_instrumented(
    cfg: &QueueConfig,
    reps: u32,
    threads: usize,
    tel: &Telemetry,
) -> QueueStats {
    assert!(reps > 0, "need at least one replication");
    let reps = reps as usize;
    let threads = threads.clamp(1, reps);
    if tel.active() {
        tel.progress()
            .add_expected_cycles((cfg.warmup_cycles + cfg.measure_cycles) * reps as u64);
    }
    if tel.metrics_enabled() {
        tel.log_run(format!(
            "queue reps={reps} threads={threads} base_seed={:#x} cfg={:?}",
            cfg.seed, cfg
        ));
    }
    let worker = move || {
        move |rep: usize| {
            let mut c = cfg.clone();
            c.seed = cfg.seed.wrapping_add(rep as u64);
            run_queue_instrumented(&c, tel)
        }
    };
    replicate(reps, threads, tel, worker, QueueStats::merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::run_network;
    use crate::queue::{run_queue, ArrivalDist};
    use banyan_obs::DistSketch;
    use crate::traffic::{ServiceDist, Workload};

    fn quick_net() -> NetworkConfig {
        NetworkConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ..NetworkConfig::new(2, 3, Workload::uniform(0.5, 1))
        }
    }

    #[test]
    fn replicated_network_accumulates_all_messages() {
        let cfg = quick_net();
        let single = run_network(cfg.clone());
        let multi = run_network_replicated(&cfg, 4, 2);
        assert!(multi.delivered > 3 * single.delivered);
        assert_eq!(multi.injected, multi.delivered);
        // Means agree statistically.
        assert!((multi.total_wait.mean() - single.total_wait.mean()).abs() < 0.15);
    }

    #[test]
    fn replication_improves_on_distinct_seeds() {
        let mut cfg = quick_net();
        cfg.measure_cycles = 500;
        let a = run_network_replicated(&cfg, 3, 3);
        // Three replications of the same seed would triple-count
        // identical data; distinct seeds must give a different total than
        // 3× any single run (overwhelmingly likely).
        let single = run_network(cfg);
        assert_ne!(a.delivered, 3 * single.delivered);
    }

    #[test]
    fn more_threads_than_reps_is_fine() {
        // Regression: reps = 3 on 8 threads must neither panic nor drop
        // a replication — it must equal the single-threaded merge.
        let cfg = quick_net();
        let wide = run_network_replicated(&cfg, 3, 8);
        let narrow = run_network_replicated(&cfg, 3, 1);
        assert_eq!(wide, narrow);
    }

    #[test]
    fn single_rep_any_thread_count() {
        // Regression: reps = 1 (on both 1 and many threads) equals a
        // plain run with the same seed.
        let cfg = quick_net();
        let plain = run_network(cfg.clone());
        for threads in [1usize, 4, 16] {
            let rep = run_network_replicated(&cfg, 1, threads);
            assert_eq!(rep, plain, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_chunking_keeps_all_replications() {
        // reps = 5 over 4 threads: ceil-chunks of 2 leave the last
        // worker with a single rep; all five must still be merged.
        let cfg = quick_net();
        let a = run_network_replicated(&cfg, 5, 4);
        let b = run_network_replicated(&cfg, 5, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn table_row_reproducible_across_runs_and_thread_counts() {
        // The determinism contract behind every published table number:
        // the same base seed reproduces the same Table-I row (stage-1
        // mean and variance at k = 2, p = 0.5, m = 1) bit-for-bit,
        // across repeated runs and across threads = 1 vs threads = 4.
        let mut cfg = NetworkConfig::new(2, 3, Workload::uniform(0.5, 1));
        cfg.warmup_cycles = 300;
        cfg.measure_cycles = 3_000;
        let a = run_network_replicated(&cfg, 4, 1);
        assert_eq!(a, run_network_replicated(&cfg, 4, 1));
        assert_eq!(a, run_network_replicated(&cfg, 4, 4));
        // Pinned integers: any drift in RNG draw order, enqueue order,
        // or wait accounting changes these and fails loudly. The counts
        // and sums were recorded before the statistics became integer
        // state, and no fold order can change them.
        assert_eq!(a.delivered, 48_044);
        assert_eq!(a.injected_total, 52_928);
        let sums = |h: &DistSketch| {
            h.count_points().fold((0u64, 0u64, 0u64), |(n, s, q), (v, c)| {
                (n + c, s + v * c, q + v * v * c)
            })
        };
        assert_eq!(sums(&a.stage_waits[0]), (48_044, 11_967, 15_281));
        assert_eq!(sums(&a.total_wait), (48_044, 39_450, 82_268));
        // Each moment checked against an independent computation over
        // those integers: the mean is the correctly rounded Σw/n, and
        // the variance is within a few ulps of the exact rational
        // (n·Σw² − (Σw)²)/n².
        for (h, (n, s, q)) in [
            (&a.stage_waits[0], (48_044u64, 11_967u64, 15_281u64)),
            (&a.total_wait, (48_044, 39_450, 82_268)),
        ] {
            assert_eq!(h.mean(), s as f64 / n as f64);
            let exact_var = (n * q - s * s) as f64 / (n * n) as f64;
            assert!((h.variance() - exact_var).abs() <= 4.0 * f64::EPSILON * exact_var);
        }
        // Pinned bits of the moments the tables print (0.2490841728415619,
        // 0.25601968411466636 and 0.8211223045541587).
        assert_eq!(a.stage_waits[0].mean().to_bits(), 0x3fcfe1fd7c2721d3);
        assert_eq!(a.stage_waits[0].variance().to_bits(), 0x3fd062a06299e74e);
        assert_eq!(a.total_wait.mean().to_bits(), 0x3fea46a2488270c0);
    }

    #[test]
    fn engines_are_bit_identical_for_any_thread_count() {
        // The engine contract: scalar and sweep agree on every merged
        // statistic bit-for-bit, however the replications shard.
        let mut cfg = quick_net();
        cfg.measure_cycles = 2_000;
        let tel = Telemetry::off();
        let scalar =
            run_network_replicated_with_engine(&cfg, 6, 1, &tel, ReplicationEngine::Scalar);
        for threads in [1usize, 2, 4, 8] {
            let swept = run_network_replicated_with_engine(
                &cfg,
                6,
                threads,
                &tel,
                ReplicationEngine::Sweep,
            );
            assert_eq!(swept, scalar, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "infinite buffers")]
    fn forced_sweep_is_refused_on_finite_buffers() {
        let mut cfg = quick_net();
        cfg.buffer_capacity = Some(4);
        run_network_replicated_with_engine(&cfg, 2, 1, &Telemetry::off(), ReplicationEngine::Sweep);
    }

    #[test]
    fn auto_engine_falls_back_to_scalar_for_wide_switches() {
        // k = 256 on 2 stages: the sweep's k sub-streams per wire would
        // take ≈ 540 MB, so Auto must run scalar rather than panic.
        let mut cfg = NetworkConfig::new(256, 2, Workload::uniform(0.01, 1));
        cfg.warmup_cycles = 10;
        cfg.measure_cycles = 40;
        assert!(sweep_eligible(&cfg).is_err());
        let auto = run_network_replicated(&cfg, 2, 1);
        let scalar = run_network_replicated_with_engine(
            &cfg,
            2,
            1,
            &Telemetry::off(),
            ReplicationEngine::Scalar,
        );
        assert_eq!(auto, scalar);
    }

    #[test]
    fn run_log_records_engine_choice() {
        use banyan_obs::{Telemetry, TelemetryConfig};
        let cfg = quick_net();
        let tel = Telemetry::new(TelemetryConfig::on());
        run_network_replicated_with_engine(&cfg, 4, 2, &tel, ReplicationEngine::Sweep);
        assert!(tel.run_log_json().contains("engine=sweep"));
        let tel2 = Telemetry::new(TelemetryConfig::on());
        run_network_replicated_with_engine(&cfg, 4, 2, &tel2, ReplicationEngine::Scalar);
        assert!(tel2.run_log_json().contains("engine=scalar"));
    }

    #[test]
    fn auto_picks_sweep_only_when_eligible() {
        use banyan_obs::{Telemetry, TelemetryConfig};
        // Sweep-eligible config → Auto runs the sweep.
        let cfg = quick_net();
        let tel = Telemetry::new(TelemetryConfig::on());
        run_network_replicated_instrumented(&cfg, 4, 2, &tel);
        assert!(tel.run_log_json().contains("engine=sweep"));
        assert_eq!(tel.registry().counter_value("net.sweep_runs"), Some(4));
        // Finite buffers disqualify the sweep — Auto must fall back to
        // scalar (and still merge identically to the forced scalar
        // engine).
        let mut blocked = quick_net();
        blocked.buffer_capacity = Some(4);
        let tel2 = Telemetry::new(TelemetryConfig::on());
        let auto = run_network_replicated_instrumented(&blocked, 3, 1, &tel2);
        assert!(tel2.run_log_json().contains("engine=scalar"));
        let scalar = run_network_replicated_with_engine(
            &blocked,
            3,
            1,
            &Telemetry::off(),
            ReplicationEngine::Scalar,
        );
        assert_eq!(auto, scalar);
    }

    #[test]
    fn queue_replication_bit_identical_across_thread_counts() {
        // Same contract as the network path: QueueStats is integer
        // state, so any sharding merges to the same result.
        let cfg = QueueConfig {
            warmup_cycles: 200,
            measure_cycles: 10_000,
            ..QueueConfig::new(
                ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.6 },
                ServiceDist::Constant(1),
            )
        };
        let base = run_queue_replicated(&cfg, 5, 1);
        for threads in [2usize, 3, 4, 8] {
            let t = run_queue_replicated(&cfg, 5, threads);
            assert_eq!(t, base, "threads = {threads}");
        }
    }

    #[test]
    fn queue_merge_pools_every_replication_equally() {
        // Regression: the merge once averaged utilization, idle fraction
        // and autocorrelation pairwise, so four replications were
        // weighted 1/8, 1/8, 1/4 and 1/2. The merged fractions must be
        // the pooled ones, whatever the merge order.
        let cfg = QueueConfig {
            warmup_cycles: 100,
            measure_cycles: 4_000,
            ..QueueConfig::new(
                ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.6 },
                ServiceDist::Geometric(0.8),
            )
        };
        let reps: Vec<QueueStats> = (0..4u64)
            .map(|i| {
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(i);
                run_queue(&c)
            })
            .collect();
        let merged = run_queue_replicated(&cfg, 4, 2);
        let cycles = 4 * cfg.measure_cycles;
        let busy: u64 = reps.iter().map(|r| r.busy_cycles).sum();
        let idle: f64 = reps
            .iter()
            .map(|r| r.idle_fraction() * cfg.measure_cycles as f64)
            .sum();
        assert_eq!(merged.utilization(), busy as f64 / cycles as f64);
        assert_eq!(merged.idle_fraction(), idle.round() / cycles as f64);
        let mut reversed = reps[3].clone();
        for r in reps[..3].iter().rev() {
            reversed.merge(r);
        }
        assert_eq!(merged, reversed);
    }

    #[test]
    fn replicated_queue_merges_counts() {
        let cfg = QueueConfig {
            warmup_cycles: 100,
            measure_cycles: 5_000,
            ..QueueConfig::new(
                ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.5 },
                ServiceDist::Constant(1),
            )
        };
        let one = run_queue(&cfg);
        let four = run_queue_replicated(&cfg, 4, 2);
        assert!(four.wait.total() > 3 * one.wait.total());
        assert!((four.wait.mean() - 0.25).abs() < 0.05);
    }

    #[test]
    fn instrumented_replication_is_bit_identical_and_shares_sink() {
        use banyan_obs::{Telemetry, TelemetryConfig};
        let cfg = quick_net();
        let base = run_network_replicated(&cfg, 4, 2);
        let tel = Telemetry::new(TelemetryConfig::on());
        let inst = run_network_replicated_instrumented(&cfg, 4, 2, &tel);
        assert_eq!(inst, base);
        // All four replications reported into the one registry…
        assert_eq!(tel.registry().counter_value("net.runs"), Some(4));
        assert_eq!(
            tel.registry().counter_value("net.delivered_total"),
            Some(inst.delivered_total)
        );
        // …under two worker spans plus the merge span, with expected
        // cycles registered for the ETA.
        assert_eq!(tel.spans().stat("runner/worker00").unwrap().calls, 1);
        assert_eq!(tel.spans().stat("runner/worker01").unwrap().calls, 1);
        assert_eq!(tel.spans().stat("runner/merge").unwrap().calls, 1);
        let snap = tel.progress().snapshot();
        assert_eq!(
            snap.expected_cycles,
            4 * (cfg.warmup_cycles + cfg.measure_cycles)
        );
        assert!(tel.run_log_json().contains("network reps=4 threads=2"));
    }

    #[test]
    fn wait_sketches_fold_identically_across_thread_counts() {
        use banyan_obs::{Telemetry, TelemetryConfig};
        // Sketch merges are commutative and lossless, so the folded
        // per-stage pmfs must be exactly equal no matter how the
        // replications shard across workers.
        let cfg = quick_net();
        let tel1 = Telemetry::new(TelemetryConfig::on());
        let base = run_network_replicated_instrumented(&cfg, 4, 1, &tel1);
        for threads in [2usize, 4, 8] {
            let tel = Telemetry::new(TelemetryConfig::on());
            let inst = run_network_replicated_instrumented(&cfg, 4, threads, &tel);
            assert_eq!(inst.delivered, base.delivered, "threads = {threads}");
            for name in ["net.wait.stage01", "net.wait.stage03", "net.wait.total"] {
                let a = tel1.sketches().get(name).expect(name);
                let b = tel.sketches().get(name).expect(name);
                assert_eq!(a.total(), b.total(), "{name} threads = {threads}");
                assert_eq!(a.pmf_points(), b.pmf_points(), "{name} threads = {threads}");
                assert_eq!(a.mean().to_bits(), b.mean().to_bits());
                assert_eq!(a.variance().to_bits(), b.variance().to_bits());
            }
            // The total sketch holds every measured delivery's wait.
            let total = tel.sketches().get("net.wait.total").unwrap();
            assert_eq!(total.total(), inst.delivered);
        }
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        // Chunk 0 runs on the calling thread, the rest on scoped
        // threads; a panic in either re-raises its own payload.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let merge: fn(&mut u64, &u64) = |a, b| *a += b;
        for (threads, bad) in [(1usize, 0usize), (2, 0), (2, 3), (4, 5)] {
            let worker = || {
                move |rep: usize| {
                    assert!(rep != bad, "rep {rep} failed");
                    rep as u64
                }
            };
            let run = || replicate(6, threads, &Telemetry::off(), worker, merge);
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
            let msg = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(msg, &format!("rep {bad} failed"), "threads = {threads}");
        }
        let sum = replicate(6, 4, &Telemetry::off(), || |rep| rep as u64, merge);
        assert_eq!(sum, 15);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_reps_panics() {
        let cfg = QueueConfig::new(ArrivalDist::Tabulated(vec![1.0]), ServiceDist::Constant(1));
        run_queue_replicated(&cfg, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_network_reps_panics() {
        run_network_replicated(&quick_net(), 0, 4);
    }
}
