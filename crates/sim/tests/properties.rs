//! Randomized property tests for the simulation substrate, driven by
//! the seeded in-repo harness (`banyan_prng::check`).

use banyan_prng::check::check;
use banyan_prng::rngs::SmallRng;
use banyan_prng::SeedableRng;
use banyan_sim::network::{run_network, NetworkConfig};
use banyan_sim::queue::{run_queue, ArrivalDist, QueueConfig};
use banyan_sim::topology::OmegaTopology;
use banyan_sim::traffic::{ServiceDist, Workload};

const CASES: u32 = 32;

#[test]
fn routing_always_reaches_destination() {
    check(CASES, |g| {
        let (k, n) = g.pick(&[(2u32, 3u32), (2, 6), (2, 10), (4, 4), (8, 3), (3, 4)]);
        let seed = g.any_u64();
        let t = OmegaTopology::new(k, n);
        let input = seed % t.ports();
        let dest = (seed / 7) % t.ports();
        let path = t.path(input, dest);
        assert_eq!(path.len(), n as usize);
        assert_eq!(*path.last().unwrap(), dest);
        assert!(path.iter().all(|&w| w < t.ports()));
    });
}

#[test]
fn shuffle_is_bijective_sampled() {
    check(CASES, |g| {
        let (k, n) = g.pick(&[(2u32, 8u32), (4, 5), (8, 4)]);
        let w = g.any_u64();
        let t = OmegaTopology::new(k, n);
        let wire = w % t.ports();
        // Applying the shuffle n times is the identity (full rotation of
        // an n-digit number).
        let mut cur = wire;
        for _ in 0..n {
            cur = t.shuffle(cur);
        }
        assert_eq!(cur, wire);
    });
}

#[test]
fn service_samples_within_support() {
    check(CASES, |g| {
        let mu = g.f64(0.05..1.0);
        let seed = g.any_u64();
        let mut rng = SmallRng::seed_from_u64(seed);
        let geo = ServiceDist::Geometric(mu);
        for _ in 0..50 {
            assert!(geo.sample(&mut rng) >= 1);
        }
        let m = ServiceDist::Mixed(vec![(2, 0.5), (7, 0.5)]);
        for _ in 0..50 {
            let s = m.sample(&mut rng);
            assert!(s == 2 || s == 7);
        }
    });
}

#[test]
fn queue_sim_waits_and_utilization_sane() {
    check(CASES, |g| {
        let p = g.f64(0.05..0.9);
        let seed = g.any_u64();
        let stats = run_queue(&QueueConfig {
            warmup_cycles: 500,
            measure_cycles: 20_000,
            seed,
            arrivals: ArrivalDist::UniformSwitch { k: 2, s: 2, p },
            service: ServiceDist::Constant(1),
        });
        assert!(stats.wait.total() > 0);
        assert_eq!(
            stats.backlog.total(),
            20_000,
            "one backlog sample per cycle"
        );
        assert!((0.0..=1.0).contains(&stats.utilization()));
        // Utilization tracks ρ = p.
        assert!((stats.utilization() - p).abs() < 0.05);
    });
}

#[test]
fn network_conserves_messages() {
    check(CASES, |g| {
        let p = g.f64(0.05..0.8);
        let n = g.u32(2..6);
        let m = g.pick(&[1u32, 2]);
        let seed = g.any_u64();
        if p * m as f64 >= 0.9 {
            return; // unstable load — not the property under test
        }
        let cfg = NetworkConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            seed,
            ..NetworkConfig::new(2, n, Workload::uniform(p, m))
        };
        let stats = run_network(cfg);
        assert_eq!(stats.injected, stats.delivered);
        assert_eq!(stats.total_wait.total(), stats.delivered);
        assert!(stats.injected_total >= stats.injected);
        // Every per-stage pmf saw every tracked message.
        for s in &stats.stage_waits {
            assert_eq!(s.total(), stats.delivered);
        }
    });
}

#[test]
fn finite_buffer_accounting_invariant() {
    // Conservation ledger under arbitrary finite capacities: every
    // injection attempt is either rejected up front or ends up counted
    // as delivered or still in flight — nothing is lost or double
    // counted, at any load, capacity, or message size.
    check(CASES, |g| {
        let p = g.f64(0.05..0.95);
        let n = g.u32(2..6);
        let m = g.pick(&[1u32, 2, 4]);
        let cap = g.pick(&[1usize, 2, 4, 16]);
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            seed,
            buffer_capacity: Some(cap),
            ..NetworkConfig::new(2, n, Workload::uniform(p, m))
        };
        let stats = run_network(cfg);
        // Accepted messages: injected_total = delivered + in-flight
        // (rejected attempts never enter injected_total, so adding
        // rejected_total to both sides gives the attempt-level ledger).
        assert_eq!(
            stats.injected_total,
            stats.delivered_total + stats.in_flight_at_end,
            "p={p} n={n} m={m} cap={cap}"
        );
        assert_eq!(
            stats.injected, stats.delivered,
            "tracked messages all drain"
        );
        assert!(stats.delivered_total >= stats.delivered);
        // Capacity 1 at heavy offered load must actually reject.
        if cap == 1 && p * m as f64 > 0.5 {
            assert!(stats.rejected_total > 0, "p={p} m={m} cap=1 never rejected");
        }
    });
}

#[test]
fn network_total_equals_sum_of_stage_means() {
    check(CASES, |g| {
        let p = g.f64(0.1..0.7);
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: 200,
            measure_cycles: 3_000,
            seed,
            ..NetworkConfig::new(2, 4, Workload::uniform(p, 1))
        };
        let stats = run_network(cfg);
        if stats.delivered == 0 {
            return;
        }
        let sum: f64 = stats.stage_waits.iter().map(|w| w.mean()).sum();
        assert!((stats.total_wait.mean() - sum).abs() < 1e-9 * (1.0 + sum));
    });
}

#[test]
fn butterfly_routing_always_reaches_destination() {
    check(CASES, |g| {
        use banyan_sim::butterfly::ButterflyTopology;
        let (k, n) = g.pick(&[(2u32, 3u32), (2, 8), (4, 4), (3, 4)]);
        let seed = g.any_u64();
        let t = ButterflyTopology::new(k, n);
        let input = seed % t.ports();
        let dest = (seed / 13) % t.ports();
        let path = t.path(input, dest);
        assert_eq!(*path.last().unwrap(), dest);
        assert!(path.iter().all(|&w| w < t.ports()));
    });
}

#[test]
fn input_queued_conserves_messages() {
    check(CASES, |g| {
        use banyan_sim::input_queued::{run_input_queued, InputQueuedConfig};
        let p = g.f64(0.05..0.45);
        let seed = g.any_u64();
        let cfg = InputQueuedConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            seed,
            ..InputQueuedConfig::new(2, 3, Workload::uniform(p, 1))
        };
        let stats = run_input_queued(cfg);
        assert_eq!(stats.injected, stats.delivered);
        // The shared delivery fold fills every pmf.
        assert_eq!(stats.total_wait, stats.total_hist);
        assert_eq!(stats.total_wait.total(), stats.delivered);
        for s in &stats.stage_waits {
            assert_eq!(s.total(), stats.delivered);
        }
    });
}

#[test]
fn telemetry_never_perturbs_replicated_results() {
    // The observability contract: `run_network_replicated` is
    // bit-identical with telemetry off vs on (any sampling cadence, any
    // thread count) — telemetry observes counters and queues but never
    // the RNG or the dynamics.
    use banyan_obs::{Telemetry, TelemetryConfig};
    use banyan_sim::runner::run_network_replicated_instrumented;
    check(CASES, |g| {
        let p = g.f64(0.1..0.8);
        let n = g.u32(2..5);
        let reps = g.pick(&[1u32, 2, 3]);
        let threads = g.pick(&[1usize, 2, 4]);
        let sample_every = g.pick(&[1u64, 7, 256]);
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: 100,
            measure_cycles: 1_000,
            seed,
            ..NetworkConfig::new(2, n, Workload::uniform(p, 1))
        };
        let off = run_network_replicated_instrumented(&cfg, reps, threads, &Telemetry::off());
        let tel = Telemetry::new(TelemetryConfig::on().with_sample_every(sample_every));
        let on = run_network_replicated_instrumented(&cfg, reps, threads, &tel);
        let label = format!("p={p} n={n} reps={reps} threads={threads} every={sample_every}");
        assert_eq!(on, off, "{label}");
        // The registry agrees with the merged stats: telemetry is a
        // faithful observer, not a second bookkeeper.
        let reg = tel.registry();
        assert_eq!(
            reg.counter_value("net.runs"),
            Some(u64::from(reps)),
            "{label}"
        );
        assert_eq!(
            reg.counter_value("net.injected_total"),
            Some(on.injected_total),
            "{label}"
        );
        assert_eq!(
            reg.counter_value("net.delivered_total"),
            Some(on.delivered_total),
            "{label}"
        );
    });
}

#[test]
fn sweep_engine_bit_identity() {
    // The engine contract: for random (p, k, n, m), buffer capacities,
    // thread counts, warmups on and beside the sweep's 128-cycle tile
    // edges, measure windows down to one cycle, and correlations on or
    // off (the kept-waits-rows path), the stage sweep produces
    // NetworkStats equal (`==`: every pmf, counter and the conservation
    // ledger) to one scalar simulation per replication on every
    // configuration it accepts, and it refuses the rest.
    use banyan_obs::Telemetry;
    use banyan_sim::runner::run_network_replicated_with_engine;
    use banyan_sim::{sweep_eligible, ReplicationEngine};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    check(CASES, |g| {
        // 1- to 5-bit routing digits; k = 17 is past what a 4-bit digit
        // table holds.
        let (k, n) = g.pick(&[
            (2u32, 2u32),
            (2, 4),
            (2, 6),
            (3, 3),
            (4, 3),
            (5, 2),
            (8, 2),
            (17, 2),
        ]);
        let m = g.pick(&[1u32, 2, 4]);
        let mut p = g.f64(0.05..0.9);
        if p * m as f64 >= 0.85 {
            p = 0.8 / m as f64; // keep the drain bounded
        }
        let cap = g.pick(&[None, None, Some(2usize), Some(8)]);
        let reps = g.pick(&[2u32, 3, 5, 8]);
        let threads = g.pick(&[1usize, 2, 4]);
        let warmup = g.pick(&[0u64, 1, 100, 127, 128, 129]);
        let measure = g.pick(&[1u64, 200, 800]);
        let corr = g.pick(&[false, true]);
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: warmup,
            measure_cycles: measure,
            collect_correlations: corr,
            seed,
            buffer_capacity: cap,
            ..NetworkConfig::new(k, n, Workload::uniform(p, m))
        };
        let label = format!(
            "k={k} n={n} m={m} p={p} cap={cap:?} reps={reps} threads={threads} \
             warmup={warmup} measure={measure} corr={corr} seed={seed:#x}"
        );
        let tel = Telemetry::off();
        let run = |engine| run_network_replicated_with_engine(&cfg, reps, threads, &tel, engine);
        if let Err(why) = sweep_eligible(&cfg) {
            assert!(cap.is_some(), "{label}: unexpectedly ineligible: {why}");
            let refused = catch_unwind(AssertUnwindSafe(|| run(ReplicationEngine::Sweep)));
            assert!(refused.is_err(), "{label}: forced sweep must be refused");
            return;
        }
        let scalar = run(ReplicationEngine::Scalar);
        let swept = run(ReplicationEngine::Sweep);
        assert_eq!(swept, scalar, "{label}");
    });
}

#[test]
fn sweep_engine_telemetry_parity() {
    // Telemetry is part of the engine contract: with metrics on at any
    // sampling cadence, the stage sweep reports exactly what the scalar
    // engine reports — counters, gauges and their high-water marks
    // (replications run in order on one thread, so even last-write
    // gauges agree), the occupancy histogram, and the wait sketches.
    use banyan_obs::registry::POW2_BOUNDS;
    use banyan_obs::{Telemetry, TelemetryConfig};
    use banyan_sim::runner::run_network_replicated_with_engine;
    use banyan_sim::ReplicationEngine;
    check(CASES, |g| {
        let (k, n) = g.pick(&[(2u32, 2u32), (2, 4), (3, 3), (4, 2)]);
        let m = g.pick(&[1u32, 2]);
        let p = g.f64(0.05..0.8) / m as f64;
        let sample_every = g.pick(&[1u64, 7, 64, 256]);
        let reps = g.pick(&[1u32, 2, 3]);
        let warmup = g.pick(&[0u64, 127, 128, 300]);
        let measure = g.pick(&[1u64, 200, 600]);
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: warmup,
            measure_cycles: measure,
            seed,
            ..NetworkConfig::new(k, n, Workload::uniform(p, m))
        };
        let label = format!(
            "k={k} n={n} m={m} p={p} every={sample_every} reps={reps} \
             warmup={warmup} measure={measure} seed={seed:#x}"
        );
        let run = |engine| {
            let tel = Telemetry::new(TelemetryConfig::on().with_sample_every(sample_every));
            let stats = run_network_replicated_with_engine(&cfg, reps, 1, &tel, engine);
            (stats, tel)
        };
        let (scalar, tel_sc) = run(ReplicationEngine::Scalar);
        let (swept, tel_sw) = run(ReplicationEngine::Sweep);
        assert_eq!(swept, scalar, "{label}");
        let (a, b) = (tel_sw.registry(), tel_sc.registry());
        for name in [
            "net.injected_total",
            "net.delivered_total",
            "net.rejected_total",
            "net.in_flight_at_end",
            "net.cycles",
            "net.tracked_injected",
            "net.tracked_delivered",
            "net.runs",
        ] {
            assert_eq!(
                a.counter_value(name),
                b.counter_value(name),
                "{name}: {label}"
            );
        }
        let stage_names = (1..=n).map(|s| format!("{s:02}"));
        let gauges = stage_names
            .clone()
            .map(|s| format!("net.occupancy.stage{s}"))
            .chain(["net.slab_high_water".to_string()]);
        for name in gauges {
            let (ga, gb) = (a.gauge(&name), b.gauge(&name));
            assert_eq!(ga.get(), gb.get(), "{name}: {label}");
            assert_eq!(
                ga.high_water(),
                gb.high_water(),
                "{name} high-water: {label}"
            );
        }
        assert_eq!(
            a.histogram("net.queue_occupancy", POW2_BOUNDS)
                .bucket_counts(),
            b.histogram("net.queue_occupancy", POW2_BOUNDS)
                .bucket_counts(),
            "occupancy histogram: {label}"
        );
        let sketches = stage_names
            .map(|s| format!("net.wait.stage{s}"))
            .chain(["net.wait.total".to_string()]);
        for name in sketches {
            let (sa, sb) = (tel_sw.sketches().get(&name), tel_sc.sketches().get(&name));
            assert!(sa.is_some(), "{name} missing: {label}");
            assert_eq!(sa, sb, "{name}: {label}");
        }
    });
}

#[test]
fn merge_is_order_free() {
    // Every statistic is integer state, so replications merge by
    // addition: forward, reversed and shuffled merges of the same
    // replications are equal.
    use banyan_sim::network::NetworkStats;
    check(CASES, |g| {
        let n = g.u32(2..5);
        let m = g.pick(&[1u32, 2]);
        let p = g.f64(0.05..0.8) / m as f64;
        let cap = g.pick(&[None, Some(2usize)]);
        let reps = g.u32(3..7) as usize;
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: 100,
            measure_cycles: 600,
            seed,
            buffer_capacity: cap,
            collect_correlations: g.pick(&[false, true]),
            ..NetworkConfig::new(2, n, Workload::uniform(p, m))
        };
        let runs: Vec<NetworkStats> = (0..reps as u64)
            .map(|i| {
                let mut c = cfg.clone();
                c.seed = seed.wrapping_add(i);
                run_network(c)
            })
            .collect();
        let merged = |order: &[usize]| {
            let mut acc = runs[order[0]].clone();
            for &i in &order[1..] {
                acc.merge(&runs[i]);
            }
            acc
        };
        let forward: Vec<usize> = (0..reps).collect();
        let reversed: Vec<usize> = (0..reps).rev().collect();
        let mut shuffled = forward.clone();
        for i in (1..reps).rev() {
            shuffled.swap(i, g.u32(0..i as u32 + 1) as usize);
        }
        let label = format!("n={n} m={m} p={p} cap={cap:?} reps={reps} order={shuffled:?}");
        let f = merged(&forward);
        assert_eq!(merged(&reversed), f, "{label}");
        assert_eq!(merged(&shuffled), f, "{label}");
    });
}

#[test]
fn msgtrace_engines_byte_identical() {
    // The message-tracing contract (PR 10 tentpole): the scalar engine
    // and the stage sweep, at any thread count, render byte-identical
    // msgtrace JSONL documents for the same configuration and seed —
    // the strongest cross-engine correctness check in the repo, since
    // it compares individual message lifecycles rather than aggregate
    // statistics. Sweep-ineligible draws (finite buffers) check thread
    // invariance of the scalar engine alone.
    use banyan_obs::msgtrace::{header_object, render_jsonl, MsgTracer};
    use banyan_obs::Telemetry;
    use banyan_sim::runner::run_network_replicated_traced;
    use banyan_sim::{sweep_eligible, ReplicationEngine};
    check(CASES, |g| {
        // 1- to 5-bit routing digits; k = 17 is past what a 4-bit digit
        // table holds.
        let (k, n) = g.pick(&[
            (2u32, 2u32),
            (2, 4),
            (2, 6),
            (3, 3),
            (4, 3),
            (5, 2),
            (8, 2),
            (17, 2),
        ]);
        let m = g.pick(&[1u32, 2, 4]);
        let mut p = g.f64(0.05..0.9);
        if p * m as f64 >= 0.85 {
            p = 0.8 / m as f64;
        }
        let cap = g.pick(&[None, None, Some(2usize), Some(8)]);
        let reps = g.pick(&[1u32, 2, 3, 5]);
        let rate = g.pick(&[0.05f64, 0.25, 1.0]);
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: 100,
            measure_cycles: 600,
            seed,
            buffer_capacity: cap,
            ..NetworkConfig::new(k, n, Workload::uniform(p, m))
        };
        let label =
            format!("k={k} n={n} m={m} p={p} cap={cap:?} reps={reps} rate={rate} seed={seed:#x}");
        let render = |engine: ReplicationEngine, threads: usize| {
            let tracer = MsgTracer::new(rate);
            let stats = run_network_replicated_traced(
                &cfg,
                reps,
                threads,
                &Telemetry::off(),
                engine,
                Some(&tracer),
            );
            let header = header_object("net", cfg.stages, cfg.seed, reps, rate).finish();
            (render_jsonl(&header, &tracer.finish()), stats)
        };
        let other = if sweep_eligible(&cfg).is_ok() {
            ReplicationEngine::Sweep
        } else {
            ReplicationEngine::Scalar
        };
        let (base, base_stats) = render(ReplicationEngine::Scalar, 1);
        for threads in [1usize, 2, 4, 8] {
            let (doc, stats) = render(other, threads);
            assert_eq!(doc, base, "{other:?} threads={threads}: {label}");
            assert_eq!(stats.delivered, base_stats.delivered, "{label}");
            let (doc_s, _) = render(ReplicationEngine::Scalar, threads);
            assert_eq!(doc_s, base, "scalar threads={threads}: {label}");
        }
        // A traced run never perturbs the simulation itself.
        let untraced = banyan_sim::runner::run_network_replicated_with_engine(
            &cfg,
            reps,
            1,
            &Telemetry::off(),
            ReplicationEngine::Scalar,
        );
        assert_eq!(untraced, base_stats, "{label}");
    });
}

#[test]
fn msgtrace_sample_is_submultiset_of_full_pmf() {
    // Contract (b) of the tracing design: the multiset of sampled
    // end-to-end waits is a sub-multiset of the full waiting-time pmf
    // the telemetry sketches record, and each record's stage waits sum
    // to its total exactly (contract (a), enforced per record).
    use banyan_obs::msgtrace::MsgTracer;
    use banyan_obs::{Telemetry, TelemetryConfig};
    use banyan_sim::runner::run_network_replicated_traced;
    use banyan_sim::ReplicationEngine;
    use std::collections::HashMap;
    check(CASES, |g| {
        let p = g.f64(0.1..0.8);
        let n = g.u32(2..5);
        let reps = g.pick(&[1u32, 2, 3]);
        let rate = g.pick(&[0.1f64, 0.5, 1.0]);
        let engine = g.pick(&[
            ReplicationEngine::Scalar,
            ReplicationEngine::Sweep,
            ReplicationEngine::Auto,
        ]);
        let seed = g.any_u64();
        let cfg = NetworkConfig {
            warmup_cycles: 100,
            measure_cycles: 800,
            seed,
            ..NetworkConfig::new(2, n, Workload::uniform(p, 1))
        };
        let label = format!("p={p} n={n} reps={reps} rate={rate} engine={engine:?} seed={seed:#x}");
        let tel = Telemetry::new(TelemetryConfig::on());
        let tracer = MsgTracer::new(rate);
        run_network_replicated_traced(&cfg, reps, 2, &tel, engine, Some(&tracer));
        let records = tracer.finish();
        let mut sampled: HashMap<u64, u64> = HashMap::new();
        for r in &records {
            assert_eq!(
                r.waits.iter().map(|&w| u64::from(w)).sum::<u64>(),
                r.total_wait(),
                "{label}"
            );
            assert_eq!(r.waits.len(), n as usize, "{label}");
            *sampled.entry(r.total_wait()).or_insert(0) += 1;
        }
        let full: HashMap<u64, u64> = tel
            .sketches()
            .get("net.wait.total")
            .expect("total-wait sketch present")
            .count_points()
            .collect();
        for (&w, &c) in &sampled {
            assert!(
                full.get(&w).copied().unwrap_or(0) >= c,
                "{label}: sampled wait {w} appears {c} times but pmf has {:?}",
                full.get(&w)
            );
        }
        if rate >= 1.0 {
            // Every tracked message traced: the multisets are equal.
            let full_count: u64 = full.values().sum();
            assert_eq!(records.len() as u64, full_count, "{label}");
        }
    });
}

#[test]
fn same_seed_same_results() {
    check(CASES, |g| {
        let p = g.f64(0.1..0.8);
        let seed = g.any_u64();
        let mk = || NetworkConfig {
            warmup_cycles: 100,
            measure_cycles: 1_000,
            seed,
            ..NetworkConfig::new(2, 3, Workload::uniform(p, 1))
        };
        assert_eq!(run_network(mk()), run_network(mk()));
    });
}
