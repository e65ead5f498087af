//! The three microbenchmark suites, shared between the `cargo bench`
//! targets in `benches/` and the `bench_*` binaries (so
//! `cargo run -p banyan-bench --release --bin bench_analysis` works
//! without the bench harness).

use crate::micro::{black_box, Suite};

/// Analytical layer: closed-form moments, full pmf inversion, gamma
/// fitting, and the total-delay model. These quantify the paper's
/// motivating claim that formulas are orders of magnitude cheaper than
/// simulation.
pub fn analysis() -> std::path::PathBuf {
    use banyan_core::models::{mixed_queue, uniform_queue};
    use banyan_core::total_delay::TotalWaiting;
    use banyan_stats::Gamma;

    let mut s = Suite::new("analysis");

    s.bench("first_stage_mean_var_uniform", || {
        let q = uniform_queue(black_box(2), black_box(0.5), black_box(1)).unwrap();
        (q.mean_wait(), q.var_wait())
    });
    s.bench("first_stage_mean_var_mixed", || {
        let q = mixed_queue(2, 0.05, vec![(4, 0.5), (8, 0.5)]).unwrap();
        (q.mean_wait(), q.var_wait())
    });

    let q = uniform_queue(2, 0.5, 1).unwrap();
    s.bench("waiting_pmf_64_terms", || q.pmf(black_box(64)));
    let q8 = uniform_queue(2, 0.8, 1).unwrap();
    s.bench("waiting_pmf_256_terms_heavy_load", || {
        q8.pmf(black_box(256))
    });

    s.bench("tail_decay_rate", || q.tail_decay_rate());

    s.bench("total_delay_mean_var_12_stages", || {
        let t = TotalWaiting::new(2, 12, black_box(0.5), 1);
        (t.mean_total(), t.var_total())
    });

    let g = Gamma::from_mean_var(3.59, 3.74).unwrap();
    s.bench("gamma_cdf", || g.cdf(black_box(4.2)));
    s.bench("gamma_quantile_999", || g.quantile(black_box(0.999)));
    // Mesh flows fit shapes of 0.01–0.1 (mesh 8×8 at p = 0.025: 0.0235).
    let small = Gamma::new(0.02, 1.0);
    s.bench("gamma_quantile_small_shape", || small.quantile(black_box(0.5)));
    // The upper levels cost at the median mesh 8×8 fit (shape 0.05 at
    // p = 0.02–0.025): p99 (x ≈ 1.1) and p999 (x ≈ 2.7) sit just past
    // x = a + 1, where `inv_reg_gamma`'s series window decides the cost.
    let mesh = Gamma::new(0.05, 1.0);
    s.bench("gamma_quantile_shape_005_99", || {
        mesh.quantile(black_box(0.99))
    });
    s.bench("gamma_quantile_shape_005_999", || {
        mesh.quantile(black_box(0.999))
    });

    s.finish()
}

/// Simulation substrate: cycles/second of the network simulator at the
/// paper's configurations and of the single-queue Lindley simulator.
pub fn simulator() -> std::path::PathBuf {
    use banyan_sim::network::{run_network, NetworkConfig};
    use banyan_sim::queue::{run_queue, ArrivalDist, QueueConfig};
    use banyan_sim::traffic::{ServiceDist, Workload};

    let mut s = Suite::new("simulator");

    for &(k, n, p, m, label) in &[
        (2u32, 6u32, 0.5, 1u32, "network_k2_n6_p05_m1"),
        (2, 10, 0.5, 1, "network_k2_n10_p05_m1"),
        (2, 6, 0.125, 4, "network_k2_n6_p0125_m4"),
    ] {
        let cycles = 3_000u64;
        let mk = move || NetworkConfig {
            warmup_cycles: 100,
            measure_cycles: cycles,
            ..NetworkConfig::new(k, n, Workload::uniform(p, m))
        };
        // The run is deterministic, so one probe run yields the exact
        // delivered-message count every timed iteration will repeat —
        // giving both cycles/sec and delivered-messages/sec.
        let delivered = run_network(mk()).delivered;
        s.bench_throughput2(label, cycles, delivered, move || {
            run_network(mk()).delivered
        });
    }

    // Finite buffers (the `sim_blocking` benchmark point): a hot spot
    // into capacity-4 buffers blocks and rejects, so only the scalar
    // engine can run it.
    {
        let cycles = 2_000u64;
        let mk = move || NetworkConfig {
            warmup_cycles: 200,
            measure_cycles: cycles,
            buffer_capacity: Some(4),
            ..NetworkConfig::new(2, 8, Workload::hotspot(0.6, 0.1))
        };
        let delivered = run_network(mk()).delivered;
        s.bench_throughput2("network_k2_n8_hotspot_cap4", cycles, delivered, move || {
            run_network(mk()).delivered
        });
    }

    // Replicated Table-I family (k = 2, 8 stages = 256 ports): the
    // replication runner's scalar engine vs the stage sweep the Auto
    // policy picks, across the load sweep ρ = 0.2..0.8. One thread, so
    // both engines run the same replications as one worker chunk.
    // Suite-scale cycle counts keep a
    // full-effort run tractable; EXPERIMENTS.md records the
    // experiment-scale family numbers.
    {
        use banyan_obs::Telemetry;
        use banyan_sim::{run_network_replicated_with_engine, ReplicationEngine};
        let reps = 16u32;
        let measure = 500u64;
        for &(p, tag) in &[
            (0.2, "p020"),
            (0.35, "p035"),
            (0.5, "p050"),
            (0.65, "p065"),
            (0.8, "p080"),
        ] {
            let mk = move || NetworkConfig {
                warmup_cycles: 100,
                measure_cycles: measure,
                ..NetworkConfig::new(2, 8, Workload::uniform(p, 1))
            };
            // Engines are bit-identical, so one probe run gives the
            // delivered count both timed rows repeat.
            let delivered = run_network_replicated_with_engine(
                &mk(),
                reps,
                1,
                &Telemetry::off(),
                ReplicationEngine::Scalar,
            )
            .delivered_total;
            // `Auto` runs the stage sweep here.
            for (engine, ename) in [
                (ReplicationEngine::Scalar, "scalar"),
                (ReplicationEngine::Auto, "sweep"),
            ] {
                let cfg = mk();
                s.bench_throughput2(
                    &format!("table01_rep_{ename}_{tag}"),
                    measure * reps as u64,
                    delivered,
                    move || {
                        run_network_replicated_with_engine(&cfg, reps, 1, &Telemetry::off(), engine)
                            .delivered
                    },
                );
            }
        }
    }

    let cycles = 200_000u64;
    s.bench_throughput("lindley_uniform_p05", cycles, || {
        let cfg = QueueConfig {
            warmup_cycles: 1_000,
            measure_cycles: cycles,
            ..QueueConfig::new(
                ArrivalDist::UniformSwitch { k: 2, s: 2, p: 0.5 },
                ServiceDist::Constant(1),
            )
        };
        run_queue(&cfg).wait.mean()
    });

    s.finish()
}

/// Numerical substrate: the FFT and special functions that the pmf
/// inversion and gamma approximation rely on.
pub fn numerics() -> std::path::PathBuf {
    use banyan_numerics::special::{ln_gamma, reg_gamma_lower};
    use banyan_numerics::{fft, ifft, Complex};

    let mut s = Suite::new("numerics");

    for &n in &[1024usize, 16_384] {
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        s.bench(&format!("fft_roundtrip_{n}"), || {
            let mut d = data.clone();
            fft(&mut d);
            ifft(&mut d);
            d[0]
        });
    }

    s.bench("ln_gamma", || ln_gamma(black_box(7.31)));
    s.bench("reg_gamma_lower", || {
        reg_gamma_lower(black_box(5.5), black_box(4.0))
    });

    s.finish()
}
