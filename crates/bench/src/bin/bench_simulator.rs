//! Microbenchmarks of the simulators; accepts `--quick`.
//! Writes `results/BENCH_simulator.json` and
//! `results/bench_simulator.manifest.json`.
//!
//! The timed closures call the *plain* entry points (`run_network`,
//! `run_queue`), so these medians measure the telemetry-off hot path.
//! `overhead_guard` times its own paired legs and reads no recorded
//! medians.

fn main() {
    let scale = banyan_bench::scale_from_args();
    let mut run = banyan_bench::manifest::RunManifest::start("bench_simulator", &scale);
    let path = banyan_bench::suites::simulator();
    run.phase("suite").artifact(path.display());
    run.finish();
}
