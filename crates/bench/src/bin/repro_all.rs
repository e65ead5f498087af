//! Runs every experiment and writes the outputs under `results/` at
//! the workspace root, next to the manifest, from any directory.
//! `--quick` for a smoke run. Optional args select a subset, e.g.
//! `repro_all stage totals` (groups: stage, totals, calibration,
//! ablations, extensions). Writes `results/repro_all.manifest.json`
//! recording every artifact, per-group wall times, and the telemetry
//! snapshot of all simulations run.
use banyan_bench::manifest::{workspace_root, RunManifest};
use std::fs;
use std::time::Instant;

fn want(selected: &[String], group: &str) -> bool {
    selected.is_empty() || selected.iter().any(|s| s == group)
}

fn emit(run: &mut RunManifest, name: &str, t0: Instant, out: &str) {
    let path = workspace_root().join(format!("results/{name}.txt"));
    fs::write(&path, out).expect("write result");
    run.artifact(path.display());
    eprintln!("wrote {} ({:.1}s)", path.display(), t0.elapsed().as_secs_f64());
    println!("{out}");
}

fn main() {
    let scale = banyan_bench::scale_from_args();
    let selected: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick" && a != "--progress")
        .collect();
    const GROUPS: [&str; 5] = ["stage", "totals", "calibration", "ablations", "extensions"];
    if let Some(bad) = selected.iter().find(|s| !GROUPS.contains(&s.as_str())) {
        eprintln!("unknown group '{bad}'; valid groups: {}", GROUPS.join(", "));
        std::process::exit(2);
    }
    let mut run = RunManifest::start("repro_all", &scale);
    run.config("groups", if selected.is_empty() { "all".to_string() } else { selected.join(",") });

    use banyan_bench::experiments::{ablations, calibration, correlations, extensions, stage_tables, totals};

    if want(&selected, "stage") {
        type Job = (&'static str, fn(&banyan_bench::profile::Scale) -> String);
        let jobs: [Job; 6] = [
            ("table01", stage_tables::table01),
            ("table02", stage_tables::table02),
            ("table03", stage_tables::table03),
            ("table04", stage_tables::table04),
            ("table05", stage_tables::table05),
            ("table06", correlations::table06),
        ];
        for (name, job) in jobs {
            let t0 = Instant::now();
            let out = job(&scale);
            emit(&mut run, name, t0, &out);
        }
        run.phase("stage");
    }

    if want(&selected, "totals") {
        // One set of simulations feeds the table, the figures, and the
        // tail-quality summary.
        let t0 = Instant::now();
        let runs = totals::TotalRuns::collect(&scale);
        emit(&mut run, "table07_12", t0, &totals::table07_12_from(&runs));
        emit(&mut run, "figures", t0, &totals::figures_from(&runs));
        let csv_path = workspace_root().join("results/figures.csv");
        fs::write(&csv_path, totals::figures_csv_from(&runs)).expect("write csv");
        run.artifact(csv_path.display());
        eprintln!("wrote {}", csv_path.display());
        emit(&mut run, "tail_quality", t0, &totals::tail_quality_from(&runs));
        run.phase("totals");
    }

    if want(&selected, "calibration") {
        let t0 = Instant::now();
        let out = calibration::calibration(&scale);
        emit(&mut run, "calibration", t0, &out);
        run.phase("calibration");
    }

    if want(&selected, "ablations") {
        type Job = (&'static str, fn(&banyan_bench::profile::Scale) -> String);
        let jobs: [Job; 4] = [
            ("ablation_covariance", ablations::ablation_covariance),
            ("ablation_stage_rate", ablations::ablation_stage_rate),
            ("ablation_convolution", ablations::ablation_convolution),
            ("ablation_discipline", ablations::ablation_discipline),
        ];
        for (name, job) in jobs {
            let t0 = Instant::now();
            let out = job(&scale);
            emit(&mut run, name, t0, &out);
        }
        run.phase("ablations");
    }

    if want(&selected, "extensions") {
        type Job = (&'static str, fn(&banyan_bench::profile::Scale) -> String);
        let jobs: [Job; 3] = [
            ("finite_buffers", extensions::finite_buffers),
            ("heavy_traffic", extensions::heavy_traffic),
            ("stage_shapes", extensions::stage_shapes),
        ];
        for (name, job) in jobs {
            let t0 = Instant::now();
            let out = job(&scale);
            emit(&mut run, name, t0, &out);
        }
        run.phase("extensions");
    }

    run.finish();
}
