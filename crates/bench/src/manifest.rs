//! Run manifests for the table/figure/bench binaries.
//!
//! Every `banyan-bench` binary records *provenance* next to its results:
//! which configuration ran, with which seeds (via the telemetry run
//! log), how long each phase took, what the metrics registry observed,
//! on how many hardware threads, and at which git revision. The
//! manifest lands in `results/<name>.manifest.json` so a published
//! table is always traceable to the run that produced it.
//!
//! The experiment drivers in [`crate::profile`] report into one
//! process-global [`Telemetry`] sink ([`telemetry`]); [`RunManifest`]
//! snapshots that sink when the binary finishes.

use crate::profile::Scale;
use banyan_obs::{Manifest, Telemetry, TelemetryConfig};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

static TELEMETRY: OnceLock<Telemetry> = OnceLock::new();

/// The process-global telemetry sink the experiment drivers report
/// into. Metrics are always collected (the cost is bounded and the
/// manifests need the counters); the stderr heartbeat turns on when the
/// binary was invoked with `--progress`.
pub fn telemetry() -> &'static Telemetry {
    TELEMETRY.get_or_init(|| {
        let mut cfg = TelemetryConfig::on();
        if std::env::args().any(|a| a == "--progress") {
            cfg = cfg.with_progress();
        }
        Telemetry::new(cfg)
    })
}

/// Builder every bench binary wraps its `main` in: stamps the scale and
/// argv at start, records phase wall times as the run progresses, and
/// writes `results/<name>.manifest.json` (with the full telemetry
/// snapshot) at the end.
pub struct RunManifest {
    manifest: Manifest,
    started: Instant,
    phase_started: Instant,
    path: PathBuf,
}

impl RunManifest {
    /// Starts the manifest for binary `name` running at `scale`.
    pub fn start(name: &str, scale: &Scale) -> Self {
        telemetry(); // initialize the sink before any experiment runs
        let mut manifest = Manifest::new(name);
        let argv: Vec<String> = std::env::args().skip(1).collect();
        manifest
            .config("argv", argv.join(" "))
            .config("target_messages", scale.target_messages)
            .reps(scale.reps)
            .threads(scale.threads);
        let results = workspace_root().join("results");
        std::fs::create_dir_all(&results).expect("create results/");
        let now = Instant::now();
        RunManifest {
            manifest,
            started: now,
            phase_started: now,
            path: results.join(format!("{name}.manifest.json")),
        }
    }

    /// Records a configuration key.
    pub fn config(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.manifest.config(key, value);
        self
    }

    /// Records a named seed.
    pub fn seed(&mut self, label: &str, value: u64) -> &mut Self {
        self.manifest.seed(label, value);
        self
    }

    /// Records an output artifact produced by the run. A path under the
    /// workspace root (a relative one is taken from the current
    /// directory) is recorded relative to the root, so the manifest names
    /// the same path whichever checkout ran the binary.
    pub fn artifact(&mut self, path: impl std::fmt::Display) -> &mut Self {
        let path = PathBuf::from(path.to_string());
        let cwd = std::env::current_dir().expect("current dir");
        let absolute = cwd.join(&path);
        let recorded = absolute.strip_prefix(workspace_root()).unwrap_or(&path);
        self.manifest.artifact(recorded.display());
        self
    }

    /// Closes the current phase, recording the wall time since the
    /// previous [`RunManifest::phase`] call (or since start).
    pub fn phase(&mut self, label: &str) -> &mut Self {
        self.manifest
            .phase(label, self.phase_started.elapsed().as_secs_f64());
        self.phase_started = Instant::now();
        self
    }

    /// Records the total wall time, emits a final heartbeat line when
    /// `--progress` is on, and writes the manifest. Returns its path.
    pub fn finish(mut self) -> PathBuf {
        self.manifest
            .phase("total", self.started.elapsed().as_secs_f64());
        let tel = telemetry();
        tel.heartbeat_final();
        let written = self
            .manifest
            .write(&self.path, Some(tel))
            .expect("write run manifest");
        eprintln!("wrote {}", written.display());
        written
    }
}

/// Convenience for the thin table/figure binaries: runs `job` at the
/// argv-selected scale, prints its output to stdout, and writes
/// `results/<name>.manifest.json` with one phase named after the binary.
pub fn emit_with_manifest(name: &str, job: impl FnOnce(&Scale) -> String) {
    let scale = crate::scale_from_args();
    let mut run = RunManifest::start(name, &scale);
    let out = job(&scale);
    run.phase(name);
    print!("{out}");
    run.finish();
}

/// The nearest ancestor of the current directory holding a `Cargo.lock`
/// (`cargo bench` sets the working directory to the *package* root, so
/// a bare relative path would scatter output across crates). Falls back
/// to the current directory outside any workspace.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("current dir");
    cwd.ancestors()
        .find(|d| d.join("Cargo.lock").is_file())
        .unwrap_or(&cwd)
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_telemetry_collects_metrics() {
        let tel = telemetry();
        assert!(tel.metrics_enabled());
        // Same instance on every call.
        assert!(std::ptr::eq(tel, telemetry()));
    }

    #[test]
    fn run_manifest_records_phases_and_writes() {
        let scale = Scale::quick();
        let dir = std::env::temp_dir().join(format!("banyan_manifest_test_{}", std::process::id()));
        let mut run = RunManifest::start("unit-test", &scale);
        // Redirect away from results/ — unit tests must not touch the
        // recorded artifacts.
        run.path = dir.join("m.json");
        run.config("k", 2).seed("base", 42).phase("setup").artifact("x.txt");
        let path = run.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\": \"unit-test\""));
        assert!(text.contains("\"setup\""));
        assert!(text.contains("\"total\""));
        assert!(text.contains("\"base\": 42"));
        assert!(text.contains("\"target_messages\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_are_recorded_relative_to_the_workspace_root() {
        let dir = std::env::temp_dir().join(format!("banyan_artifact_test_{}", std::process::id()));
        let mut run = RunManifest::start("unit-test-artifacts", &Scale::quick());
        run.path = dir.join("m.json");
        let absolute = workspace_root().join("results").join("BENCH_unit.json");
        run.artifact(absolute.display())
            .artifact("/elsewhere/out.json");
        let text = std::fs::read_to_string(run.finish()).unwrap();
        assert!(
            text.contains(r#""artifacts": ["results/BENCH_unit.json", "/elsewhere/out.json"]"#),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
