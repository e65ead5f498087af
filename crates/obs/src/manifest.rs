//! Provenance-stamped run manifests.
//!
//! A manifest is the JSON record written next to a run's results: what
//! configuration ran, with which seeds, on how many threads, how long
//! each phase took, what the metrics registry saw, and which git
//! revision produced it. The schema is documented in DESIGN.md
//! ("Observability"); `schema` names its version so downstream tooling
//! can evolve.

use crate::json::{escape, fmt_f64, JsonObject};
use crate::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Manifest schema identifier written into every file.
///
/// v2 adds the `distributions` section (per-stage waiting-time
/// sketches with exact pmf, moments, and report quantiles), the
/// `span_quantiles` section (P² duration quantiles per span path),
/// and free-form extra sections such as `drift` (observed-vs-analytic
/// KS reports). v1 readers that only consume the v1 keys keep working
/// — all v1 keys are retained unchanged.
pub const SCHEMA: &str = "banyan-obs/manifest/v2";

/// Builder for one run manifest.
#[derive(Debug)]
pub struct Manifest {
    name: String,
    created_unix: u64,
    host_parallelism: usize,
    git_rev: Option<String>,
    config: BTreeMap<String, String>,
    seeds: Vec<(String, u64)>,
    reps: Option<u32>,
    threads: Option<usize>,
    phases: Vec<(String, f64)>,
    artifacts: Vec<String>,
    /// Extra top-level sections: `(key, pre-rendered JSON value)`.
    sections: Vec<(String, String)>,
}

impl Manifest {
    /// Starts a manifest, stamping creation time, host parallelism, and
    /// the current git revision (when a `.git` is discoverable).
    pub fn new(name: &str) -> Self {
        Manifest {
            name: name.to_string(),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            host_parallelism: host_parallelism(),
            git_rev: git_rev_from(&std::env::current_dir().unwrap_or_default()),
            config: BTreeMap::new(),
            seeds: Vec::new(),
            reps: None,
            threads: None,
            phases: Vec::new(),
            artifacts: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Records one configuration key (stringified; keys sort in output).
    pub fn config(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.config.insert(key.to_string(), value.to_string());
        self
    }

    /// Records a named seed (e.g. `base`).
    pub fn seed(&mut self, label: &str, value: u64) -> &mut Self {
        self.seeds.push((label.to_string(), value));
        self
    }

    /// Records the replication count.
    pub fn reps(&mut self, reps: u32) -> &mut Self {
        self.reps = Some(reps);
        self
    }

    /// Records the worker-thread count.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = Some(threads);
        self
    }

    /// Records a completed phase and its wall time in seconds.
    pub fn phase(&mut self, label: &str, secs: f64) -> &mut Self {
        self.phases.push((label.to_string(), secs));
        self
    }

    /// Records an output artifact path produced by the run.
    pub fn artifact(&mut self, path: impl std::fmt::Display) -> &mut Self {
        self.artifacts.push(path.to_string());
        self
    }

    /// Adds an extra top-level section whose value is already-rendered
    /// JSON (e.g. `drift` reports). Sections are emitted after the
    /// telemetry snapshots, in insertion order.
    pub fn section_raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.sections.push((key.to_string(), json.to_string()));
        self
    }

    /// Renders the manifest, embedding the telemetry's span and metric
    /// snapshots when one is provided.
    pub fn to_json(&self, telemetry: Option<&Telemetry>) -> String {
        let mut o = JsonObject::new();
        o.field_str("schema", SCHEMA)
            .field_str("name", &self.name)
            .field_u64("created_unix", self.created_unix)
            .field_u64("host_parallelism", self.host_parallelism as u64);
        match &self.git_rev {
            Some(rev) => o.field_str("git_rev", rev),
            None => o.field_raw("git_rev", "null"),
        };
        let mut cfg = JsonObject::new();
        for (k, v) in &self.config {
            cfg.field_str(k, v);
        }
        o.field_raw("config", &cfg.finish());
        let mut seeds = JsonObject::new();
        for (k, v) in &self.seeds {
            seeds.field_u64(k, *v);
        }
        o.field_raw("seeds", &seeds.finish());
        match self.reps {
            Some(r) => o.field_u64("reps", u64::from(r)),
            None => o.field_raw("reps", "null"),
        };
        match self.threads {
            Some(t) => o.field_u64("threads", t as u64),
            None => o.field_raw("threads", "null"),
        };
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(label, secs)| {
                format!(
                    "{{\"label\": \"{}\", \"secs\": {}}}",
                    escape(label),
                    fmt_f64(*secs)
                )
            })
            .collect();
        o.field_raw("phases", &format!("[{}]", phases.join(", ")));
        let artifacts: Vec<String> = self
            .artifacts
            .iter()
            .map(|a| format!("\"{}\"", escape(a)))
            .collect();
        o.field_raw("artifacts", &format!("[{}]", artifacts.join(", ")));
        match telemetry {
            Some(tel) => {
                o.field_raw("spans", &tel.spans().snapshot_json());
                o.field_raw("span_quantiles", &tel.spans().duration_quantiles_json());
                o.field_raw("metrics", &tel.registry().snapshot_json());
                o.field_raw("distributions", &tel.sketches().snapshot_json());
                o.field_raw("runs", &tel.run_log_json());
            }
            None => {
                o.field_raw("spans", "{}");
                o.field_raw("span_quantiles", "{}");
                o.field_raw("metrics", "{}");
                o.field_raw("distributions", "{}");
                o.field_raw("runs", "[]");
            }
        }
        for (key, json) in &self.sections {
            o.field_raw(key, json);
        }
        let mut s = o.finish_pretty(2);
        s.push('\n');
        s
    }

    /// Writes the manifest to `path`.
    pub fn write(
        &self,
        path: impl AsRef<Path>,
        telemetry: Option<&Telemetry>,
    ) -> std::io::Result<PathBuf> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(telemetry))?;
        Ok(path.to_path_buf())
    }
}

/// Number of hardware threads the host advertises (1 when unknown).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the current git revision by walking up from `start` to the
/// nearest `.git` and reading `HEAD` (following one level of `ref:`
/// indirection, falling back to `packed-refs`). Returns `None` outside
/// a repository — provenance is best-effort, never a hard dependency.
pub fn git_rev_from(start: &Path) -> Option<String> {
    let git_dir = start.ancestors().map(|a| a.join(".git")).find(|g| g.exists())?;
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(git_dir.join(refname)) {
            return Some(rev.trim().to_string());
        }
        // Ref may only exist packed.
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        packed.lines().find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name.trim() == refname).then(|| rev.to_string())
        })
    } else if head.len() >= 40 {
        // Detached HEAD holds the revision directly.
        Some(head.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    #[test]
    fn manifest_renders_all_sections() {
        let mut m = Manifest::new("unit");
        m.config("k", 2)
            .config("p", 0.5)
            .seed("base", 7)
            .reps(4)
            .threads(2)
            .phase("measure", 1.25)
            .artifact("results/unit.txt");
        let tel = Telemetry::new(TelemetryConfig::on());
        tel.registry().counter("net.injected_total").add(10);
        let s = m.to_json(Some(&tel));
        for key in [
            "\"schema\"",
            "\"banyan-obs/manifest/v2\"",
            "\"config\"",
            "\"k\": \"2\"",
            "\"seeds\"",
            "\"base\": 7",
            "\"reps\": 4",
            "\"threads\": 2",
            "\"phases\"",
            "\"measure\"",
            "\"host_parallelism\"",
            "\"net.injected_total\": 10",
            "\"artifacts\"",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn manifest_without_telemetry_has_empty_snapshots() {
        let s = Manifest::new("bare").to_json(None);
        assert!(s.contains("\"spans\": {}"));
        assert!(s.contains("\"metrics\": {}"));
        assert!(s.contains("\"distributions\": {}"));
        assert!(s.contains("\"runs\": []"));
    }

    #[test]
    fn sketches_and_sections_are_embedded() {
        let tel = Telemetry::new(TelemetryConfig::on());
        let mut sk = crate::DistSketch::new();
        sk.record_n(0, 3);
        sk.record_n(2, 1);
        tel.sketches().merge_sketch("net.wait.total", &sk);
        let mut m = Manifest::new("dist");
        m.section_raw("drift", "[{\"name\": \"net.wait.total\", \"ks\": 0.01}]");
        let s = m.to_json(Some(&tel));
        assert!(s.contains("\"distributions\""));
        assert!(s.contains("\"net.wait.total\""));
        assert!(s.contains("\"kind\": \"exact\""));
        assert!(s.contains("\"drift\""));
        assert!(s.contains("\"span_quantiles\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn git_rev_resolves_in_this_repo_and_fails_gracefully_outside() {
        // The test runs somewhere inside the workspace, which is a git
        // repository; the rev must look like a hex hash.
        if let Some(rev) = git_rev_from(&std::env::current_dir().unwrap()) {
            assert!(rev.len() >= 40, "{rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
        assert_eq!(git_rev_from(Path::new("/nonexistent-dir-xyz")), None);
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("banyan_obs_test_{}", std::process::id()));
        let path = dir.join("nested/run.manifest.json");
        let written = Manifest::new("w").write(&path, None).unwrap();
        assert!(written.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
