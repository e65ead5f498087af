//! Runs every workload at smoke size through the built `benchmark`
//! binary, untraced and traced, and checks the report against
//! `BENCHMARK.json`: every listed metric printed with its unit, every
//! output check passed, and a trace file whose parent ids all resolve.

use banyan_repro::obs::json::JsonValue;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
    let field = |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
    spec.get(list)
        .and_then(JsonValue::as_array)
        .expect(list)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// One smoke run; returns its last stdout line, parsed.
fn run(workload: &str, trace: bool, trace_out: &Path) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(trace_out)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a report");
    JsonValue::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

/// Every span line parses and names a parent that was recorded earlier
/// (or none).
fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let mut lines = text.lines();
    let head = JsonValue::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        head.get("schema").and_then(JsonValue::as_str),
        Some("banyan-benchmark/trace/v1")
    );
    let mut ids = BTreeSet::from([0u64]);
    for line in lines {
        let span = JsonValue::parse(line).unwrap_or_else(|e| panic!("span line {line}: {e}"));
        let get = |k: &str| {
            span.get(k)
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| panic!("{k} in {line}"))
        };
        assert!(ids.contains(&get("parent")), "unresolved parent: {line}");
        assert!(get("start_ns") <= get("end_ns"), "{line}");
        assert!(
            span.get("name").and_then(JsonValue::as_str).is_some(),
            "{line}"
        );
        ids.insert(get("id"));
        get("op");
    }
    assert!(ids.len() > 1, "{} holds no spans", path.display());
}

fn smoke(workload: &str) {
    let spec = spec();
    let names: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect();
    assert!(
        names.iter().any(|n| n == workload),
        "{workload} is listed in BENCHMARK.json"
    );
    let trace_out: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}.jsonl"));
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run(workload, trace, &trace_out);
        let keys: Vec<&str> = report
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics"],
            "{workload}"
        );
        assert!(
            matches!(report.get("correct"), Some(JsonValue::Bool(true))),
            "{workload} trace={trace}"
        );
        assert_eq!(report.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert!(
            report
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
                >= 1
        );
        let metrics = report.get("metrics").expect("metrics");
        let expected = listed(&spec, list);
        assert_eq!(
            metrics.as_object().expect("metrics object").len(),
            expected.len(),
            "{workload} {list}"
        );
        for (name, unit) in expected {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload} does not print {name}"));
            assert_eq!(
                m.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str()),
                "{workload} {name}"
            );
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload} {name} = {value:?}"
            );
            if list == "end_to_end" {
                assert!(value > Some(0.0), "{workload} {name} must never be 0");
            }
        }
        if trace {
            check_trace(&trace_out);
        }
    }
}

#[test]
fn sim_sweep() {
    smoke("sim_sweep");
}

#[test]
fn sim_blocking() {
    smoke("sim_blocking");
}

#[test]
fn flow_mesh() {
    smoke("flow_mesh");
}

#[test]
fn flow_banyan() {
    smoke("flow_banyan");
}

#[test]
fn serve_mixed() {
    smoke("serve_mixed");
}
