//! `benchmark compare A/ B/`: two sets of saved runs, metric by metric.
//!
//! Every file in each directory is scanned for result lines (schema
//! `banyan-benchmark/result/v1`, printed by every run). For each workload
//! and end-to-end metric the command prints each set's median, quartiles
//! and spread (interquartile distance over the median), and a verdict
//! against the metric's bound in `BENCHMARK.json` (read from the working
//! directory, the repository root):
//!
//! * `unresolved (spread > bound)` when either set spreads wider than
//!   the bound — the sets cannot tell a regression that size;
//! * `worse` when B's median is worse than A's by more than the bound;
//! * `within bound` otherwise.
//!
//! Exits 1 when any verdict is `worse` or `unresolved`, 2 on bad input.

use crate::stats::{median, quartiles, spread};
use crate::RESULT_SCHEMA;
use banyan_repro::obs::json::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// Samples of one set: (workload, metric) → (unit, values), plus the
/// runs seen and the runs that reported failures.
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, String), (String, Vec<f64>)>,
    runs: usize,
    failed_runs: usize,
}

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines().filter(|l| l.contains(RESULT_SCHEMA)) {
            let doc = JsonValue::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            if matches!(doc.get("trace"), Some(JsonValue::Bool(true))) {
                continue;
            }
            let workload = doc
                .get("workload")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string();
            set.runs += 1;
            if doc.get("failed").and_then(JsonValue::as_u64) != Some(0) {
                set.failed_runs += 1;
            }
            let metrics = doc
                .get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap_or(&[]);
            for (name, m) in metrics {
                let (Some(value), Some(unit)) = (
                    m.get("value").and_then(JsonValue::as_f64),
                    m.get("unit").and_then(JsonValue::as_str),
                ) else {
                    continue;
                };
                let entry = set
                    .values
                    .entry((workload.clone(), name.clone()))
                    .or_insert_with(|| (unit.to_string(), Vec::new()));
                entry.1.push(value);
            }
        }
    }
    Ok(set)
}

/// `name → (bound, lower_is_better)` from `BENCHMARK.json`'s
/// `end_to_end` list.
fn bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            let better = m.get("better").and_then(JsonValue::as_str);
            match (name, bound, better) {
                (Some(n), Some(b), Some(dir)) => Ok((n.to_string(), (b, dir == "lower"))),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// The verdict for one metric.
fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> &'static str {
    if spread(a) > bound || spread(b) > bound {
        return "unresolved (spread > bound)";
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if lower_is_better {
        mb > ma * (1.0 + bound)
    } else {
        mb < ma * (1.0 - bound)
    };
    if worse {
        "worse"
    } else {
        "within bound"
    }
}

fn summary(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!(
        "{:>12.6} [{:.6}, {:.6}] {:>6.2}% n={}",
        median(xs),
        q1,
        q3,
        100.0 * spread(xs),
        xs.len()
    )
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        return fail("compare takes two directories of saved runs");
    };
    let (set_a, set_b, bounds) = match (
        load(Path::new(a)),
        load(Path::new(b)),
        bounds(Path::new("BENCHMARK.json")),
    ) {
        (Ok(x), Ok(y), Ok(z)) => (x, y, z),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return fail(&e),
    };
    println!(
        "A = {a}: {} runs ({} with failures)",
        set_a.runs, set_a.failed_runs
    );
    println!(
        "B = {b}: {} runs ({} with failures)",
        set_b.runs, set_b.failed_runs
    );
    println!(
        "{:<13} {:<16} {:<6} {:<52} {:<52} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] spread",
        "B median [q1, q3] spread",
        "bound"
    );
    let mut code = 0;
    for ((workload, metric), (unit, va)) in &set_a.values {
        let Some((_, vb)) = set_b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(&(bound, lower)) = bounds.get(metric) else {
            continue;
        };
        let v = verdict(va, vb, bound, lower);
        if v != "within bound" {
            code = 1;
        }
        println!(
            "{workload:<13} {metric:<16} {unit:<6} {:<52} {:<52} {:>5.1}%  {v}",
            summary(va),
            summary(vb),
            100.0 * bound
        );
    }
    if set_a.failed_runs + set_b.failed_runs > 0 {
        code = 1;
    }
    code
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    eprintln!("usage: benchmark compare <dirA> <dirB>   (from the repository root)");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(verdict(&a, &a, 0.05, true), "within bound");
        let slower = [110.0, 111.0, 109.0, 110.0, 110.5];
        assert_eq!(verdict(&a, &slower, 0.05, true), "worse");
        assert_eq!(verdict(&a, &slower, 0.05, false), "within bound");
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(&a, &noisy, 0.05, true),
            "unresolved (spread > bound)"
        );
    }
}
