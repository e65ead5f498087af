//! Judges a pairs file from `scripts/pairs.sh` by the repository
//! benchmark's rules, with the paired estimator of
//! [`banyan_bench::paired`].
//!
//! Each line of a pairs file is one run: `side` (`base` or `change`),
//! `rev`, `workload`, `seed`, and `result`, the run's last stdout line.
//! A workload's base and change runs of one seed form a pair. For each
//! `end_to_end` metric of `BENCHMARK.json` the verdict is:
//!
//! * `gain`: the change is better in at least 9 of 10 pairs, and its
//!   median beats the base median by more than the base's IQR;
//! * `unresolved`: either side spreads (IQR over median) wider than the
//!   metric's bound, too wide to tell a regression that size;
//! * `regression`: the median per-pair ratio is worse than the bound;
//! * `no change` otherwise.
//!
//! Exits 1 on a regression, an unresolved metric or a larger share of
//! failed operations on the change side; 2 on bad input, such as a
//! second run of one workload, seed and side. The bounds are read from
//! the workspace's `BENCHMARK.json`.

use banyan_bench::manifest::workspace_root;
use banyan_bench::paired::{median, quartiles, Ratio};
use banyan_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: bench_diff PAIRS.jsonl";

fn parse_args(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [flag] if flag.starts_with("--") => Err(format!("unknown flag '{flag}'")),
        [pairs] => Ok(PathBuf::from(pairs)),
        [] => Err("no pairs file given".into()),
        _ => Err("give exactly one pairs file".into()),
    }
}

/// An end-to-end metric: `(name, bound, higher is better)`.
type Bound = (String, f64, bool);

fn bounds(doc: &JsonValue) -> Result<Vec<Bound>, String> {
    let list = doc.get("end_to_end").and_then(JsonValue::as_array);
    list.ok_or("bounds file has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            match (name, bound, m.get("better").and_then(JsonValue::as_str)) {
                (Some(n), Some(b), Some(better @ ("higher" | "lower"))) => {
                    Ok((n.to_string(), b, better == "higher"))
                }
                _ => Err("an end_to_end entry needs name, bound and better".to_string()),
            }
        })
        .collect()
}

/// One run of a pairs file.
struct Run {
    change: bool,
    workload: String,
    seed: u64,
    /// `(failed, attempted)` operations.
    ops: (u64, u64),
    metrics: BTreeMap<String, f64>,
}

fn parse_run(line: &str) -> Result<Run, String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let field = |name: &str| doc.get(name).ok_or(format!("missing '{name}'"));
    let change = match field("side")?.as_str() {
        Some("base") => false,
        Some("change") => true,
        _ => return Err("'side' must be base or change".into()),
    };
    let result = field("result")?;
    let count = |name: &str| result.get(name).and_then(JsonValue::as_u64);
    let metrics = result.get("metrics").and_then(JsonValue::as_object);
    Ok(Run {
        change,
        workload: field("workload")?
            .as_str()
            .ok_or("'workload' must be a string")?
            .to_string(),
        seed: field("seed")?.as_u64().ok_or("'seed' must be an integer")?,
        ops: count("failed")
            .zip(count("attempted"))
            .ok_or("result has no op counts")?,
        metrics: metrics
            .ok_or("result has no metrics")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// One metric of one workload, judged over its pairs.
struct MetricDiff {
    name: String,
    base: f64,
    change: f64,
    ratio: Ratio,
    better: usize,
    verdict: &'static str,
}

fn judge((name, bound, higher_is_better): &Bound, pairs: &[(f64, f64)]) -> MetricDiff {
    let (base, change): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let (b_med, c_med) = (median(&mut base.clone()), median(&mut change.clone()));
    let ratio = Ratio::of(pairs.iter().map(|&(b, c)| c / b).collect());
    // +1 when lower is better, so `sign · (change − base) < 0` improves.
    let sign = if *higher_is_better { -1.0 } else { 1.0 };
    let improves = |b: f64, c: f64| sign * (c - b) < 0.0;
    let better = pairs.iter().filter(|&&(b, c)| improves(b, c)).count();
    let iqr = |xs: &[f64]| quartiles(xs).1 - quartiles(xs).0;
    let worse_by = sign * (ratio.median - 1.0);
    let verdict = if 10 * better >= 9 * pairs.len()
        && improves(b_med, c_med)
        && (c_med - b_med).abs() > iqr(&base)
    {
        "gain"
    } else if iqr(&base) > bound * b_med.abs() || iqr(&change) > bound * c_med.abs() {
        "unresolved"
    } else if worse_by > *bound {
        "regression"
    } else {
        "no change"
    };
    MetricDiff {
        name: name.clone(),
        base: b_med,
        change: c_med,
        ratio,
        better,
        verdict,
    }
}

/// One workload: its pairs, the seeds run on one side only, and each
/// metric's verdict.
struct WorkloadDiff {
    workload: String,
    pairs: usize,
    unpaired: Vec<u64>,
    /// `(failed, attempted)` over the paired runs, base then change.
    ops: [(u64, u64); 2],
    metrics: Vec<MetricDiff>,
}

impl WorkloadDiff {
    /// The findings that fail the comparison.
    fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| matches!(m.verdict, "regression" | "unresolved"))
            .map(|m| format!("{} {}: {}", self.workload, m.name, m.verdict))
            .collect();
        let [(bf, ba), (cf, ca)] = self.ops;
        if u128::from(cf) * u128::from(ba.max(1)) > u128::from(bf) * u128::from(ca.max(1)) {
            out.push(format!(
                "{}: failed ops rose from {bf}/{ba} to {cf}/{ca}",
                self.workload
            ));
        }
        out
    }
}

/// Pairs the runs and judges each workload. `Err` names a second run of
/// one workload, seed and side: a file that mixes sessions is refused,
/// not silently cut to its last run.
fn diff(runs: &[Run], bounds: &[Bound]) -> Result<Vec<WorkloadDiff>, String> {
    let mut by_seed: BTreeMap<(&str, u64), [Option<&Run>; 2]> = BTreeMap::new();
    for r in runs {
        let slot = &mut by_seed.entry((&r.workload, r.seed)).or_default()[usize::from(r.change)];
        if slot.replace(r).is_some() {
            let side = if r.change { "change" } else { "base" };
            return Err(format!(
                "{} seed {}: a second {side} run",
                r.workload, r.seed
            ));
        }
    }
    let mut by_workload: BTreeMap<&str, (Vec<[&Run; 2]>, Vec<u64>)> = BTreeMap::new();
    for ((workload, seed), sides) in by_seed {
        let (pairs, unpaired) = by_workload.entry(workload).or_default();
        match sides {
            [Some(base), Some(change)] => pairs.push([base, change]),
            _ => unpaired.push(seed),
        }
    }
    let diff_one = |(workload, (pairs, unpaired)): (&str, (Vec<[&Run; 2]>, Vec<u64>))| {
        let mut ops = [(0, 0); 2];
        for (side, run) in pairs.iter().flat_map(|p| p.iter().enumerate()) {
            ops[side] = (ops[side].0 + run.ops.0, ops[side].1 + run.ops.1);
        }
        let metrics = bounds.iter().filter_map(|bound| {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|[b, c]| Some((*b.metrics.get(&bound.0)?, *c.metrics.get(&bound.0)?)))
                .collect();
            (!values.is_empty()).then(|| judge(bound, &values))
        });
        WorkloadDiff {
            workload: workload.to_string(),
            pairs: pairs.len(),
            unpaired,
            ops,
            metrics: metrics.collect(),
        }
    };
    Ok(by_workload.into_iter().map(diff_one).collect())
}

/// Prints every workload's verdicts and returns the failures.
fn run(pairs: &Path) -> Result<Vec<String>, String> {
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let spec = workspace_root().join("BENCHMARK.json");
    let bounds = JsonValue::parse(&read(&spec)?)
        .map_err(|e| e.to_string())
        .and_then(|doc| bounds(&doc))
        .map_err(|e| format!("{}: {e}", spec.display()))?;
    let runs = read(pairs)?
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_run(l).map_err(|e| format!("{}:{}: {e}", pairs.display(), i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut failures = Vec::new();
    for w in diff(&runs, &bounds).map_err(|e| format!("{}: {e}", pairs.display()))? {
        println!("{}: {} pairs", w.workload, w.pairs);
        if !w.unpaired.is_empty() {
            println!("  unpaired seeds (not compared): {:?}", w.unpaired);
        }
        for m in &w.metrics {
            let r = &m.ratio;
            println!(
                "  {:<16} {:>14.4} -> {:<14.4} change/base {:.4}x [{:.4}, {:.4}], \
                 change better in {}/{}: {}",
                m.name, m.base, m.change, r.median, r.lo, r.hi, m.better, r.n, m.verdict
            );
        }
        let [(bf, ba), (cf, ca)] = w.ops;
        println!("  failed ops: {bf}/{ba} -> {cf}/{ca}");
        failures.extend(w.failures());
    }
    Ok(failures)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|pairs| run(&pairs)) {
        Ok(failures) if failures.is_empty() => {}
        Ok(failures) => {
            for f in &failures {
                eprintln!("FAIL {f}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../../../BENCHMARK.json");
    const FIXTURE: &str = include_str!("../../fixtures/pairs.jsonl");

    fn bench_bounds() -> Vec<Bound> {
        bounds(&JsonValue::parse(BENCHMARK).unwrap()).unwrap()
    }

    fn line(side: &str, workload: &str, seed: u64, throughput: f64, failed: u64) -> String {
        format!(
            "{{\"side\": \"{side}\", \"rev\": \"r\", \"workload\": \"{workload}\", \"seed\": {seed}, \
             \"result\": {{\"correct\": {}, \"attempted\": 10, \"failed\": {failed}, \
             \"metrics\": {{\"throughput\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}}}}}}}",
            failed == 0
        )
    }

    /// Ten pairs of `workload` whose base throughput is `base(seed)`
    /// and change throughput `change(seed)`.
    fn runs(workload: &str, base: impl Fn(u64) -> f64, change: impl Fn(u64) -> f64) -> Vec<Run> {
        (1..=10)
            .flat_map(|s| {
                [
                    line("base", workload, s, base(s), 0),
                    line("change", workload, s, change(s), 0),
                ]
            })
            .map(|l| parse_run(&l).unwrap())
            .collect()
    }

    fn verdict(runs: &[Run]) -> &'static str {
        let d = diff(runs, &bench_bounds()).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].metrics.len(), 1, "only throughput is present");
        d[0].metrics[0].verdict
    }

    #[test]
    fn clean_diff_has_no_regressions() {
        // One revision on both sides: noise of ±3% in either direction.
        let jitter = |s: u64| 100.0 + 3.0 * ((s * 7 % 5) as f64 - 2.0) / 2.0;
        let r = runs("w", jitter, |s| jitter(s + 1));
        assert_eq!(verdict(&r), "no change");
        assert!(diff(&r, &bench_bounds()).unwrap()[0].failures().is_empty());
    }

    #[test]
    fn regression_above_threshold_is_flagged() {
        let base = |s: u64| 100.0 + s as f64 / 10.0;
        assert_eq!(verdict(&runs("w", base, |s| 0.7 * base(s))), "regression");
        // Within the 25% bound the same shape is no change.
        assert_eq!(verdict(&runs("w", base, |s| 0.8 * base(s))), "no change");
    }

    #[test]
    fn asymmetric_rows_are_reported_not_failed() {
        let mut r = runs("w", |_| 100.0, |_| 100.0);
        r.push(parse_run(&line("base", "w", 11, 100.0, 0)).unwrap());
        r.push(parse_run(&line("change", "other", 1, 100.0, 0)).unwrap());
        let d = diff(&r, &bench_bounds()).unwrap();
        assert_eq!((d[0].workload.as_str(), d[0].pairs), ("other", 0));
        assert_eq!(d[0].unpaired, vec![1]);
        assert!(d[0].metrics.is_empty() && d[0].failures().is_empty());
        assert_eq!((d[1].pairs, d[1].unpaired.as_slice()), (10, &[11][..]));
        assert!(d[1].failures().is_empty());
    }

    #[test]
    fn a_second_run_of_a_side_is_refused() {
        let mut r = runs("w", |_| 100.0, |_| 100.0);
        r.push(parse_run(&line("change", "w", 3, 90.0, 0)).unwrap());
        let err = diff(&r, &bench_bounds()).err().unwrap();
        assert_eq!(err, "w seed 3: a second change run");
        // The same seed of another workload is its own pair.
        r.pop();
        r.push(parse_run(&line("change", "other", 3, 90.0, 0)).unwrap());
        assert!(diff(&r, &bench_bounds()).is_ok());
    }

    #[test]
    fn non_median_formats_are_rejected_by_diff() {
        let ok = line("base", "w", 1, 1.0, 0);
        assert!(parse_run(&ok).is_ok());
        assert!(parse_run(&ok.replace("\"base\"", "\"parent\"")).is_err());
        assert!(parse_run(&ok.replace("\"seed\"", "\"sd\"")).is_err());
        assert!(parse_run(&ok.replace("\"metrics\"", "\"rows\"")).is_err());
        // A bare result line, without the pair wrapper, is not a pair.
        assert!(
            parse_run("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}")
                .is_err()
        );
        assert!(parse_run("not json").is_err());
    }

    #[test]
    fn end_to_end_over_temp_files() {
        let dir = std::env::temp_dir().join(format!("bench_diff_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pairs = dir.join("pairs.jsonl");
        let lines: Vec<String> = (1..=10)
            .flat_map(|s| {
                [
                    line("base", "w", s, 100.0, 0),
                    line("change", "w", s, 100.0 + s as f64, 0),
                ]
            })
            .collect();
        std::fs::write(&pairs, lines.join("\n")).unwrap();
        let path = parse_args(&[pairs.display().to_string()]).unwrap();
        assert_eq!(run(&path).unwrap(), Vec::<String>::new());
        // Appending one seed again makes a second run of a side: refused.
        std::fs::write(&pairs, [&lines[..], &lines[..1]].concat().join("\n")).unwrap();
        let err = run(&path).unwrap_err();
        assert!(err.ends_with("w seed 1: a second base run"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arg_parsing_validates() {
        assert_eq!(
            parse_args(&["p.jsonl".into()]),
            Ok(PathBuf::from("p.jsonl"))
        );
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["a".into(), "b".into()]).is_err());
        assert!(parse_args(&["--bounds".into()]).is_err());
        assert!(parse_args(&["--bounds".into(), "b.json".into(), "p.jsonl".into()]).is_err());
        assert!(parse_args(&["--threshold".into(), "1.5".into(), "f".into()]).is_err());
    }

    /// The committed fixture: `gain` wins every pair by ~10%, `slower`
    /// loses 30% with a tight spread, `noisy` spreads wider than the
    /// bound on the base side, and `failing` fails more operations.
    #[test]
    fn committed_fixture_reads_gain_regression_unresolved_and_failed_ops() {
        let runs: Vec<Run> = FIXTURE.lines().map(|l| parse_run(l).unwrap()).collect();
        let d = diff(&runs, &bench_bounds()).unwrap();
        let names: Vec<&str> = d.iter().map(|w| w.workload.as_str()).collect();
        assert_eq!(names, ["failing", "gain", "noisy", "slower"]);
        let throughput = |w: &WorkloadDiff| {
            w.metrics
                .iter()
                .find(|m| m.name == "throughput")
                .unwrap()
                .verdict
        };
        assert_eq!(throughput(&d[1]), "gain");
        assert_eq!(throughput(&d[2]), "unresolved");
        assert_eq!(throughput(&d[3]), "regression");
        assert_eq!(throughput(&d[0]), "no change");
        assert!(d[0].failures()[0].contains("failed ops rose from 0/40 to 1/40"));
        assert!(d[1].failures().is_empty());
        // The gain's latency improves too; both metrics are judged.
        assert_eq!(d[1].metrics.len(), 2);
        assert_eq!(d[1].metrics[1].name, "latency_p50_ms");
        assert_eq!(d[1].metrics[1].verdict, "gain");
        assert_eq!(d[1].metrics[0].better, 10);
    }
}
