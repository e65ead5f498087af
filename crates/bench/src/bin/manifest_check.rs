//! Structural validator for the JSON artifacts a run leaves behind:
//! run manifests (`*.manifest.json`, schema v1 or v2), distribution
//! dumps (`--dist-out`, schema `banyan-obs/dist/v1`), drift reports
//! (`banyan report --json`, schema `banyan-obs/report/v1`),
//! `bench_serve` results (schema `banyan-bench/serve/v1`), `bench_flow`
//! results (schema `banyan-bench/flow/v1`), trace-event files
//! (`--trace-out`, chrome://tracing format), structured access logs
//! (`--access-log` JSONL, schema `banyan-serve/access/v1` per line),
//! and sampled message traces (`--msg-trace` JSONL, schema
//! `banyan-obs/msgtrace/v1`: monotone per-stage cycle chains, stage
//! counts matching the header, and the sum-of-stage-waits identity).
//!
//! Usage: `manifest_check FILE...` — each file is sniffed by its
//! `schema` key (or by a top-level `traceEvents` array) and checked for
//! schema version, required keys, finite numbers, and internal
//! consistency (pmf counts summing to the sketch count, the
//! injected = delivered + in-flight conservation ledger, …). Exits
//! nonzero on the first file that fails; `scripts/verify.sh` runs it
//! over `results/` and the smoke artifacts.

use banyan_obs::json::JsonValue;

/// Walks a parsed document and fails on any non-finite number. The
/// writer serializes NaN/inf as `null`, so a non-finite value can only
/// enter via an overflowing literal (e.g. `1e999`) — always a bug.
fn check_finite(v: &JsonValue, path: &str) -> Result<(), String> {
    match v {
        JsonValue::Num(n) if !n.is_finite() => Err(format!("{path}: non-finite number")),
        JsonValue::Arr(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| check_finite(item, &format!("{path}[{i}]"))),
        JsonValue::Obj(members) => members
            .iter()
            .try_for_each(|(k, item)| check_finite(item, &format!("{path}.{k}"))),
        _ => Ok(()),
    }
}

fn require<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    doc.get(key)
        .ok_or_else(|| format!("missing required key \"{key}\""))
}

/// One distribution sketch object: parallel `values`/`counts` arrays
/// (values strictly ascending integers, counts nonzero) whose counts sum
/// to `count`, with finite moments.
fn check_sketch(name: &str, sk: &JsonValue) -> Result<(), String> {
    let ctx = |msg: String| format!("sketch \"{name}\": {msg}");
    let count = require(sk, "count")?
        .as_u64()
        .ok_or_else(|| ctx("count is not a nonnegative integer".into()))?;
    for key in ["mean", "variance"] {
        require(sk, key)?
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| ctx(format!("{key} is not a finite number")))?;
    }
    let values = require(sk, "values")?
        .as_array()
        .ok_or_else(|| ctx("values is not an array".into()))?;
    let counts = require(sk, "counts")?
        .as_array()
        .ok_or_else(|| ctx("counts is not an array".into()))?;
    if values.len() != counts.len() {
        return Err(ctx(format!(
            "values/counts length mismatch: {} vs {}",
            values.len(),
            counts.len()
        )));
    }
    let mut prev: Option<u64> = None;
    for (i, v) in values.iter().enumerate() {
        let v = v
            .as_u64()
            .ok_or_else(|| ctx(format!("values[{i}] is not a nonnegative integer")))?;
        if prev.is_some_and(|p| p >= v) {
            return Err(ctx(format!("values[{i}] {v} is not above values[{}]", i - 1)));
        }
        prev = Some(v);
    }
    let mut sum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        let c = c
            .as_u64()
            .ok_or_else(|| ctx(format!("counts[{i}] is not a nonnegative integer")))?;
        if c == 0 {
            return Err(ctx(format!(
                "counts[{i}] is zero (sparse pmf must omit it)"
            )));
        }
        sum += c;
    }
    if sum != count {
        return Err(ctx(format!("pmf counts sum to {sum}, count says {count}")));
    }
    Ok(())
}

/// Checks every sketch under a `distributions` object.
fn check_distributions(doc: &JsonValue) -> Result<usize, String> {
    let dists = require(doc, "distributions")?
        .as_object()
        .ok_or("distributions is not an object")?;
    for (name, sk) in dists {
        check_sketch(name, sk)?;
    }
    Ok(dists.len())
}

/// A run manifest, v1 or v2. All v1 keys are required in both; v2 adds
/// `span_quantiles` and `distributions`.
fn check_manifest(doc: &JsonValue, schema: &str) -> Result<String, String> {
    let v2 = match schema {
        "banyan-obs/manifest/v1" => false,
        "banyan-obs/manifest/v2" => true,
        other => return Err(format!("unknown manifest schema \"{other}\"")),
    };
    for key in [
        "name",
        "created_unix",
        "host_parallelism",
        "config",
        "seeds",
        "phases",
        "artifacts",
        "spans",
        "metrics",
        "runs",
    ] {
        require(doc, key)?;
    }
    require(doc, "name")?
        .as_str()
        .ok_or("name is not a string")?;
    require(doc, "created_unix")?
        .as_u64()
        .ok_or("created_unix is not an integer")?;
    let n_dists = if v2 {
        require(doc, "span_quantiles")?
            .as_object()
            .ok_or("span_quantiles is not an object")?;
        check_distributions(doc)?
    } else {
        0
    };
    // Conservation ledger: whenever the network counters are present,
    // injected = delivered + in-flight must balance exactly.
    if let Some(metrics) = doc.get("metrics") {
        let counter = |name: &str| {
            metrics
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_u64)
        };
        if let (Some(injected), Some(delivered), Some(in_flight)) = (
            counter("net.injected_total"),
            counter("net.delivered_total"),
            counter("net.in_flight_at_end"),
        ) {
            if injected != delivered + in_flight {
                return Err(format!(
                    "conservation ledger broken: injected {injected} != \
                     delivered {delivered} + in-flight {in_flight}"
                ));
            }
        }
        // Serve ledgers: every request is answered exactly once
        // (responses = parsed requests + parse errors), and every
        // validated query either hit or missed the cache. Absent
        // counters read as 0 — the registry only materializes counters
        // that were incremented.
        if let Some(responses) = counter("serve.http.responses_total") {
            let requests = counter("serve.http.requests_total").unwrap_or(0);
            let parse_errors = counter("serve.http.parse_errors_total").unwrap_or(0);
            if responses != requests + parse_errors {
                return Err(format!(
                    "serve response ledger broken: responses {responses} != \
                     requests {requests} + parse errors {parse_errors}"
                ));
            }
        }
        let query_validated = counter("serve.query.validated_total");
        let flow_validated = counter("serve.flow.validated_total");
        if query_validated.is_some() || flow_validated.is_some() {
            // The answer cache is shared between /query and /v1/flow,
            // so hit + miss traffic balances against the *sum* of the
            // two validated counters.
            let validated = query_validated.unwrap_or(0) + flow_validated.unwrap_or(0);
            let hits = counter("serve.cache.hits").unwrap_or(0);
            let misses = counter("serve.cache.misses").unwrap_or(0);
            if validated != hits + misses {
                return Err(format!(
                    "serve cache ledger broken: validated {validated} != \
                     hits {hits} + misses {misses}"
                ));
            }
        }
        // Sweep-engine provenance: `net.sweep_runs` counts replications
        // that went through the stage sweep, so it can never exceed the
        // total replication count.
        if let Some(sweep_runs) = counter("net.sweep_runs") {
            let runs = counter("net.runs").ok_or(format!(
                "net.sweep_runs {sweep_runs} present without net.runs"
            ))?;
            if sweep_runs > runs {
                return Err(format!(
                    "sweep ledger broken: net.sweep_runs {sweep_runs} > net.runs {runs}"
                ));
            }
        }
        // Operations-plane gauges. The drift flag is boolean, and
        // every published rolling window must carry its full gauge set
        // with isotonic quantiles bounded by the windowed max (the
        // rolling estimators repair crossings before publishing, so a
        // violation here means the publisher mixed up windows).
        let gauge = |name: &str| {
            metrics
                .get("gauges")
                .and_then(|g| g.get(name))
                .and_then(|g| g.get("value"))
                .and_then(JsonValue::as_u64)
        };
        if let Some(flag) = gauge("serve.drift.degraded") {
            if flag > 1 {
                return Err(format!("serve.drift.degraded {flag} is not a 0/1 flag"));
            }
        }
        if let Some(gauges) = metrics.get("gauges").and_then(JsonValue::as_object) {
            for (name, _) in gauges {
                let Some(prefix) = name
                    .strip_suffix(".count")
                    .filter(|p| p.starts_with("serve.rolling."))
                else {
                    continue;
                };
                let field = |suffix: &str| {
                    gauge(&format!("{prefix}.{suffix}")).ok_or_else(|| {
                        format!("rolling window \"{prefix}\" missing gauge .{suffix}")
                    })
                };
                let (p50, p90, p99, p999, max) = (
                    field("p50_us")?,
                    field("p90_us")?,
                    field("p99_us")?,
                    field("p999_us")?,
                    field("max_us")?,
                );
                if !(p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= max) {
                    return Err(format!(
                        "rolling window \"{prefix}\" quantiles not monotone: \
                         p50 {p50} p90 {p90} p99 {p99} p999 {p999} max {max}"
                    ));
                }
            }
        }
    }
    Ok(format!(
        "manifest {} ({n_dists} distributions)",
        if v2 { "v2" } else { "v1" }
    ))
}

/// The `drift` array shared by `--dist-out` dumps and `banyan report
/// --json`: named KS reports with bounded statistics and finite means.
fn check_drift_array(doc: &JsonValue) -> Result<usize, String> {
    let drift = require(doc, "drift")?
        .as_array()
        .ok_or("drift is not an array")?;
    for (i, r) in drift.iter().enumerate() {
        let ctx = |msg: &str| format!("drift[{i}]: {msg}");
        require(r, "name")?
            .as_str()
            .ok_or_else(|| ctx("name is not a string"))?;
        require(r, "count")?
            .as_u64()
            .ok_or_else(|| ctx("count is not an integer"))?;
        let ks = require(r, "ks")?
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| ctx("ks is not a finite number"))?;
        if !(0.0..=1.0).contains(&ks) {
            return Err(ctx(&format!("ks {ks} outside [0, 1]")));
        }
        for key in ["observed_mean", "analytic_mean"] {
            require(r, key)?
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| ctx(&format!("{key} is not a finite number")))?;
        }
    }
    Ok(drift.len())
}

/// A `--dist-out` dump: per-stage sketches plus drift reports.
fn check_dist(doc: &JsonValue) -> Result<String, String> {
    let n = check_distributions(doc)?;
    if n == 0 {
        return Err("distributions object is empty".into());
    }
    let drift = check_drift_array(doc)?;
    Ok(format!("dist v1 ({n} distributions, {drift} drift reports)"))
}

/// A `banyan report --json` drift table: the run's identifying knobs
/// plus a nonempty drift array.
fn check_report(doc: &JsonValue) -> Result<String, String> {
    for key in ["k", "stages", "cycles", "seed", "reps", "delivered"] {
        require(doc, key)?
            .as_u64()
            .ok_or_else(|| format!("{key} is not a nonnegative integer"))?;
    }
    require(doc, "p")?
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or("p is not a finite number")?;
    let drift = check_drift_array(doc)?;
    if drift == 0 {
        return Err("drift array is empty".into());
    }
    Ok(format!("report v1 ({drift} drift reports)"))
}

/// A sampled per-message lifecycle trace (`--msg-trace` JSONL). The
/// library parser enforces the format's contracts — monotone cycle
/// chains `enter[j] ≤ start[j] < enter[j+1]`, per-record stage counts
/// matching the header, `total = Σ wait[j]`, ascending `(rep, ord)` —
/// so validation is exactly a parse.
fn check_msgtrace(text: &str) -> Result<String, String> {
    let parsed = banyan_obs::msgtrace::parse_trace(text)?;
    let stages = parsed
        .stages
        .map_or("variable".to_string(), |s| s.to_string());
    Ok(format!(
        "msgtrace v1 ({} records, stages {stages}, rate {})",
        parsed.records.len(),
        parsed.rate
    ))
}

/// A `bench_serve` result file: per-phase rows with measured
/// throughput, latency quantiles, and cache hit rates.
fn check_serve_bench(doc: &JsonValue) -> Result<String, String> {
    require(doc, "server")?
        .as_object()
        .ok_or("server is not an object")?;
    let rows = require(doc, "rows")?
        .as_array()
        .ok_or("rows is not an array")?;
    if rows.is_empty() {
        return Err("rows is empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let name = require(row, "name")?
            .as_str()
            .ok_or_else(|| format!("rows[{i}].name is not a string"))?
            .to_string();
        let ctx = |msg: String| format!("row \"{name}\": {msg}");
        let num = |key: &str| -> Result<f64, String> {
            require(row, key)
                .map_err(&ctx)?
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| ctx(format!("{key} is not a finite number")))
        };
        let requests = require(row, "requests")
            .map_err(&ctx)?
            .as_u64()
            .ok_or_else(|| ctx("requests is not an integer".into()))?;
        if requests == 0 {
            return Err(ctx("requests is zero".into()));
        }
        if require(row, "errors").map_err(&ctx)?.as_u64() != Some(0) {
            return Err(ctx("errors is nonzero (or not an integer)".into()));
        }
        if num("qps")? <= 0.0 {
            return Err(ctx("qps is not positive".into()));
        }
        let (p50, p90, p99) = (num("p50_us")?, num("p90_us")?, num("p99_us")?);
        if !(0.0 < p50 && p50 <= p90 && p90 <= p99) {
            return Err(ctx(format!(
                "latency quantiles not monotone: p50 {p50} p90 {p90} p99 {p99}"
            )));
        }
        let hit_rate = num("hit_rate")?;
        if !(0.0..=1.0).contains(&hit_rate) {
            return Err(ctx(format!("hit_rate {hit_rate} outside [0, 1]")));
        }
        let hits = require(row, "cache_hits")
            .map_err(&ctx)?
            .as_u64()
            .ok_or_else(|| ctx("cache_hits is not an integer".into()))?;
        let misses = require(row, "cache_misses")
            .map_err(&ctx)?
            .as_u64()
            .ok_or_else(|| ctx("cache_misses is not an integer".into()))?;
        if hits + misses > requests {
            return Err(ctx(format!(
                "cache traffic {} exceeds requests {requests}",
                hits + misses
            )));
        }
    }
    Ok(format!("serve bench v1 ({} rows)", rows.len()))
}

/// A `bench_flow` result file: per-topology analysis timings plus a
/// flow-vs-simulation validation block with a bounded KS statistic.
fn check_flow_bench(doc: &JsonValue) -> Result<String, String> {
    let rows = require(doc, "rows")?
        .as_array()
        .ok_or("rows is not an array")?;
    if rows.is_empty() {
        return Err("rows is empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let name = require(row, "name")?
            .as_str()
            .ok_or_else(|| format!("rows[{i}].name is not a string"))?
            .to_string();
        let ctx = |msg: String| format!("row \"{name}\": {msg}");
        let num = |key: &str| -> Result<f64, String> {
            require(row, key)
                .map_err(&ctx)?
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| ctx(format!("{key} is not a finite number")))
        };
        for key in ["nodes", "links", "flows"] {
            let v = require(row, key)
                .map_err(&ctx)?
                .as_u64()
                .ok_or_else(|| ctx(format!("{key} is not an integer")))?;
            if v == 0 {
                return Err(ctx(format!("{key} is zero")));
            }
        }
        if num("wall_secs")? < 0.0 {
            return Err(ctx("wall_secs is negative".into()));
        }
        if num("flows_per_sec")? <= 0.0 {
            return Err(ctx("flows_per_sec is not positive".into()));
        }
        if num("max_mean_wait")? < 0.0 {
            return Err(ctx("max_mean_wait is negative".into()));
        }
    }
    let validation = require(doc, "validation")?;
    let max_ks = require(validation, "max_ks")?
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or("validation.max_ks is not a finite number")?;
    if !(0.0..=1.0).contains(&max_ks) {
        return Err(format!("validation.max_ks {max_ks} outside [0, 1]"));
    }
    let messages = require(validation, "sim_messages")?
        .as_u64()
        .ok_or("validation.sim_messages is not an integer")?;
    if messages == 0 {
        return Err("validation.sim_messages is zero".into());
    }
    Ok(format!(
        "flow bench v1 ({} rows, validation max_ks {max_ks})",
        rows.len()
    ))
}

/// A chrome://tracing file: `traceEvents`, each with `ph`/`name`/
/// `pid`/`tid`, and `ts`/`dur` on complete (`X`) events.
fn check_trace(doc: &JsonValue) -> Result<String, String> {
    let events = require(doc, "traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ph = require(e, "ph")?
            .as_str()
            .ok_or_else(|| ctx("ph is not a string"))?;
        require(e, "name")?
            .as_str()
            .ok_or_else(|| ctx("name is not a string"))?;
        require(e, "pid")?
            .as_u64()
            .ok_or_else(|| ctx("pid is not an integer"))?;
        match ph {
            "X" => {
                require(e, "tid")?
                    .as_u64()
                    .ok_or_else(|| ctx("tid is not an integer"))?;
                require(e, "ts")?
                    .as_u64()
                    .ok_or_else(|| ctx("ts is not an integer"))?;
                require(e, "dur")?
                    .as_u64()
                    .ok_or_else(|| ctx("dur is not an integer"))?;
                complete += 1;
            }
            // Metadata: process_name carries no tid, thread_name does.
            "M" => {}
            other => return Err(ctx(&format!("unexpected event phase \"{other}\""))),
        }
    }
    Ok(format!(
        "trace ({} events, {complete} complete)",
        events.len()
    ))
}

/// Route labels `banyan serve` emits, mirrored from `src/serve/ops.rs`
/// — an access-log line naming anything else is malformed.
const ACCESS_ROUTES: [&str; 9] = [
    "query", "flow", "batch", "metrics", "statusz", "healthz", "readyz", "shutdown", "other",
];

/// A structured access log: JSONL, one `banyan-serve/access/v1` object
/// per line with the full field set — string fields string-typed,
/// counters nonnegative integers, status a plausible HTTP code, and
/// the route drawn from the daemon's route label set.
fn check_access_log(text: &str) -> Result<String, String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let ctx = |msg: String| format!("line {}: {msg}", i + 1);
        let doc = JsonValue::parse(line).map_err(|e| ctx(format!("invalid JSON: {e}")))?;
        check_finite(&doc, "$").map_err(&ctx)?;
        if require(&doc, "schema").map_err(&ctx)?.as_str() != Some("banyan-serve/access/v1")
        {
            return Err(ctx("schema is not \"banyan-serve/access/v1\"".into()));
        }
        let route = require(&doc, "route")
            .map_err(&ctx)?
            .as_str()
            .ok_or_else(|| ctx("route is not a string".into()))?;
        if !ACCESS_ROUTES.contains(&route) {
            return Err(ctx(format!("unknown route \"{route}\"")));
        }
        for key in ["method", "path", "cache", "source"] {
            require(&doc, key)
                .map_err(&ctx)?
                .as_str()
                .ok_or_else(|| ctx(format!("{key} is not a string")))?;
        }
        for key in ["ts_ms", "bytes", "us", "ks_ppm"] {
            require(&doc, key)
                .map_err(&ctx)?
                .as_u64()
                .ok_or_else(|| ctx(format!("{key} is not a nonnegative integer")))?;
        }
        let status = require(&doc, "status")
            .map_err(&ctx)?
            .as_u64()
            .ok_or_else(|| ctx("status is not an integer".into()))?;
        if !(100..=599).contains(&status) {
            return Err(ctx(format!("status {status} is not an HTTP status code")));
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("access log has no lines".into());
    }
    Ok(format!("access log v1 ({lines} lines)"))
}

/// Dispatches one file by its schema (or trace shape).
fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    // Access logs are JSONL — many documents, one per line — so they
    // are sniffed by their first line before the whole-file parse.
    if text
        .lines()
        .next()
        .is_some_and(|l| l.contains("\"banyan-serve/access/v1\""))
    {
        return check_access_log(&text);
    }
    // Message traces are JSONL too: sniff the header line's schema.
    if text
        .lines()
        .next()
        .is_some_and(|l| l.contains("\"banyan-obs/msgtrace/v1\""))
    {
        return check_msgtrace(&text);
    }
    let doc = JsonValue::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    check_finite(&doc, "$")?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s.starts_with("banyan-obs/manifest/") => check_manifest(&doc, s),
        Some("banyan-obs/dist/v1") => check_dist(&doc),
        Some("banyan-obs/report/v1") => check_report(&doc),
        Some("banyan-bench/serve/v1") => check_serve_bench(&doc),
        Some("banyan-bench/flow/v1") => check_flow_bench(&doc),
        Some(other) => Err(format!("unknown schema \"{other}\"")),
        None if doc.get("traceEvents").is_some() => check_trace(&doc),
        None => Err("no schema key and no traceEvents array".into()),
    }
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: manifest_check FILE...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &files {
        match check_file(path) {
            Ok(summary) => println!("{path}: ok — {summary}"),
            Err(msg) => {
                eprintln!("{path}: FAIL — {msg}");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(values: &str, counts: &str) -> Result<(), String> {
        let doc = JsonValue::parse(&format!(
            "{{\"kind\": \"exact\", \"count\": 6, \"mean\": 1, \"variance\": 1, \
             \"values\": {values}, \"counts\": {counts}}}"
        ))
        .expect("test JSON parses");
        check_sketch("s", &doc)
    }

    #[test]
    fn sketch_values_must_be_strictly_ascending_integers() {
        assert!(sketch("[0,2,7]", "[1,2,3]").is_ok());
        for bad in ["[0,7,2]", "[0,2,2]", "[0,1.5,2]", "[-1,2,7]"] {
            assert!(sketch(bad, "[1,2,3]").is_err(), "{bad} accepted");
        }
        assert!(sketch("[0,2,7]", "[1,0,5]").is_err(), "zero count accepted");
    }
}
