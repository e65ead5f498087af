//! Smoke tests for the `banyan` CLI binary.

use std::process::Command;

fn banyan(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_banyan"))
        .args(args)
        .output()
        .expect("spawn banyan binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn first_stage_reports_exact_values() {
    let (ok, stdout, _) = banyan(&["first-stage", "--k", "2", "--p", "0.5"]);
    assert!(ok);
    assert!(stdout.contains("E(w)   = 0.250000"), "{stdout}");
    assert!(stdout.contains("Var(w) = 0.250000"));
    assert!(stdout.contains("P(idle)"));
}

#[test]
fn first_stage_supports_geometric_and_mix() {
    let (ok, stdout, _) = banyan(&["first-stage", "--p", "0.3", "--geometric-mu", "0.75"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("rho = 0.4"));
    let (ok, stdout, _) = banyan(&["first-stage", "--p", "0.05", "--mix", "4:0.5,8:0.5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("rho = 0.3"));
}

#[test]
fn total_command_prints_model() {
    let (ok, stdout, _) = banyan(&["total", "--stages", "12", "--p", "0.5", "--quantiles"]);
    assert!(ok);
    assert!(stdout.contains("E(total waiting)   = 3.516"), "{stdout}");
    assert!(stdout.contains("a = 0.1200, b = 0.4000"));
    assert!(stdout.contains("delay p999"));
}

/// At a load of 1e-300 the moment-matched gamma's `mean²/var`
/// underflows to 0: the fit must degrade to a point mass at 0, not
/// panic in `Gamma::new`.
#[test]
fn tiny_load_gamma_fit_is_a_point_mass_not_a_panic() {
    let (ok, stdout, stderr) = banyan(&["flow", "--p", "1e-300", "--json"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(r#""p999": 0}"#), "{stdout}");
    let (ok, stdout, stderr) = banyan(&["total", "--k", "2", "--stages", "3", "--p", "1e-300"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("E(total delay)     = 3.000000"), "{stdout}");
}

/// At a load of 1e-300 the sampled waiting-time transform is NaN, and
/// `wait_quantile` used to double its pmf window until it panicked.
/// Markov's inequality puts every quantile at 0.
#[test]
fn tiny_load_first_stage_quantile_is_zero_not_a_panic() {
    let (ok, stdout, stderr) = banyan(&["first-stage", "--p", "1e-300"]);
    assert!(ok, "{stderr}");
    for level in ["p500", "p900", "p990", "p999"] {
        assert!(stdout.contains(&format!("wait {level}  = 0\n")), "{stdout}");
    }
}

#[test]
fn simulate_command_runs_small_network() {
    let (ok, stdout, _) = banyan(&[
        "simulate", "--stages", "3", "--p", "0.4", "--cycles", "2000", "--seed", "7",
    ]);
    assert!(ok);
    assert!(stdout.contains("delivered"));
    assert!(stdout.contains("stage  3"));
    assert!(stdout.contains("total waiting"));
}

#[test]
fn pmf_command_prints_distribution() {
    let (ok, stdout, _) = banyan(&["pmf", "--p", "0.5", "--len", "8"]);
    assert!(ok);
    assert!(stdout.lines().count() >= 9);
    assert!(stdout.contains("P(w)"));
}

#[test]
fn unknown_flag_is_rejected_with_suggestion() {
    // Regression: `--stage` (for `--stages`) used to be silently ignored
    // and the run proceeded with the default stage count.
    let (ok, _, stderr) = banyan(&["simulate", "--stage", "3", "--cycles", "500"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --stage"), "{stderr}");
    assert!(stderr.contains("did you mean --stages?"), "{stderr}");
    // A flag valid for one command is still unknown for another.
    let (ok, _, stderr) = banyan(&["pmf", "--cycles", "500"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --cycles"), "{stderr}");
}

#[test]
fn progress_flag_leaves_stdout_byte_identical() {
    let args = ["simulate", "--stages", "3", "--p", "0.4", "--cycles", "2000", "--seed", "7"];
    let (ok, plain_stdout, plain_stderr) = banyan(&args);
    assert!(ok);
    let mut with_progress: Vec<&str> = args.to_vec();
    with_progress.push("--progress");
    let (ok, progress_stdout, progress_stderr) = banyan(&with_progress);
    assert!(ok);
    // The heartbeat goes to stderr only; stdout stays machine-parseable
    // and byte-identical.
    assert_eq!(progress_stdout, plain_stdout);
    assert!(progress_stderr.len() > plain_stderr.len(), "{progress_stderr:?}");
    assert!(progress_stderr.contains("banyan"), "{progress_stderr:?}");
}

#[test]
fn telemetry_flag_writes_manifest_and_keeps_results_identical() {
    let dir = std::env::temp_dir().join(format!("banyan_cli_test_{}", std::process::id()));
    let path = dir.join("run.manifest.json");
    let args = ["simulate", "--stages", "3", "--p", "0.4", "--cycles", "2000", "--reps", "2"];
    let (ok, plain_stdout, _) = banyan(&args);
    assert!(ok);
    let mut with_tel: Vec<&str> = args.to_vec();
    let path_str = path.to_str().unwrap().to_string();
    with_tel.extend(["--telemetry", &path_str]);
    let (ok, tel_stdout, stderr) = banyan(&with_tel);
    assert!(ok, "{stderr}");
    assert_eq!(tel_stdout, plain_stdout, "telemetry must not perturb results");
    assert!(stderr.contains("telemetry manifest written"), "{stderr}");
    let manifest = std::fs::read_to_string(&path).unwrap();
    for key in [
        "\"schema\"",
        "\"banyan-obs/manifest/v2\"",
        "\"net.injected_total\"",
        "\"net.delivered_total\"",
        "\"net/measure\"",
        "\"reps\": 2",
        "\"distributions\"",
        "\"span_quantiles\"",
        "\"drift\"",
    ] {
        assert!(manifest.contains(key), "missing {key} in manifest");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dist_out_writes_consistent_sketches_and_drift() {
    use banyan_repro::obs::json::JsonValue;
    let dir = std::env::temp_dir().join(format!("banyan_cli_dist_{}", std::process::id()));
    let path = dir.join("d.json");
    let path_str = path.to_str().unwrap().to_string();
    let args = [
        "simulate", "--stages", "3", "--p", "0.5", "--cycles", "2000", "--seed", "11",
        "--dist-out", &path_str,
    ];
    let (ok, stdout, stderr) = banyan(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("distribution dump written"), "{stderr}");
    let delivered: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("delivered ")?.split(' ').next()?.parse().ok())
        .expect("delivered line");
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("banyan-obs/dist/v1")
    );
    // Each per-stage pmf carries exactly one count per delivered message.
    let dists = doc.get("distributions").unwrap().as_object().unwrap();
    for stage in ["net.wait.stage01", "net.wait.stage02", "net.wait.stage03", "net.wait.total"] {
        let sk = dists
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing sketch {stage}"));
        let count = sk.get("count").unwrap().as_u64().unwrap();
        assert_eq!(count, delivered, "{stage}");
        let counts = sk.get("counts").unwrap().as_array().unwrap();
        let sum: u64 = counts.iter().map(|c| c.as_u64().unwrap()).sum();
        assert_eq!(sum, count, "{stage}: pmf mass");
        for label in ["p50", "p90", "p99", "p999"] {
            assert!(sk.get("quantiles").unwrap().get(label).is_some(), "{stage}: {label}");
        }
    }
    // Drift reports cover every stage plus the total, with KS in [0, 1].
    let drift = doc.get("drift").unwrap().as_array().unwrap();
    assert_eq!(drift.len(), 4, "3 stages + total");
    for r in drift {
        let ks = r.get("ks").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&ks), "ks = {ks}");
    }
    // Stage 1 is simulated against the exact Theorem 1 law: KS is tiny.
    let ks1 = drift[0].get("ks").unwrap().as_f64().unwrap();
    assert!(ks1 < 0.02, "stage-1 KS drift vs Theorem 1: {ks1}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_writes_loadable_trace_events() {
    use banyan_repro::obs::json::JsonValue;
    let dir = std::env::temp_dir().join(format!("banyan_cli_trace_{}", std::process::id()));
    let path = dir.join("tr.json");
    std::fs::create_dir_all(&dir).unwrap();
    let path_str = path.to_str().unwrap().to_string();
    let (ok, _, stderr) = banyan(&[
        "simulate", "--stages", "3", "--p", "0.4", "--cycles", "1500", "--trace-out", &path_str,
    ]);
    assert!(ok, "{stderr}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    // Structure Perfetto accepts: metadata names the process, complete
    // events carry name/cat/ts/dur/pid/tid.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(JsonValue::as_str) == Some("M")
            && e.get("name").and_then(JsonValue::as_str) == Some("process_name")
    }));
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    assert!(!complete.is_empty());
    for e in &complete {
        assert!(e.get("name").and_then(JsonValue::as_str).is_some());
        assert!(e.get("ts").and_then(JsonValue::as_u64).is_some());
        assert!(e.get("dur").and_then(JsonValue::as_u64).is_some());
        assert!(e.get("pid").and_then(JsonValue::as_u64).is_some());
        assert!(e.get("tid").and_then(JsonValue::as_u64).is_some());
    }
    // The simulator phases appear as named spans.
    assert!(complete
        .iter()
        .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("net/measure")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observability_flags_keep_stdout_byte_identical() {
    // Acceptance shape from the issue: --reps 8 with all three artifact
    // flags produces the same stdout as a bare run, plus three files.
    let dir = std::env::temp_dir().join(format!("banyan_cli_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let t = dir.join("t.json");
    let d = dir.join("d.json");
    let tr = dir.join("tr.json");
    let (t_s, d_s, tr_s) = (
        t.to_str().unwrap().to_string(),
        d.to_str().unwrap().to_string(),
        tr.to_str().unwrap().to_string(),
    );
    let base = ["simulate", "--stages", "3", "--p", "0.5", "--cycles", "1000", "--reps", "8"];
    let (ok, plain_stdout, _) = banyan(&base);
    assert!(ok);
    let mut full: Vec<&str> = base.to_vec();
    full.extend(["--telemetry", &t_s, "--dist-out", &d_s, "--trace-out", &tr_s]);
    let (ok, obs_stdout, stderr) = banyan(&full);
    assert!(ok, "{stderr}");
    assert_eq!(obs_stdout, plain_stdout, "observability must not perturb results");
    for p in [&t, &d, &tr] {
        assert!(p.exists(), "missing artifact {}", p.display());
    }
    let manifest = std::fs::read_to_string(&t).unwrap();
    assert!(manifest.contains("\"banyan-obs/manifest/v2\""));
    assert!(manifest.contains("net.drift.ks_ppm.net.wait.stage01"), "drift gauge missing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_refuses_a_wait_beyond_the_table_limit() {
    // A well-formed record whose one wait would make the dense pmf
    // allocate 2^32 bins (32 GiB): refused up front, naming the record.
    let dir = std::env::temp_dir().join(format!("banyan_cli_huge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.jsonl");
    let w = u32::MAX;
    let start = 10 + u64::from(w);
    std::fs::write(
        &path,
        format!(
            "{{\"schema\": \"banyan-obs/msgtrace/v1\", \"kind\": \"header\", \"name\": \"t\", \
             \"stages\": 1, \"seed\": 1, \"reps\": 1, \"rate\": 1}}\n\
             {{\"kind\": \"msg\", \"rep\": 0, \"ord\": 7, \"inject\": 10, \"digits\": [], \
             \"enter\": [10], \"start\": [{start}], \"wait\": [{w}], \"total\": {w}}}\n"
        ),
    )
    .unwrap();
    let (ok, stdout, stderr) = banyan(&["trace", "--file", path.to_str().unwrap()]);
    assert!(!ok, "must refuse: {stdout}");
    assert!(stderr.contains("rep 0 msg 7: total wait 4294967295 exceeds"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_command_prints_drift_table() {
    let (ok, stdout, stderr) = banyan(&[
        "report", "--stages", "3", "--p", "0.5", "--cycles", "2000", "--seed", "3",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("observed vs analytic"), "{stdout}");
    for needle in ["net.wait.stage01", "net.wait.stage03", "net.wait.total", "KS", "p999"] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn simulate_reps_merge_more_messages() {
    let base = ["simulate", "--stages", "3", "--p", "0.4", "--cycles", "1500"];
    let (ok, one, _) = banyan(&base);
    assert!(ok);
    let mut rep_args: Vec<&str> = base.to_vec();
    rep_args.extend(["--reps", "3", "--threads", "2"]);
    let (ok, three, _) = banyan(&rep_args);
    assert!(ok);
    let delivered = |s: &str| -> u64 {
        s.lines()
            .find_map(|l| l.strip_prefix("delivered ")?.split(' ').next()?.parse().ok())
            .expect("delivered line")
    };
    assert!(delivered(&three) > 2 * delivered(&one));
}

#[test]
fn sweep_and_scalar_engines_print_identical_results() {
    let base = ["simulate", "--stages", "3", "--p", "0.4", "--cycles", "1500", "--reps", "2"];
    let run = |engine: &str| {
        let mut args = base.to_vec();
        args.extend(["--engine", engine]);
        let (ok, stdout, stderr) = banyan(&args);
        assert!(ok, "--engine {engine}: {stderr}");
        stdout
    };
    let scalar = run("scalar");
    assert_eq!(run("sweep"), scalar);
    assert_eq!(run("auto"), scalar);
    let (ok, _, stderr) = banyan(&["simulate", "--engine", "lanes", "--cycles", "500"]);
    assert!(!ok);
    assert!(stderr.contains("--engine must be auto, scalar, or sweep"), "{stderr}");
}

#[test]
fn forced_sweep_refuses_wide_switches_without_panicking() {
    let (ok, _, stderr) = banyan(&[
        "simulate", "--k", "17", "--stages", "2", "--p", "0.2", "--cycles", "500", "--engine",
        "sweep",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--engine sweep cannot run this configuration"), "{stderr}");
    assert!(stderr.contains("k ≤ 16"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn forced_sweep_refuses_finite_buffers_without_panicking() {
    let (ok, stdout, stderr) = banyan(&[
        "simulate", "--stages", "3", "--p", "0.4", "--cycles", "500", "--capacity", "4",
        "--engine", "sweep",
    ]);
    assert!(!ok, "a finite-buffer run must not fall back to another engine: {stdout}");
    assert!(stderr.contains("infinite buffers"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A network the simulator cannot build is refused with exit 1 and the
/// failed requirement, not a panic (exit 101).
#[test]
fn simulate_and_report_refuse_networks_the_simulator_cannot_build() {
    for (args, needle) in [
        (&["simulate", "--stages", "17", "--cycles", "500"][..], "at most 16 stages"),
        (&["simulate", "--k", "16", "--stages", "7", "--cycles", "500"], "wire limit"),
        (&["simulate", "--k", "4", "--stages", "12", "--cycles", "500"], "256 MiB"),
        (&["report", "--stages", "17", "--cycles", "500"], "at most 16 stages"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_banyan"))
            .args(args)
            .output()
            .expect("spawn banyan binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn equals_form_flags_match_space_form() {
    // Regression: `--k=4` used to be stored as a flag literally named
    // "k=4", so the run silently fell back to the default k.
    let (ok, spaced, _) = banyan(&["first-stage", "--k", "4", "--p", "0.5"]);
    assert!(ok);
    let (ok, equals, stderr) = banyan(&["first-stage", "--k=4", "--p=0.5"]);
    assert!(ok, "{stderr}");
    assert_eq!(equals, spaced, "--k=4 must behave exactly like --k 4");
    let (_, default_k, _) = banyan(&["first-stage", "--p", "0.5"]);
    assert_ne!(equals, default_k, "--k=4 silently ignored");
}

#[test]
fn duplicate_flags_are_rejected() {
    // Regression: a repeated flag used to silently take the last value.
    let (ok, _, stderr) = banyan(&["first-stage", "--p", "0.2", "--p", "0.7"]);
    assert!(!ok);
    assert!(stderr.contains("duplicate flag --p"), "{stderr}");
    // Mixed forms count as duplicates too.
    let (ok, _, stderr) = banyan(&["total", "--stages=4", "--stages", "8"]);
    assert!(!ok);
    assert!(stderr.contains("duplicate flag --stages"), "{stderr}");
}

#[test]
fn invalid_service_mixes_are_rejected() {
    // Regression: mixes with probabilities outside [0, 1] or totals far
    // from 1 used to be accepted and fed garbage into the model.
    let (ok, _, stderr) = banyan(&["first-stage", "--p", "0.1", "--mix", "4:1.5,8:-0.5"]);
    assert!(!ok);
    assert!(stderr.contains("must be a probability in [0, 1]"), "{stderr}");
    let (ok, _, stderr) = banyan(&["first-stage", "--p", "0.1", "--mix", "4:0.3,8:0.3"]);
    assert!(!ok);
    assert!(stderr.contains("must sum to 1"), "{stderr}");
}

#[test]
fn geometric_mu_outside_unit_interval_is_rejected() {
    // Regression: --geometric-mu 1.5 used to produce a negative mean
    // service time instead of an error.
    for bad in ["0", "1.5", "-0.25"] {
        let (ok, _, stderr) = banyan(&["first-stage", "--p", "0.3", "--geometric-mu", bad]);
        assert!(!ok, "mu={bad} accepted");
        assert!(stderr.contains("--geometric-mu must be in (0, 1]"), "{stderr}");
    }
}

#[test]
fn unstable_load_is_an_error() {
    let (ok, _, stderr) = banyan(&["total", "--p", "0.5", "--m", "4"]);
    assert!(!ok);
    assert!(stderr.contains("unstable"), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = banyan(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn help_succeeds() {
    let (ok, stdout, _) = banyan(&["help"]);
    assert!(ok);
    assert!(stdout.contains("commands"));
}
