//! Answer computation: analytic closed forms, the simulation slow
//! path, drift probing, and the bit-stable response rendering.
//!
//! The daemon's contract is that an analytic answer is *exactly* what a
//! direct `banyan-core` library call returns — the response body is
//! rendered with the shortest-round-trip float formatter
//! ([`banyan_obs::json::fmt_f64`]) and re-parsed with Rust's correctly
//! rounded `str::parse::<f64>`, so clients recover the library's f64s
//! bit for bit (the `serve` integration tests assert this via
//! `to_bits`).

use super::query::Query;
use banyan_core::later_stages::StageConstants;
use banyan_core::models::{geometric_queue, nonuniform_queue};
use banyan_core::total_delay::{
    multi_size_total_mean, multi_size_total_var, nonuniform_total_mean, nonuniform_total_var,
    TotalWaiting,
};
use banyan_core::{FirstStage, GeometricService, UniformBernoulli};
use banyan_obs::json::JsonObject;
use banyan_obs::tail::DriftReport;
use banyan_obs::DistSketch;
use banyan_sim::network::{check_config, NetworkConfig};
use banyan_sim::runner::run_network_replicated;
use banyan_sim::traffic::{ServiceDist, Workload};

/// Quantile levels every answer reports, matching the observability
/// stack's `REPORT_QUANTILES`.
pub const LEVELS: [f64; 4] = [0.50, 0.90, 0.99, 0.999];
/// Labels for [`LEVELS`].
pub const LEVEL_LABELS: [&str; 4] = ["p50", "p90", "p99", "p999"];

/// The closed-form model that covers a query, when one exists.
pub enum AnalyticModel {
    /// Constant service, uniform traffic, any depth: the §V
    /// [`TotalWaiting`] composition (exact first stage, §IV interior
    /// stages, gamma distributional model).
    Total(TotalWaiting),
    /// Message-size mixture, uniform traffic: §IV-C composition with a
    /// moment-matched gamma.
    MultiSize {
        /// Total mean waiting time.
        mean: f64,
        /// Total waiting-time variance.
        var: f64,
    },
    /// Hot-spot traffic, unit messages: §IV-D composition with a
    /// moment-matched gamma.
    Nonuniform {
        /// Total mean waiting time.
        mean: f64,
        /// Total waiting-time variance.
        var: f64,
    },
    /// Geometric service through a single stage: Theorem 1 exact.
    Geom1(Box<FirstStage<UniformBernoulli, GeometricService>>),
}

impl AnalyticModel {
    /// Picks the closed form covering `q`, or `None` when only the
    /// simulator can answer (geometric service beyond one stage,
    /// hot-spot traffic with non-unit messages or unstable favorite
    /// queues, mixtures under hot spots).
    pub fn for_query(q: &Query) -> Option<AnalyticModel> {
        match (&q.service, q.q) {
            (ServiceDist::Constant(m), 0.0) => {
                Some(AnalyticModel::Total(TotalWaiting::new(q.k, q.stages, q.p, *m)))
            }
            (ServiceDist::Constant(1), _) => {
                // Gate on the exact first-stage model: an unstable
                // favorite queue means no steady state anywhere.
                nonuniform_queue(q.k, q.p, q.q, 1).ok()?;
                let c = StageConstants::paper();
                Some(AnalyticModel::Nonuniform {
                    mean: nonuniform_total_mean(&c, q.k, q.stages, q.p, q.q),
                    var: nonuniform_total_var(&c, q.k, q.stages, q.p, q.q),
                })
            }
            (ServiceDist::Mixed(sizes), 0.0) => {
                let c = StageConstants::paper();
                Some(AnalyticModel::MultiSize {
                    mean: multi_size_total_mean(&c, q.k, q.stages, q.p, sizes),
                    var: multi_size_total_var(&c, q.k, q.stages, q.p, sizes),
                })
            }
            (ServiceDist::Geometric(mu), qq) if qq == 0.0 && q.stages == 1 => geometric_queue(
                q.k, q.p, *mu,
            )
            .ok()
            .map(|fs| AnalyticModel::Geom1(Box::new(fs))),
            _ => None,
        }
    }

    /// Model name surfaced in the response.
    pub fn name(&self) -> &'static str {
        match self {
            AnalyticModel::Total(_) => "sec5-total-waiting",
            AnalyticModel::MultiSize { .. } => "sec4c-multi-size",
            AnalyticModel::Nonuniform { .. } => "sec4d-nonuniform",
            AnalyticModel::Geom1(_) => "theorem1-first-stage",
        }
    }

    /// Mean total waiting time.
    pub fn mean_wait(&self) -> f64 {
        match self {
            AnalyticModel::Total(t) => t.mean_total(),
            AnalyticModel::MultiSize { mean, .. } | AnalyticModel::Nonuniform { mean, .. } => {
                *mean
            }
            AnalyticModel::Geom1(fs) => fs.mean_wait(),
        }
    }

    /// Total waiting-time variance.
    pub fn var_wait(&self) -> f64 {
        match self {
            AnalyticModel::Total(t) => t.var_total(),
            AnalyticModel::MultiSize { var, .. } | AnalyticModel::Nonuniform { var, .. } => *var,
            AnalyticModel::Geom1(fs) => fs.var_wait(),
        }
    }

    /// Waiting-time quantile at `level` (gamma model for the
    /// compositions, exact for Theorem 1; 0 at zero load where the
    /// distribution is a point mass).
    pub fn wait_quantile(&self, level: f64) -> f64 {
        match self {
            AnalyticModel::Total(t) => t.gamma().map(|g| g.quantile(level)).unwrap_or(0.0),
            AnalyticModel::MultiSize { mean, var } | AnalyticModel::Nonuniform { mean, var } => {
                banyan_stats::Gamma::from_mean_var(*mean, *var)
                    .map(|g| g.quantile(level))
                    .unwrap_or(0.0)
            }
            AnalyticModel::Geom1(fs) => fs.wait_quantile(level) as f64,
        }
    }

    /// Waiting-time CDF, used by the KS drift gate. For the discrete
    /// Theorem 1 model the CDF steps at integers, which is exactly what
    /// `ks_distance`'s half-integer evaluation points expect.
    pub fn wait_cdf(&self, x: f64) -> f64 {
        let gamma_cdf = |mean: f64, var: f64, x: f64| {
            match banyan_stats::Gamma::from_mean_var(mean, var) {
                Some(g) => g.cdf(x),
                // Zero load: all mass at zero waiting.
                None => {
                    if x >= 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
        };
        match self {
            AnalyticModel::Total(t) => gamma_cdf(t.mean_total(), t.var_total(), x),
            AnalyticModel::MultiSize { mean, var } | AnalyticModel::Nonuniform { mean, var } => {
                gamma_cdf(*mean, *var, x)
            }
            AnalyticModel::Geom1(fs) => {
                if x < 0.0 {
                    0.0
                } else {
                    fs.wait_cdf(x.floor() as u64)
                }
            }
        }
    }
}

/// Simulation effort knobs (probe vs full answer use different sizes).
#[derive(Clone, Copy, Debug)]
pub struct SimSettings {
    /// Measured cycles per replication.
    pub cycles: u64,
    /// Independent replications.
    pub reps: u32,
    /// Base seed (replication `i` runs at `seed + i`).
    pub seed: u64,
}

/// One simulation outcome, with the waiting-time sketch for drift
/// checks and quantiles.
pub struct SimOutcome {
    /// Mean total waiting time over tracked messages.
    pub mean: f64,
    /// Waiting-time variance.
    pub var: f64,
    /// Waiting-time quantiles at [`LEVELS`] (integer cycles).
    pub wait_q: [u64; 4],
    /// Tracked messages delivered.
    pub delivered: u64,
    /// The exact waiting-time sketch (`net.wait.total`).
    pub sketch: DistSketch,
    /// Settings the run used.
    pub settings: SimSettings,
}

/// Runs the replicated simulator for `q` without telemetry (the
/// daemon's own registry only sees serve-side metrics, never per-query
/// `net.*` series, which would mix configurations); the waiting-time
/// pmf is the run's own `total_wait`.
pub fn run_sim(q: &Query, settings: SimSettings) -> SimOutcome {
    let stats = run_network_replicated(&sim_config(q, settings), settings.reps, 1);
    let total = stats.total_wait;
    SimOutcome {
        mean: total.mean(),
        var: total.variance(),
        wait_q: LEVELS.map(|level| total.quantile(level).unwrap_or(0)),
        delivered: stats.delivered,
        sketch: total,
        settings,
    }
}

/// Refuses a query whose network the simulator cannot build (see
/// [`check_config`]). Both simulating modes and the drift probe run
/// only queries that pass.
pub fn check_simulable(q: &Query) -> Result<(), String> {
    check_config(&network_config(q))
        .map_err(|why| format!("cannot simulate this configuration: {why}"))
}

fn network_config(q: &Query) -> NetworkConfig {
    let workload = Workload {
        p: q.p,
        q: q.q,
        service: q.service.clone(),
    };
    NetworkConfig::new(q.k, q.stages, workload)
}

/// The network configuration [`run_sim`] simulates for `q`.
fn sim_config(q: &Query, settings: SimSettings) -> NetworkConfig {
    let mut cfg = network_config(q);
    cfg.measure_cycles = settings.cycles;
    cfg.warmup_cycles = (settings.cycles / 10).max(200);
    cfg.seed = settings.seed;
    cfg
}

/// Probes the drift gauge for an analytic model: a small simulation of
/// the same configuration, then the two-sided KS distance between the
/// observed waiting-time sketch and the model CDF — the same statistic
/// the `net.drift.ks_ppm.*` gauges report.
pub fn probe_drift(q: &Query, model: &AnalyticModel, settings: SimSettings) -> DriftReport {
    let outcome = run_sim(q, settings);
    DriftReport::against(
        "net.wait.total",
        &outcome.sketch,
        |x| model.wait_cdf(x),
        model.mean_wait(),
        None,
    )
}

/// Renders the analytic answer body. Every float goes through
/// [`banyan_obs::json::fmt_f64`] so clients re-parse the library's
/// values bit for bit.
pub fn analytic_body(q: &Query, model: &AnalyticModel, drift_ks: Option<f64>) -> String {
    let wait_q: Vec<f64> = LEVELS.iter().map(|&l| model.wait_quantile(l)).collect();
    // Cut-through pipeline: delay = waiting + (n − 1) + service. For
    // the §V model this is `delay_quantile` / `mean_total_delay` bit for
    // bit: the same exact-integer shift added to the same f64, without
    // inverting the gamma a second time per level.
    let shift = (q.stages - 1) as f64 + q.service.mean();
    let mean_wait = model.mean_wait();
    let delay_q: Vec<f64> = wait_q.iter().map(|w| w + shift).collect();
    render_body(
        q,
        "analytic",
        model.name(),
        mean_wait,
        model.var_wait(),
        &wait_q,
        mean_wait + shift,
        &delay_q,
        drift_ks,
        None,
    )
}

/// Renders a simulation answer body.
pub fn sim_body(q: &Query, outcome: &SimOutcome, drift_ks: Option<f64>) -> String {
    let wait_q: Vec<f64> = outcome.wait_q.iter().map(|&v| v as f64).collect();
    let shift = (q.stages - 1) as f64 + q.service.mean();
    let delay_q: Vec<f64> = wait_q.iter().map(|w| w + shift).collect();
    render_body(
        q,
        "simulation",
        "replicated-simulation",
        outcome.mean,
        outcome.var,
        &wait_q,
        outcome.mean + shift,
        &delay_q,
        drift_ks,
        Some(outcome),
    )
}

#[allow(clippy::too_many_arguments)]
fn render_body(
    q: &Query,
    source: &str,
    model: &str,
    mean_wait: f64,
    var_wait: f64,
    wait_q: &[f64],
    delay_mean: f64,
    delay_q: &[f64],
    drift_ks: Option<f64>,
    sim: Option<&SimOutcome>,
) -> String {
    let mut o = JsonObject::new();
    o.field_str("schema", "banyan-serve/answer/v1")
        .field_str("source", source)
        .field_str("model", model);
    let mut cfg = JsonObject::new();
    cfg.field_u64("k", u64::from(q.k))
        .field_u64("stages", u64::from(q.stages))
        .field_f64("p", q.p)
        .field_f64("q", q.q)
        .field_str("service", &q.service_label())
        .field_str("mode", q.mode.name());
    o.field_raw("config", &cfg.finish());
    o.field_f64("rho", q.rho());
    let mut wait = JsonObject::new();
    wait.field_f64("mean", mean_wait).field_f64("var", var_wait);
    for (label, v) in LEVEL_LABELS.iter().zip(wait_q) {
        wait.field_f64(label, *v);
    }
    o.field_raw("wait", &wait.finish());
    let mut delay = JsonObject::new();
    delay.field_f64("mean", delay_mean);
    for (label, v) in LEVEL_LABELS.iter().zip(delay_q) {
        delay.field_f64(label, *v);
    }
    o.field_raw("delay", &delay.finish());
    match drift_ks {
        Some(ks) => o.field_f64("drift_ks", ks),
        None => o.field_raw("drift_ks", "null"),
    };
    match sim {
        Some(s) => {
            let mut detail = JsonObject::new();
            detail
                .field_u64("cycles", s.settings.cycles)
                .field_u64("reps", u64::from(s.settings.reps))
                .field_u64("seed", s.settings.seed)
                .field_u64("delivered", s.delivered);
            o.field_raw("sim", &detail.finish());
        }
        None => {
            o.field_raw("sim", "null");
        }
    }
    let mut body = o.finish();
    body.push('\n');
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::query::Query;

    fn q(json: &str) -> Query {
        Query::from_json(json).unwrap()
    }

    /// Pulls a float field out of a rendered answer, failing loudly on
    /// absent paths.
    fn body_f64(body: &str, section: &str, field: &str) -> f64 {
        let doc = banyan_obs::json::JsonValue::parse(body).expect("answer body parses");
        doc.get(section)
            .and_then(|s| s.get(field))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing {section}.{field} in {body}"))
    }

    #[test]
    fn model_selection_covers_the_paper_families() {
        assert!(matches!(
            AnalyticModel::for_query(&q(r#"{"k":2,"stages":6,"p":0.5}"#)),
            Some(AnalyticModel::Total(_))
        ));
        assert!(matches!(
            AnalyticModel::for_query(&q(r#"{"p":0.1,"mix":"4:0.5,8:0.5"}"#)),
            Some(AnalyticModel::MultiSize { .. })
        ));
        assert!(matches!(
            AnalyticModel::for_query(&q(r#"{"p":0.3,"q":0.05}"#)),
            Some(AnalyticModel::Nonuniform { .. })
        ));
        assert!(matches!(
            AnalyticModel::for_query(&q(r#"{"stages":1,"p":0.3,"geometric_mu":0.5}"#)),
            Some(AnalyticModel::Geom1(_))
        ));
        // Geometric beyond one stage has no closed form here.
        assert!(
            AnalyticModel::for_query(&q(r#"{"stages":2,"p":0.3,"geometric_mu":0.5}"#)).is_none()
        );
        // Hot spot with non-unit messages: simulation only.
        assert!(AnalyticModel::for_query(&q(r#"{"p":0.1,"q":0.1,"m":2}"#)).is_none());
    }

    #[test]
    fn analytic_body_matches_library_bit_for_bit() {
        // Every level, wait and delay, over a grid that includes zero
        // load (no gamma: every quantile is the point mass) and
        // multi-cycle messages (a non-unit shift).
        let mut checked = 0;
        for k in [2u32, 3, 4, 8, 16] {
            for stages in [1u32, 2, 6, 12] {
                for m in [1u32, 2, 4] {
                    for milli in [0u32, 1, 125, 333, 500, 901] {
                        let p = f64::from(milli) / 1000.0;
                        if p * f64::from(m) >= 1.0 {
                            continue;
                        }
                        let query = q(&format!(
                            r#"{{"k":{k},"stages":{stages},"p":{p},"m":{m},"mode":"analytic"}}"#
                        ));
                        let model = AnalyticModel::for_query(&query).unwrap();
                        let body = analytic_body(&query, &model, None);
                        let t = TotalWaiting::new(k, stages, p, m);
                        let bits = |section: &str, field: &str| body_f64(&body, section, field).to_bits();
                        let at = format!("k={k} n={stages} m={m} p={p}");
                        assert_eq!(bits("wait", "mean"), t.mean_total().to_bits(), "{at}");
                        assert_eq!(bits("wait", "var"), t.var_total().to_bits(), "{at}");
                        assert_eq!(bits("delay", "mean"), t.mean_total_delay().to_bits(), "{at}");
                        for (label, level) in LEVEL_LABELS.iter().zip(LEVELS) {
                            let wait = t.gamma().map_or(0.0, |g| g.quantile(level));
                            assert_eq!(bits("wait", label), wait.to_bits(), "{at} {label}");
                            assert_eq!(
                                bits("delay", label),
                                t.delay_quantile(level).to_bits(),
                                "{at} {label}"
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 150, "{checked}");
    }

    #[test]
    fn zero_load_answers_are_all_zero_waiting() {
        let query = q(r#"{"k":2,"stages":4,"p":0.0}"#);
        let model = AnalyticModel::for_query(&query).unwrap();
        assert_eq!(model.mean_wait(), 0.0);
        assert_eq!(model.wait_quantile(0.99), 0.0);
        assert_eq!(model.wait_cdf(0.5), 1.0);
        assert_eq!(model.wait_cdf(-0.5), 0.0);
    }

    #[test]
    fn sim_runs_and_reports_quantiles() {
        let query = q(r#"{"k":2,"stages":3,"p":0.4,"mode":"simulate"}"#);
        let outcome = run_sim(
            &query,
            SimSettings {
                cycles: 400,
                reps: 2,
                seed: 7,
            },
        );
        assert!(outcome.delivered > 0);
        assert!(outcome.mean >= 0.0);
        assert!(outcome.wait_q[0] <= outcome.wait_q[3]);
        let body = sim_body(&query, &outcome, None);
        assert!(body.contains("\"source\": \"simulation\""), "{body}");
        assert!(body.contains("\"delivered\""), "{body}");
    }

    #[test]
    fn sim_outcome_matches_the_instrumented_wait_sketch() {
        // Telemetry never changes the statistics, so the plain run's
        // own pmf is the `net.wait.total` sketch an instrumented run of
        // the same configuration exports.
        use banyan_obs::{Telemetry, TelemetryConfig};
        use banyan_sim::runner::run_network_replicated_instrumented;
        let query = q(r#"{"k":2,"stages":4,"p":0.6,"mode":"simulate"}"#);
        let settings = SimSettings {
            cycles: 1_500,
            reps: 3,
            seed: 5,
        };
        let outcome = run_sim(&query, settings);
        let tel = Telemetry::new(TelemetryConfig::on());
        run_network_replicated_instrumented(&sim_config(&query, settings), settings.reps, 1, &tel);
        let sketch = tel.sketches().get("net.wait.total").expect("total sketch");
        assert_eq!(outcome.sketch, sketch);
        for (&got, level) in outcome.wait_q.iter().zip(LEVELS) {
            assert_eq!(Some(got), sketch.quantile(level), "level {level}");
        }
        assert_eq!(outcome.delivered, sketch.total());
    }

    #[test]
    fn probe_drift_is_small_where_the_paper_matches() {
        let query = q(r#"{"k":2,"stages":6,"p":0.5}"#);
        let model = AnalyticModel::for_query(&query).unwrap();
        let report = probe_drift(
            &query,
            &model,
            SimSettings {
                cycles: 2_000,
                reps: 2,
                seed: 11,
            },
        );
        // PR 4 pinned KS < 0.05 for this family at experiment scale;
        // the small probe gets a loose bound.
        assert!(report.ks < 0.15, "ks = {}", report.ks);
        assert!(report.ks > 0.0);
    }
}
