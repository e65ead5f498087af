//! Ablations of the §V design choices.
//!
//! 1. **Covariance model** — how much does the total-waiting variance
//!    prediction gain from the geometric covariance model over (a) plain
//!    independence and (b) adjacent-stage-only covariance? (§V argues
//!    correlations are small but not negligible.)
//! 2. **Single stage-approach rate** — the paper uses one `α = 2/5` for
//!    all `p` and `k` ("what is perhaps surprising is that a single value
//!    of α works well"). We fit `α` per configuration and report the
//!    spread.

use super::BASE_SEED;
use crate::profile::{stage_profile, total_profile, Scale};
use crate::table::TextTable;
use banyan_core::calibrate::fit_alpha;
use banyan_core::total_delay::TotalWaiting;
use banyan_sim::traffic::Workload;

/// Covariance-model ablation over the Table VII/IX/XI configurations.
pub fn ablation_covariance(scale: &Scale) -> String {
    let mut t = TextTable::new(
        "Ablation: total-waiting variance prediction vs simulation (k=2, n=12)",
    );
    t.header([
        "config",
        "sim var",
        "independent",
        "adjacent-only",
        "full geometric",
    ]);
    for (i, &(p, m)) in [(0.2, 1u32), (0.5, 1), (0.8, 1), (0.125, 4)].iter().enumerate() {
        let n = 12;
        let stats = total_profile(2, n, p, m, scale, BASE_SEED + 300 + i as u64);
        let model = TotalWaiting::new(2, n, p, m);
        // Adjacent-only: keep only the lag-1 covariance term,
        // Σ v_i (1 + 2a·[i < n]).
        let (a, _) = model.cov_params();
        let adjacent: f64 = (1..=n)
            .map(|s| {
                let factor = if s < n { 1.0 + 2.0 * a } else { 1.0 };
                model.stage_var(s) * factor
            })
            .sum();
        t.num_row(
            format!("p={p}, m={m}"),
            &[
                stats.total_wait.variance(),
                model.var_total_independent(),
                adjacent,
                model.var_total(),
            ],
            3,
        );
    }
    t.render()
}

/// Distributional-model ablation: the §V gamma (moment-matched to the
/// §IV predictions) against the naive i.i.d. n-fold convolution of the
/// exact first-stage pmf, both graded against the simulated histogram.
pub fn ablation_convolution(scale: &Scale) -> String {
    use banyan_obs::tail::ks_distance;
    use banyan_stats::distance::total_variation;
    let mut t = TextTable::new(
        "Ablation: total-waiting distribution models vs simulation (k=2, KS / TV distances)",
    );
    t.header([
        "config",
        "KS gamma",
        "KS conv",
        "TV gamma",
        "TV conv",
    ]);
    for (i, &(p, m, n)) in [(0.2, 1u32, 6u32), (0.5, 1, 6), (0.5, 1, 12), (0.8, 1, 9)]
        .iter()
        .enumerate()
    {
        let stats = total_profile(2, n, p, m, scale, BASE_SEED + 340 + i as u64);
        let model = TotalWaiting::new(2, n, p, m);
        let g = model.gamma().expect("positive load");
        let len = (stats.total_wait.max_value().unwrap_or(32) as usize + 32).next_power_of_two();
        let conv = model.waiting_pmf_convolution(len);
        let conv_cdf: Vec<f64> = conv
            .iter()
            .scan(0.0, |acc, &x| {
                *acc += x;
                Some(*acc)
            })
            .collect();
        let ks_g = ks_distance(&stats.total_wait, |x| g.cdf(x));
        // The convolution model is discrete: evaluate its CDF at the bin.
        let ks_c = ks_distance(&stats.total_wait, |x| {
            let idx = x.floor().max(0.0) as usize;
            conv_cdf.get(idx).copied().unwrap_or(1.0)
        });
        let tv_g = total_variation(&stats.total_wait, |v| g.bin_prob(v));
        let tv_c = total_variation(&stats.total_wait, |v| {
            conv.get(v as usize).copied().unwrap_or(0.0)
        });
        t.num_row(
            format!("p={p}, m={m}, n={n}"),
            &[ks_g, ks_c, tv_g, tv_c],
            4,
        );
    }
    let mut out = t.render();
    out.push_str(
        "\nThe i.i.d. convolution ignores both the stage-to-stage growth of the\n\
         mean (Eq. 10) and the positive covariances (§V), so the gamma fitted\n\
         to the corrected moments wins — the paper's design choice.\n",
    );
    out
}

/// Switch-discipline ablation: output-queued (the paper's model) vs
/// input-queued FIFO with HOL blocking, on the same wiring and load.
/// Shows why Ultracomputer/RP3-class designs buffer at outputs — and how
/// far the paper's formulas are from describing the cheaper fabric.
pub fn ablation_discipline(scale: &Scale) -> String {
    use banyan_sim::input_queued::{run_input_queued, InputQueuedConfig};
    use banyan_sim::network::NetworkConfig;
    use banyan_sim::runner::run_network_replicated;
    let n = 6u32;
    let mut t = TextTable::new(format!(
        "Ablation: output-queued (paper model) vs input-queued FIFO (k=2, n={n}, m=1)"
    ));
    t.header([
        "p",
        "OQ mean total wait",
        "IQ mean total wait",
        "IQ/OQ",
        "prediction (OQ)",
    ]);
    for (i, &p) in [0.2f64, 0.35, 0.5, 0.6].iter().enumerate() {
        let ports = 64u64;
        let cycles = (scale.target_messages / scale.reps as u64)
            .div_ceil((ports as f64 * p) as u64)
            .clamp(300, 500_000);
        let mut oq_cfg = NetworkConfig::new(2, n, Workload::uniform(p, 1));
        oq_cfg.measure_cycles = cycles;
        oq_cfg.warmup_cycles = (cycles / 10).max(200);
        oq_cfg.seed = BASE_SEED + 360 + i as u64;
        let oq = run_network_replicated(&oq_cfg, scale.reps, scale.threads);
        let iq_cfg = InputQueuedConfig {
            warmup_cycles: (cycles / 10).max(200),
            measure_cycles: cycles,
            seed: BASE_SEED + 370 + i as u64,
            ..InputQueuedConfig::new(2, n, Workload::uniform(p, 1))
        };
        let iq = run_input_queued(iq_cfg);
        let model = TotalWaiting::new(2, n, p, 1);
        t.row([
            format!("{p}"),
            format!("{:.3}", oq.total_wait.mean()),
            format!("{:.3}", iq.total_wait.mean()),
            format!("{:.2}", iq.total_wait.mean() / oq.total_wait.mean()),
            format!("{:.3}", model.mean_total()),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\nHOL blocking makes the input-queued fabric diverge well before the\n\
         output-queued one; the paper's formulas describe only the latter.\n",
    );
    out
}

/// Stage-approach-rate ablation: fitted `α` per configuration.
pub fn ablation_stage_rate(scale: &Scale) -> String {
    let mut t = TextTable::new(
        "Ablation: fitted geometric stage-approach rate alpha (paper uses a single 0.4)",
    );
    t.header(["config", "fitted alpha"]);
    let grid: [(f64, u32, Option<u32>); 5] = [
        (0.2, 2, None),
        (0.5, 2, None),
        (0.8, 2, None),
        (0.5, 4, Some(4)),
        (0.5, 8, Some(3)),
    ];
    for (i, &(p, k, width)) in grid.iter().enumerate() {
        let stats = stage_profile(
            k,
            8,
            Workload::uniform(p, 1),
            width,
            false,
            scale,
            BASE_SEED + 320 + i as u64,
        );
        let means: Vec<f64> = stats.stage_waits.iter().map(|w| w.mean()).collect();
        let n = means.len();
        let w_inf = 0.5 * (means[n - 1] + means[n - 2]);
        let fitted = fit_alpha(&means[..6], w_inf);
        t.row([
            format!("p={p}, k={k}"),
            fitted.map_or("n/a".to_string(), |a| format!("{a:.3}")),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convolution_ablation_quick() {
        let s = ablation_convolution(&Scale::quick());
        assert!(s.contains("KS gamma"));
        assert!(s.contains("n=12"));
    }

    #[test]
    fn discipline_ablation_quick() {
        let s = ablation_discipline(&Scale::quick());
        assert!(s.contains("IQ/OQ"));
        assert!(s.contains("0.6"));
    }

    #[test]
    fn covariance_ablation_quick() {
        let s = ablation_covariance(&Scale::quick());
        assert!(s.contains("full geometric"));
        assert!(s.contains("p=0.5, m=1"));
    }

    #[test]
    fn stage_rate_ablation_quick() {
        let s = ablation_stage_rate(&Scale::quick());
        assert!(s.contains("fitted alpha"));
        assert!(s.contains("p=0.8, k=2"));
    }
}
