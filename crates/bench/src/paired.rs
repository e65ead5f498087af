//! Paired timing comparisons: the one estimator behind every overhead
//! gate (`overhead_guard`) and every before/after comparison
//! (`bench_diff`).
//!
//! On a shared host two timings taken apart differ by more than most of
//! the effects measured here (a 2% observer budget, a 10% speedup). So
//! every comparison is paired. Each *pass* runs every leg back to back,
//! host drift cancels in the per-pass ratio, and the verdict is the
//! median of those ratios. Leg order rotates across passes, forwards
//! and backwards, so that each leg runs first equally often and no leg
//! runs ahead of another more often than behind it.
//!
//! A [`Ratio`] also carries how many passes the measured leg won and a
//! distribution-free 95% interval for the median ratio: the sign-test
//! order statistics, whose coverage holds for any continuous
//! distribution of ratios.

use banyan_obs::json::JsonObject;

/// Passes per full-mode overhead gate. Per-pass ratios of identical
/// 30 ms legs spread with an IQR of up to 0.23 on a 2-vCPU host; at 300
/// passes the median's standard error is near 1%, so a 1.02x gate
/// passes a true 1.00 and fails a true 1.04 at least 9 times in 10.
pub const GATE_PASSES: usize = 300;

/// Times every leg once per pass after one untimed warm-up pass. The
/// pass count is rounded up to a multiple of twice the leg count. Passes
/// `2r` and `2r + 1` both start with leg `r mod L`; the first runs the
/// others in cyclic order, the second in reverse cyclic order. So each
/// leg runs first equally often, and for any two legs, each runs a given
/// number of places ahead of the other equally often: what a leg leaves
/// behind (warm caches, a clock ramp) favours neither side of a ratio. A
/// leg may own per-pass setup and returns only its timed span, in
/// seconds. Returns each leg's spans in pass order.
pub fn run_passes(passes: usize, legs: &mut [&mut dyn FnMut() -> f64]) -> Vec<Vec<f64>> {
    let count = legs.len();
    let passes = passes.div_ceil(2 * count) * 2 * count;
    for leg in legs.iter_mut() {
        leg();
    }
    let mut spans = vec![Vec::with_capacity(passes); count];
    for pass in 0..passes {
        let first = pass / 2 % count;
        for j in 0..count {
            let leg = if pass % 2 == 0 {
                (first + j) % count
            } else {
                (first + count - j) % count
            };
            spans[leg].push(legs[leg]());
        }
    }
    spans
}

/// A paired comparison of a measured leg against a reference leg.
#[derive(Clone, Debug, PartialEq)]
pub struct Ratio {
    /// Pairs compared.
    pub n: usize,
    /// Median of the per-pair `measured / reference` ratios.
    pub median: f64,
    /// Lower end of the 95% sign-test interval for that median.
    pub lo: f64,
    /// Upper end of the interval.
    pub hi: f64,
    /// Pairs whose ratio is below 1.
    pub wins: usize,
}

impl Ratio {
    /// Summarises per-pair ratios. With fewer than six pairs no order
    /// statistic reaches 95%, and the interval is the full range.
    ///
    /// # Panics
    /// Panics on an empty or non-finite set of ratios.
    pub fn of(mut ratios: Vec<f64>) -> Ratio {
        assert!(
            !ratios.is_empty() && ratios.iter().all(|r| r.is_finite()),
            "ratios must be finite and non-empty"
        );
        ratios.sort_by(f64::total_cmp);
        let n = ratios.len();
        let k = sign_test_rank(n).max(1);
        Ratio {
            n,
            median: median(&mut ratios),
            lo: ratios[k - 1],
            hi: ratios[n - k],
            wins: ratios.iter().filter(|&&r| r < 1.0).count(),
        }
    }

    /// The per-pass `measured / reference` ratios of two legs' spans.
    pub fn paired(measured: &[f64], reference: &[f64]) -> Ratio {
        assert_eq!(measured.len(), reference.len(), "legs must pair up");
        Ratio::of(measured.iter().zip(reference).map(|(m, r)| m / r).collect())
    }

    /// Records `<name>` (the median) and `<name>_lo`, `<name>_hi`,
    /// `<name>_wins` and `<name>_passes`.
    pub fn record(&self, o: &mut JsonObject, name: &str) {
        o.field_f64(name, self.median)
            .field_f64(&format!("{name}_lo"), self.lo)
            .field_f64(&format!("{name}_hi"), self.hi)
            .field_u64(&format!("{name}_wins"), self.wins as u64)
            .field_u64(&format!("{name}_passes"), self.n as u64);
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4}x [{:.4}, {:.4}] below 1 in {}/{}",
            self.median, self.lo, self.hi, self.wins, self.n
        )
    }
}

/// The largest rank `k` whose order statistics `x(k)` and `x(n+1-k)`
/// bound the median of `n` samples with at least 95% confidence:
/// `P(B ≤ k-1) ≤ 0.025` for `B ~ Binomial(n, 1/2)`. 0 when `n < 6`.
fn sign_test_rank(n: usize) -> usize {
    // ln P(B = i), summed in order until the tail passes 2.5%.
    let mut ln_pmf = -(n as f64) * std::f64::consts::LN_2;
    let mut tail = 0.0;
    for i in 0..n {
        tail += ln_pmf.exp();
        if tail > 0.025 {
            return i;
        }
        ln_pmf += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    n
}

/// Median of `xs`, sorting it in place (the mean of the two middle
/// values for an even count); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" rule of Python's
/// `statistics.quantiles(xs, n=4)`, the rule the repository benchmark
/// reports its spreads with.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        len => {
            let at = |i: usize| {
                let j = (i * (len + 1) / 4).clamp(1, len - 1);
                let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact `P(B ≤ k-1) ≤ 0.025` in integers: `40·Σ_{i<k} C(n,i) ≤ 2^n`.
    fn exact_rank(n: usize) -> usize {
        let mut c = 1u128;
        let mut cum = 0u128;
        for i in 0..n {
            cum += c;
            if 40 * cum > 1u128 << n {
                return i;
            }
            c = c * (n - i) as u128 / (i + 1) as u128;
        }
        n
    }

    #[test]
    fn interval_ranks_match_exact_binomial_order_statistics() {
        for n in 1..=120 {
            assert_eq!(sign_test_rank(n), exact_rank(n), "n = {n}");
        }
        // Published values of the distribution-free median interval.
        assert_eq!(sign_test_rank(5), 0);
        assert_eq!(sign_test_rank(6), 1);
        assert_eq!(sign_test_rank(10), 2);
        assert_eq!(sign_test_rank(20), 6);
        assert_eq!(sign_test_rank(100), 40);
        // Large counts stay finite and approach n/2 - 0.98·sqrt(n).
        let k = sign_test_rank(1000) as f64;
        assert!((k - (500.0 - 0.98 * 1000f64.sqrt())).abs() <= 2.0, "{k}");
    }

    #[test]
    fn ratio_summary_reads_order_statistics() {
        let r = Ratio::of((1..=10).map(|i| 0.9 + 0.02 * f64::from(i)).collect());
        assert_eq!(r.n, 10);
        assert!((r.median - 1.01).abs() < 1e-12);
        assert!((r.lo - 0.94).abs() < 1e-12 && (r.hi - 1.08).abs() < 1e-12);
        assert_eq!(r.wins, 4);
        let small = Ratio::paired(&[2.0, 3.0], &[1.0, 1.0]);
        assert_eq!((small.lo, small.median, small.hi), (2.0, 2.5, 3.0));
    }

    #[test]
    fn passes_balance_leg_order_and_round_up() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = || {
            order.borrow_mut().push('a');
            1.0
        };
        let mut b = || {
            order.borrow_mut().push('b');
            2.0
        };
        let mut c = || {
            order.borrow_mut().push('c');
            3.0
        };
        let spans = run_passes(4, &mut [&mut a, &mut b, &mut c]);
        assert_eq!(spans, vec![vec![1.0; 6], vec![2.0; 6], vec![3.0; 6]]);
        let order: String = order.into_inner().into_iter().collect();
        // Warm-up, then every order of three legs once.
        assert_eq!(
            order,
            "abc".to_owned() + "abc" + "acb" + "bca" + "bac" + "cab" + "cba"
        );
    }

    /// SplitMix64 and Box–Muller: the synthetic ratios of the power test.
    struct Normal(u64);

    impl Normal {
        fn uniform(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn sample(&mut self) -> f64 {
            let (u, v) = (self.uniform().max(1e-300), self.uniform());
            (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
        }
    }

    /// The overhead gates' power at their pass count: per-pass ratios of
    /// identical code spread with an IQR of up to 0.23 on a 2-vCPU host.
    /// With that spread the 1.02x gate passes a true 1.00 and fails a
    /// true 1.04 for at least 9 of 10 seeds.
    #[test]
    fn gate_at_the_guard_pass_count_separates_one_from_four_percent() {
        let sigma = 0.23 / 1.349;
        let verdicts = |truth: f64| {
            (0..10u64)
                .filter(|&seed| {
                    let mut g = Normal(seed);
                    let ratios = (0..GATE_PASSES)
                        .map(|_| truth + sigma * g.sample())
                        .collect();
                    Ratio::of(ratios).median <= 1.02
                })
                .count()
        };
        assert!(verdicts(1.00) >= 9, "A/A passes: {}", verdicts(1.00));
        assert!(verdicts(1.04) <= 1, "planted 4% passes: {}", verdicts(1.04));
    }

    #[test]
    fn median_and_quartiles_follow_the_benchmark_rules() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
        // statistics.quantiles([1..8], n=4) == [2.25, 6.75]
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.25, 6.75));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }
}
