//! Distribution sketches: exact integer pmfs and streaming quantiles.
//!
//! The paper's central object is the *distribution* of waiting times,
//! not its mean — so the telemetry layer captures shape, not just
//! scalars. Two sketch kinds cover the two value domains we meet:
//!
//! * [`DistSketch`] — the exact pmf of an integer quantity. Waiting
//!   times in a clocked network are small non-negative integers
//!   (cycles), so the full pmf fits in a short dense count vector and is
//!   captured **losslessly**. Mean and variance come from exact `u128`
//!   sums (`Σv`, `Σv²`) computed when read, so they agree bit-for-bit
//!   with any other exact accumulation over the same values. Merging is
//!   plain counter addition — commutative and lossless — so per-worker
//!   instances fold cleanly in `runner`'s replication merge.
//! * [`P2Quantile`] — the Jain & Chlamtac P² streaming estimator for
//!   continuous values (span durations in seconds), five markers per
//!   tracked quantile, O(1) memory. Exact below five observations.
//!
//! [`SketchSet`] is the named registry of sketches hanging off a
//! `Telemetry` sink, mirroring `Registry` for scalar metrics.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{escape, JsonObject};

/// The standard report quantiles: p50 / p90 / p99 / p999.
pub const REPORT_QUANTILES: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Conventional label for a quantile probability: `0.5` → `"p50"`,
/// `0.99` → `"p99"`, `0.999` → `"p999"`.
pub fn quantile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{}", (q * 1000.0).round() as u64)
    }
}

/// The exact pmf of a non-negative integer quantity — the one integer
/// distribution type shared by the simulators, telemetry, the flow event
/// check and the daemon.
///
/// Dense: `counts[v]` is the number of observations equal to `v`, so
/// memory is O(largest value). The vector never ends in a zero bin
/// (`record_n(v, 0)` and merging an empty pmf allocate nothing), which
/// makes the derived equality a multiset equality: two pmfs built from
/// the same observations compare equal in any recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistSketch {
    counts: Vec<u64>,
    total: u64,
}

impl DistSketch {
    /// An empty pmf.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `value`: a single dense increment, cheap
    /// enough for the simulators' per-delivery fold.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of `value` (nothing at all when `n == 0`).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = value as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
    }

    /// Fold another pmf into this one. Exact and lossless: the result
    /// equals having recorded both observation streams into one pmf, in
    /// any order.
    pub fn merge(&mut self, other: &DistSketch) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (`None` when empty).
    pub fn max_value(&self) -> Option<u64> {
        self.counts.len().checked_sub(1).map(|v| v as u64)
    }

    /// Exact integer sums `(Σv·c, Σv²·c)` over the pmf.
    fn sums(&self) -> (u128, u128) {
        self.count_points().fold((0, 0), |(s, sq), (v, c)| {
            let (v, c) = (u128::from(v), u128::from(c));
            (s + v * c, sq + v * v * c)
        })
    }

    /// Exact mean; a documented `0.0` when empty (never NaN).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sums().0 as f64 / self.total as f64
    }

    /// Exact population variance; `0.0` when empty.
    pub fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let (sum, sum_sq) = self.sums();
        let n = self.total as f64;
        let mean = sum as f64 / n;
        // E[X²] − E[X]²; the integer sums are exact so the only
        // rounding is the final float arithmetic.
        (sum_sq as f64 / n - mean * mean).max(0.0)
    }

    /// The support points `(value, count)`, ascending, zero bins
    /// skipped. Exact integer counts — the raw material for cumulative
    /// statistics that must be bit-reproducible (running integer sums
    /// divided once, rather than accumulated float probabilities).
    pub fn count_points(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
    }

    /// The pmf points `(value, P(X = value))`, ascending, zero bins
    /// skipped.
    pub fn pmf_points(&self) -> Vec<(u64, f64)> {
        let n = self.total as f64;
        self.count_points()
            .map(|(v, c)| (v, c as f64 / n))
            .collect()
    }

    /// Probability `P(X = value)`; `0.0` when empty.
    pub fn pmf_at(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c = self.counts.get(value as usize).copied().unwrap_or(0);
        c as f64 / self.total as f64
    }

    /// CDF `P(X <= value)`; exact; `0.0` when empty.
    pub fn cdf_at(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto = (value as usize).saturating_add(1).min(self.counts.len());
        let le: u64 = self.counts[..upto].iter().sum();
        le as f64 / self.total as f64
    }

    /// Complementary CDF `P(X >= value)`; exact (a count ratio, not
    /// `1 − cdf_at(value − 1)` with its cancellation error); `0.0` when
    /// empty.
    pub fn ccdf_at(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let from = (value as usize).min(self.counts.len());
        let ge: u64 = self.counts[from..].iter().sum();
        ge as f64 / self.total as f64
    }

    /// Smallest value `v` with `P(X <= v) >= q`, for `q ∈ [0, 1]` (`q = 0`
    /// gives the smallest observation). `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (v, c) in self.count_points() {
            acc += c;
            if acc >= target {
                return Some(v);
            }
        }
        self.max_value()
    }

    /// Serialize to a JSON object: kind, count, exact moments, report
    /// quantiles (0 when empty), and the pmf as parallel ascending
    /// `values`/`counts` arrays with zero bins omitted.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("kind", "exact")
            .field_u64("count", self.total)
            .field_f64("mean", self.mean())
            .field_f64("variance", self.variance());
        let mut q = JsonObject::new();
        for &p in &REPORT_QUANTILES {
            q.field_u64(&quantile_label(p), self.quantile(p).unwrap_or(0));
        }
        o.field_raw("quantiles", &q.finish());
        let (values, counts): (Vec<String>, Vec<String>) = self
            .count_points()
            .map(|(v, c)| (v.to_string(), c.to_string()))
            .unzip();
        o.field_raw("values", &format!("[{}]", values.join(",")));
        o.field_raw("counts", &format!("[{}]", counts.join(",")));
        o.finish()
    }
}

/// Streaming quantile estimator (Jain & Chlamtac's P² algorithm,
/// CACM 1985): five markers track `q` without storing observations.
/// Exact while fewer than five observations have been seen.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the 0, q/2, q, (1+q)/2, 1 quantiles).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Observations seen so far (first five fill `heights` directly).
    count: u64,
}

impl P2Quantile {
    /// Track the `q`-quantile, `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile probability.
    pub fn probability(&self) -> f64 {
        self.q
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count < 5 {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            return;
        }
        self.count += 1;

        // Find the cell containing x, clamping the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k+1]
            (0..4).find(|&i| x < self.heights[i + 1]).unwrap_or(3)
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + d / (np - nm)
            * ((n - nm + d) * (hp - h) / (np - n) + (np - n - d) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate. Exact for fewer than five
    /// observations (sorted lookup); `0.0` when no data at all.
    pub fn estimate(&self) -> f64 {
        match self.count {
            0 => 0.0,
            n @ 1..=4 => {
                let mut seen = self.heights[..n as usize].to_vec();
                seen.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let idx = ((self.q * n as f64).ceil() as usize).clamp(1, n as usize) - 1;
                seen[idx]
            }
            _ => self.heights[2],
        }
    }
}

/// A bundle of P² estimators at the standard report quantiles.
#[derive(Debug, Clone)]
pub struct QuantileSet {
    estimators: Vec<P2Quantile>,
}

impl Default for QuantileSet {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSet {
    /// Track p50/p90/p99/p999.
    pub fn new() -> Self {
        QuantileSet {
            estimators: REPORT_QUANTILES
                .iter()
                .map(|&q| P2Quantile::new(q))
                .collect(),
        }
    }

    /// Record one observation into every estimator.
    pub fn record(&mut self, x: f64) {
        for e in &mut self.estimators {
            e.record(x);
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.estimators.first().map_or(0, |e| e.count())
    }

    /// `(probability, estimate)` pairs, non-decreasing in probability.
    ///
    /// The five-marker estimators are independent, and on
    /// duplicate-heavy or strongly patterned streams two adjacent ones
    /// can momentarily cross (e.g. p90 above p99) even though each
    /// stays within `[min, max]`. A crossed pair sits inside the pair's
    /// joint uncertainty band, so the standard isotonic repair — a
    /// running maximum over increasing probability — restores
    /// monotonicity without leaving `[min, max]` and without touching
    /// marker state.
    pub fn estimates(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = self
            .estimators
            .iter()
            .map(|e| (e.probability(), e.estimate()))
            .collect();
        let mut running = f64::NEG_INFINITY;
        for e in &mut out {
            running = running.max(e.1);
            e.1 = running;
        }
        out
    }

    /// JSON object `{"count": …, "p50": …, "p90": …, …}` (monotone, the
    /// same repaired values as [`QuantileSet::estimates`]).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("count", self.count());
        for (p, e) in self.estimates() {
            o.field_f64(&quantile_label(p), e);
        }
        o.finish()
    }
}

/// Named registry of distribution sketches, the shape analogue of
/// `Registry`. Coarse-grained lock: workers record into **local**
/// sketches and merge here once per replication, so the mutex is never
/// on a hot loop.
#[derive(Debug, Default)]
pub struct SketchSet {
    sketches: Mutex<BTreeMap<String, DistSketch>>,
}

impl SketchSet {
    /// An empty sketch registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold `sketch` into the named slot (creating it when absent).
    /// Merging is commutative, so concurrent workers may flush in any
    /// order without affecting the result.
    pub fn merge_sketch(&self, name: &str, sketch: &DistSketch) {
        let mut map = self.sketches.lock().expect("sketch registry poisoned");
        map.entry(name.to_string()).or_default().merge(sketch);
    }

    /// Clone of the named sketch, if present.
    pub fn get(&self, name: &str) -> Option<DistSketch> {
        self.sketches
            .lock()
            .expect("sketch registry poisoned")
            .get(name)
            .cloned()
    }

    /// Sorted snapshot of all named sketches.
    pub fn snapshot(&self) -> Vec<(String, DistSketch)> {
        self.sketches
            .lock()
            .expect("sketch registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// True when no sketch has been merged yet.
    pub fn is_empty(&self) -> bool {
        self.sketches
            .lock()
            .expect("sketch registry poisoned")
            .is_empty()
    }

    /// JSON object mapping sketch name to its serialized form.
    pub fn snapshot_json(&self) -> String {
        let map = self.sketches.lock().expect("sketch registry poisoned");
        let parts: Vec<String> = map
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", escape(k), v.to_json()))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf(values: &[u64]) -> DistSketch {
        let mut s = DistSketch::new();
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn exact_sketch_moments_match_direct_computation() {
        let data = [0u64, 0, 1, 2, 2, 2, 5, 9];
        let s = pmf(&data);
        let n = data.len() as f64;
        let mean = data.iter().sum::<u64>() as f64 / n;
        let var = data.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        assert_eq!(s.total(), data.len() as u64);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn moments_match_hand_computation() {
        // E X = 1, E X² = (0 + 1 + 1 + 4)/4 = 1.5, var = 0.5.
        let h = pmf(&[0, 1, 1, 2]);
        assert_eq!(h.mean(), 1.0);
        assert_eq!(h.variance(), 0.5);
    }

    #[test]
    fn empty_sketch_is_documented_zeroes() {
        let s = DistSketch::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.pmf_at(0), 0.0);
        assert_eq!(s.ccdf_at(0), 0.0);
        assert!(s.pmf_points().is_empty());
        assert!(s.to_json().contains("\"p99\": 0"));
    }

    #[test]
    fn empty_histogram() {
        let h = DistSketch::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.cdf_at(10), 0.0);
    }

    #[test]
    fn counts_and_pmf() {
        let h = pmf(&[0, 1, 1, 3]);
        assert_eq!(h.total(), 4);
        assert_eq!(
            h.count_points().collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (3, 1)]
        );
        assert_eq!(h.pmf_points(), vec![(0, 0.25), (1, 0.5), (3, 0.25)]);
        assert_eq!(h.pmf_at(1), 0.5);
        assert_eq!(h.pmf_at(2), 0.0);
        assert_eq!(h.pmf_at(99), 0.0);
        assert_eq!(h.max_value(), Some(3));
    }

    #[test]
    fn merge_is_lossless_and_order_free() {
        let a = pmf(&[1, 1, 3, 7]);
        let b = pmf(&[0, 3, 3, 40]);
        let whole = pmf(&[1, 1, 3, 7, 0, 3, 3, 40]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = pmf(&[0, 1, 5]);
        a.merge(&pmf(&[1, 2, 2, 8]));
        let whole = pmf(&[0, 1, 5, 1, 2, 2, 8]);
        assert_eq!(a.total(), whole.total());
        assert_eq!(a.pmf_points(), whole.pmf_points());
    }

    #[test]
    fn pmf_sums_to_one() {
        let h = pmf(&[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]);
        let s: f64 = h.pmf_points().iter().map(|&(_, p)| p).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = DistSketch::new();
        a.record_n(4, 7);
        assert_eq!(a, pmf(&[4; 7]));
    }

    #[test]
    fn zero_counts_and_empty_merges_leave_no_trailing_bins() {
        // Equality is a multiset equality only while no pmf ends in a
        // zero bin: neither a zero-count record nor an empty merge may
        // grow the vector.
        let base = pmf(&[0, 2, 2]);
        let mut zero = base.clone();
        zero.record_n(1_000, 0);
        assert_eq!(zero, base);
        let mut merged = base.clone();
        merged.merge(&DistSketch::new());
        assert_eq!(merged, base);
        let mut from_empty = DistSketch::new();
        from_empty.merge(&base);
        assert_eq!(from_empty, base);
        assert_eq!(zero.max_value(), Some(2));
    }

    #[test]
    fn quantiles_and_tails_are_exact() {
        let mut s = DistSketch::new();
        // pmf: P(0)=.5, P(1)=.3, P(4)=.2
        s.record_n(0, 50);
        s.record_n(1, 30);
        s.record_n(4, 20);
        assert_eq!(s.quantile(0.5), Some(0));
        assert_eq!(s.quantile(0.6), Some(1));
        assert_eq!(s.quantile(0.99), Some(4));
        assert!((s.ccdf_at(1) - 0.5).abs() < 1e-12);
        assert!((s.ccdf_at(4) - 0.2).abs() < 1e-12);
        assert!((s.ccdf_at(5) - 0.0).abs() < 1e-12);
        assert!((s.cdf_at(0) - 0.5).abs() < 1e-12);
        let total: f64 = s.pmf_points().iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let h = pmf(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.quantile(0.1), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(10));
        assert_eq!(h.quantile(1.0), h.max_value());
        // q=0 clamps to the first observation.
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn quantile_out_of_range_panics() {
        pmf(&[1]).quantile(1.5);
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let h = pmf(&[2, 5, 5, 9]);
        let mut prev = 0.0;
        for v in 0..12 {
            let c = h.cdf_at(v);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(h.cdf_at(9), 1.0);
        assert_eq!(h.cdf_at(100), 1.0);
        assert_eq!(h.cdf_at(u64::MAX), 1.0);
    }

    #[test]
    fn ccdf_complements_cdf() {
        let h = pmf(&[2, 5, 5, 9]);
        assert_eq!(h.ccdf_at(0), 1.0);
        assert_eq!(h.ccdf_at(2), 1.0);
        assert_eq!(h.ccdf_at(3), 0.75);
        assert_eq!(h.ccdf_at(6), 0.25);
        assert_eq!(h.ccdf_at(10), 0.0);
        for v in 0..12u64 {
            let complement = if v == 0 { 1.0 } else { 1.0 - h.cdf_at(v - 1) };
            assert!((h.ccdf_at(v) - complement).abs() < 1e-15, "v={v}");
        }
    }

    #[test]
    fn gapped_pmf_json_is_golden() {
        // Dense counts [5, 0, 3, 0, 0, 2]: zero bins never reach the
        // JSON, values ascend, moments are the exact integer ratios.
        let mut s = DistSketch::new();
        s.record_n(5, 2);
        s.record_n(0, 5);
        s.record_n(2, 3);
        assert_eq!(
            s.to_json(),
            "{\"kind\": \"exact\", \"count\": 10, \"mean\": 1.6, \
             \"variance\": 3.6399999999999997, \
             \"quantiles\": {\"p50\": 0, \"p90\": 5, \"p99\": 5, \"p999\": 5}, \
             \"values\": [0,2,5], \"counts\": [5,3,2]}"
        );
    }

    #[test]
    fn p2_tracks_uniform_median_closely() {
        // Deterministic LCG; no external RNG in the obs crate.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut p2 = P2Quantile::new(0.5);
        for _ in 0..20_000 {
            p2.record(next());
        }
        assert!(
            (p2.estimate() - 0.5).abs() < 0.02,
            "median estimate {}",
            p2.estimate()
        );
    }

    #[test]
    fn p2_exact_under_five_observations() {
        let mut p2 = P2Quantile::new(0.5);
        assert_eq!(p2.estimate(), 0.0);
        p2.record(10.0);
        assert_eq!(p2.estimate(), 10.0);
        p2.record(2.0);
        p2.record(6.0);
        assert_eq!(p2.estimate(), 6.0);
    }

    #[test]
    fn p2_tail_quantile_on_skewed_data() {
        let mut p2 = P2Quantile::new(0.9);
        // 0..=999 in a scrambled but deterministic order.
        for i in 0..1000u64 {
            p2.record(((i * 373) % 1000) as f64);
        }
        assert!(
            (p2.estimate() - 900.0).abs() < 25.0,
            "p90 estimate {}",
            p2.estimate()
        );
    }

    /// White-box P² invariants after every observation: marker heights
    /// sorted, marker positions strictly increasing, estimate within
    /// the observed `[min, max]`.
    fn assert_p2_invariants(p2: &P2Quantile, min: f64, max: f64, ctx: &str) {
        if p2.count >= 5 {
            for w in p2.heights.windows(2) {
                assert!(w[0] <= w[1], "{ctx}: heights out of order {:?}", p2.heights);
            }
            for w in p2.positions.windows(2) {
                assert!(
                    w[1] - w[0] >= 1.0,
                    "{ctx}: positions collapsed {:?}",
                    p2.positions
                );
            }
        }
        let e = p2.estimate();
        assert!(
            e >= min && e <= max,
            "{ctx}: estimate {e} outside [{min}, {max}]"
        );
    }

    /// Adversarial stream families for the quantile property tests:
    /// duplicate-heavy small alphabets, sawtooth patterns, alternating
    /// extremes, constants, and block-sorted runs — the shapes known to
    /// stress five-marker estimators.
    fn adversarial_stream(g: &mut banyan_prng::check::Gen) -> Vec<f64> {
        let len = g.usize(5..400);
        match g.u32(0..5) {
            0 => {
                // Duplicate-heavy: tiny alphabet, arbitrary scale.
                let alphabet = g.u64(1..6);
                let scale = g.f64(0.001..1e6);
                (0..len)
                    .map(|_| g.u64(0..alphabet) as f64 * scale)
                    .collect()
            }
            1 => {
                let period = g.u64(2..12);
                (0..len).map(|i| (i as u64 % period) as f64).collect()
            }
            2 => {
                let hi = g.f64(1.0..1e9);
                (0..len)
                    .map(|i| if i % 2 == 0 { 0.0 } else { hi })
                    .collect()
            }
            3 => vec![g.f64(-100.0..100.0); len],
            _ => {
                // Ascending or descending run with duplicates.
                let mut v: Vec<f64> = (0..len).map(|i| (i / 3) as f64).collect();
                if g.u32(0..2) == 0 {
                    v.reverse();
                }
                v
            }
        }
    }

    #[test]
    fn p2_markers_stay_ordered_and_bounded_on_adversarial_streams() {
        banyan_prng::check::check(64, |g| {
            let stream = adversarial_stream(g);
            let q = g.pick(&[0.5, 0.9, 0.99, 0.999]);
            let mut p2 = P2Quantile::new(q);
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for (i, &x) in stream.iter().enumerate() {
                p2.record(x);
                min = min.min(x);
                max = max.max(x);
                assert_p2_invariants(&p2, min, max, &format!("q={q} step {i}"));
            }
        });
    }

    #[test]
    fn quantile_set_estimates_are_monotone_on_adversarial_streams() {
        banyan_prng::check::check(64, |g| {
            let stream = adversarial_stream(g);
            let mut qs = QuantileSet::new();
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for (i, &x) in stream.iter().enumerate() {
                qs.record(x);
                min = min.min(x);
                max = max.max(x);
                let est = qs.estimates();
                for w in est.windows(2) {
                    assert!(
                        w[0].0 < w[1].0 && w[0].1 <= w[1].1,
                        "step {i}: p{} = {} above p{} = {}",
                        w[0].0,
                        w[0].1,
                        w[1].0,
                        w[1].1
                    );
                }
                for &(p, e) in &est {
                    assert!(
                        e >= min && e <= max,
                        "step {i}: p{p} = {e} outside [{min}, {max}]"
                    );
                }
            }
        });
    }

    #[test]
    fn quantile_set_json_uses_repaired_estimates() {
        // A stream that provably crosses the raw p90/p99 estimators
        // (from the sawtooth family); the JSON must carry the repaired
        // monotone values.
        let mut qs = QuantileSet::new();
        for i in 0..100u64 {
            qs.record((i % 7) as f64);
        }
        let est = qs.estimates();
        let json = qs.to_json();
        for (p, e) in est {
            assert!(
                json.contains(&format!("\"{}\": {e}", quantile_label(p))),
                "json {json} missing repaired {p} -> {e}"
            );
        }
    }

    #[test]
    fn sketch_set_merges_across_names() {
        let set = SketchSet::new();
        let mut w1 = DistSketch::new();
        w1.record_n(1, 4);
        let mut w2 = DistSketch::new();
        w2.record_n(2, 6);
        set.merge_sketch("net.wait.total", &w1);
        set.merge_sketch("net.wait.total", &w2);
        let merged = set.get("net.wait.total").expect("present");
        assert_eq!(merged.total(), 10);
        assert!((merged.mean() - 1.6).abs() < 1e-12);
        assert!(set.get("missing").is_none());
        let json = set.snapshot_json();
        assert!(json.contains("\"net.wait.total\""));
        assert!(json.contains("\"kind\": \"exact\""));
    }

    #[test]
    fn sketch_json_contains_quantiles_and_pmf() {
        let mut s = DistSketch::new();
        s.record_n(0, 9);
        s.record_n(3, 1);
        let json = s.to_json();
        assert!(json.contains("\"count\": 10"));
        assert!(json.contains("\"p50\": 0"));
        assert!(json.contains("\"p999\": 3"));
        assert!(json.contains("\"values\": [0,3]"));
        assert!(json.contains("\"counts\": [9,1]"));
    }
}
