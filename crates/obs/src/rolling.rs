//! Ring-buffered time-windowed aggregates: live rate/latency signals
//! for long-running daemons.
//!
//! The run-scoped registry and sketches answer "what happened over the
//! whole run" — useless for a server that never exits. A
//! [`RollingStat`] answers "what happened over the last 1 s / 10 s /
//! 60 s", at any instant, with three per-window signals:
//!
//! * **count / sum / max** over a ring of [`SLOTS_PER_WINDOW`] sub-slots
//!   per window, so rates (`count / window`) decay smoothly as slots
//!   age out rather than resetting cliff-style;
//! * **P² quantiles** ([`QuantileSet`]: p50/p90/p99/p999) over window
//!   epochs: each window duration keeps a *current* (in-progress) and
//!   *previous* (completed) epoch estimator. A query reports the
//!   completed previous epoch when one exists — a full window of
//!   observations — and falls back to the in-progress epoch otherwise
//!   (`complete` in [`WindowSnapshot`] says which). P² streams can't
//!   subtract old observations, so epoch rotation is the windowing
//!   mechanism; the reported quantiles are therefore between one and
//!   two windows old at worst, and the satellite tests pin the
//!   rotation edges.
//!
//! **Hot-path contract:** [`RollingStat::record`] only appends to a
//! bounded staging vector under a mutex (tens of nanoseconds); the
//! slot/P² folding happens on the *query* side ([`snapshot`]) or
//! whenever a maintenance thread calls [`flush`]. If the staging
//! buffer fills before anyone drains it, further observations are
//! dropped and counted ([`dropped`]), never blocking a request.
//!
//! All methods take an optional explicit clock (`…_at` variants, in
//! nanoseconds since construction) so tests can drive window
//! boundaries deterministically.
//!
//! [`snapshot`]: RollingStat::snapshot
//! [`flush`]: RollingStat::flush
//! [`dropped`]: RollingStat::dropped

use crate::sketch::{QuantileSet, REPORT_QUANTILES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One tracked window duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Display label (`"1s"`).
    pub label: &'static str,
    /// Window length in seconds.
    pub secs: u64,
}

/// The default SLO windows: 1 s, 10 s, 60 s.
pub const DEFAULT_WINDOWS: &[WindowSpec] = &[
    WindowSpec { label: "1s", secs: 1 },
    WindowSpec { label: "10s", secs: 10 },
    WindowSpec { label: "60s", secs: 60 },
];

/// Ring slots per window (slot width = window / this).
pub const SLOTS_PER_WINDOW: u64 = 10;

/// Staging-buffer cap: observations beyond this between flushes are
/// dropped (and counted) rather than growing without bound.
const STAGING_CAP: usize = 1 << 20;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Labels for the reported quantiles, aligned with
/// [`REPORT_QUANTILES`].
pub const QUANTILE_LABELS: [&str; 4] = ["p50", "p90", "p99", "p999"];

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Absolute slot index this slot's contents belong to.
    index: u64,
    count: u64,
    sum: u64,
    max: u64,
}

#[derive(Debug)]
struct Epoch {
    /// Absolute epoch number (`nanos / window_nanos`).
    number: u64,
    quantiles: QuantileSet,
    count: u64,
}

impl Epoch {
    fn new(number: u64) -> Self {
        Epoch {
            number,
            quantiles: QuantileSet::new(),
            count: 0,
        }
    }
}

#[derive(Debug)]
struct WindowState {
    spec: WindowSpec,
    slot_nanos: u64,
    window_nanos: u64,
    slots: Vec<Slot>,
    current: Epoch,
    previous: Option<Epoch>,
}

impl WindowState {
    fn new(spec: WindowSpec) -> Self {
        let window_nanos = spec.secs * NANOS_PER_SEC;
        WindowState {
            spec,
            slot_nanos: window_nanos / SLOTS_PER_WINDOW,
            window_nanos,
            slots: vec![Slot::default(); SLOTS_PER_WINDOW as usize],
            current: Epoch::new(0),
            previous: None,
        }
    }

    /// Moves the epoch estimators up to the epoch containing `nanos`.
    fn rotate(&mut self, nanos: u64) {
        let epoch = nanos / self.window_nanos;
        if epoch == self.current.number {
            return;
        }
        let old = std::mem::replace(&mut self.current, Epoch::new(epoch));
        // The old estimator is "the previous window" only if it is
        // exactly one epoch behind; after an idle gap it is stale.
        self.previous = (old.number + 1 == epoch && old.count > 0).then_some(old);
    }

    fn record(&mut self, nanos: u64, value: u64) {
        self.rotate(nanos);
        let slot_index = nanos / self.slot_nanos;
        let slot = &mut self.slots[(slot_index % SLOTS_PER_WINDOW) as usize];
        if slot.index != slot_index {
            *slot = Slot {
                index: slot_index,
                ..Slot::default()
            };
        }
        slot.count += 1;
        slot.sum += value;
        slot.max = slot.max.max(value);
        self.current.quantiles.record(value as f64);
        self.current.count += 1;
    }

    fn snapshot(&mut self, nanos: u64) -> WindowSnapshot {
        self.rotate(nanos);
        let now_slot = nanos / self.slot_nanos;
        let oldest_live = now_slot.saturating_sub(SLOTS_PER_WINDOW - 1);
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for slot in &self.slots {
            if slot.index >= oldest_live && slot.index <= now_slot {
                count += slot.count;
                sum += slot.sum;
                max = max.max(slot.max);
            }
        }
        let (source, complete) = match &self.previous {
            Some(prev) if prev.count > 0 => (prev, true),
            _ => (&self.current, false),
        };
        let mut quantiles = [0.0f64; 4];
        if source.count > 0 {
            for ((q, est), slot) in source.quantiles.estimates().iter().zip(&mut quantiles) {
                debug_assert!(REPORT_QUANTILES.contains(q));
                *slot = *est;
            }
        }
        WindowSnapshot {
            spec: self.spec,
            count,
            sum,
            max,
            rate_per_sec: count as f64 / self.spec.secs as f64,
            quantiles,
            quantile_count: source.count,
            complete,
        }
    }
}

/// A point-in-time view of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// The window this snapshot describes.
    pub spec: WindowSpec,
    /// Observations in the last `spec.secs` seconds (ring slots).
    pub count: u64,
    /// Sum of those observations.
    pub sum: u64,
    /// Largest of those observations.
    pub max: u64,
    /// `count / spec.secs`.
    pub rate_per_sec: f64,
    /// P² estimates at [`REPORT_QUANTILES`] (all 0.0 when
    /// `quantile_count == 0`).
    pub quantiles: [f64; 4],
    /// Observations behind the quantile estimates.
    pub quantile_count: u64,
    /// True when the quantiles come from a completed previous epoch
    /// (a full window), false when from the in-progress epoch.
    pub complete: bool,
}

impl WindowSnapshot {
    /// Mean over the ring slots (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One stream of rolling-windowed observations (e.g. a route's request
/// latencies in µs).
#[derive(Debug)]
pub struct RollingStat {
    start: Instant,
    staging: Mutex<Vec<(u64, u64)>>,
    windows: Mutex<Vec<WindowState>>,
    total: AtomicU64,
    dropped: AtomicU64,
}

impl Default for RollingStat {
    fn default() -> Self {
        RollingStat::new()
    }
}

impl RollingStat {
    /// A stream over [`DEFAULT_WINDOWS`], anchored now.
    pub fn new() -> Self {
        RollingStat::with_windows(DEFAULT_WINDOWS)
    }

    /// A stream over caller-chosen windows, anchored now.
    pub fn with_windows(specs: &[WindowSpec]) -> Self {
        assert!(!specs.is_empty(), "rolling stat needs at least one window");
        RollingStat {
            start: Instant::now(),
            staging: Mutex::new(Vec::new()),
            windows: Mutex::new(specs.iter().map(|&s| WindowState::new(s)).collect()),
            total: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one observation now. Hot path: a bounded staged append.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_at(self.start.elapsed().as_nanos() as u64, value);
    }

    /// [`record`](Self::record) with an explicit clock (nanoseconds
    /// since construction). Timestamps are applied at flush time, so
    /// out-of-order records within one flush interval land in their
    /// recorded slot/epoch.
    #[inline]
    pub fn record_at(&self, nanos: u64, value: u64) {
        let mut staged = self.staging.lock().expect("rolling staging poisoned");
        if staged.len() >= STAGING_CAP {
            drop(staged);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        staged.push((nanos, value));
        drop(staged);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds staged observations into the window structures. Called
    /// automatically by [`snapshot`](Self::snapshot); a maintenance
    /// thread may also call it periodically to bound staging growth.
    pub fn flush(&self) {
        let staged = {
            let mut staging = self.staging.lock().expect("rolling staging poisoned");
            std::mem::take(&mut *staging)
        };
        if staged.is_empty() {
            return;
        }
        let mut windows = self.windows.lock().expect("rolling windows poisoned");
        for (nanos, value) in staged {
            for w in windows.iter_mut() {
                w.record(nanos, value);
            }
        }
    }

    /// Per-window snapshots, one per configured window, now.
    pub fn snapshot(&self) -> Vec<WindowSnapshot> {
        self.snapshot_at(self.start.elapsed().as_nanos() as u64)
    }

    /// [`snapshot`](Self::snapshot) with an explicit clock.
    pub fn snapshot_at(&self, nanos: u64) -> Vec<WindowSnapshot> {
        self.flush();
        let mut windows = self.windows.lock().expect("rolling windows poisoned");
        windows.iter_mut().map(|w| w.snapshot(nanos)).collect()
    }

    /// Observations recorded (accepted into staging) since construction.
    pub fn total_count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Observations dropped because the staging buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::DistSketch;

    const S: u64 = NANOS_PER_SEC;

    fn one_sec() -> RollingStat {
        RollingStat::with_windows(&[WindowSpec { label: "1s", secs: 1 }])
    }

    #[test]
    fn count_sum_max_cover_exactly_the_window() {
        let r = one_sec();
        r.record_at(0, 10);
        r.record_at(S / 2, 30);
        let snap = &r.snapshot_at(S / 2)[0];
        assert_eq!((snap.count, snap.sum, snap.max), (2, 40, 30));
        assert_eq!(snap.mean(), 20.0);
        // 1.05 s later the slot holding the first observation has aged
        // out; the second (at 0.5 s, slot 5) is gone by 1.55 s.
        let snap = &r.snapshot_at(S + S / 20)[0];
        assert_eq!(snap.count, 1, "first slot aged out");
        assert_eq!(snap.max, 30);
        let snap = &r.snapshot_at(S + S * 11 / 20)[0];
        assert_eq!(snap.count, 0, "everything aged out");
        assert_eq!(snap.max, 0);
    }

    #[test]
    fn empty_window_quantile_queries_are_zero_and_incomplete() {
        let r = RollingStat::new();
        for snap in r.snapshot_at(5 * S) {
            assert_eq!(snap.count, 0);
            assert_eq!(snap.quantile_count, 0);
            assert!(!snap.complete);
            assert_eq!(snap.quantiles, [0.0; 4]);
            assert_eq!(snap.rate_per_sec, 0.0);
            assert_eq!(snap.mean(), 0.0);
        }
    }

    #[test]
    fn window_rotation_exactly_at_the_boundary() {
        let r = one_sec();
        // Epoch 0: the nanosecond *before* the boundary still belongs
        // to it; the boundary nanosecond itself opens epoch 1.
        r.record_at(S - 1, 7);
        r.record_at(S, 100);
        let snap = &r.snapshot_at(S)[0];
        // Quantiles come from the completed epoch 0 (the lone 7), not
        // the in-progress epoch 1.
        assert!(snap.complete);
        assert_eq!(snap.quantile_count, 1);
        assert_eq!(snap.quantiles[0], 7.0);
        // The ring still sees both observations (within the last 1 s).
        assert_eq!(snap.count, 2);

        // One full epoch with no records: the old "previous" is stale
        // and the estimator falls back to in-progress (empty) data.
        let snap = &r.snapshot_at(3 * S)[0];
        assert!(!snap.complete);
        assert_eq!(snap.quantile_count, 0);
        assert_eq!(snap.quantiles, [0.0; 4]);
    }

    #[test]
    fn in_progress_epoch_serves_quantiles_until_first_rotation() {
        let r = one_sec();
        for i in 0..100 {
            r.record_at(i, i);
        }
        let snap = &r.snapshot_at(S / 2)[0];
        assert!(!snap.complete, "epoch 0 is still in progress");
        assert_eq!(snap.quantile_count, 100);
        assert!(snap.quantiles[0] > 0.0);
        assert!(
            snap.quantiles[0] <= snap.quantiles[1]
                && snap.quantiles[1] <= snap.quantiles[2]
                && snap.quantiles[2] <= snap.quantiles[3],
            "{:?}",
            snap.quantiles
        );
    }

    #[test]
    fn sixty_second_window_agrees_with_exact_sketch_within_p2_tolerance() {
        let windows = &[WindowSpec { label: "60s", secs: 60 }];
        let r = RollingStat::with_windows(windows);
        let mut sketch = DistSketch::new();
        // A skewed integer stream (geometric-ish tail), all within one
        // 60 s epoch, deterministic xorshift.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 97) * (x % 13) / 12 + (i % 7);
            r.record_at(i * 10_000, v);
            sketch.record(v);
        }
        let snap = &r.snapshot_at(50 * S)[0];
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.quantile_count, 4000);
        for (slot, &q) in snap.quantiles.iter().zip(REPORT_QUANTILES.iter()) {
            let exact_at = |q| sketch.quantile(q).expect("non-empty") as f64;
            let exact = exact_at(q);
            let spread = exact_at(0.999) - exact_at(0.5);
            let tol = (0.10 * spread).max(2.0);
            assert!(
                (slot - exact).abs() <= tol,
                "q{q}: p2 {slot} vs exact {exact} (tol {tol})"
            );
        }
    }

    #[test]
    fn staging_cap_drops_and_counts_instead_of_growing() {
        let r = one_sec();
        // Reach the cap artificially by pre-filling staging.
        {
            let mut staged = r.staging.lock().unwrap();
            staged.resize(STAGING_CAP, (0, 0));
        }
        r.record_at(0, 1);
        assert_eq!(r.dropped(), 1);
        r.flush();
        r.record_at(0, 1);
        assert_eq!(r.dropped(), 1, "after a flush records are accepted again");
    }

    #[test]
    fn concurrent_records_all_arrive() {
        let r = std::sync::Arc::new(RollingStat::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..1000 {
                        r.record_at(t * 1000 + i, i % 50);
                    }
                });
            }
        });
        let snap = &r.snapshot_at(1000 * 4)[0];
        assert_eq!(snap.count, 4000);
        assert_eq!(r.total_count(), 4000);
    }
}
