//! Stage-sweep engine: one replication of an infinite-buffer,
//! destination-tag network, solved queue by queue instead of cycle by
//! cycle.
//!
//! With infinite buffers and no per-hop randomness, a queue's service
//! starts are a pure function of its arrival sequence — the paper's
//! model of a stage as a clocked queue fed by the previous stage's
//! departures. So each queue is solved by one merge of its parents'
//! departure streams plus one Lindley pass, stage by stage. A
//! [`StageSweep`] is built once per worker (digit table, inverse wiring,
//! scratch buffers) and runs that worker's replications one at a time,
//! reusing its buffers, so a worker holds one replication's working set.
//!
//! # Bit-identity contract
//!
//! [`StageSweep::run`] with seed `s` produces **bit-identical**
//! `NetworkStats` to `NetworkSim` run with seed `s`. The argument is
//! local:
//!
//! * RNG: generation replays the scalar engine's draw schedule on the
//!   same xoshiro256++ stream — one `next_u64` per port per cycle for the
//!   Bernoulli arrival, with the identical `(w >> 11) as f64 * 2⁻⁵³ < p`
//!   compare `gen_bool` performs, and the remaining arrival draws through
//!   [`Workload::sample_arrival_tail`](crate::traffic::Workload::sample_arrival_tail),
//!   the very code the scalar path runs.
//! * Order: generation visits cycles then ports ascending (the scalar
//!   inject order), and a queue's FIFO merges its parents' departures by
//!   arrival cycle with ties to the lowest source wire (the scalar
//!   serve's ascending-wire scan order).
//! * Digits: the same base-`k` destination digits the scalar engine
//!   extracts (MSB first), stored 4 bits apiece in a `dest → digits`
//!   table (hence `k ≤ 16`).
//! * Drain: the replication ends exactly where the scalar drain stops —
//!   one cycle after its last tracked delivery, never before the measure
//!   window closes. The statistics are integer state, so the tracked
//!   waits rows are folded in ordinal order; the scalar delivery order
//!   is never replayed.
//!
//! The pinned bit-assertion tests in `runner.rs` plus the seeded
//! property tests in `tests/properties.rs` enforce all of this.

use crate::network::{
    build_router, validate_and_build_topology, NetworkConfig, NetworkStats, ObsState, Router,
    Routing, HEARTBEAT_CHECK_CYCLES,
};
use banyan_obs::msgtrace::RepTrace;
use banyan_obs::Telemetry;
use banyan_prng::rngs::SmallRng;
use banyan_prng::{RngCore, SeedableRng};

/// Beyond this many ports the `dest → packed digits` table (8 bytes per
/// port) is not worth its memory. Same spirit as
/// `MAX_ROUTE_TABLE_ENTRIES`.
const MAX_DIGIT_TABLE_PORTS: usize = 1 << 22;

/// The `u64 → f64 ∈ [0, 1)` scale factor of the workspace PRNG's
/// standard float distribution. The inlined Bernoulli must reproduce
/// `Rng::gen_bool` bit-for-bit: same shift, same constant, same compare.
const F64_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// Upper bound on one replication's sweep working set, estimated at
/// about 16 bytes per message per stage (generation record, sub-stream
/// copies, wait row). Larger configurations run scalar, whose memory
/// scales with messages *in flight* rather than with the whole run.
const MAX_SWEEP_BYTES: u64 = 1 << 28;

/// Tile width (cycles) of the staircase sweep's frontier steps: large
/// enough that the per-(tile, stage, queue) merge bookkeeping
/// amortizes over many records, small enough that one tile's records
/// and their waits rows stay cache-resident across all `stages`
/// touches. 128 measured best on the Table I family (256 ports,
/// ρ = 0.2..0.8); the curve is flat within 64..256.
const TILE_CYCLES: u64 = 128;

/// Can the stage sweep run `cfg`? `Err` names the first requirement the
/// configuration fails, worded for a command-line diagnosis:
///
/// * destination-tag routing and infinite buffers — with no per-hop RNG
///   and no blocking, the serve phase is a pure function of the arrival
///   sequence, which is what lets each queue be solved by one Lindley
///   recursion instead of a cycle loop;
/// * `k ≤ 16` and at most 2²² ports — each stage's routing digit is
///   looked up in a `dest → digits` table packed 4 bits per stage;
/// * every cycle index up to the drain bound fits in a `u32` (sweep
///   records store cycles as `u32`);
/// * the expected working set (about 16 bytes per message per stage)
///   stays under 256 MiB.
pub fn sweep_eligible(cfg: &NetworkConfig) -> Result<(), String> {
    if let Routing::RandomDigit { .. } = cfg.routing {
        return Err("random-digit routing draws a digit per hop; \
                    the sweep needs destination-tag routing"
            .into());
    }
    if let Some(cap) = cfg.buffer_capacity {
        return Err(format!(
            "finite buffers (capacity {cap}) block forwarding; the sweep needs infinite buffers"
        ));
    }
    if cfg.k > 16 {
        return Err(format!(
            "the sweep packs routing digits 4 bits per stage, so k ≤ 16 is required (got k = {})",
            cfg.k
        ));
    }
    let ports = (cfg.k as u64)
        .checked_pow(cfg.stages)
        .filter(|&p| p <= MAX_DIGIT_TABLE_PORTS as u64)
        .ok_or_else(|| {
            format!(
                "{}^{} ports exceed the sweep's digit-table limit of {MAX_DIGIT_TABLE_PORTS}",
                cfg.k, cfg.stages
            )
        })?;
    let max_drain = 200 * cfg.stages as u64 + cfg.measure_cycles + 100_000;
    let fits_u32 = cfg
        .warmup_cycles
        .checked_add(cfg.measure_cycles)
        .and_then(|t| t.checked_add(max_drain))
        .is_some_and(|run| run <= u32::MAX as u64 - 16);
    if !fits_u32 {
        return Err(
            "warmup + measure + drain bound exceeds the sweep's 32-bit cycle indices".into(),
        );
    }
    let horizon = cfg.warmup_cycles + cfg.measure_cycles + 4 * cfg.stages as u64 + 64;
    let bytes = horizon as f64 * ports as f64 * cfg.workload.p * cfg.stages as f64 * 16.0;
    if bytes > MAX_SWEEP_BYTES as f64 {
        return Err(format!(
            "an expected working set of {:.0} MiB exceeds the sweep's per-replication bound of {} MiB",
            bytes / (1u64 << 20) as f64,
            MAX_SWEEP_BYTES >> 20
        ));
    }
    Ok(())
}

/// Register-resident xoshiro256++ for the generation loop: the identical
/// transition to [`SmallRng`], duplicated here so the per-draw step
/// inlines into the injection loop (the prng crate's concrete `next_u64`
/// is an out-of-line call across the crate boundary, and the sweep draws
/// once per port per cycle).
#[derive(Clone, Copy)]
struct InlineRng {
    s: [u64; 4],
}

impl InlineRng {
    /// The stream of `SmallRng::seed_from_u64(seed)`.
    fn seed_from_u64(seed: u64) -> Self {
        InlineRng {
            s: SmallRng::seed_from_u64(seed).state(),
        }
    }
}

impl RngCore for InlineRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Packs `dest`'s base-`k` digits MSB-first, 4 bits per stage — the
/// packed twin of `NetworkSim::dest_digits`.
#[inline]
fn pack_digits(dest: u64, k: u64, stages: usize) -> u64 {
    let mut packed = 0u64;
    let mut rem = dest;
    for j in (0..stages).rev() {
        packed |= (rem % k) << (4 * j);
        rem /= k;
    }
    packed
}

/// Sentinel id for sweep records of untracked (warmup/drain) messages.
const UNTRACKED: u32 = u32::MAX;

/// One message in the stage sweep, 16 bytes. The wire is implicit —
/// records live in per-`(wire, digit)` sub-streams — and `a` morphs: on
/// a stage-`j` input stream it holds the arrival cycle at that stage's
/// queue.
#[derive(Clone, Copy, Default)]
struct SweptMsg {
    /// Arrival cycle at the current stage's queue.
    a: u32,
    /// Destination port — per-stage digits come from the digit table.
    dest: u32,
    /// Service time (cycles per stage).
    size: u32,
    /// Tracked-message index into the waits array, or [`UNTRACKED`].
    id: u32,
}

/// Reusable buffers for one replication's stage sweep.
#[derive(Default)]
struct SweepScratch {
    /// Persistent per-`(stage, wire, digit)` sub-streams, append-only
    /// across tiles: a record departing stage `j < stages − 1` wire `q`
    /// toward digit `d` is appended to `subs[j·ports·k + q·k + d]`,
    /// which is one of the `k` sorted inputs stage `j + 1`'s wire
    /// merges. `cons` holds each sub-stream's consumed-prefix length
    /// (the merge's read cursor), `gen_cons` the same cursor for the
    /// stage-0 generation streams, and `busy` each `(stage, wire)`
    /// queue's persistent `busy_until` — together they let the tiled
    /// sweep suspend and resume every queue's merge mid-stream.
    subs: Vec<Vec<SweptMsg>>,
    cons: Vec<u32>,
    gen_cons: Vec<u32>,
    busy: Vec<u64>,
    /// Deliveries per cycle (final-stage service starts, tracked or
    /// not), indexed by cycle up to the horizon: the conservation
    /// counters and the slab high-water replay read it.
    deliveries: Vec<u32>,
    /// Occupancy-sampling scratch (metrics only): per-`(stage, wire)`
    /// arrival and service-start cycles accumulated across tiles, and
    /// the dense `[tick][stage][wire]` occupancy matrix of the current
    /// attempt.
    qav: Vec<Vec<u32>>,
    qsv: Vec<Vec<u32>>,
    occ: Vec<u32>,
}

/// Result of one sweep attempt at a given horizon.
enum SweepOutcome {
    /// Statistics folded; the replication ended at cycle `e`.
    Done { e: u64 },
    /// Some tracked message's computed service start reached the
    /// horizon, so downstream values are untrustworthy; regenerate out
    /// to at least `needed` cycles and re-sweep.
    Retry { needed: u64 },
    /// The horizon already sits past the drain bound and `count`
    /// tracked messages still finish beyond it — the scalar engine's
    /// drain would have panicked here.
    Stuck { count: u64 },
}

/// Inverse wiring of every stage transition: `tables[j][q'·k..][..k]`
/// (for `j ≥ 1`) lists the sub-stream ids `q·k + d` whose records route
/// to stage-`j` wire `q'`, source-wire ascending — which is exactly the
/// scalar serve's insertion tie-break order for same-cycle arrivals.
/// Returns `None` if any wire's in-degree differs from `k`; the omega
/// and butterfly wirings are `k`-in-regular (each stage is a
/// permutation into `k × k` switches), which a unit test asserts.
fn build_parent_tables(
    router: &Router,
    ports: usize,
    k: usize,
    stages: usize,
) -> Option<Vec<Vec<u32>>> {
    let mut tables = vec![Vec::new()]; // stage 0 is fed by generation
    for j in 1..stages {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); ports];
        for q in 0..ports {
            for d in 0..k {
                lists[router.next(j, ports, k, q, d)].push((q * k + d) as u32);
            }
        }
        if lists.iter().any(|l| l.len() != k) {
            return None;
        }
        tables.push(lists.into_iter().flatten().collect());
    }
    Some(tables)
}

/// Per-record state of one queue's Lindley walk inside [`sweep_attempt`]:
/// `free` is the scalar `busy_until`, everything else is the stage-pass
/// context the record handler needs. Kept as a named struct with an
/// `#[inline(always)]` method instead of a closure: the handler is
/// called from every merge site and LLVM outlines the closure form,
/// which costs an out-of-line call (plus a stack round-trip for the
/// record and the captured state) per record — about 3× the whole
/// sweep.
struct RecCtx<'a, const OCC: bool> {
    stages: usize,
    j: usize,
    k: usize,
    q: usize,
    last: bool,
    horizon: u64,
    hard_bound: u64,
    dummy: usize,
    digit_table: &'a [u64],
    waits: &'a mut [u32],
    avals: &'a mut Vec<u32>,
    svals: &'a mut Vec<u32>,
    deliveries: &'a mut [u32],
    next_subs: &'a mut [Vec<SweptMsg>],
    free: u64,
    max_tracked_s: u64,
    /// Tracked deliveries past `hard_bound` (only possible at the
    /// horizon cap).
    past_bound: u64,
}

impl<const OCC: bool> RecCtx<'_, OCC> {
    /// Serves one record at this queue: Lindley update, wait write,
    /// then either a delivery count (last stage) or a push into the next
    /// stage's sub-stream selected by the routing digit.
    #[inline(always)]
    fn do_rec(&mut self, rec: SweptMsg) {
        let a = rec.a;
        let s64 = (a as u64).max(self.free);
        self.free = s64 + rec.size as u64;
        let s = s64.min(self.horizon) as u32;
        self.waits[(rec.id as usize).min(self.dummy) * self.stages + self.j] = s - a;
        if OCC {
            self.avals.push(a);
            self.svals.push(s);
        }
        if self.last {
            if rec.id != UNTRACKED {
                self.max_tracked_s = self.max_tracked_s.max(s64);
                self.past_bound += u64::from(u64::from(s) > self.hard_bound);
            }
            self.deliveries[s as usize] += 1;
        } else {
            let d = ((self.digit_table[rec.dest as usize] >> (4 * (self.j + 1))) & 0xF) as usize;
            self.next_subs[self.q * self.k + d].push(SweptMsg {
                a: (s64 + 1).min(self.horizon) as u32,
                ..rec
            });
        }
    }
}

/// One sweep attempt over one replication with injections generated for
/// cycles `0..horizon`: stage by stage, each wire's FIFO is materialized
/// by merging its `k` parent sub-streams (sorted by arrival, ties broken
/// by source wire — the scalar serve's insertion order), walked once
/// with the per-queue Lindley recursion, and split by next-stage digit
/// into the `k` sub-streams the next stage merges. Departures leave a
/// queue at most once per cycle with the service start strictly
/// increasing, so every sub-stream stays sorted and the merge
/// reproduces exactly the scalar engine's queue contents — with each
/// message touched `O(stages)` times and no per-cycle scan at all.
///
/// Service starts computed below the horizon are exact — arrivals past
/// the horizon can only queue *behind* them — so an attempt is accepted
/// only when every tracked message's final service start is below the
/// horizon; values at or past it are clamped to the horizon (keeping
/// them detectably large downstream) and the caller extends the
/// generation and retries.
#[allow(clippy::too_many_arguments)]
fn sweep_attempt<const OCC: bool>(
    stages: usize,
    ports: usize,
    k: usize,
    horizon: u64,
    hard_bound: u64,
    at_cap: bool,
    gen_q: &[Vec<SweptMsg>],
    inj: &[u32],
    digit_table: &[u64],
    parents: &[Vec<u32>],
    waits: &mut [u32],
    stats: &mut NetworkStats,
    n_tracked: u32,
    measured_end: u64,
    scratch: &mut SweepScratch,
    sample_every: u64,
    slab_hwm: &mut u64,
) -> SweepOutcome {
    let SweepScratch {
        subs,
        cons,
        gen_cons,
        busy,
        deliveries,
        qav,
        qsv,
        occ,
    } = scratch;
    let pk = ports * k;
    let nsubs = (stages - 1) * pk;
    if subs.len() < nsubs {
        subs.resize_with(nsubs, Vec::new);
    }
    for v in subs.iter_mut() {
        v.clear();
    }
    cons.clear();
    cons.resize(nsubs, 0);
    gen_cons.clear();
    gen_cons.resize(ports, 0);
    busy.clear();
    busy.resize(stages * ports, 0);
    // Service starts are clamped to the horizon, so cycles
    // `0..=horizon` cover every delivery.
    deliveries.clear();
    deliveries.resize(horizon as usize + 1, 0);
    let nt = if OCC {
        (horizon / sample_every) as usize
    } else {
        0
    };
    if OCC {
        occ.clear();
        occ.resize(nt * stages * ports, 0);
        if qav.len() < stages * ports {
            qav.resize_with(stages * ports, Vec::new);
            qsv.resize_with(stages * ports, Vec::new);
        }
        for v in qav.iter_mut() {
            v.clear();
        }
        for v in qsv.iter_mut() {
            v.clear();
        }
    }
    // Untracked records write their wait into a spare dummy row past the
    // tracked block — one `min` instead of a per-record branch.
    let dummy = n_tracked as usize;
    let mut max_tracked_s = 0u64;
    let mut past_bound = 0u64;
    // OCC-off stand-ins for the RecCtx occupancy fields (the const
    // branch in `do_rec` never touches them).
    let (mut no_av, mut no_sv) = (Vec::new(), Vec::new());
    // Time-tiled staircase: advance a frontier `t_end` in `TILE_CYCLES`
    // steps; within one pass, stage `j` consumes the arrivals up to
    // `t_end − j`. Stage `j − 1` runs first in the same pass with limit
    // `t_end − j + 1`, and anything it consumes in a *later* pass
    // departs at `s + 1 > t_end − j + 2`, so every stage-`j` arrival
    // `≤ t_end − j` already sits in its sub-stream when stage `j` runs.
    // Each pass therefore sees exactly the records a full
    // stage-by-stage sweep would, just in cache-sized slices: a tile's
    // records and their waits rows stay hot across all `stages`
    // touches instead of being streamed from memory once per stage.
    let final_t = horizon + stages as u64;
    let mut t_end = 0u64;
    while t_end < final_t {
        t_end = (t_end + TILE_CYCLES).min(final_t);
        for j in 0..stages {
            let last = j + 1 == stages;
            let limit64 = t_end.saturating_sub(j as u64).min(horizon);
            if limit64 == 0 {
                continue;
            }
            let limit = limit64 as u32;
            // Block `j` of `subs` is written by stage `j` and read by
            // stage `j + 1`; the final stage counts deliveries instead
            // (its `rest` slice is empty).
            let take = if last { 0 } else { pk };
            let (done, rest) = subs.split_at_mut(j * pk);
            let prev: &[Vec<SweptMsg>] = if j == 0 { &[] } else { &done[(j - 1) * pk..] };
            let next = &mut rest[..take];
            let par_j = &parents[j];
            let busy_j = j * ports;
            for q in 0..ports {
                let (av, sv) = if OCC {
                    (&mut qav[busy_j + q], &mut qsv[busy_j + q])
                } else {
                    (&mut no_av, &mut no_sv)
                };
                // The per-queue Lindley walk over this wire's FIFO:
                // `free` is the scalar `busy_until` (persisted across
                // tiles), `s` the cycle the head's serve starts, and
                // the record leaves carrying its arrival cycle at the
                // next stage. `RecCtx::do_rec` is forced inline at
                // every merge site — as a closure LLVM outlines it,
                // and an out-of-line call per record roughly triples
                // the whole sweep's cost.
                let mut ctx = RecCtx::<OCC> {
                    stages,
                    j,
                    k,
                    q,
                    last,
                    horizon,
                    hard_bound,
                    dummy,
                    digit_table,
                    waits: &mut *waits,
                    avals: av,
                    svals: sv,
                    deliveries: &mut deliveries[..],
                    next_subs: &mut next[..],
                    free: busy[busy_j + q],
                    max_tracked_s,
                    past_bound,
                };
                if j == 0 {
                    // Stage 0's FIFO is the generation stream itself
                    // (cycle-then-port order — the scalar inject
                    // order).
                    let sq = &gen_q[q][..];
                    let mut i = gen_cons[q] as usize;
                    while i < sq.len() && sq[i].a <= limit {
                        ctx.do_rec(sq[i]);
                        i += 1;
                    }
                    gen_cons[q] = i as u32;
                } else if k == 2 {
                    let cbase = (j - 1) * pk;
                    let p0 = par_j[q * 2] as usize;
                    let p1 = par_j[q * 2 + 1] as usize;
                    let s0 = &prev[p0][..];
                    let s1 = &prev[p1][..];
                    let mut i0 = cons[cbase + p0] as usize;
                    let mut i1 = cons[cbase + p1] as usize;
                    loop {
                        // Exhausted streams read as `u32::MAX`, always
                        // past `limit` (cycles fit `u32::MAX − 16`).
                        let a0 = if i0 < s0.len() { s0[i0].a } else { u32::MAX };
                        let a1 = if i1 < s1.len() { s1[i1].a } else { u32::MAX };
                        // `<=` keeps same-cycle ties on the lower
                        // source wire, the scalar insertion order.
                        if a0 <= a1 {
                            if a0 > limit {
                                break;
                            }
                            ctx.do_rec(s0[i0]);
                            i0 += 1;
                        } else {
                            if a1 > limit {
                                break;
                            }
                            ctx.do_rec(s1[i1]);
                            i1 += 1;
                        }
                    }
                    cons[cbase + p0] = i0 as u32;
                    cons[cbase + p1] = i1 as u32;
                } else {
                    let cbase = (j - 1) * pk;
                    let base = q * k;
                    let mut idx = [0usize; 16];
                    for (i, &sub) in par_j[base..base + k].iter().enumerate() {
                        idx[i] = cons[cbase + sub as usize] as usize;
                    }
                    loop {
                        let mut best = usize::MAX;
                        let mut best_a = u32::MAX;
                        for (i, &sub) in par_j[base..base + k].iter().enumerate() {
                            let s = &prev[sub as usize];
                            // Strict `<` with ascending `i`: ties go to
                            // the lowest source wire (parents are
                            // wire-sorted).
                            if idx[i] < s.len() && s[idx[i]].a < best_a {
                                best_a = s[idx[i]].a;
                                best = i;
                            }
                        }
                        if best_a > limit {
                            break;
                        }
                        let rec = prev[par_j[base + best] as usize][idx[best]];
                        idx[best] += 1;
                        ctx.do_rec(rec);
                    }
                    for (i, &sub) in par_j[base..base + k].iter().enumerate() {
                        cons[cbase + sub as usize] = idx[i] as u32;
                    }
                }
                busy[busy_j + q] = ctx.free;
                max_tracked_s = ctx.max_tracked_s;
                past_bound = ctx.past_bound;
            }
        }
        // Reclaim consumed prefixes: move each sub-stream's unconsumed
        // tail (records still past the frontier — the queue backlog) to
        // the front and reset its cursor. This keeps every sub-stream
        // tile-sized, so the whole scratch recycles a few dozen MB of
        // hot pages instead of materializing every stage's full stream.
        for (v, c) in subs.iter_mut().zip(cons.iter_mut()) {
            let n = *c as usize;
            if n > 0 {
                let len = v.len();
                v.copy_within(n.., 0);
                v.truncate(len - n);
                *c = 0;
            }
        }
    }
    if OCC && nt > 0 {
        // Queue-occupancy samples at ticks T = s_e, 2·s_e, …: length
        // after the serve of cycle T − 1 is (#pushes ≤ T − 1) −
        // (#pops ≤ T − 1). A first-stage push happens at the arrival
        // cycle itself; later stages are pushed during the previous
        // stage's serve, one cycle before their arrival here.
        for j in 0..stages {
            let theta_off = u32::from(j == 0);
            for q in 0..ports {
                let avals = &qav[j * ports + q];
                let svals = &qsv[j * ports + q];
                let end = avals.len();
                let (mut pi, mut si) = (0, 0);
                for ti in 0..nt {
                    let t = ((ti as u64 + 1) * sample_every) as u32;
                    while pi < end && avals[pi] <= t - theta_off {
                        pi += 1;
                    }
                    while si < end && svals[si] < t {
                        si += 1;
                    }
                    if pi > si {
                        occ[(ti * stages + j) * ports + q] = (pi - si) as u32;
                    } else if si >= end {
                        break;
                    }
                }
            }
        }
    }
    if max_tracked_s >= horizon {
        if !at_cap {
            return SweepOutcome::Retry {
                needed: max_tracked_s + 1,
            };
        }
        return SweepOutcome::Stuck { count: past_bound };
    }
    // Accepted: every tracked service start is exact. The replication
    // ends exactly where the scalar drain stops — one cycle after the
    // last tracked delivery, but never before the measure window
    // closes.
    let e = if n_tracked == 0 {
        measured_end
    } else {
        measured_end.max(max_tracked_s + 1)
    };
    stats.cycles = e;
    stats.injected = n_tracked as u64;
    stats.injected_total = inj[..e as usize].iter().map(|&c| c as u64).sum();
    // Every tracked message is delivered before `e`. The statistics are
    // integer state, so the waits rows fold in ordinal order.
    for row in waits[..n_tracked as usize * stages].chunks_exact(stages) {
        stats.record_delivery(row);
    }
    let delivered_total: u64 = deliveries[..e as usize].iter().map(|&c| c as u64).sum();
    stats.delivered_total = delivered_total;
    stats.in_flight_at_end = stats.injected_total - delivered_total;
    // Slab high-water reconstruction: the scalar slab grows only when
    // concurrent live messages exceed every previous peak, and within a
    // cycle injections precede the serves that free slots, so the peak
    // is max over cycles of (live after injecting).
    let mut live = 0u64;
    let mut hwm = 0u64;
    for (&injected, &delivered) in inj[..e as usize].iter().zip(&deliveries[..e as usize]) {
        live += injected as u64;
        hwm = hwm.max(live);
        live -= delivered as u64;
    }
    *slab_hwm = hwm;
    SweepOutcome::Done { e }
}

/// The stage-sweep engine for one configuration: built once per worker
/// with [`StageSweep::new`], then run once per replication with
/// [`StageSweep::run`]. Every buffer is reused across replications.
pub(crate) struct StageSweep {
    cfg: NetworkConfig,
    ports: usize,
    k: usize,
    stages: usize,
    router: Router,
    /// `dest → packed digits`, 4 bits per stage (see [`pack_digits`]).
    digit_table: Vec<u64>,
    /// Inverse wiring of every stage (see [`build_parent_tables`]).
    parents: Vec<Vec<u32>>,
    /// Generated injections per stage-0 wire, in FIFO arrival order.
    gen_q: Vec<Vec<SweptMsg>>,
    /// Injections per cycle.
    inj: Vec<u32>,
    /// Per-stage waits, stride `stages`, indexed by tracked ordinal, plus
    /// one spare row that absorbs untracked records' writes.
    waits: Vec<u32>,
    scratch: SweepScratch,
}

/// Generation cursor of one replication: its RNG state, the first cycle
/// not yet generated, and the tracked injections so far.
struct GenState {
    rng: InlineRng,
    upto: u64,
    tracked: u32,
}

impl StageSweep {
    /// Builds the sweep for `cfg`.
    ///
    /// # Panics
    /// Panics on invalid configurations (same rules as
    /// [`crate::network::NetworkSim::new`]) or when `cfg` fails
    /// [`sweep_eligible`], naming the failed requirement.
    pub(crate) fn new(cfg: &NetworkConfig) -> Self {
        let topo = validate_and_build_topology(cfg);
        if let Err(why) = sweep_eligible(cfg) {
            panic!("the stage-sweep engine cannot run this configuration: {why}");
        }
        let router = build_router(cfg);
        let ports = topo.ports() as usize;
        let (k, stages) = (cfg.k as usize, cfg.stages as usize);
        let parents = build_parent_tables(&router, ports, k, stages)
            .expect("omega and butterfly wirings are k-in-regular");
        StageSweep {
            digit_table: (0..ports)
                .map(|d| pack_digits(d as u64, cfg.k as u64, stages))
                .collect(),
            parents,
            router,
            ports,
            k,
            stages,
            gen_q: vec![Vec::new(); ports],
            inj: Vec::new(),
            waits: Vec::new(),
            scratch: SweepScratch::default(),
            cfg: cfg.clone(),
        }
    }

    /// Runs one replication seeded `seed` through warmup → measure →
    /// drain — the shape of [`crate::network::NetworkSim::run_traced`].
    /// Statistics, telemetry and (with `rt = Some(..)`) the sampled
    /// message records are identical to the scalar engine's for the same
    /// seed; the run additionally counts itself in `net.lane_runs`.
    pub(crate) fn run(
        &mut self,
        seed: u64,
        tel: &Telemetry,
        rt: Option<RepTrace>,
    ) -> (NetworkStats, Option<RepTrace>) {
        match (tel.active(), rt.is_some()) {
            (true, true) => self.drive::<true, true>(seed, tel, rt),
            (true, false) => self.drive::<true, false>(seed, tel, rt),
            (false, true) => self.drive::<false, true>(seed, tel, rt),
            (false, false) => self.drive::<false, false>(seed, tel, rt),
        }
    }

    /// Extends the replication's injections to cycle `to`, appending each
    /// hit to its stage-0 wire's stream `gen_q[wire]` — within a wire that
    /// is exactly the queue's FIFO arrival order, because the scalar
    /// inject scans ports ascending within a cycle. The generator state
    /// lives in registers for each heartbeat-sized chunk, and the draw
    /// sequence — one Bernoulli word per port per cycle, plus the arrival
    /// tail on hits — is the scalar engine's, verbatim.
    ///
    /// Generating past the replication's eventual end cycle is harmless:
    /// its statistics never depend on the RNG state after its final
    /// cycle, and injections at cycle `t` are a pure prefix function of
    /// the stream, so every record with `a < e` is the one the scalar run
    /// makes.
    fn generate_to<const OBS: bool, const TRACE: bool>(
        &mut self,
        g: &mut GenState,
        to: u64,
        mut rt: Option<&mut RepTrace>,
        tel: &Telemetry,
    ) {
        let p = self.cfg.workload.p;
        let (ports, k, stages) = (self.ports, self.k, self.stages);
        let dig_k = self.cfg.k as u64;
        let tracked_from = self.cfg.warmup_cycles;
        let tracked_to = self.cfg.warmup_cycles + self.cfg.measure_cycles;
        let workload = &self.cfg.workload;
        let digit_table = &self.digit_table[..];
        let router = &self.router;
        while g.upto < to {
            let next = (g.upto + HEARTBEAT_CHECK_CYCLES).min(to);
            let mut rng = g.rng;
            for t in g.upto..next {
                let tracked = t >= tracked_from && t < tracked_to;
                let mut injected = 0u32;
                for input in 0..ports {
                    let w = rng.next_u64();
                    // Bit-exact `gen_bool`: same shift, scale, compare.
                    if ((w >> 11) as f64 * F64_SCALE) < p {
                        let (dest, size) =
                            workload.sample_arrival_tail(&mut rng, input as u64, ports as u64);
                        let digit = (digit_table[dest as usize] & 0xF) as usize;
                        let q = router.next(0, ports, k, input, digit);
                        let id = if tracked {
                            // Generation visits injections in the scalar
                            // inject order, so the tracked counter *is*
                            // the cross-engine message ordinal and
                            // sampling here selects the exact set the
                            // scalar engine selects. Waits are filled in
                            // once the sweep is accepted.
                            let i = g.tracked;
                            g.tracked += 1;
                            if TRACE {
                                let tr = rt.as_deref_mut().expect("trace state");
                                if tr.sampled(u64::from(i)) {
                                    let idx = tr.begin(u64::from(i), t);
                                    tr.set_digits_from_dest(idx, dest, dig_k, stages);
                                }
                            }
                            i
                        } else {
                            UNTRACKED
                        };
                        self.gen_q[q].push(SweptMsg {
                            a: t as u32,
                            dest: dest as u32,
                            size,
                            id,
                        });
                        injected += 1;
                    }
                }
                self.inj.push(injected);
            }
            g.rng = rng;
            g.upto = next;
            if OBS {
                tel.heartbeat_tick();
            }
        }
    }

    /// The replication protocol, monomorphized like the scalar drive:
    /// generate the whole injection stream, then solve it stage by stage
    /// ([`sweep_attempt`]), extending the horizon until every tracked
    /// message's delivery is exact.
    fn drive<const OBS: bool, const TRACE: bool>(
        &mut self,
        seed: u64,
        tel: &Telemetry,
        mut rt: Option<RepTrace>,
    ) -> (NetworkStats, Option<RepTrace>) {
        let (stages, ports, k) = (self.stages, self.ports, self.k);
        let cfg = &self.cfg;
        let mut stats = NetworkStats::new(cfg.stages, cfg.collect_correlations);
        let mut obs = OBS.then(|| ObsState::new(tel, stages));
        let collect_occ = obs.as_ref().is_some_and(|o| o.metrics);
        let sample_every = obs.as_ref().map_or(u64::MAX, |o| o.sample_every);
        let w_cycles = cfg.warmup_cycles;
        let measured_end = w_cycles + cfg.measure_cycles;
        let max_drain = 200 * stages as u64 + cfg.measure_cycles + 100_000;
        // The cycle at which the scalar drain's `drained <= max_drain`
        // assertion allows the last delivery; anything later panics.
        let hard_bound = measured_end + max_drain;
        let h_cap = hard_bound + 2;
        let slack = 4 * stages as u64 + 64;
        // Pre-size each wire's stream for its expected arrival count
        // (cycles × p, one Bernoulli per input port spread over `ports`
        // wires) so the generation loop almost never reallocates.
        let est_per_wire = ((measured_end + slack) as f64 * cfg.workload.p * 1.15) as usize + 16;
        for q in &mut self.gen_q {
            q.clear();
            q.reserve(est_per_wire);
        }
        self.inj.clear();
        let mut g = GenState {
            rng: InlineRng::seed_from_u64(seed),
            upto: 0,
            tracked: 0,
        };
        {
            let _span = tel.span("net/warmup");
            self.generate_to::<OBS, TRACE>(&mut g, w_cycles, rt.as_mut(), tel);
        }
        {
            let _span = tel.span("net/measure");
            self.generate_to::<OBS, TRACE>(&mut g, measured_end, rt.as_mut(), tel);
        }
        let mut slab_hwm = 0u64;
        let e = {
            let _span = tel.span("net/drain");
            let mut horizon = (measured_end + slack).min(h_cap);
            loop {
                self.generate_to::<OBS, TRACE>(&mut g, horizon, rt.as_mut(), tel);
                // One spare row past the tracked block absorbs the
                // branchless untracked wait writes.
                self.waits.resize((g.tracked as usize + 1) * stages, 0);
                macro_rules! sweep {
                    ($occ:expr) => {
                        sweep_attempt::<$occ>(
                            stages,
                            ports,
                            k,
                            horizon,
                            hard_bound,
                            horizon >= h_cap,
                            &self.gen_q,
                            &self.inj,
                            &self.digit_table,
                            &self.parents,
                            &mut self.waits,
                            &mut stats,
                            g.tracked,
                            measured_end,
                            &mut self.scratch,
                            sample_every,
                            &mut slab_hwm,
                        )
                    };
                }
                let outcome = if collect_occ {
                    sweep!(true)
                } else {
                    sweep!(false)
                };
                match outcome {
                    SweepOutcome::Done { e } => break e,
                    SweepOutcome::Retry { needed } => {
                        horizon = (horizon + horizon / 2).max(needed + slack).min(h_cap);
                    }
                    SweepOutcome::Stuck { count } => panic!(
                        "drain did not complete: {count} tracked messages stuck \
                         (load too close to 1?)"
                    ),
                }
            }
        };
        if TRACE {
            // Waits rows are ordinal-indexed, so the sampled records
            // (begun at generation time) are completed straight from the
            // accepted sweep's wait matrix.
            let tr = rt.as_mut().expect("trace state");
            for (idx, ord) in tr.entries() {
                tr.set_waits(idx, &self.waits[ord as usize * stages..][..stages]);
            }
        }
        if let Some(o) = obs.as_mut() {
            if collect_occ {
                // Replay the occupancy samples the scalar run takes at
                // cycles sample_every, 2·sample_every, … up to its end.
                for ti in 0..(e / sample_every) as usize {
                    for st in 0..stages {
                        let row = &self.scratch.occ[(ti * stages + st) * ports..][..ports];
                        o.sample_stage(st, row.iter().map(|&len| u64::from(len)));
                    }
                }
            }
            o.flush_final(&stats, slab_hwm);
            if o.metrics {
                tel.registry().counter("net.lane_runs").inc();
            }
        }
        (stats, rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkSim;
    use crate::traffic::{ServiceDist, Workload};
    use banyan_obs::registry::POW2_BOUNDS;
    use banyan_obs::TelemetryConfig;

    fn quick_cfg(k: u32, stages: u32, p: f64, m: u32) -> NetworkConfig {
        NetworkConfig {
            warmup_cycles: 300,
            measure_cycles: 2_000,
            ..NetworkConfig::new(k, stages, Workload::uniform(p, m))
        }
    }

    fn scalar_run(cfg: &NetworkConfig, seed: u64) -> NetworkStats {
        let mut c = cfg.clone();
        c.seed = seed;
        NetworkSim::new(c).run()
    }

    /// Each seed through one reused sweep, compared to its scalar run.
    fn assert_sweep_matches_scalar(cfg: &NetworkConfig, reps: u64, ctx: &str) -> Vec<NetworkStats> {
        let mut sweep = StageSweep::new(cfg);
        (0..reps)
            .map(|i| {
                let seed = cfg.seed.wrapping_add(i);
                let swept = sweep.run(seed, &Telemetry::off(), None).0;
                assert_eq!(swept, scalar_run(cfg, seed), "{ctx} rep {i}");
                swept
            })
            .collect()
    }

    #[test]
    fn packed_digits_match_scalar_extraction() {
        for (k, stages) in [(2u64, 6usize), (3, 4), (16, 5), (10, 3)] {
            let ports = k.pow(stages as u32);
            for dest in [0, 1, ports / 2, ports - 1] {
                let packed = pack_digits(dest, k, stages);
                let mut rem = dest;
                let mut expect = vec![0u64; stages];
                for d in expect.iter_mut().rev() {
                    *d = rem % k;
                    rem /= k;
                }
                for (j, &d) in expect.iter().enumerate() {
                    assert_eq!(
                        (packed >> (4 * j)) & 0xF,
                        d,
                        "k={k} stages={stages} dest={dest} digit {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn inline_rng_matches_scalar_stream() {
        for seed in [7u64, 0, u64::MAX, 0xDEAD] {
            let mut inline = InlineRng::seed_from_u64(seed);
            let mut scalar = SmallRng::seed_from_u64(seed);
            for round in 0..64 {
                assert_eq!(
                    inline.next_u64(),
                    scalar.next_u64(),
                    "seed {seed} round {round}"
                );
            }
        }
    }

    #[test]
    fn reused_sweep_matches_every_scalar_replication() {
        assert_sweep_matches_scalar(&quick_cfg(2, 4, 0.6, 2), 2, "m=2");
        assert_sweep_matches_scalar(&quick_cfg(2, 3, 0.5, 1), 7, "uniform");
    }

    #[test]
    fn sweep_matches_scalar_for_hotspot_and_geometric_service() {
        let mut cfg = NetworkConfig::new(
            2,
            3,
            Workload {
                p: 0.3,
                q: 0.2,
                service: ServiceDist::Geometric(0.5),
            },
        );
        cfg.warmup_cycles = 200;
        cfg.measure_cycles = 1_500;
        assert_sweep_matches_scalar(&cfg, 6, "hotspot");
    }

    #[test]
    fn sweep_matches_scalar_with_correlations() {
        let mut cfg = quick_cfg(2, 5, 0.5, 1);
        cfg.collect_correlations = true;
        for sw in assert_sweep_matches_scalar(&cfg, 3, "corr") {
            assert_eq!(sw.correlations.expect("collected").count(), sw.delivered);
        }
    }

    #[test]
    fn butterfly_routing_and_wider_switches_match_scalar() {
        let mut cfg = quick_cfg(2, 5, 0.5, 1);
        cfg.routing = Routing::Butterfly;
        assert_sweep_matches_scalar(&cfg, 3, "butterfly");
        assert_sweep_matches_scalar(&quick_cfg(8, 2, 0.5, 1), 2, "k=8");
    }

    #[test]
    fn heavy_load_drain_extension_matches_scalar() {
        // ρ close to 1 makes the first sweep horizon too short, forcing
        // the Retry path (horizon growth + full scratch reset). The
        // retried sweep must still be bit-identical to the scalar run.
        let mut cfg = quick_cfg(2, 3, 0.97, 1);
        cfg.measure_cycles = 1_500;
        let measured_end = cfg.warmup_cycles + cfg.measure_cycles;
        for (i, st) in assert_sweep_matches_scalar(&cfg, 2, "heavy")
            .iter()
            .enumerate()
        {
            assert!(
                st.cycles > measured_end,
                "rep {i}: expected a drain extension past {measured_end}, got {}",
                st.cycles
            );
        }
    }

    #[test]
    fn swept_and_scalar_telemetry_agree() {
        // Per-replication sweeps report exactly what the same scalar
        // replications report, in the same order — so even the
        // last-write gauges and their high-water marks agree.
        let cfg = quick_cfg(2, 3, 0.5, 1);
        let seeds: Vec<u64> = (0..4).map(|i| cfg.seed.wrapping_add(i)).collect();
        let mk = || Telemetry::new(TelemetryConfig::on().with_sample_every(64));
        let tel_sw = mk();
        let mut sweep = StageSweep::new(&cfg);
        let tel_sc = mk();
        for &seed in &seeds {
            let swept = sweep.run(seed, &tel_sw, None).0;
            let mut c = cfg.clone();
            c.seed = seed;
            let scalar = NetworkSim::new(c).run_instrumented(&tel_sc);
            assert_eq!(swept, scalar, "seed {seed}");
        }
        let (a, b) = (tel_sw.registry(), tel_sc.registry());
        for name in [
            "net.injected_total",
            "net.delivered_total",
            "net.rejected_total",
            "net.in_flight_at_end",
            "net.cycles",
            "net.tracked_injected",
            "net.tracked_delivered",
            "net.runs",
        ] {
            assert_eq!(a.counter_value(name), b.counter_value(name), "{name}");
        }
        assert_eq!(a.counter_value("net.lane_runs"), Some(4));
        assert_eq!(b.counter_value("net.lane_runs"), None);
        let ledger = |name| a.counter_value(name).unwrap();
        assert_eq!(
            ledger("net.injected_total"),
            ledger("net.delivered_total") + ledger("net.in_flight_at_end")
        );
        for gauge in [
            "net.slab_high_water",
            "net.occupancy.stage01",
            "net.occupancy.stage03",
        ] {
            assert_eq!(a.gauge(gauge).get(), b.gauge(gauge).get(), "{gauge}");
            assert_eq!(
                a.gauge(gauge).high_water(),
                b.gauge(gauge).high_water(),
                "{gauge} high-water"
            );
        }
        let ha = a.histogram("net.queue_occupancy", POW2_BOUNDS);
        let hb = b.histogram("net.queue_occupancy", POW2_BOUNDS);
        assert_eq!(ha.bucket_counts(), hb.bucket_counts(), "occupancy hist");
        for name in ["net.wait.stage01", "net.wait.stage03", "net.wait.total"] {
            let sa = tel_sw.sketches().get(name).expect(name);
            let sb = tel_sc.sketches().get(name).expect(name);
            assert_eq!(sa.total(), sb.total(), "{name} count");
            assert_eq!(sa.pmf_points(), sb.pmf_points(), "{name} pmf");
        }
        assert_eq!(
            tel_sw.progress().snapshot().cycles,
            tel_sc.progress().snapshot().cycles,
            "progress cycles"
        );
        for phase in ["net/warmup", "net/measure", "net/drain"] {
            assert_eq!(tel_sw.spans().stat(phase).unwrap().calls, 4, "{phase}");
        }
    }

    #[test]
    fn parent_tables_exist_for_omega_and_butterfly() {
        for routing in [Routing::Banyan, Routing::Butterfly] {
            for k in [2u32, 3, 4, 8, 16] {
                for stages in 1..=3u32 {
                    let cfg = NetworkConfig {
                        routing,
                        ..NetworkConfig::new(k, stages, Workload::uniform(0.5, 1))
                    };
                    let ports = validate_and_build_topology(&cfg).ports() as usize;
                    let tables = build_parent_tables(
                        &build_router(&cfg),
                        ports,
                        k as usize,
                        stages as usize,
                    );
                    assert!(tables.is_some(), "{routing:?} k={k} stages={stages}");
                }
            }
        }
    }

    #[test]
    fn eligibility_names_the_failed_requirement() {
        assert_eq!(sweep_eligible(&quick_cfg(2, 3, 0.5, 1)), Ok(()));
        let mut cap = quick_cfg(2, 3, 0.5, 1);
        cap.buffer_capacity = Some(4);
        let cases = [
            (cap, "infinite buffers"),
            (
                quick_cfg(3, 4, 0.5, 1).with_random_digit_width(2),
                "destination-tag routing",
            ),
            (
                NetworkConfig::new(17, 2, Workload::uniform(0.1, 1)),
                "k ≤ 16",
            ),
            (NetworkConfig::new(2, 16, Workload::uniform(0.1, 1)), "MiB"),
        ];
        for (cfg, needle) in cases {
            let why = sweep_eligible(&cfg).expect_err(needle);
            assert!(why.contains(needle), "{needle}: {why}");
        }
    }

    #[test]
    #[should_panic(expected = "k ≤ 16")]
    fn new_refuses_ineligible_configurations() {
        StageSweep::new(&NetworkConfig::new(17, 2, Workload::uniform(0.1, 1)));
    }
}
