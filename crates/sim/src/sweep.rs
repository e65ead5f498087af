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
//! reusing its buffers. A replication streams through time tiles: each
//! tile generates its own cycles, then every stage serves the arrivals
//! the tile makes final, and each tracked wait goes into its stage pmf
//! the moment its queue serves it. The working set is one tile plus the
//! queue backlogs, not the whole run.
//!
//! # Bit-identity contract
//!
//! [`StageSweep::run`] with seed `s` produces **bit-identical**
//! `NetworkStats` to `NetworkSim` run with seed `s`. The argument is
//! local:
//!
//! * RNG: generation calls [`Workload::sample_arrival`], the scalar
//!   inject's own draw, on the same xoshiro256++ stream.
//! * Order: generation visits cycles then ports ascending (the scalar
//!   inject order), and a queue's FIFO merges its parents' departures by
//!   arrival cycle with ties to the lowest source wire (the scalar
//!   serve's ascending-wire scan order).
//! * Digits: the scalar engine's table ([`digit_table`]), read by the
//!   same shift and mask.
//! * Drain: tiles continue until every tracked message is delivered.
//!   The replication ends exactly where the scalar drain stops — one
//!   cycle after its last tracked delivery, never before the measure
//!   window closes — and fails exactly when the scalar drain does: when
//!   tracked messages are still undelivered after `max_drain` drain
//!   cycles, with the same count in the same panic text. The statistics
//!   are integer state, so folding each wait as its queue serves it
//!   yields the scalar engine's pmfs; the scalar delivery order is never
//!   replayed.
//!
//! The pinned bit-assertion tests in `runner.rs` plus the seeded
//! property tests in `tests/properties.rs` enforce all of this.
//!
//! [`Workload::sample_arrival`]: crate::traffic::Workload::sample_arrival

use crate::network::{
    build_router, digit_bits, digit_table, max_drain, route_table_bytes,
    validate_and_build_topology, NetworkConfig, NetworkStats, ObsState, Router, Routing,
    HEARTBEAT_CHECK_CYCLES,
};
use banyan_obs::msgtrace::RepTrace;
use banyan_obs::{DistSketch, Telemetry};
use banyan_prng::rngs::SmallRng;
use banyan_prng::SeedableRng;
use std::mem::size_of;
use std::time::Instant;

/// Upper bound on one replication's estimated sweep working set (see
/// [`sweep_eligible`]). Larger configurations run scalar, whose memory
/// scales with messages *in flight* rather than with the whole run.
const MAX_SWEEP_BYTES: u64 = 1 << 28;

/// Tile width (cycles): each tile generates this many cycles, then runs
/// every stage's walks over the arrivals they make final. Large enough
/// that the per-(tile, queue) merge and walk setup amortize over many
/// records, small enough that one tile's records stay cache-resident
/// across all `stages` touches. On the Table I family (k = 2, 256 ports)
/// 32 and 64 measured slower and 256..2048 within noise of 128.
const TILE_CYCLES: u64 = 128;

/// Can the stage sweep run `cfg`? `Err` names the first requirement the
/// configuration fails, worded for a command-line diagnosis:
///
/// * destination-tag routing and infinite buffers — with no per-hop RNG
///   and no blocking, the serve phase is a pure function of the arrival
///   sequence, which is what lets each queue be solved by one Lindley
///   recursion instead of a cycle loop;
/// * every cycle index up to the drain bound fits in a `u32` (sweep
///   records store cycles as `u32`);
/// * the working set stays under 256 MiB. It counts what
///   `StageSweep::new` allocates — per `(stage, wire, digit)`
///   sub-stream a `Vec` header, its 4-byte consumed count and its
///   4-byte parent-table entry; one `QueueState` per `(stage, wire)`;
///   per wire 8 bytes of digit table, a generation-stream `Vec` header
///   and at most 4 bytes of switch base; a butterfly routing table —
///   plus what a replication grows: one tile of 16-byte records at
///   every stage, 4 bytes per cycle each for the injection and delivery
///   counts, 4 bytes per tracked message for its injection cycle, and
///   with correlations on 4 bytes per stage per tracked message for its
///   waits row. (A traced run keeps the rows too.)
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
    let fits_u32 = cfg
        .warmup_cycles
        .checked_add(cfg.measure_cycles)
        .and_then(|t| t.checked_add(max_drain(cfg)))
        .is_some_and(|run| run <= u32::MAX as u64 - 16);
    if !fits_u32 {
        return Err(
            "warmup + measure + drain bound exceeds the sweep's 32-bit cycle indices".into(),
        );
    }
    let (k, stages) = (f64::from(cfg.k), f64::from(cfg.stages));
    let ports = k.powi(cfg.stages as i32);
    let stream = size_of::<Vec<SweptMsg>>() as f64;
    let subs = (stages - 1.0) * ports * k;
    let tables = subs * (stream + 8.0)
        + stages * ports * size_of::<QueueState>() as f64
        + ports * (8.0 + stream + 4.0)
        + route_table_bytes(cfg, ports as u64) as f64;
    let per_cycle = ports * cfg.workload.p;
    let tile = TILE_CYCLES as f64 * per_cycle * stages * size_of::<SweptMsg>() as f64;
    let cycles = (cfg.warmup_cycles + cfg.measure_cycles + TILE_CYCLES) as f64 * 8.0;
    let row = if cfg.collect_correlations {
        4.0 * stages
    } else {
        0.0
    };
    let tracked = cfg.measure_cycles as f64 * per_cycle * (4.0 + row);
    let bytes = tables + tile + cycles + tracked;
    if bytes > MAX_SWEEP_BYTES as f64 {
        return Err(format!(
            "an expected working set of {:.0} MiB exceeds the sweep's per-replication bound of {} MiB",
            bytes / (1u64 << 20) as f64,
            MAX_SWEEP_BYTES >> 20
        ));
    }
    Ok(())
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
    /// Tracked-message ordinal, or [`UNTRACKED`].
    id: u32,
}

/// One `(stage, wire)` queue's state carried from tile to tile.
#[derive(Clone, Copy, Default)]
struct QueueState {
    /// The scalar `busy_until`: first cycle the server is free.
    free: u64,
    /// Occupancy sampling only: the tick cursor, as a cycle `at` and a
    /// tick index `tick` (`at = (tick + 1)·sample_every`). Every sample
    /// tick before `at` precedes some earlier record's push.
    at: u64,
    tick: usize,
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

/// Merges the parent sub-streams' records that arrive before `lim` into
/// `fifo` — by arrival cycle, ties to the lowest source wire, which is
/// the scalar serve's insertion order — and advances the parents' read
/// cursors `cons` past them.
fn merge_parents(
    fifo: &mut Vec<SweptMsg>,
    prev: &[Vec<SweptMsg>],
    cons: &mut [u32],
    parents: &[u32],
    lim: u32,
) {
    fifo.clear();
    let ready = |sub: u32, cons: &[u32]| {
        let s = &prev[sub as usize][cons[sub as usize] as usize..];
        &s[..s.partition_point(|r| r.a < lim)]
    };
    if let [p0, p1] = *parents {
        let (s0, s1) = (ready(p0, cons), ready(p1, cons));
        fifo.resize(s0.len() + s1.len(), SweptMsg::default());
        let (src, mut i) = ([s0, s1], [0usize; 2]);
        while i[0] < s0.len() && i[1] < s1.len() {
            // Index arithmetic, not a branch: the two streams interleave
            // at random. Same-cycle ties stay on the lower source wire.
            let pick = usize::from(s1[i[1]].a < s0[i[0]].a);
            fifo[i[0] + i[1]] = src[pick][i[pick]];
            i[pick] += 1;
        }
        let rest = if i[0] < s0.len() {
            &s0[i[0]..]
        } else {
            &s1[i[1]..]
        };
        fifo[i[0] + i[1]..].copy_from_slice(rest);
        cons[p0 as usize] += s0.len() as u32;
        cons[p1 as usize] += s1.len() as u32;
    } else {
        // Parents are listed source-wire ascending, so a stable sort of
        // their concatenation by arrival cycle is the k-way merge with
        // the same tie-break.
        for &sub in parents {
            let s = ready(sub, cons);
            fifo.extend_from_slice(s);
            cons[sub as usize] += s.len() as u32;
        }
        fifo.sort_by_key(|r| r.a);
    }
}

/// What one stage's queue walks fold into during a tile.
struct StageSinks<'a> {
    j: usize,
    stages: usize,
    /// First cycle past the scalar drain budget.
    hard_bound: u64,
    /// Cycle clamp: service starts at or past it are only known to be
    /// past the drain bound.
    h_cap: u64,
    /// This stage's waiting-time pmf.
    waits: &'a mut DistSketch,
    /// Per-ordinal waits rows, stride `stages` (`ROWS` only).
    rows: &'a mut [u32],
    /// Last stage: the total-wait pmf, each tracked message's injection
    /// cycle, deliveries per cycle, and the tracked-delivery tallies.
    total: &'a mut DistSketch,
    t0: &'a [u32],
    deliveries: &'a mut Vec<u32>,
    delivered: u64,
    max_tracked_s: u64,
    /// Tracked deliveries at or past `hard_bound`.
    stuck: u64,
    /// Forwarding stages: `dest → packed digits`, and the shift and mask
    /// that select the next stage's digit.
    digit_table: &'a [u64],
    digit_shift: u32,
    digit_mask: u64,
    /// Occupancy sampling (`OCC` only): the dense
    /// `[tick][stage][wire]` matrix, `occ_stride = stages · ports`.
    sample_every: u64,
    occ: &'a mut Vec<u32>,
    occ_stride: usize,
}

/// Serves one queue's FIFO for a tile: the Lindley recursion (`free` is
/// the scalar `busy_until`, `s` the cycle a record's serve starts), each
/// tracked wait into the stage pmf, then either a delivery (last stage)
/// or a push into the next stage's sub-stream selected by the routing
/// digit, carrying the arrival cycle there. Kept out of line and fed one
/// contiguous slice so the recursion state stays in registers; `queue`
/// is the `(stage, wire)` column of the occupancy matrix.
#[inline(never)]
fn walk<const LAST: bool, const OCC: bool, const ROWS: bool>(
    sk: &mut StageSinks<'_>,
    queue: usize,
    state: &mut QueueState,
    fifo: &[SweptMsg],
    next: &mut [Vec<SweptMsg>],
) {
    let QueueState {
        mut free,
        mut at,
        mut tick,
    } = *state;
    // A first-stage record is pushed at its arrival cycle, a later
    // stage's one cycle earlier, during the previous stage's serve.
    let theta = u64::from(sk.j == 0);
    for &rec in fifo {
        let a = rec.a;
        let s64 = u64::from(a).max(free);
        free = s64 + u64::from(rec.size);
        let s = s64.min(sk.h_cap) as u32;
        if rec.id != UNTRACKED {
            let id = rec.id as usize;
            let wait = s - a;
            sk.waits.record(u64::from(wait));
            if ROWS {
                sk.rows[id * sk.stages + sk.j] = wait;
            }
            if LAST {
                let hops = sk.stages as u64 - 1;
                sk.total
                    .record(u64::from(s - sk.t0[id]).saturating_sub(hops));
                sk.delivered += 1;
                sk.max_tracked_s = sk.max_tracked_s.max(s64);
                sk.stuck += u64::from(s64 >= sk.hard_bound);
            }
        }
        // Every tick before the cursor `at` precedes an earlier push, so
        // none lies in [a + θ, at): a record served before `at` spans no
        // tick.
        if OCC && s64 >= at {
            count_ticks(sk, queue, &mut at, &mut tick, u64::from(a) + theta, s64);
        }
        if LAST {
            let si = s as usize;
            if si >= sk.deliveries.len() {
                sk.deliveries.resize(si + TILE_CYCLES as usize, 0);
            }
            sk.deliveries[si] += 1;
        } else {
            let d = (sk.digit_table[rec.dest as usize] >> sk.digit_shift) & sk.digit_mask;
            next[d as usize].push(SweptMsg {
                a: (s64 + 1).min(sk.h_cap) as u32,
                ..rec
            });
        }
    }
    *state = QueueState { free, at, tick };
}

/// Counts a record pushed at cycle `push` and served at `s` into the
/// occupancy matrix at every sample tick `T` with `push ≤ T ≤ s`,
/// first moving the queue's tick cursor (`at`, `tick`) up to `push`.
/// No run ends past the drain bound, so later ticks are skipped.
#[cold]
#[inline(never)]
fn count_ticks(
    sk: &mut StageSinks<'_>,
    queue: usize,
    at: &mut u64,
    tick: &mut usize,
    push: u64,
    s: u64,
) {
    while *at < push {
        *at += sk.sample_every;
        *tick += 1;
    }
    let (mut t, mut t_at) = (*tick, *at);
    while t_at <= s.min(sk.hard_bound) {
        let idx = t * sk.occ_stride + queue;
        if idx >= sk.occ.len() {
            sk.occ.resize((t + 1) * sk.occ_stride, 0);
        }
        sk.occ[idx] += 1;
        t += 1;
        t_at += sk.sample_every;
    }
}

/// One replication's streaming state: the generator, the tile frontier,
/// the statistics folded so far and the last stage's tallies.
struct Rep {
    rng: SmallRng,
    /// First cycle not yet generated.
    upto: u64,
    /// Exclusive tile frontier: stage `j` has served every arrival
    /// before cycle `front − j`.
    front: u64,
    /// Tracked messages generated so far (the next tracked ordinal).
    tracked: u32,
    stats: NetworkStats,
    max_tracked_s: u64,
    /// Tracked deliveries at or past the drain bound.
    stuck: u64,
    /// Wall time spent generating and serving (metrics only).
    gen_ns: u64,
    serve_ns: u64,
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
    /// `dest → packed digits`, `digit_bits` per stage (see
    /// [`digit_table`]).
    digit_table: Vec<u64>,
    digit_bits: u32,
    /// Inverse wiring of every stage (see [`build_parent_tables`]).
    parents: Vec<Vec<u32>>,
    /// End of the measure window.
    measured_end: u64,
    /// The first cycle past the scalar drain budget: a tracked delivery
    /// here or later fails the run.
    hard_bound: u64,
    /// The one cycle clamp, `hard_bound + 2`: generation stops below it
    /// and service starts saturate at it, so every cycle fits `u32` and a
    /// clamped value still reads as past the drain bound.
    h_cap: u64,
    /// The current tile's injections per stage-0 wire, in FIFO arrival
    /// order (the scalar inject scans ports ascending within a cycle).
    gen: Vec<Vec<SweptMsg>>,
    /// Per-`(stage, wire, digit)` sub-streams: a record departing stage
    /// `j < stages − 1` wire `q` toward digit `d` is appended to
    /// `subs[j·ports·k + q·k + d]`, one of the `k` sorted inputs stage
    /// `j + 1`'s wire merges. `cons` holds each one's consumed-prefix
    /// length; consumed prefixes are dropped after every tile, so each
    /// holds at most a tile plus the queue's backlog.
    subs: Vec<Vec<SweptMsg>>,
    cons: Vec<u32>,
    /// Per-`(stage, wire)` queue state.
    queues: Vec<QueueState>,
    /// Reused FIFO a merging stage's queue is merged into, then walked.
    fifo: Vec<SweptMsg>,
    /// Injections and deliveries (last-stage service starts) per cycle:
    /// the conservation counters and the in-flight peak replay read
    /// them.
    inj: Vec<u32>,
    deliveries: Vec<u32>,
    /// Injection cycle per tracked ordinal (for the total wait).
    t0: Vec<u32>,
    /// Per-stage waits rows by tracked ordinal, kept only when something
    /// needs whole rows: correlations or message tracing.
    rows: Vec<u32>,
    /// Occupancy samples (metrics only): the dense `[tick][stage][wire]`
    /// matrix.
    occ: Vec<u32>,
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
        let router = build_router(cfg, &topo);
        let ports = topo.ports() as usize;
        let (k, stages) = (cfg.k as usize, cfg.stages as usize);
        let parents = build_parent_tables(&router, ports, k, stages)
            .expect("omega and butterfly wirings are k-in-regular");
        let measured_end = cfg.warmup_cycles + cfg.measure_cycles;
        let hard_bound = measured_end + max_drain(cfg);
        StageSweep {
            digit_table: digit_table(cfg.k, stages),
            digit_bits: digit_bits(cfg.k),
            parents,
            router,
            ports,
            k,
            stages,
            measured_end,
            hard_bound,
            h_cap: hard_bound + 2,
            gen: vec![Vec::new(); ports],
            subs: vec![Vec::new(); (stages - 1) * ports * k],
            cons: vec![0; (stages - 1) * ports * k],
            queues: vec![QueueState::default(); stages * ports],
            fifo: Vec::new(),
            inj: Vec::new(),
            deliveries: Vec::new(),
            t0: Vec::new(),
            rows: Vec::new(),
            occ: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    /// Runs one replication seeded `seed` through warmup → measure →
    /// drain — the shape of [`crate::network::NetworkSim::run_traced`].
    /// Statistics, telemetry and (with `rt = Some(..)`) the sampled
    /// message records are identical to the scalar engine's for the same
    /// seed; the run additionally counts itself in `net.sweep_runs`.
    pub(crate) fn run(
        &mut self,
        seed: u64,
        tel: &Telemetry,
        rt: Option<RepTrace>,
    ) -> (NetworkStats, Option<RepTrace>) {
        let occ = tel.metrics_enabled();
        let rows = self.cfg.collect_correlations;
        match (rt.is_some(), occ, rows) {
            (false, false, false) => self.replicate::<false, false, false>(seed, tel, rt),
            (false, false, true) => self.replicate::<false, false, true>(seed, tel, rt),
            (false, true, false) => self.replicate::<false, true, false>(seed, tel, rt),
            (false, true, true) => self.replicate::<false, true, true>(seed, tel, rt),
            (true, false, _) => self.replicate::<true, false, true>(seed, tel, rt),
            (true, true, _) => self.replicate::<true, true, true>(seed, tel, rt),
        }
    }

    /// Extends the replication's injections to cycle `to`, appending each
    /// hit to its stage-0 wire's stream `gen[wire]`. Each port's arrival
    /// is drawn by the scalar inject's own call, so the draw sequence is
    /// the scalar engine's. Injections at cycle `t` are a pure prefix
    /// function of the stream, so generating past the replication's end
    /// cycle changes nothing before it.
    fn generate<const TRACE: bool>(
        &mut self,
        rep: &mut Rep,
        to: u64,
        mut rt: Option<&mut RepTrace>,
    ) {
        let (ports, k, stages) = (self.ports, self.k, self.stages);
        let dig_k = self.cfg.k as u64;
        let tracked_from = self.cfg.warmup_cycles;
        let workload = &self.cfg.workload;
        let digit_table = &self.digit_table[..];
        let mask = (1u64 << self.digit_bits) - 1;
        let router = &self.router;
        let mut rng = rep.rng.clone();
        for t in rep.upto..to {
            let tracked = t >= tracked_from && t < self.measured_end;
            let mut injected = 0u32;
            for input in 0..ports {
                if let Some((dest, size)) =
                    workload.sample_arrival(&mut rng, input as u64, ports as u64)
                {
                    let digit = (digit_table[dest as usize] & mask) as usize;
                    let q = router.next(0, ports, k, input, digit);
                    let id = if tracked {
                        // Generation visits injections in the scalar
                        // inject order, so the tracked counter *is* the
                        // cross-engine message ordinal and sampling here
                        // selects the exact set the scalar engine
                        // selects.
                        let i = rep.tracked;
                        rep.tracked += 1;
                        self.t0.push(t as u32);
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
                    self.gen[q].push(SweptMsg {
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
        rep.rng = rng;
        rep.upto = rep.upto.max(to);
    }

    /// Runs one stage's walks for the current tile: every wire serves
    /// its arrivals before cycle `lim` — stage 0 straight from the
    /// generation stream, a merging stage from its parents merged into
    /// the reused FIFO buffer.
    fn serve_stage<const LAST: bool, const OCC: bool, const ROWS: bool>(
        &mut self,
        rep: &mut Rep,
        j: usize,
        lim: u32,
        sample_every: u64,
    ) {
        let (ports, k, stages) = (self.ports, self.k, self.stages);
        let pk = ports * k;
        let mut sk = StageSinks {
            j,
            stages,
            hard_bound: self.hard_bound,
            h_cap: self.h_cap,
            waits: &mut rep.stats.stage_waits[j],
            rows: &mut self.rows[..],
            total: &mut rep.stats.total_wait,
            t0: &self.t0[..],
            deliveries: &mut self.deliveries,
            delivered: 0,
            max_tracked_s: rep.max_tracked_s,
            stuck: rep.stuck,
            digit_table: &self.digit_table[..],
            digit_shift: self.digit_bits * (j as u32 + 1),
            digit_mask: (1u64 << self.digit_bits) - 1,
            sample_every,
            occ: &mut self.occ,
            occ_stride: stages * ports,
        };
        // Block `j − 1` of `subs` feeds stage `j`; stage `j` writes block
        // `j` (the final stage counts deliveries instead).
        let (done, rest) = self.subs.split_at_mut(j * pk);
        let next_block = &mut rest[..if LAST { 0 } else { pk }];
        for q in 0..ports {
            let next = &mut next_block[if LAST { 0..0 } else { q * k..(q + 1) * k }];
            let queue = j * ports + q;
            let state = &mut self.queues[queue];
            if j == 0 {
                walk::<LAST, OCC, ROWS>(&mut sk, queue, state, &self.gen[q], next);
                self.gen[q].clear();
            } else {
                merge_parents(
                    &mut self.fifo,
                    &done[(j - 1) * pk..],
                    &mut self.cons[(j - 1) * pk..j * pk],
                    &self.parents[j][q * k..(q + 1) * k],
                    lim,
                );
                walk::<LAST, OCC, ROWS>(&mut sk, queue, state, &self.fifo, next);
            }
        }
        rep.stats.delivered += sk.delivered;
        rep.max_tracked_s = sk.max_tracked_s;
        rep.stuck = sk.stuck;
    }

    /// Advances the replication to tile frontier `front`: generates the
    /// cycles before it (below the clamp), then runs the staircase —
    /// stage `j` serves its arrivals before `front − j`. Stage `j − 1`
    /// ran first with limit `front − j + 1`, and anything it serves in a
    /// later tile departs strictly after that, so every stage-`j` arrival
    /// before the limit already sits in its sub-stream. Each tile thus
    /// serves exactly the records a whole-run stage-by-stage sweep would,
    /// in cache-sized slices.
    fn tile<const TRACE: bool, const OCC: bool, const ROWS: bool>(
        &mut self,
        rep: &mut Rep,
        front: u64,
        rt: Option<&mut RepTrace>,
        tel: &Telemetry,
        obs: Option<&ObsState<'_>>,
    ) {
        let timed = obs.is_some_and(|o| o.metrics);
        let t_gen = timed.then(Instant::now);
        let from = rep.upto;
        self.generate::<TRACE>(rep, front.min(self.h_cap), rt);
        if ROWS {
            self.rows.resize(rep.tracked as usize * self.stages, 0);
        }
        if obs.is_some() && from / HEARTBEAT_CHECK_CYCLES != rep.upto / HEARTBEAT_CHECK_CYCLES {
            tel.heartbeat_tick();
        }
        let t_serve = timed.then(Instant::now);
        rep.front = front;
        let sample_every = obs.map_or(u64::MAX, |o| o.sample_every);
        for j in 0..self.stages {
            let lim = front.saturating_sub(j as u64).min(self.h_cap + 1) as u32;
            if lim == 0 {
                continue;
            }
            if j + 1 == self.stages {
                self.serve_stage::<true, OCC, ROWS>(rep, j, lim, sample_every);
            } else {
                self.serve_stage::<false, OCC, ROWS>(rep, j, lim, sample_every);
            }
        }
        // Drop consumed prefixes: each sub-stream keeps only its
        // unconsumed tail (records past the frontier — the queue
        // backlog), so the scratch recycles a few hot pages instead of
        // growing with the run.
        for (v, c) in self.subs.iter_mut().zip(self.cons.iter_mut()) {
            let n = *c as usize;
            if n > 0 {
                v.drain(..n);
                *c = 0;
            }
        }
        if let (Some(t_gen), Some(t_serve)) = (t_gen, t_serve) {
            rep.gen_ns += (t_serve - t_gen).as_nanos() as u64;
            rep.serve_ns += t_serve.elapsed().as_nanos() as u64;
        }
    }

    /// The end cycle once the replication is complete: every tracked
    /// message delivered and the last stage has served every arrival up
    /// to the end cycle `e` (an arrival at `e` is still queued at a
    /// sample tick `e`). Panics, as the scalar drain does, when tracked
    /// deliveries fall past the drain budget.
    fn finished(&self, rep: &Rep) -> Option<u64> {
        if rep.stats.delivered < u64::from(rep.tracked) {
            return None;
        }
        assert!(
            rep.stuck == 0,
            "drain did not complete: {} tracked messages stuck (load too close to 1?)",
            rep.stuck
        );
        let e = if rep.tracked == 0 {
            self.measured_end
        } else {
            self.measured_end.max(rep.max_tracked_s + 1)
        };
        (rep.front >= e + self.stages as u64).then_some(e)
    }

    /// One replication, monomorphized over message tracing, occupancy
    /// sampling and kept waits rows.
    fn replicate<const TRACE: bool, const OCC: bool, const ROWS: bool>(
        &mut self,
        seed: u64,
        tel: &Telemetry,
        mut rt: Option<RepTrace>,
    ) -> (NetworkStats, Option<RepTrace>) {
        let stages = self.stages;
        let mut obs = tel.active().then(|| ObsState::new(tel, stages));
        for buf in [
            &mut self.inj,
            &mut self.deliveries,
            &mut self.t0,
            &mut self.rows,
            &mut self.occ,
        ] {
            buf.clear();
        }
        for v in &mut self.subs {
            v.clear();
        }
        self.cons.fill(0);
        self.queues.fill(QueueState {
            free: 0,
            at: obs.as_ref().map_or(u64::MAX, |o| o.sample_every),
            tick: 0,
        });
        let mut rep = Rep {
            rng: SmallRng::seed_from_u64(seed),
            upto: 0,
            front: 0,
            tracked: 0,
            stats: NetworkStats::new(self.cfg.stages, self.cfg.collect_correlations),
            max_tracked_s: 0,
            stuck: 0,
            gen_ns: 0,
            serve_ns: 0,
        };
        for (phase, end) in [
            ("net/warmup", self.cfg.warmup_cycles),
            ("net/measure", self.measured_end),
        ] {
            let _span = tel.span(phase);
            while rep.front < end {
                let front = (rep.front + TILE_CYCLES).min(end);
                self.tile::<TRACE, OCC, ROWS>(&mut rep, front, rt.as_mut(), tel, obs.as_ref());
            }
        }
        let e = {
            let _span = tel.span("net/drain");
            loop {
                let front = rep.front + TILE_CYCLES;
                self.tile::<TRACE, OCC, ROWS>(&mut rep, front, rt.as_mut(), tel, obs.as_ref());
                if let Some(e) = self.finished(&rep) {
                    break e;
                }
            }
        };
        let Rep {
            mut stats,
            tracked,
            gen_ns,
            serve_ns,
            ..
        } = rep;
        let end = e as usize;
        if self.deliveries.len() < end {
            self.deliveries.resize(end, 0);
        }
        let (inj, deliveries) = (&self.inj[..end], &self.deliveries[..end]);
        stats.cycles = e;
        stats.injected = u64::from(tracked);
        stats.injected_total = inj.iter().map(|&c| u64::from(c)).sum();
        stats.delivered_total = deliveries.iter().map(|&c| u64::from(c)).sum();
        stats.in_flight_at_end = stats.injected_total - stats.delivered_total;
        stats.total_hist = stats.total_wait.clone();
        if ROWS {
            let rows = &self.rows[..tracked as usize * stages];
            if let Some(corr) = &mut stats.correlations {
                for row in rows.chunks_exact(stages) {
                    corr.push(row);
                }
            }
            if TRACE {
                // Rows are ordinal-indexed, so the sampled records (begun
                // at generation time) are completed straight from them.
                let tr = rt.as_mut().expect("trace state");
                for (idx, ord) in tr.entries() {
                    tr.set_waits(idx, &rows[ord as usize * stages..][..stages]);
                }
            }
        }
        if let Some(o) = obs.as_mut() {
            if OCC {
                // Replay the occupancy samples the scalar run takes at
                // cycles sample_every, 2·sample_every, … up to its end.
                let stride = stages * self.ports;
                let ticks = (e / o.sample_every) as usize;
                if self.occ.len() < ticks * stride {
                    self.occ.resize(ticks * stride, 0);
                }
                for tick in self.occ[..ticks * stride].chunks_exact(stride) {
                    for (st, row) in tick.chunks_exact(self.ports).enumerate() {
                        o.sample_stage(st, row.iter().map(|&len| u64::from(len)));
                    }
                }
            }
            // The scalar in-flight peak: max over cycles of the live
            // count right after the cycle's injections.
            let (mut live, mut hwm) = (0u64, 0u64);
            for (&injected, &delivered) in inj.iter().zip(deliveries) {
                live += u64::from(injected);
                hwm = hwm.max(live);
                live -= u64::from(delivered);
            }
            o.flush_final(&stats, hwm);
            if o.metrics {
                tel.registry().counter("net.sweep_runs").inc();
                tel.spans().record_ns("sweep/generate", gen_ns);
                tel.spans().record_ns("sweep/serve", serve_ns);
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
        // The sweep reads stage j's digit by the scalar engine's shift
        // (`digit_bits · j`) and mask: the j-th base-k digit of the
        // destination, most significant first, at digit widths of 1 to
        // 6 bits.
        for (k, stages) in [
            (2u32, 6u32),
            (3, 4),
            (5, 3),
            (10, 3),
            (16, 3),
            (17, 2),
            (64, 2),
        ] {
            let sweep = StageSweep::new(&quick_cfg(k, stages, 0.01, 1));
            let bits = sweep.digit_bits;
            assert_eq!(bits, u32::BITS - (k - 1).leading_zeros(), "k={k}");
            let ports = u64::from(k).pow(stages);
            assert_eq!(sweep.digit_table.len() as u64, ports);
            for dest in [0, 1, ports / 2, ports - 1] {
                let packed = sweep.digit_table[dest as usize];
                let mut rem = dest;
                for j in (0..stages).rev() {
                    let digit = (packed >> (bits * j)) & ((1 << bits) - 1);
                    assert_eq!(digit, rem % u64::from(k), "k={k} dest={dest} stage {j}");
                    rem /= u64::from(k);
                }
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
        // ρ close to 1 leaves tracked stragglers queued long after the
        // measure window, so the drain streams many tiles past it. The
        // sweep must still stop exactly where the scalar drain does.
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
    fn drain_bound_outcome_matches_scalar() {
        // Every queue runs deterministically here: each input sends one
        // message per cycle to its own output, and each takes 2 cycles,
        // so the backlog grows by half a message per cycle. The last
        // tracked delivery lands at cycle 2·warmup + 18 against a drain
        // bound of warmup + 100_220: warmups 100_200 and 100_201 finish
        // inside the budget, the rest must fail with the same count.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let outcome = |f: &dyn Fn() -> NetworkStats| {
            catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .expect("panic with a formatted message")
            })
        };
        for warmup in 100_200..=100_204u64 {
            let cfg = NetworkConfig {
                warmup_cycles: warmup,
                measure_cycles: 10,
                ..NetworkConfig::new(
                    2,
                    1,
                    Workload {
                        p: 1.0,
                        q: 1.0,
                        service: ServiceDist::Constant(2),
                    },
                )
            };
            let scalar = outcome(&|| scalar_run(&cfg, cfg.seed));
            let swept = outcome(&|| {
                StageSweep::new(&cfg)
                    .run(cfg.seed, &Telemetry::off(), None)
                    .0
            });
            let brief = |o: &Result<NetworkStats, String>| match o {
                Ok(st) => format!("ends at cycle {}", st.cycles),
                Err(why) => why.clone(),
            };
            assert!(
                swept == scalar,
                "warmup {warmup}: sweep {} vs scalar {}",
                brief(&swept),
                brief(&scalar)
            );
            match (warmup, &scalar) {
                (..=100_201, Ok(st)) => assert_eq!(st.cycles, 2 * warmup + 19),
                (100_202.., Err(why)) => assert!(why.contains(" tracked messages stuck"), "{why}"),
                _ => panic!("warmup {warmup}: unexpected outcome {scalar:?}"),
            }
            if let Err(why) = &scalar {
                assert!(!why.contains(" 0 tracked"), "warmup {warmup}: {why}");
            }
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
        assert_eq!(a.counter_value("net.sweep_runs"), Some(4));
        assert_eq!(b.counter_value("net.sweep_runs"), None);
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
        // The split ledger: one generate and one serve record per
        // replication, outside the `net/` phases.
        for split in ["sweep/generate", "sweep/serve"] {
            assert_eq!(tel_sw.spans().stat(split).unwrap().calls, 4, "{split}");
            assert!(tel_sc.spans().stat(split).is_none(), "{split}");
        }
        // The scalar engine's own split: one inject and one serve record
        // per replication.
        for split in ["scalar/inject", "scalar/serve"] {
            assert_eq!(tel_sc.spans().stat(split).unwrap().calls, 4, "{split}");
            assert!(tel_sw.spans().stat(split).is_none(), "{split}");
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
                    let topo = validate_and_build_topology(&cfg);
                    let tables = build_parent_tables(
                        &build_router(&cfg, &topo),
                        topo.ports() as usize,
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
        // Wide switches run while their tables fit.
        assert_eq!(sweep_eligible(&quick_cfg(17, 2, 0.5, 1)), Ok(()));
        let wide = NetworkConfig::new(16, 4, Workload::uniform(0.001, 1));
        assert_eq!(sweep_eligible(&wide), Ok(()));
        let mut cap = quick_cfg(2, 3, 0.5, 1);
        cap.buffer_capacity = Some(4);
        let cases = [
            (cap, "infinite buffers"),
            (
                quick_cfg(3, 4, 0.5, 1).with_random_digit_width(2),
                "destination-tag routing",
            ),
            // k = 64, n = 3: the sub-stream headers alone take ≈ 805 MB.
            (
                NetworkConfig::new(64, 3, Workload::uniform(0.001, 1)),
                "MiB",
            ),
            // k = 16, n = 5 needs ≈ 2.2 GiB of sub-streams and queues.
            (
                NetworkConfig::new(16, 5, Workload::uniform(0.001, 1)),
                "MiB",
            ),
            (NetworkConfig::new(2, 16, Workload::uniform(0.1, 1)), "MiB"),
        ];
        for (cfg, needle) in cases {
            let why = sweep_eligible(&cfg).expect_err(needle);
            assert!(why.contains(needle), "{needle}: {why}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the sweep's per-replication bound")]
    fn new_refuses_ineligible_configurations() {
        StageSweep::new(&NetworkConfig::new(256, 2, Workload::uniform(0.1, 1)));
    }
}
