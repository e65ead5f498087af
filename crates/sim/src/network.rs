//! Clocked simulation of the full multistage banyan network.
//!
//! Implements exactly the model the paper analyzes (§I–II):
//!
//! * output-queued `k × k` switches with **infinite FIFO buffers**,
//! * one service start per output port per cycle; a size-`m` message
//!   occupies the port for `m` consecutive cycles,
//! * arriving messages never interfere with departing ones; a queue can
//!   accept any number of messages in one cycle,
//! * **cut-through** forwarding: a message's head packet reaches the next
//!   stage one cycle after its service starts, so the network service
//!   time of an unobstructed message is `n + m − 1` cycles,
//! * waiting time at a stage = cycles between the head packet's arrival
//!   at the queue and the start of service (0 if served immediately);
//!   service itself is *not* included — a message can have total waiting
//!   time zero.
//!
//! The measurement protocol is warmup → measure → drain: statistics come
//! only from messages injected during the measure window, and injection
//! continues (untracked) during the drain so late tracked messages still
//! experience steady-state congestion.
//!
//! # Hot-path layout
//!
//! The inner loop allocates nothing in steady state (see DESIGN.md,
//! "Hot-path architecture"):
//!
//! * every output port owns a `VecDeque` of 32-byte messages, and a hop
//!   moves the message **by value** from one port's FIFO to the next —
//!   the head the server inspects sits in the port's own buffer, not
//!   behind an id into a shared table,
//! * each tracked wait goes into its stage pmf **as the queue serves
//!   it**; a delivery adds the total wait `now − t0 − (stages − 1)`. A
//!   per-message waits row exists only when correlations need whole
//!   rows (the `ROWS` instantiation); a traced message's record takes
//!   each wait as it is served,
//! * per-stage **active bitsets** mark non-empty queues: serving a stage
//!   scans set bits from least to most significant, which is the
//!   required ascending-wire order with no sorting and no per-cycle
//!   buffer shuffling at all,
//! * routing is a **precomputed table lookup**: the omega shuffle
//!   collapses to a per-wire switch base ([`OmegaTopology::switch_bases`])
//!   and the butterfly to a stage × wire × digit table
//!   ([`ButterflyTopology::routing_table`]); a `dest → packed digits`
//!   table built once per simulator gives every message its routing
//!   digits at injection, so no per-hop shuffle, `pow` or division
//!   remains.

use crate::butterfly::ButterflyTopology;
use crate::topology::{OmegaTopology, MAX_PORTS};
use crate::traffic::Workload;
use banyan_obs::msgtrace::RepTrace;
use banyan_obs::registry::POW2_BOUNDS;
use banyan_obs::{DistSketch, Gauge, Histogram, Telemetry};
use banyan_prng::rngs::SmallRng;
use banyan_prng::{Rng, SeedableRng};
use banyan_stats::CorrelationMatrix;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on stages: the range the tables and tests cover, enforced
/// by [`check_config`]. Below it, one structure bounds the stage count
/// on its own: both engines pack `ceil(log2 k)` bits per stage into a
/// `u64` digit table (`digit_table`), which any network under
/// [`MAX_PORTS`] fits. The waits are folded into per-stage pmfs as
/// they happen and need no bound.
pub const MAX_STAGES: usize = 16;

/// Upper bound on the memory one replication allocates up front (see
/// [`check_config`]): the port array with each FIFO's kept buffer, the
/// `dest → digits` table and a butterfly routing table. The same
/// 256 MiB as the stage sweep's bound; every configuration the tables,
/// tests and benchmark run stays under 50 MiB.
const MAX_SIM_BYTES: u64 = 1 << 28;

/// Largest butterfly routing table we materialize (entries). Beyond this
/// the simulator falls back to per-hop digit arithmetic — same wires,
/// same dynamics, just not table-driven. (`stages × ports × k` exceeds
/// this only for configurations whose queue array alone dwarfs the
/// table, so the cap is a safety valve, not a tuning knob.)
const MAX_ROUTE_TABLE_ENTRIES: u64 = 1 << 27;

/// How messages choose switch outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Real banyan destination-tag routing on a full `k^n`-port omega
    /// network. Required for nonuniform (hot-spot) traffic.
    Banyan,
    /// Destination-tag routing on a `k^n`-port butterfly (indirect
    /// `k`-cube) — a different wiring of the same banyan family;
    /// statistically identical under uniform traffic (verified in
    /// tests).
    Butterfly,
    /// Fixed-width "cylinder": every stage has `k^width_log_k` wires and
    /// each message picks an independent uniform routing digit per stage.
    ///
    /// Under **uniform** traffic this is statistically identical to the
    /// full banyan (a uniform destination's digits are i.i.d. uniform),
    /// but the width no longer grows as `k^n` — this is how the `k = 8`,
    /// 8-stage configuration of Table II stays simulable (a full banyan
    /// would need 16.7M ports). The equivalence is verified in tests.
    RandomDigit {
        /// Stage width as a power of `k` (wires per stage =
        /// `k^width_log_k`).
        width_log_k: u32,
    },
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Switch arity `k` (a banyan network has `k^stages` ports).
    pub k: u32,
    /// Number of stages `n`.
    pub stages: u32,
    /// Routing/width mode.
    pub routing: Routing,
    /// Output-buffer capacity in messages (`None` = infinite, the
    /// paper's idealization). With finite buffers the model is
    /// store-and-forward blocking: a server does not start forwarding
    /// while the downstream queue is full, and an injection into a full
    /// first-stage queue is rejected (counted, not retried). This is the
    /// §VI "finite buffer delays" extension.
    pub buffer_capacity: Option<usize>,
    /// Offered traffic.
    pub workload: Workload,
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles during which injected messages are tracked.
    pub measure_cycles: u64,
    /// Collect the full cross-stage correlation matrix (Table VI). Off by
    /// default: it costs `O(n²)` updates per delivered message.
    pub collect_correlations: bool,
    /// RNG seed (simulations are fully deterministic given the seed).
    pub seed: u64,
}

impl NetworkConfig {
    /// A reasonable default protocol for the given topology and workload.
    pub fn new(k: u32, stages: u32, workload: Workload) -> Self {
        NetworkConfig {
            k,
            stages,
            routing: Routing::Banyan,
            buffer_capacity: None,
            workload,
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            collect_correlations: false,
            seed: 0x0BAD_5EED,
        }
    }

    /// Switches to cylinder (random-digit) mode with `k^width_log_k`
    /// wires per stage. Only valid for uniform traffic (`q = 0`).
    pub fn with_random_digit_width(mut self, width_log_k: u32) -> Self {
        self.routing = Routing::RandomDigit { width_log_k };
        self
    }
}

/// Aggregated simulation output (all statistics refer to *tracked*
/// messages — those injected inside the measure window — except the
/// `*_total` counters and `in_flight_at_end`).
///
/// Every field is exact integer state: the waiting-time statistics are
/// pmfs whose moments come from exact integer sums, so the result does
/// not depend on the order deliveries are folded in, and
/// [`NetworkStats::merge`] is integer addition. Two runs agree exactly
/// when they compare `==`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkStats {
    /// Per-stage exact waiting-time pmfs, index 0 = stage 1.
    pub stage_waits: Vec<DistSketch>,
    /// Exact pmf of the total (summed over stages) waiting time per
    /// message — the Figs. 3–8 raw data.
    pub total_wait: DistSketch,
    /// The same pmf as `total_wait`. It stays only because the frozen
    /// benchmark harness (`benchmark/src/sim.rs`) compares this field;
    /// drop it with the next benchmark revision.
    pub total_hist: DistSketch,
    /// Cross-stage waiting-time correlations (Table VI), if collected.
    pub correlations: Option<CorrelationMatrix>,
    /// Tracked messages injected.
    pub injected: u64,
    /// Tracked messages delivered (equal to `injected` after a full run).
    pub delivered: u64,
    /// All messages injected, tracked or not.
    pub injected_total: u64,
    /// All messages delivered, tracked or not. Together with
    /// `in_flight_at_end` this closes the conservation ledger:
    /// `injected_total == delivered_total + in_flight_at_end`.
    pub delivered_total: u64,
    /// Injection attempts rejected because the first-stage buffer was
    /// full (always 0 with infinite buffers), tracked or not. Rejected
    /// attempts are *not* counted in `injected_total`.
    pub rejected_total: u64,
    /// Messages (necessarily untracked — the drain runs until every
    /// tracked message is delivered) still queued when the run ended.
    pub in_flight_at_end: u64,
    /// Cycles actually simulated (including warmup and drain).
    pub cycles: u64,
}

impl NetworkStats {
    pub(crate) fn new(stages: u32, collect_correlations: bool) -> Self {
        NetworkStats {
            stage_waits: vec![DistSketch::new(); stages as usize],
            total_wait: DistSketch::new(),
            total_hist: DistSketch::new(),
            correlations: collect_correlations.then(|| CorrelationMatrix::new(stages as usize)),
            injected: 0,
            delivered: 0,
            injected_total: 0,
            delivered_total: 0,
            rejected_total: 0,
            in_flight_at_end: 0,
            cycles: 0,
        }
    }

    /// Merges statistics from an independent replication: integer
    /// addition throughout, so replications merge in any order (or
    /// grouping) to the same result.
    pub fn merge(&mut self, other: &NetworkStats) {
        assert_eq!(
            self.stage_waits.len(),
            other.stage_waits.len(),
            "stage count mismatch"
        );
        for (a, b) in self.stage_waits.iter_mut().zip(&other.stage_waits) {
            a.merge(b);
        }
        self.total_wait.merge(&other.total_wait);
        self.total_hist.merge(&other.total_hist);
        match (&mut self.correlations, &other.correlations) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("correlation collection mismatch in merge"),
        }
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.injected_total += other.injected_total;
        self.delivered_total += other.delivered_total;
        self.rejected_total += other.rejected_total;
        self.in_flight_at_end += other.in_flight_at_end;
        self.cycles += other.cycles;
    }
}

/// `Msg::t0` of an untracked (warmup or drain) message.
const UNTRACKED: u64 = u64::MAX;

/// One message in flight, 32 bytes, moved by value from port to port.
#[derive(Clone, Copy, Debug)]
struct Msg {
    /// Cycle at which the head packet arrived at the current queue.
    entered: u64,
    /// Injection cycle, or [`UNTRACKED`].
    t0: u64,
    /// Destination digits from the digit table (see [`digit_table`]);
    /// 0 in random-digit mode, which draws a fresh digit per hop.
    digits: u64,
    size: u32,
    /// Tracked-injection ordinal, the key of the message's waits row and
    /// trace record, plus the [`SAMPLED`] flag. Meaningful only for
    /// tracked messages.
    ord: u32,
}

/// `Msg::ord` flag of a message with an open trace record, so the 99%
/// a trace does not sample pay one bit test per hop, not a lookup.
const SAMPLED: u32 = 1 << 31;

/// One output port: its FIFO plus the server state.
#[derive(Clone, Debug, Default)]
struct Port {
    fifo: VecDeque<Msg>,
    /// Earliest cycle at which the server may start a new service.
    busy_until: u64,
}

/// Bits per packed routing digit: `⌈log₂ k⌉`.
pub(crate) fn digit_bits(k: u32) -> u32 {
    u32::BITS - (k - 1).leading_zeros()
}

/// The `dest → packed digits` table of a `k^stages`-port destination-tag
/// network, shared by both engines: each destination's base-`k` digits,
/// [`digit_bits`] bits apiece, with stage 0's digit (the most
/// significant) in the low bits.
///
/// # Panics
/// Panics if the digits do not fit 64 bits. Any network under
/// [`MAX_PORTS`] wires fits: `k^stages ≤ 2²⁴` and at most 16 stages
/// need at most 40 bits.
pub(crate) fn digit_table(k: u32, stages: usize) -> Vec<u64> {
    let bits = digit_bits(k) as usize;
    assert!(
        bits * stages <= 64,
        "destination digits of k = {k}, {stages} stages do not fit 64 bits"
    );
    let k = u64::from(k);
    (0..k.pow(stages as u32))
        .map(|dest| {
            let (mut packed, mut rem) = (0u64, dest);
            for j in (0..stages).rev() {
                packed |= (rem % k) << (bits * j);
                rem /= k;
            }
            packed
        })
        .collect()
}

/// Precomputed next-wire routing. All variants produce bit-identical
/// wires to the direct topology arithmetic they replace.
pub(crate) enum Router {
    /// Omega wiring (banyan and random-digit modes): the shuffle is
    /// stage-independent, so the whole table collapses to a per-wire
    /// switch base — `next = base[wire] + digit`.
    OmegaBase(Vec<u32>),
    /// Butterfly wiring: full `stage × wire × digit` lookup table.
    ButterflyTable(Vec<u32>),
    /// Butterfly wiring too large to tabulate: per-hop digit arithmetic.
    ButterflyArith(ButterflyTopology),
}

impl Router {
    /// Output wire for a message on `wire` entering stage `s0 + 1`
    /// (0-indexed stage), heading for destination digit `digit`.
    #[inline]
    pub(crate) fn next(
        &self,
        s0: usize,
        ports: usize,
        k: usize,
        wire: usize,
        digit: usize,
    ) -> usize {
        match self {
            Router::OmegaBase(base) => base[wire] as usize + digit,
            Router::ButterflyTable(table) => table[(s0 * ports + wire) * k + digit] as usize,
            Router::ButterflyArith(b) => {
                b.next_wire_for_digit(s0 as u32 + 1, wire as u64, digit as u32) as usize
            }
        }
    }
}

/// Can the simulator build `cfg`? `Err` names the first requirement
/// the configuration fails, worded for a command-line or HTTP
/// diagnosis:
///
/// * valid workload parameters, `1 ≤ stages ≤ MAX_STAGES`, `k ≥ 2`, a
///   buffer capacity of at least one message, and uniform traffic in
///   random-digit mode;
/// * at most [`MAX_PORTS`] wires per stage;
/// * a static working set under 256 MiB: one `Port` per stage and wire
///   plus the 4-message buffer its FIFO keeps once it has held a message,
///   8 bytes per wire for the destination digits, and 4 bytes per entry
///   of a materialized butterfly routing table. (Messages in flight
///   beyond four per queue come on top and scale with the load.)
pub fn check_config(cfg: &NetworkConfig) -> Result<(), String> {
    cfg.workload.validate()?;
    if cfg.stages == 0 {
        return Err("need at least one stage".into());
    }
    if cfg.stages as usize > MAX_STAGES {
        return Err(format!(
            "at most {MAX_STAGES} stages supported, got {}",
            cfg.stages
        ));
    }
    if cfg.k < 2 {
        return Err("switch size must be at least 2".into());
    }
    if cfg.buffer_capacity == Some(0) {
        return Err("buffer capacity must be at least 1 message".into());
    }
    let width = match cfg.routing {
        Routing::Banyan | Routing::Butterfly => cfg.stages,
        Routing::RandomDigit { .. } if cfg.workload.q != 0.0 => {
            return Err("random-digit routing is only equivalent for uniform traffic".into());
        }
        Routing::RandomDigit { width_log_k: 0 } => return Err("need at least one stage".into()),
        Routing::RandomDigit { width_log_k } => width_log_k,
    };
    let ports = u64::from(cfg.k)
        .checked_pow(width)
        .filter(|&p| p <= MAX_PORTS)
        .ok_or_else(|| {
            format!(
                "a network of {}^{width} wires per stage exceeds the {MAX_PORTS}-wire limit",
                cfg.k
            )
        })?;
    let stages = u64::from(cfg.stages);
    // A `VecDeque` that has held a message keeps its buffer (capacity 4
    // after the first push) when it empties.
    let port = std::mem::size_of::<Port>() + 4 * std::mem::size_of::<Msg>();
    let queues = ports * stages * port as u64;
    let digits = match cfg.routing {
        Routing::RandomDigit { .. } => 0,
        Routing::Banyan | Routing::Butterfly => 8 * ports,
    };
    let bytes = queues + digits + route_table_bytes(cfg, ports);
    if bytes > MAX_SIM_BYTES {
        return Err(format!(
            "k = {}, {} stages needs {} MiB of queues and tables, over the simulator's \
             per-replication bound of {} MiB",
            cfg.k,
            cfg.stages,
            bytes >> 20,
            MAX_SIM_BYTES >> 20
        ));
    }
    Ok(())
}

/// Bytes of the butterfly routing table [`build_router`] materializes
/// for `cfg` on `ports` wires (4 per entry; 0 for omega wiring or a
/// table past [`MAX_ROUTE_TABLE_ENTRIES`]).
pub(crate) fn route_table_bytes(cfg: &NetworkConfig, ports: u64) -> u64 {
    let table = (u64::from(cfg.stages) * u64::from(cfg.k)).saturating_mul(ports);
    if cfg.routing == Routing::Butterfly && table <= MAX_ROUTE_TABLE_ENTRIES {
        4 * table
    } else {
        0
    }
}

/// Validates `cfg` and builds its topology. Shared between the scalar
/// simulator and the stage sweep (`crate::sweep`) so both reject
/// exactly the same configurations and agree on the port count.
///
/// # Panics
/// Panics on a configuration [`check_config`] refuses.
pub(crate) fn validate_and_build_topology(cfg: &NetworkConfig) -> OmegaTopology {
    check_config(cfg).expect("invalid network configuration");
    match cfg.routing {
        Routing::Banyan | Routing::Butterfly => OmegaTopology::new(cfg.k, cfg.stages),
        Routing::RandomDigit { width_log_k } => OmegaTopology::new(cfg.k, width_log_k),
    }
}

/// Builds the precomputed router for `cfg` over `topo`, its validated
/// topology (from [`validate_and_build_topology`]).
pub(crate) fn build_router(cfg: &NetworkConfig, topo: &OmegaTopology) -> Router {
    match cfg.routing {
        Routing::Banyan | Routing::RandomDigit { .. } => Router::OmegaBase(topo.switch_bases()),
        Routing::Butterfly => {
            let b = ButterflyTopology::new(cfg.k, cfg.stages);
            let entries = cfg.stages as u64 * b.ports() * cfg.k as u64;
            if entries <= MAX_ROUTE_TABLE_ENTRIES {
                Router::ButterflyTable(b.routing_table())
            } else {
                Router::ButterflyArith(b)
            }
        }
    }
}

/// The simulator itself. Construct with [`NetworkSim::new`], run to
/// completion with [`NetworkSim::run`].
pub struct NetworkSim {
    topo: OmegaTopology,
    cfg: NetworkConfig,
    ports: usize,
    k: usize,
    /// `queues[(stage-1) * ports + wire]`.
    queues: Vec<Port>,
    router: Router,
    /// `dest → packed digits` for destination-tag routing, `digit_bits`
    /// per stage (see [`digit_table`]); empty in random-digit mode.
    digit_table: Vec<u64>,
    digit_bits: u32,
    /// Per-stage bitset of wires whose queue is non-empty — the serve()
    /// work list. Stage `s` (0-based) owns words
    /// `active[s * active_words .. (s + 1) * active_words]`; wire `w`
    /// maps to bit `w % 64` of word `w / 64`. Iterating set bits low to
    /// high visits wires in ascending order with no sorting, which is
    /// exactly the order the determinism contract requires.
    active: Vec<u64>,
    /// Words per stage in `active`: `ports.div_ceil(64)`.
    active_words: usize,
    rng: SmallRng,
    now: u64,
    tracked_in_flight: u64,
    stats: NetworkStats,
    /// Per-stage waits rows by tracked ordinal, stride `stages`; filled
    /// only by the `ROWS` instantiation (correlations).
    rows: Vec<u32>,
    /// Instrumented runs only: the peak of messages in flight after a
    /// cycle's injections, and the wall time spent injecting and
    /// serving (metrics on).
    peak_in_flight: u64,
    inject_ns: u64,
    serve_ns: u64,
    /// Message-trace capture (see [`banyan_obs::msgtrace`]); `None`
    /// outside [`NetworkSim::run_traced`]. The hot loop never checks
    /// this at runtime — tracing is a const-generic instantiation.
    trace: Option<TraceState>,
}

/// Per-replication message-trace state: the recording surface plus the
/// open record of each sampled tracked ordinal.
struct TraceState {
    rt: RepTrace,
    /// `(ordinal, record index)` of every sampled ordinal, ascending.
    open: Vec<(u32, usize)>,
}

impl NetworkSim {
    /// Builds a simulator for the given configuration.
    ///
    /// # Panics
    /// Panics on a configuration [`check_config`] refuses.
    pub fn new(cfg: NetworkConfig) -> Self {
        let topo = validate_and_build_topology(&cfg);
        let router = build_router(&cfg, &topo);
        let ports = topo.ports() as usize;
        let stages = cfg.stages as usize;
        let digit_table = match cfg.routing {
            Routing::RandomDigit { .. } => Vec::new(),
            Routing::Banyan | Routing::Butterfly => digit_table(cfg.k, stages),
        };
        NetworkSim {
            topo,
            rng: SmallRng::seed_from_u64(cfg.seed),
            ports,
            k: cfg.k as usize,
            queues: vec![Port::default(); ports * stages],
            router,
            digit_table,
            digit_bits: digit_bits(cfg.k),
            active: vec![0u64; ports.div_ceil(64) * stages],
            active_words: ports.div_ceil(64),
            now: 0,
            tracked_in_flight: 0,
            stats: NetworkStats::new(cfg.stages, cfg.collect_correlations),
            rows: Vec::new(),
            peak_in_flight: 0,
            inject_ns: 0,
            serve_ns: 0,
            trace: None,
            cfg,
        }
    }

    /// The network topology.
    pub fn topology(&self) -> &OmegaTopology {
        &self.topo
    }

    /// Injects this cycle's fresh arrivals into the first-stage queues.
    fn inject<const TRACE: bool, const ROWS: bool>(&mut self, tracked_window: bool) {
        let ports = self.ports;
        let stages = self.cfg.stages as usize;
        let random_digit = self.digit_table.is_empty();
        let mask = (1u64 << self.digit_bits) - 1;
        for input in 0..ports {
            if let Some((dest, size)) =
                self.cfg
                    .workload
                    .sample_arrival(&mut self.rng, input as u64, ports as u64)
            {
                // Routing happens before the capacity check, and in
                // random-digit mode draws from the RNG — both facts are
                // part of the determinism contract.
                let (digits, digit0) = if random_digit {
                    (0, self.rng.gen_range(0..self.cfg.k as u64) as usize)
                } else {
                    let digits = self.digit_table[dest as usize];
                    (digits, (digits & mask) as usize)
                };
                let wire = self.router.next(0, ports, self.k, input, digit0);
                if let Some(cap) = self.cfg.buffer_capacity {
                    if self.queues[wire].fifo.len() >= cap {
                        self.stats.rejected_total += 1;
                        continue;
                    }
                }
                self.stats.injected_total += 1;
                let (t0, ord) = if tracked_window {
                    // Tracked-injection ordinal: the count so far,
                    // identical in both engines.
                    let ord = self.stats.injected as u32;
                    self.stats.injected += 1;
                    self.tracked_in_flight += 1;
                    if ROWS || TRACE {
                        assert!(
                            self.stats.injected <= u64::from(SAMPLED),
                            "tracked ordinals must stay below 2^31 when rows or traces key on them"
                        );
                    }
                    if ROWS {
                        self.rows.resize(self.rows.len() + stages, 0);
                    }
                    let mut flags = 0;
                    if TRACE {
                        let tr = self.trace.as_mut().expect("trace state");
                        if tr.rt.sampled(u64::from(ord)) {
                            flags = SAMPLED;
                            let idx = tr.rt.begin(u64::from(ord), self.now);
                            tr.open.push((ord, idx));
                            if random_digit {
                                // Later digits are drawn per hop in serve().
                                tr.rt.push_digit(idx, digit0 as u8);
                            } else {
                                tr.rt.set_digits_from_dest(
                                    idx,
                                    dest,
                                    u64::from(self.cfg.k),
                                    stages,
                                );
                            }
                        }
                    }
                    (self.now, ord | flags)
                } else {
                    (UNTRACKED, 0)
                };
                self.queues[wire].fifo.push_back(Msg {
                    entered: self.now,
                    t0,
                    digits,
                    size,
                    ord,
                });
                self.active[wire / 64] |= 1u64 << (wire % 64);
            }
        }
    }

    /// Starts at most one service at every eligible output port.
    ///
    /// Processing stages in increasing order is safe: a message forwarded
    /// from stage `i` this cycle is stamped `entered = now + 1` and is
    /// therefore ineligible at stage `i + 1` until the next cycle.
    ///
    /// Only queues in the stage's **active bitset** (non-empty fifo) are
    /// visited, so a lightly loaded network costs O(messages + words)
    /// per cycle instead of O(ports × stages). Scanning each word's set
    /// bits from least to most significant visits wires in **ascending
    /// order for free**: same-cycle arrivals at a downstream queue must
    /// enqueue in ascending-wire order so the dynamics are bit-identical
    /// to a full ascending scan. (The tie-break is not cosmetic — a
    /// sticky arbitrary order measurably *decorrelates* consecutive-stage
    /// waits and would shift Table VI.) Forwards only ever set bits in
    /// the *next* stage's words and a wire's own bit is cleared only
    /// after its local word copy already consumed it, so iterating a
    /// snapshot of each word is race-free.
    fn serve<const TRACE: bool, const ROWS: bool>(&mut self) {
        let stages = self.cfg.stages as usize;
        let ports = self.ports;
        let k = self.k;
        let now = self.now;
        let cap = self.cfg.buffer_capacity;
        let words = self.active_words;
        let random_digit = self.digit_table.is_empty();
        let (bits, mask) = (self.digit_bits as usize, (1u64 << self.digit_bits) - 1);
        for stage in 1..=stages {
            let base = (stage - 1) * words;
            for wi in 0..words {
                let mut word = self.active[base + wi];
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let wire = wi * 64 + bit;
                    let qidx = (stage - 1) * ports + wire;
                    let port = &self.queues[qidx];
                    let Some(head) = port.fifo.front() else {
                        // A set bit always marks a non-empty queue; keep
                        // the clear as a cheap defensive prune anyway.
                        self.active[base + wi] &= !(1u64 << bit);
                        continue;
                    };
                    if port.busy_until > now || head.entered > now {
                        continue;
                    }
                    if stage < stages {
                        let digit = if random_digit {
                            self.rng.gen_range(0..k as u64) as usize
                        } else {
                            ((head.digits >> (bits * stage)) & mask) as usize
                        };
                        let next = self.router.next(stage, ports, k, wire, digit);
                        let nidx = stage * ports + next;
                        if let Some(cap) = cap {
                            // Store-and-forward blocking: the head stays
                            // at the front (nothing was popped) until the
                            // downstream buffer has room.
                            if self.queues[nidx].fifo.len() >= cap {
                                continue;
                            }
                        }
                        let mut msg = self.pop_head::<TRACE, ROWS>(qidx, stage - 1);
                        if TRACE && random_digit && msg.ord & SAMPLED != 0 {
                            // Random-digit routes are discovered hop by
                            // hop; record the digit once its forward
                            // commits (a capacity-blocked head redraws
                            // next cycle, so draw time is too early).
                            self.trace_hop(msg.ord, |rt, idx| rt.push_digit(idx, digit as u8));
                        }
                        msg.entered = now + 1;
                        self.queues[nidx].fifo.push_back(msg);
                        self.active[stage * words + next / 64] |= 1u64 << (next % 64);
                    } else {
                        let msg = self.pop_head::<TRACE, ROWS>(qidx, stage - 1);
                        self.deliver::<ROWS>(msg);
                    }
                    if self.queues[qidx].fifo.is_empty() {
                        self.active[base + wi] &= !(1u64 << bit);
                    }
                }
            }
        }
    }

    /// Starts the service of queue `qidx`'s head (at 0-based stage `j`):
    /// pops it, occupies the server for its size and folds a tracked
    /// message's wait into the stage pmf (and its waits row or trace
    /// record).
    #[inline]
    fn pop_head<const TRACE: bool, const ROWS: bool>(&mut self, qidx: usize, j: usize) -> Msg {
        let port = &mut self.queues[qidx];
        let msg = port.fifo.pop_front().expect("served queue is non-empty");
        port.busy_until = self.now + u64::from(msg.size);
        if msg.t0 != UNTRACKED {
            let wait = self.now - msg.entered;
            self.stats.stage_waits[j].record(wait);
            if ROWS {
                let stages = self.cfg.stages as usize;
                self.rows[(msg.ord & !SAMPLED) as usize * stages + j] = wait as u32;
            }
            if TRACE && msg.ord & SAMPLED != 0 {
                self.trace_hop(msg.ord, |rt, idx| rt.push_wait(idx, wait as u32));
            }
        }
        msg
    }

    /// Applies `fill` to the trace record of a sampled message (`ord`
    /// carries the [`SAMPLED`] flag). Kept out of line, fill included:
    /// inlined into the serve loop, this rarely taken path slowed every
    /// traced hop, sampled or not, by ≈15%.
    #[cold]
    #[inline(never)]
    fn trace_hop(&mut self, ord: u32, fill: impl FnOnce(&mut RepTrace, usize)) {
        let tr = self.trace.as_mut().expect("trace state");
        let ord = ord & !SAMPLED;
        let at = tr.open.binary_search_by_key(&ord, |&(o, _)| o);
        fill(&mut tr.rt, tr.open[at.expect("sampled ordinals have open records")].1);
    }

    /// Counts a message whose final-stage service just started; for a
    /// tracked one, records the total wait (and its complete waits row).
    fn deliver<const ROWS: bool>(&mut self, msg: Msg) {
        self.stats.delivered_total += 1;
        if msg.t0 == UNTRACKED {
            return;
        }
        self.tracked_in_flight -= 1;
        self.stats.delivered += 1;
        let stages = self.cfg.stages as usize;
        // Each forward adds one cycle of transit, so the waits sum to the
        // time since injection less `stages − 1`.
        self.stats
            .total_wait
            .record(self.now - msg.t0 - (stages as u64 - 1));
        if let (true, Some(corr)) = (ROWS, &mut self.stats.correlations) {
            corr.push(&self.rows[(msg.ord & !SAMPLED) as usize * stages..][..stages]);
        }
    }

    /// Advances one cycle. An instrumented run (`OBS`) also tracks the
    /// in-flight peak and, when `timed`, the inject / serve wall time.
    fn step<const OBS: bool, const TRACE: bool, const ROWS: bool>(
        &mut self,
        tracked_window: bool,
        timed: bool,
    ) {
        let timed = OBS && timed;
        let t_inject = timed.then(Instant::now);
        self.inject::<TRACE, ROWS>(tracked_window);
        if OBS {
            let live = self.stats.injected_total - self.stats.delivered_total;
            self.peak_in_flight = self.peak_in_flight.max(live);
        }
        let t_serve = timed.then(Instant::now);
        self.serve::<TRACE, ROWS>();
        if let (Some(t_inject), Some(t_serve)) = (t_inject, t_serve) {
            self.inject_ns += (t_serve - t_inject).as_nanos() as u64;
            self.serve_ns += t_serve.elapsed().as_nanos() as u64;
        }
        self.now += 1;
    }

    /// Number of messages currently queued anywhere in the network.
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(|q| q.fifo.len()).sum()
    }

    /// Runs the full warmup → measure → drain protocol and returns the
    /// statistics. The drain keeps injecting untracked background traffic
    /// so tracked stragglers finish under steady-state conditions; it is
    /// bounded by a generous safety factor and panics if tracked messages
    /// are still stuck after it (which would indicate an unstable load).
    pub fn run(self) -> NetworkStats {
        self.run_instrumented(&Telemetry::off())
    }

    /// Like [`NetworkSim::run`], but reporting into `tel`: phase spans
    /// (`net/warmup`, `net/measure`, `net/drain`), per-stage
    /// buffer-occupancy gauges sampled every
    /// [`banyan_obs::TelemetryConfig::sample_every`] cycles, the peak
    /// in-flight count, the end-of-run conservation-ledger counters
    /// (`net.injected_total` = `net.delivered_total` +
    /// `net.in_flight_at_end`) and the per-replication inject / serve
    /// split (`scalar/inject`, `scalar/serve`).
    ///
    /// Telemetry is strictly observational: it reads counters and queue
    /// lengths but never touches the RNG or the dynamics, so the
    /// returned statistics are **bit-identical** for any
    /// `TelemetryConfig`. With telemetry off this dispatches to the
    /// exact uninstrumented loop (one branch per run, nothing per
    /// cycle) — the `overhead_guard` bench in `banyan-bench` enforces
    /// that contract.
    pub fn run_instrumented(self, tel: &Telemetry) -> NetworkStats {
        self.dispatch::<false>(tel).0
    }

    /// Like [`NetworkSim::run_instrumented`], but additionally capturing
    /// sampled per-message lifecycle records into `rt` (see
    /// [`banyan_obs::msgtrace`]). Tracing is strictly observational: it
    /// never touches the RNG or the dynamics, so the returned statistics
    /// are bit-identical to an untraced run.
    pub fn run_traced(mut self, tel: &Telemetry, rt: RepTrace) -> (NetworkStats, RepTrace) {
        self.trace = Some(TraceState {
            rt,
            open: Vec::new(),
        });
        let (stats, trace) = self.dispatch::<true>(tel);
        (stats, trace.expect("trace state").rt)
    }

    /// Picks the [`NetworkSim::drive`] instantiation for `tel` and the
    /// configuration's correlation collection.
    fn dispatch<const TRACE: bool>(self, tel: &Telemetry) -> (NetworkStats, Option<TraceState>) {
        match (tel.active(), self.cfg.collect_correlations) {
            (false, false) => self.drive::<false, TRACE, false>(tel),
            (false, true) => self.drive::<false, TRACE, true>(tel),
            (true, false) => self.drive::<true, TRACE, false>(tel),
            (true, true) => self.drive::<true, TRACE, true>(tel),
        }
    }

    /// The run protocol, monomorphized over "is any telemetry active",
    /// "is message tracing on" and "are waits rows kept": the all-`false`
    /// instantiation compiles to the original telemetry-free loops.
    fn drive<const OBS: bool, const TRACE: bool, const ROWS: bool>(
        mut self,
        tel: &Telemetry,
    ) -> (NetworkStats, Option<TraceState>) {
        let mut obs = if OBS {
            Some(ObsState::new(tel, self.cfg.stages as usize))
        } else {
            None
        };
        let timed = OBS && tel.metrics_enabled();
        {
            let _span = tel.span("net/warmup");
            for _ in 0..self.cfg.warmup_cycles {
                self.step::<OBS, TRACE, ROWS>(false, timed);
                if OBS {
                    obs.as_mut().expect("telemetry state").tick(&self);
                }
            }
        }
        {
            let _span = tel.span("net/measure");
            for _ in 0..self.cfg.measure_cycles {
                self.step::<OBS, TRACE, ROWS>(true, timed);
                if OBS {
                    obs.as_mut().expect("telemetry state").tick(&self);
                }
            }
        }
        // Drain: the run fails if and only if tracked messages are still
        // undelivered after `max_drain` drain cycles, and names how many.
        let max_drain = max_drain(&self.cfg);
        let mut drained = 0u64;
        {
            let _span = tel.span("net/drain");
            while self.tracked_in_flight > 0 {
                assert!(
                    drained < max_drain,
                    "drain did not complete: {} tracked messages stuck (load too close to 1?)",
                    self.tracked_in_flight
                );
                self.step::<OBS, TRACE, ROWS>(false, timed);
                drained += 1;
                if OBS {
                    obs.as_mut().expect("telemetry state").tick(&self);
                }
            }
        }
        self.stats.cycles = self.now;
        self.stats.in_flight_at_end = self.in_flight() as u64;
        self.stats.total_hist = self.stats.total_wait.clone();
        if OBS {
            obs.as_mut()
                .expect("telemetry state")
                .flush_final(&self.stats, self.peak_in_flight);
            if timed {
                tel.spans().record_ns("scalar/inject", self.inject_ns);
                tel.spans().record_ns("scalar/serve", self.serve_ns);
            }
        }
        let trace = self.trace.take();
        (self.stats, trace)
    }
}

/// The drain budget: a run fails when tracked messages are still
/// undelivered this many cycles after the measure window closes —
/// generous, since waiting times at ρ < 1 are short compared to it.
pub(crate) fn max_drain(cfg: &NetworkConfig) -> u64 {
    200 * cfg.stages as u64 + cfg.measure_cycles + 100_000
}

/// How often (in cycles) an instrumented run pushes progress deltas and
/// lets the heartbeat check its wall-clock interval. Coarse on purpose:
/// the per-cycle cost of *enabled* telemetry is two counter decrements.
pub(crate) const HEARTBEAT_CHECK_CYCLES: u64 = 2_048;

/// Per-run telemetry state for the instrumented drive loop: metric
/// handles resolved once at run start plus countdowns for the two
/// sampled activities (occupancy sampling, heartbeat checks). The stage
/// sweep reports through the same state, so both engines emit one set
/// of metrics.
pub(crate) struct ObsState<'t> {
    tel: &'t Telemetry,
    pub(crate) metrics: bool,
    pub(crate) sample_every: u64,
    until_sample: u64,
    until_heartbeat: u64,
    last_cycles: u64,
    last_injected: u64,
    last_delivered: u64,
    last_rejected: u64,
    /// Per-stage total-queued-messages gauges (empty when metrics off).
    stage_occupancy: Vec<Arc<Gauge>>,
    /// Distribution of per-queue occupancy across all sampled queues.
    /// **Worker-local** (owned, not a registry handle): samples land in
    /// unshared memory and are folded into the shared registry's
    /// `net.queue_occupancy` once, at flush, via [`Histogram::merge`] —
    /// concurrent replications never contend on registry atomics from
    /// the sampling path.
    occupancy_hist: Option<Histogram>,
}

impl<'t> ObsState<'t> {
    pub(crate) fn new(tel: &'t Telemetry, stages: usize) -> Self {
        let metrics = tel.metrics_enabled();
        let stage_occupancy = if metrics {
            (0..stages)
                .map(|s| {
                    tel.registry()
                        .gauge(&format!("net.occupancy.stage{:02}", s + 1))
                })
                .collect()
        } else {
            Vec::new()
        };
        let occupancy_hist = metrics.then(|| Histogram::new(POW2_BOUNDS));
        let sample_every = tel.config().sample_every.max(1);
        ObsState {
            tel,
            metrics,
            sample_every,
            until_sample: sample_every,
            until_heartbeat: HEARTBEAT_CHECK_CYCLES,
            last_cycles: 0,
            last_injected: 0,
            last_delivered: 0,
            last_rejected: 0,
            stage_occupancy,
            occupancy_hist,
        }
    }

    /// Per-cycle bookkeeping of an instrumented run (never called on the
    /// disabled path): two countdowns, everything else amortized.
    #[inline]
    fn tick(&mut self, sim: &NetworkSim) {
        if self.metrics {
            self.until_sample -= 1;
            if self.until_sample == 0 {
                self.until_sample = self.sample_every;
                self.sample_occupancy(sim);
            }
        }
        self.until_heartbeat -= 1;
        if self.until_heartbeat == 0 {
            self.until_heartbeat = HEARTBEAT_CHECK_CYCLES;
            self.push_progress(sim.now, &sim.stats);
            self.tel.heartbeat_tick();
        }
    }

    /// Samples every queue's occupancy into the per-stage gauges (with
    /// high-water marks) and the global occupancy histogram.
    #[cold]
    fn sample_occupancy(&self, sim: &NetworkSim) {
        for s in 0..self.stage_occupancy.len() {
            let queues = &sim.queues[s * sim.ports..(s + 1) * sim.ports];
            self.sample_stage(s, queues.iter().map(|q| q.fifo.len() as u64));
        }
    }

    /// Records one stage's per-queue occupancies (0-based `stage`) into
    /// the histogram and sets the stage gauge to their total.
    pub(crate) fn sample_stage(&self, stage: usize, lens: impl Iterator<Item = u64>) {
        let hist = self.occupancy_hist.as_ref().expect("metrics enabled");
        let mut total = 0u64;
        for len in lens {
            total += len;
            hist.record(len);
        }
        self.stage_occupancy[stage].set(total);
    }

    /// Pushes counter deltas since the last push into the shared
    /// progress ledger; `now` is the run's current cycle.
    fn push_progress(&mut self, now: u64, st: &NetworkStats) {
        self.tel.progress().add_cycles(now - self.last_cycles);
        self.tel.progress().add_messages(
            st.injected_total - self.last_injected,
            st.delivered_total - self.last_delivered,
            st.rejected_total - self.last_rejected,
        );
        self.last_cycles = now;
        self.last_injected = st.injected_total;
        self.last_delivered = st.delivered_total;
        self.last_rejected = st.rejected_total;
    }

    /// End-of-run flush of a finished run's statistics `st`: final
    /// progress delta plus the conservation ledger, tracked-message
    /// counters, `peak_in_flight` (the most messages simultaneously in
    /// flight, gauge `net.slab_high_water`), the worker-local occupancy
    /// histogram, and the per-stage / total waiting-time distribution
    /// sketches.
    pub(crate) fn flush_final(&mut self, st: &NetworkStats, peak_in_flight: u64) {
        self.push_progress(st.cycles, st);
        if !self.metrics {
            return;
        }
        let reg = self.tel.registry();
        reg.counter("net.injected_total").add(st.injected_total);
        reg.counter("net.delivered_total").add(st.delivered_total);
        reg.counter("net.rejected_total").add(st.rejected_total);
        reg.counter("net.in_flight_at_end").add(st.in_flight_at_end);
        reg.counter("net.cycles").add(st.cycles);
        reg.counter("net.tracked_injected").add(st.injected);
        reg.counter("net.tracked_delivered").add(st.delivered);
        reg.gauge("net.slab_high_water").set(peak_in_flight);
        reg.counter("net.runs").inc();
        if let Some(local) = &self.occupancy_hist {
            reg.histogram("net.queue_occupancy", POW2_BOUNDS)
                .merge(local);
        }
        // Fold the exact waiting-time pmfs into the shared sketch set.
        // Sketch merging is commutative integer addition, so concurrent
        // workers may flush in any order without changing the result.
        let sketches = self.tel.sketches();
        for (i, h) in st.stage_waits.iter().enumerate() {
            sketches.merge_sketch(&format!("net.wait.stage{:02}", i + 1), h);
        }
        sketches.merge_sketch("net.wait.total", &st.total_wait);
    }
}

/// Convenience: build and run in one call.
pub fn run_network(cfg: NetworkConfig) -> NetworkStats {
    NetworkSim::new(cfg).run()
}

/// Convenience: build and run one instrumented simulation, registering
/// its expected cycle count with the shared progress ledger first (so
/// heartbeat ETAs are meaningful).
pub fn run_network_instrumented(cfg: NetworkConfig, tel: &Telemetry) -> NetworkStats {
    if tel.active() {
        tel.progress()
            .add_expected_cycles(cfg.warmup_cycles + cfg.measure_cycles);
    }
    NetworkSim::new(cfg).run_instrumented(tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ServiceDist;

    fn quick_cfg(k: u32, stages: u32, p: f64, m: u32) -> NetworkConfig {
        NetworkConfig {
            warmup_cycles: 500,
            measure_cycles: 4_000,
            ..NetworkConfig::new(k, stages, Workload::uniform(p, m))
        }
    }

    #[test]
    fn zero_load_delivers_nothing() {
        let stats = run_network(quick_cfg(2, 3, 0.0, 1));
        assert_eq!(stats.injected, 0);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.injected_total, 0);
    }

    #[test]
    fn instrumented_run_is_bit_identical_to_plain_run() {
        use banyan_obs::TelemetryConfig;
        let base = run_network(quick_cfg(2, 4, 0.6, 2));
        for cfg in [
            TelemetryConfig::on(),
            TelemetryConfig::on().with_sample_every(17),
            TelemetryConfig::off().with_progress(),
        ] {
            let tel = Telemetry::new(cfg);
            let inst = run_network_instrumented(quick_cfg(2, 4, 0.6, 2), &tel);
            assert_eq!(inst, base);
        }
    }

    #[test]
    fn instrumented_run_records_spans_counters_and_occupancy() {
        use banyan_obs::TelemetryConfig;
        let tel = Telemetry::new(TelemetryConfig::on().with_sample_every(32));
        let stats = run_network_instrumented(quick_cfg(2, 3, 0.5, 1), &tel);
        for phase in ["net/warmup", "net/measure", "net/drain"] {
            let st = tel
                .spans()
                .stat(phase)
                .unwrap_or_else(|| panic!("missing span {phase}"));
            assert_eq!(st.calls, 1, "{phase}");
        }
        let reg = tel.registry();
        assert_eq!(
            reg.counter_value("net.injected_total"),
            Some(stats.injected_total)
        );
        assert_eq!(
            reg.counter_value("net.delivered_total"),
            Some(stats.delivered_total)
        );
        assert_eq!(
            reg.counter_value("net.in_flight_at_end"),
            Some(stats.in_flight_at_end)
        );
        assert_eq!(reg.counter_value("net.cycles"), Some(stats.cycles));
        assert_eq!(reg.counter_value("net.runs"), Some(1));
        // The conservation ledger closes inside the registry too.
        assert_eq!(
            reg.counter_value("net.injected_total").unwrap(),
            reg.counter_value("net.delivered_total").unwrap()
                + reg.counter_value("net.in_flight_at_end").unwrap()
        );
        let snap = reg.snapshot_json();
        assert!(
            snap.contains("net.occupancy.stage01"),
            "occupancy gauges present"
        );
        assert!(
            snap.contains("net.queue_occupancy"),
            "occupancy histogram present"
        );
        assert!(
            snap.contains("net.slab_high_water"),
            "in-flight peak present"
        );
        // The inject / serve split: one record of each per replication.
        for split in ["scalar/inject", "scalar/serve"] {
            assert_eq!(tel.spans().stat(split).map(|s| s.calls), Some(1), "{split}");
        }
        // Progress ledger saw the whole run (warmup + measure + drain).
        let p = tel.progress().snapshot();
        assert_eq!(p.cycles, stats.cycles);
        assert_eq!(p.injected, stats.injected_total);
        assert_eq!(p.delivered, stats.delivered_total);
        assert_eq!(p.in_flight(), stats.in_flight_at_end);
    }

    #[test]
    fn instrumented_run_captures_exact_wait_sketches() {
        use banyan_obs::TelemetryConfig;
        let tel = Telemetry::new(TelemetryConfig::on());
        let stats = run_network_instrumented(quick_cfg(2, 4, 0.5, 1), &tel);
        let sketches = tel.sketches();
        // One sketch per stage plus the end-to-end total: exactly the
        // pmfs the returned stats carry.
        for i in 1..=4 {
            let name = format!("net.wait.stage{i:02}");
            let sk = sketches
                .get(&name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(
                sk.total(),
                stats.delivered,
                "{name} pmf must sum to delivered"
            );
            assert_eq!(sk, stats.stage_waits[i - 1], "{name}");
        }
        let total = sketches.get("net.wait.total").expect("total sketch");
        assert_eq!(total, stats.total_wait);
        // The pmf itself is exact: probabilities sum to one.
        let mass: f64 = total.pmf_points().iter().map(|&(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_telemetry_records_no_sketches() {
        let tel = Telemetry::off();
        NetworkSim::new(quick_cfg(2, 3, 0.5, 1)).run_instrumented(&tel);
        assert!(tel.sketches().is_empty());
    }

    #[test]
    fn all_tracked_messages_are_delivered() {
        let stats = run_network(quick_cfg(2, 4, 0.5, 1));
        assert!(stats.injected > 0);
        assert_eq!(stats.injected, stats.delivered);
        assert_eq!(stats.total_wait.total(), stats.delivered);
        assert_eq!(stats.total_hist, stats.total_wait);
        // Every stage pmf holds one wait per tracked delivery.
        assert_eq!(stats.stage_waits.len(), 4);
        for h in &stats.stage_waits {
            assert_eq!(h.total(), stats.delivered);
        }
    }

    #[test]
    fn light_load_waits_are_tiny() {
        let stats = run_network(quick_cfg(2, 3, 0.01, 1));
        assert!(
            stats.total_wait.mean() < 0.05,
            "{}",
            stats.total_wait.mean()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_network(quick_cfg(2, 3, 0.5, 1));
        let b = run_network(quick_cfg(2, 3, 0.5, 1));
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.total_wait.mean(), b.total_wait.mean());
        let mut c = quick_cfg(2, 3, 0.5, 1);
        c.seed = 999;
        let c = run_network(c);
        assert_ne!(a.injected, c.injected);
    }

    #[test]
    fn stage1_matches_exact_analysis() {
        // k = 2, p = 0.5, m = 1: w₁ = 0.25, v₁ = 0.25 exactly (Eq. 6–7).
        let mut cfg = quick_cfg(2, 3, 0.5, 1);
        cfg.measure_cycles = 30_000;
        let stats = run_network(cfg);
        let w1 = stats.stage_waits[0].mean();
        let v1 = stats.stage_waits[0].variance();
        assert!((w1 - 0.25).abs() < 0.01, "w1 = {w1}");
        assert!((v1 - 0.25).abs() < 0.02, "v1 = {v1}");
    }

    #[test]
    fn stage1_matches_exact_analysis_m4() {
        // k = 2, p = 0.125, m = 4 (ρ = 0.5): Eq. 8 gives
        // w₁ = 0.5·(4 − 0.5)/(2·0.5) = 1.75.
        let mut cfg = quick_cfg(2, 3, 0.125, 4);
        cfg.measure_cycles = 60_000;
        let stats = run_network(cfg);
        let w1 = stats.stage_waits[0].mean();
        assert!((w1 - 1.75).abs() < 0.08, "w1 = {w1}");
    }

    #[test]
    fn later_stage_waits_exceed_first_stage() {
        // §IV: w_i increases with i toward w_∞ > w₁ (unit service).
        let mut cfg = quick_cfg(2, 6, 0.5, 1);
        cfg.measure_cycles = 30_000;
        let stats = run_network(cfg);
        let w1 = stats.stage_waits[0].mean();
        let w_deep = stats.stage_waits[4].mean();
        assert!(w_deep > w1 * 1.05, "w1 = {w1}, w5 = {w_deep}");
        // ...and approaches ~1.2·w₁ (r(0.5) for k = 2).
        assert!(w_deep < w1 * 1.4);
    }

    #[test]
    fn interior_stage_waits_drop_for_long_messages() {
        // §IV-B: for m ≥ 2 the first stage is the *most* congested —
        // interior sources are spaced by the service time.
        let mut cfg = quick_cfg(2, 5, 0.125, 4);
        cfg.measure_cycles = 40_000;
        let stats = run_network(cfg);
        let w1 = stats.stage_waits[0].mean();
        let w4 = stats.stage_waits[3].mean();
        assert!(w4 < w1, "w1 = {w1}, w4 = {w4}");
    }

    #[test]
    fn correlations_are_small_and_positive_between_adjacent_stages() {
        let mut cfg = quick_cfg(2, 6, 0.5, 1);
        cfg.collect_correlations = true;
        cfg.measure_cycles = 30_000;
        let stats = run_network(cfg);
        let corr = stats.correlations.as_ref().unwrap();
        // Table VI: adjacent ≈ 0.12, decaying with distance.
        let c12 = corr.correlation(2, 3);
        assert!(c12 > 0.05 && c12 < 0.25, "adjacent corr = {c12}");
        let c14 = corr.correlation(2, 5);
        assert!(c14 < c12, "corr should decay with stage distance");
    }

    #[test]
    fn merge_combines_replications() {
        let a = run_network(quick_cfg(2, 3, 0.5, 1));
        let mut b_cfg = quick_cfg(2, 3, 0.5, 1);
        b_cfg.seed = 42;
        let b = run_network(b_cfg);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.delivered, a.delivered + b.delivered);
        assert_eq!(
            merged.total_wait.total(),
            a.total_wait.total() + b.total_wait.total()
        );
        assert_eq!(
            merged.delivered_total,
            a.delivered_total + b.delivered_total
        );
        assert_eq!(
            merged.in_flight_at_end,
            a.in_flight_at_end + b.in_flight_at_end
        );
    }

    #[test]
    fn geometric_service_network_runs() {
        let wl = Workload {
            p: 0.2,
            q: 0.0,
            service: ServiceDist::Geometric(0.5),
        };
        let mut cfg = NetworkConfig::new(2, 3, wl);
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 4_000;
        let stats = run_network(cfg);
        assert_eq!(stats.injected, stats.delivered);
        assert!(stats.total_wait.mean() > 0.0);
    }

    #[test]
    fn hotspot_traffic_reduces_waiting() {
        let mut uni = quick_cfg(2, 4, 0.5, 1);
        uni.measure_cycles = 20_000;
        let u = run_network(uni);
        let mut hot = NetworkConfig::new(2, 4, Workload::hotspot(0.5, 0.8));
        hot.warmup_cycles = 500;
        hot.measure_cycles = 20_000;
        let h = run_network(hot);
        assert!(
            h.total_wait.mean() < u.total_wait.mean(),
            "hotspot {} vs uniform {}",
            h.total_wait.mean(),
            u.total_wait.mean()
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_stages_rejected() {
        NetworkSim::new(NetworkConfig::new(2, 17, Workload::uniform(0.1, 1)));
    }

    #[test]
    fn check_config_refuses_what_the_simulator_cannot_build() {
        let check = |k, n| check_config(&NetworkConfig::new(k, n, Workload::uniform(0.5, 1)));
        assert!(check(2, 17).unwrap_err().contains("at most 16 stages"));
        assert!(check(16, 7).unwrap_err().contains("wire limit"));
        // 4^12 wires pass the wire limit, but 12 stages of ports would
        // need about 7.5 GiB.
        assert!(check(4, 12).unwrap_err().contains("256 MiB"));
        // 16^5 wires pass too, but their 5·2^20 queues, each with the
        // 128-byte buffer its FIFO keeps once used, need ≈ 840 MiB.
        assert!(check(16, 5).unwrap_err().contains("256 MiB"));
        assert!(check(1, 3).unwrap_err().contains("at least 2"));
        let mut cfg = quick_cfg(2, 3, 0.5, 1);
        cfg.buffer_capacity = Some(0);
        assert!(check_config(&cfg).unwrap_err().contains("capacity"));
        cfg.buffer_capacity = None;
        cfg.workload.p = 1.5;
        assert!(check_config(&cfg).unwrap_err().contains("probability"));
        // The deepest k = 2 network, a 2^18-wire k = 8 banyan (≈ 254
        // MiB, the tightest), k = 16 at 4 stages and Table II's
        // random-digit k = 8 network at 8 stages all pass.
        assert_eq!(check(2, 16), Ok(()));
        assert_eq!(check(8, 6), Ok(()));
        assert_eq!(check(16, 4), Ok(()));
        let deep = NetworkConfig::new(8, 8, Workload::uniform(0.5, 1)).with_random_digit_width(3);
        assert_eq!(check_config(&deep), Ok(()));
    }

    #[test]
    fn infinite_buffers_never_reject() {
        let stats = run_network(quick_cfg(2, 4, 0.8, 1));
        assert_eq!(stats.rejected_total, 0);
    }

    #[test]
    fn message_conservation_ledger_closes() {
        // injected_total = delivered_total + in_flight_at_end, with and
        // without finite buffers (rejections are counted separately and
        // never enter injected_total).
        for cap in [None, Some(16), Some(2), Some(1)] {
            let mut cfg = quick_cfg(2, 4, 0.7, 1);
            cfg.buffer_capacity = cap;
            let stats = run_network(cfg);
            assert_eq!(
                stats.injected_total,
                stats.delivered_total + stats.in_flight_at_end,
                "cap {cap:?}"
            );
            assert!(stats.delivered_total >= stats.delivered);
            if cap.is_none() {
                assert_eq!(stats.rejected_total, 0);
            }
        }
    }

    #[test]
    fn large_finite_buffers_match_infinite_at_moderate_load() {
        // §I: "for light-to-moderate loads, moderate-sized buffers provide
        // approximately the same performance as infinite buffers."
        let mut inf = quick_cfg(2, 5, 0.5, 1);
        inf.measure_cycles = 20_000;
        let a = run_network(inf);
        let mut fin = quick_cfg(2, 5, 0.5, 1);
        fin.measure_cycles = 20_000;
        fin.buffer_capacity = Some(16);
        let b = run_network(fin);
        assert_eq!(
            b.rejected_total, 0,
            "capacity 16 should never fill at p=0.5"
        );
        assert!(
            (a.total_wait.mean() - b.total_wait.mean()).abs() < 0.03,
            "{} vs {}",
            a.total_wait.mean(),
            b.total_wait.mean()
        );
    }

    #[test]
    fn tiny_buffers_reject_and_cap_waits() {
        let mut cfg = quick_cfg(2, 4, 0.9, 1);
        cfg.measure_cycles = 10_000;
        cfg.buffer_capacity = Some(1);
        let stats = run_network(cfg);
        assert!(stats.rejected_total > 0, "capacity 1 at p=0.9 must reject");
        assert_eq!(
            stats.injected, stats.delivered,
            "accepted messages still conserved"
        );
        // Offered load far exceeds what one buffer slot per port can
        // carry: most injections bounce, and accepted messages see
        // moderate (blocking-limited) waits rather than the enormous
        // queues an infinite buffer would build at p = 0.9.
        let accept =
            stats.injected_total as f64 / (stats.injected_total + stats.rejected_total) as f64;
        assert!(accept < 0.6, "accept rate {accept}");
        assert!(
            stats.total_wait.mean() < 10.0,
            "{}",
            stats.total_wait.mean()
        );
    }

    #[test]
    fn finite_buffers_are_conservative_under_all_loads() {
        for &p in &[0.3, 0.6, 0.9] {
            let mut cfg = quick_cfg(2, 3, p, 1);
            cfg.measure_cycles = 5_000;
            cfg.buffer_capacity = Some(2);
            let stats = run_network(cfg);
            assert_eq!(stats.injected, stats.delivered, "p={p}");
        }
    }

    /// White-box store-and-forward regression: a head message blocked by
    /// a full downstream buffer must keep accumulating waiting cycles,
    /// must not be reordered past its queue-mates, and the stalled cycles
    /// must show up in its recorded per-stage wait.
    #[test]
    fn blocked_head_keeps_waiting_and_fifo_order() {
        let mut cfg = quick_cfg(2, 2, 0.0, 1);
        cfg.buffer_capacity = Some(1);
        let mut sim = NetworkSim::new(cfg);

        // Hand-build the scenario at cycle 0. Wire layout (k=2, n=2,
        // omega): a stage-1 message on output wire 0 with destination
        // digit 0 for stage 2 forwards to stage-2 wire 0. Ordinals:
        // blocker 0, `first` 1, `second` 2.
        let msg = |ord| Msg {
            entered: 0,
            t0: 0,
            digits: sim.digit_table[0],
            size: 1,
            ord,
        };
        let (blocker, first, second) = (msg(0), msg(1), msg(2));
        let ports = sim.ports;
        sim.queues[ports].fifo.push_back(blocker); // stage-2 wire 0
        sim.queues[ports].busy_until = 3; // server busy through cycle 2
        sim.active[sim.active_words] |= 1; // stage-2 wire 0 active

        sim.queues[0].fifo.push_back(first); // stage-1 wire 0
        sim.queues[0].fifo.push_back(second);
        sim.active[0] |= 1; // stage-1 wire 0 active
        sim.tracked_in_flight = 3;
        sim.stats.injected = 3;
        sim.stats.injected_total = 3;
        let head = |sim: &NetworkSim| sim.queues[0].fifo.front().map(|m| m.ord);
        let stage_waits = |sim: &NetworkSim, j: usize| -> Vec<(u64, u64)> {
            sim.stats.stage_waits[j].count_points().collect()
        };

        // Cycles 0–2: downstream full (capacity 1, blocker queued) or
        // busy — the head must stay put, in order, unserved.
        for cycle in 0..3u64 {
            sim.serve::<false, false>();
            sim.now += 1;
            assert_eq!(head(&sim), Some(1), "cycle {cycle}: head reordered");
            assert_eq!(
                sim.queues[0].fifo.len(),
                2,
                "cycle {cycle}: queue drained early"
            );
        }
        // Cycle 3: blocker's server freed; blocker (stage 2 = last
        // stage) departs, and `first` forwards in the same cycle (stage
        // order runs 1 then 2, so stage 1 sees the still-full buffer) —
        // no: stage 1 is served *before* stage 2, so `first` is still
        // blocked this cycle and forwards on cycle 4.
        sim.serve::<false, false>();
        sim.now += 1;
        assert_eq!(head(&sim), Some(1));
        assert_eq!(sim.stats.delivered, 1, "blocker delivered");
        // Cycle 4: downstream now empty; `first` forwards with its full
        // stage-1 wait on record. It waited cycles 0..4 ⇒ wait = 4.
        sim.serve::<false, false>();
        sim.now += 1;
        assert_eq!(head(&sim), Some(2), "FIFO order violated");
        assert_eq!(stage_waits(&sim, 0), [(4, 1)], "blocked cycles lost");
        // Cycle 5: stage 1 runs before stage 2, so `second` still sees a
        // full downstream buffer and stays blocked; `first` is delivered
        // at stage 2 (entered cycle 5, served cycle 5 ⇒ stage-2 wait 0,
        // next to the blocker's 3).
        sim.serve::<false, false>();
        sim.now += 1;
        assert_eq!(head(&sim), Some(2), "second served early");
        assert_eq!(sim.stats.delivered, 2);
        assert_eq!(stage_waits(&sim, 1), [(0, 1), (3, 1)]);
        // Cycle 6: downstream finally empty; `second` forwards having
        // waited cycles 0..6 ⇒ wait = 6, all blocked cycles on record.
        sim.serve::<false, false>();
        sim.now += 1;
        assert_eq!(stage_waits(&sim, 0), [(4, 1), (6, 1)]);
    }

    #[test]
    fn stage_distributions_have_similar_shape() {
        // §V: "The distribution of waiting times seems to be about the
        // same for all stages." Compare stage-1 and deep-stage pmfs by
        // total variation (they differ slightly — deep stages wait ~20%
        // longer at p = 0.5 — but the shapes are close).
        use banyan_stats::distance::total_variation;
        let mut cfg = quick_cfg(2, 8, 0.5, 1);
        cfg.measure_cycles = 30_000;
        let stats = run_network(cfg);
        let hists = &stats.stage_waits;
        let first = &hists[0];
        let deep = &hists[7];
        let tv = total_variation(deep, |v| first.pmf_at(v));
        assert!(tv < 0.06, "stage-1 vs stage-8 TV = {tv}");
        // And deep stages resemble each other even more closely.
        let tv78 = total_variation(&hists[7], |v| hists[6].pmf_at(v));
        assert!(tv78 < 0.02, "stage-7 vs stage-8 TV = {tv78}");
    }

    #[test]
    fn butterfly_statistically_matches_omega() {
        // Two wirings of the same banyan family: identical per-stage
        // statistics under uniform traffic.
        let mut omega = quick_cfg(2, 6, 0.5, 1);
        omega.measure_cycles = 20_000;
        let a = run_network(omega);
        let mut bfly = quick_cfg(2, 6, 0.5, 1);
        bfly.measure_cycles = 20_000;
        bfly.routing = Routing::Butterfly;
        let b = run_network(bfly);
        for i in 0..6 {
            let wa = a.stage_waits[i].mean();
            let wb = b.stage_waits[i].mean();
            assert!(
                (wa - wb).abs() < 0.02,
                "stage {i}: omega {wa} vs butterfly {wb}"
            );
        }
        assert!((a.total_wait.mean() - b.total_wait.mean()).abs() < 0.05);
        assert_eq!(b.injected, b.delivered);
    }

    #[test]
    fn butterfly_table_and_arithmetic_agree() {
        // The tabulated router and the arithmetic fallback must produce
        // bit-identical dynamics (the fallback only triggers for
        // enormous networks, so force both paths here).
        let mut cfg = quick_cfg(2, 5, 0.5, 1);
        cfg.routing = Routing::Butterfly;
        let tabled = run_network(cfg.clone());
        let mut sim = NetworkSim::new(cfg);
        sim.router = Router::ButterflyArith(ButterflyTopology::new(2, 5));
        let arith = sim.run();
        assert_eq!(tabled, arith);
    }

    #[test]
    fn digit_table_holds_the_base_k_destination_digits() {
        // ⌈log₂ k⌉ bits per digit, stage 0 (the most significant base-k
        // digit) in the low bits — for power-of-two and other arities.
        for (k, stages, bits) in [
            (2u32, 6u32, 1u32),
            (3, 4, 2),
            (5, 3, 3),
            (8, 3, 3),
            (16, 4, 4),
        ] {
            let sim = NetworkSim::new(NetworkConfig::new(k, stages, Workload::uniform(0.1, 1)));
            assert_eq!(sim.digit_bits, bits, "k={k}");
            let ports = u64::from(k).pow(stages);
            assert_eq!(sim.digit_table.len() as u64, ports);
            for dest in [0, 1, ports / 2, ports - 1] {
                let packed = sim.digit_table[dest as usize];
                let mut rem = dest;
                for j in (0..stages as usize).rev() {
                    let digit = (packed >> (bits as usize * j)) & ((1 << bits) - 1);
                    assert_eq!(digit, rem % u64::from(k), "k={k} dest={dest} stage {j}");
                    rem /= u64::from(k);
                }
            }
        }
        let cylinder =
            NetworkConfig::new(8, 4, Workload::uniform(0.1, 1)).with_random_digit_width(2);
        assert!(NetworkSim::new(cylinder).digit_table.is_empty());
    }

    #[test]
    fn random_digit_mode_statistically_matches_banyan() {
        // Uniform traffic: a full banyan and a fixed-width cylinder with
        // i.i.d. random routing digits must produce the same per-stage
        // waiting statistics.
        let mut banyan = quick_cfg(2, 6, 0.5, 1);
        banyan.measure_cycles = 20_000;
        let b = run_network(banyan);
        let mut cyl = quick_cfg(2, 6, 0.5, 1).with_random_digit_width(6);
        cyl.measure_cycles = 20_000;
        let c = run_network(cyl);
        for i in 0..6 {
            let wb = b.stage_waits[i].mean();
            let wc = c.stage_waits[i].mean();
            assert!(
                (wb - wc).abs() < 0.02,
                "stage {i}: banyan {wb} vs cylinder {wc}"
            );
        }
        assert!((b.total_wait.variance() - c.total_wait.variance()).abs() < 0.2);
    }

    #[test]
    fn random_digit_mode_allows_wide_switches_with_narrow_network() {
        // k = 8 with 4 stages on only 8² = 64 wires (a real banyan would
        // need 4096 ports).
        let cfg = NetworkConfig {
            warmup_cycles: 500,
            measure_cycles: 8_000,
            ..NetworkConfig::new(8, 4, Workload::uniform(0.5, 1)).with_random_digit_width(2)
        };
        let stats = run_network(cfg);
        assert_eq!(stats.injected, stats.delivered);
        // Eq. 6 for k = 8, p = 0.5: w₁ = (7/8)·0.5/1 = 0.4375.
        assert!((stats.stage_waits[0].mean() - 0.4375).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "uniform traffic")]
    fn random_digit_rejects_hotspot() {
        let cfg = NetworkConfig::new(2, 4, Workload::hotspot(0.5, 0.3)).with_random_digit_width(4);
        NetworkSim::new(cfg);
    }
}
