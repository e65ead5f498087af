//! Sampled per-message lifecycle tracing.
//!
//! The paper's whole subject is *where* a message's delay accrues —
//! per-stage waiting laws composing into the end-to-end distribution —
//! and this module captures that provenance at message granularity: a
//! deterministic sample of tracked messages, each with its injection
//! cycle, per-stage routing digit, and per-stage wait. Queue-entry /
//! service-start / departure cycles are *derived*, never stored: under
//! cut-through forwarding
//!
//! ```text
//! enter[0]   = inject
//! start[j]   = enter[j] + wait[j]
//! enter[j+1] = start[j] + 1
//! ```
//!
//! so a record is fully determined by `(inject, waits)` and the
//! monotone cycle chain holds by construction. One shared renderer
//! ([`render_jsonl`]) turns records into `banyan-obs/msgtrace/v1`
//! JSONL, which makes *byte-identical trace files* the cross-engine
//! correctness contract: the scalar and stage-sweep simulators must
//! produce the same integers for the same sampled message.
//!
//! **Sampling determinism.** Whether a message is traced depends only
//! on its replication's base seed and its *tracked-injection ordinal*
//! (the 0-based count of tracked injections within the replication, in
//! cycle-then-port order — an ordering all three engines already agree
//! on). The decision is a pure [`sample_hash`] of `(seed, ordinal)`
//! against a rate threshold; it never consumes simulator RNG, so
//! tracing cannot perturb the dynamics, and the same message set is
//! selected regardless of thread count or engine.

use crate::json::{JsonObject, JsonValue};
use crate::span::SpanEvent;
use std::sync::Mutex;

/// Schema identifier of the JSONL trace format (first line, `kind:
/// "header"`; every following line is one `kind: "msg"` record).
pub const MSGTRACE_SCHEMA: &str = "banyan-obs/msgtrace/v1";

/// Mixes a replication seed and a message ordinal into a uniform
/// `u64` (the splitmix64 finalizer over `seed ^ ord·φ64`). Pure — the
/// sampling decision must never touch the simulator's RNG stream.
#[inline]
#[must_use]
pub fn sample_hash(seed: u64, ord: u64) -> u64 {
    let mut z = seed ^ ord.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sampled message's lifecycle: which replication it belongs to,
/// its tracked-injection ordinal, injection cycle, per-stage routing
/// digits (empty when the workload has no digit routing, e.g. the flow
/// event simulator), and per-stage waits. All cycle timestamps are
/// derived (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgRecord {
    /// Replication index (0-based, global across threads).
    pub rep: u32,
    /// Tracked-injection ordinal within the replication.
    pub ord: u64,
    /// Cycle the message entered its first-stage queue.
    pub inject: u64,
    /// Routing digit consumed per stage (`digits[0]` selects the
    /// first-stage queue). Empty when routing digits do not apply.
    pub digits: Vec<u8>,
    /// Waiting time (cycles) in each stage's queue.
    pub waits: Vec<u32>,
}

/// Renders `[a, b, c]` from any display-able items.
fn array_json<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    let parts: Vec<String> = items.map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

impl MsgRecord {
    /// Queue-entry cycle per stage: `enter[0] = inject`,
    /// `enter[j+1] = start[j] + 1` (cut-through forwarding).
    #[must_use]
    pub fn enter_cycles(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.waits.len());
        let mut enter = self.inject;
        for &w in &self.waits {
            out.push(enter);
            enter += u64::from(w) + 1; // next stage entry = start + 1
        }
        out
    }

    /// Service-start cycle per stage: `start[j] = enter[j] + wait[j]`.
    #[must_use]
    pub fn start_cycles(&self) -> Vec<u64> {
        self.enter_cycles()
            .iter()
            .zip(&self.waits)
            .map(|(&e, &w)| e + u64::from(w))
            .collect()
    }

    /// End-to-end waiting time: the exact sum of per-stage waits.
    #[must_use]
    pub fn total_wait(&self) -> u64 {
        self.waits.iter().map(|&w| u64::from(w)).sum()
    }

    /// One `kind: "msg"` JSONL line (no trailing newline).
    #[must_use]
    pub fn render_line(&self) -> String {
        let enter = self.enter_cycles();
        let start = self.start_cycles();
        let mut o = JsonObject::new();
        o.field_str("kind", "msg")
            .field_u64("rep", u64::from(self.rep))
            .field_u64("ord", self.ord)
            .field_u64("inject", self.inject)
            .field_raw("digits", &array_json(self.digits.iter()))
            .field_raw("enter", &array_json(enter.iter()))
            .field_raw("start", &array_json(start.iter()))
            .field_raw("wait", &array_json(self.waits.iter()))
            .field_u64("total", self.total_wait());
        o.finish()
    }
}

/// Starts the `kind: "header"` object all traces open with. Callers
/// append workload-specific fields (`k`, `p`, `m`, …) and `finish()`
/// it into the first JSONL line.
#[must_use]
pub fn header_object(name: &str, stages: u32, seed: u64, reps: u32, rate: f64) -> JsonObject {
    let mut o = JsonObject::new();
    o.field_str("schema", MSGTRACE_SCHEMA)
        .field_str("kind", "header")
        .field_str("name", name)
        .field_u64("stages", u64::from(stages))
        .field_u64("seed", seed)
        .field_u64("reps", u64::from(reps))
        .field_f64("rate", rate);
    o
}

/// Renders a complete trace document: the header line followed by one
/// line per record, trailing newline included. This is the *only*
/// renderer — every engine's records pass through it, so byte equality
/// of two trace files reduces to integer equality of their records.
#[must_use]
pub fn render_jsonl(header_line: &str, records: &[MsgRecord]) -> String {
    let mut out = String::with_capacity(header_line.len() + records.len() * 96 + 1);
    out.push_str(header_line);
    out.push('\n');
    for r in records {
        out.push_str(&r.render_line());
        out.push('\n');
    }
    out
}

/// Converts records into `chrome://tracing` span events: each message
/// gets its own thread lane (`tid` = record index) holding one
/// enclosing `rep{r}/msg{ord}` span plus one `stage{j}` child span per
/// stage, with simulated cycles mapped 1:1 onto microseconds. Feed the
/// result to [`crate::trace::trace_json_from_events`].
#[must_use]
pub fn chrome_events(records: &[MsgRecord]) -> Vec<SpanEvent> {
    let mut events = Vec::with_capacity(records.len() * 4);
    for (i, r) in records.iter().enumerate() {
        let tid = i as u64;
        let enter = r.enter_cycles();
        let start = r.start_cycles();
        let depart = start.last().map_or(r.inject, |&s| s + 1);
        events.push(SpanEvent {
            name: format!("rep{}/msg{}", r.rep, r.ord),
            ts_us: r.inject,
            dur_us: depart - r.inject,
            tid,
        });
        for (j, (&e, &s)) in enter.iter().zip(&start).enumerate() {
            events.push(SpanEvent {
                name: format!("stage{:02}", j + 1),
                ts_us: e,
                dur_us: s + 1 - e,
                tid,
            });
        }
    }
    events
}

/// Per-replication recording surface. Engines obtain one via
/// [`MsgTracer::rep`], fill it while the replication runs, and
/// [`MsgTracer::commit`] it back; records are kept in begin order,
/// which every engine's inject scan makes ordinal order.
#[derive(Debug)]
pub struct RepTrace {
    rep: u32,
    seed: u64,
    all: bool,
    threshold: u64,
    records: Vec<MsgRecord>,
}

impl RepTrace {
    /// True when the message with this tracked-injection ordinal is in
    /// the sample. Pure; never consumes simulator RNG.
    #[inline]
    #[must_use]
    pub fn sampled(&self, ord: u64) -> bool {
        self.all || sample_hash(self.seed, ord) < self.threshold
    }

    /// Opens a record for a sampled message; returns its index for the
    /// later digit/wait fills.
    pub fn begin(&mut self, ord: u64, inject: u64) -> usize {
        self.records.push(MsgRecord {
            rep: self.rep,
            ord,
            inject,
            digits: Vec::new(),
            waits: Vec::new(),
        });
        self.records.len() - 1
    }

    /// Appends one routing digit (random-digit workloads discover
    /// digits hop by hop).
    #[inline]
    pub fn push_digit(&mut self, idx: usize, digit: u8) {
        self.records[idx].digits.push(digit);
    }

    /// Sets all routing digits from the destination's base-`k`
    /// expansion, MSB first — the digit order tag-routing consumes.
    pub fn set_digits_from_dest(&mut self, idx: usize, dest: u64, k: u64, stages: usize) {
        let d = &mut self.records[idx].digits;
        d.clear();
        d.resize(stages, 0);
        let mut rem = dest;
        for slot in d.iter_mut().rev() {
            *slot = (rem % k) as u8;
            rem /= k;
        }
    }

    /// Appends one per-stage wait (for engines that learn waits hop by
    /// hop, like the flow event simulator).
    #[inline]
    pub fn push_wait(&mut self, idx: usize, wait: u32) {
        self.records[idx].waits.push(wait);
    }

    /// Sets the full per-stage wait vector at delivery.
    pub fn set_waits(&mut self, idx: usize, waits: &[u32]) {
        let w = &mut self.records[idx].waits;
        w.clear();
        w.extend_from_slice(waits);
    }

    /// `(record index, ordinal)` of every opened record, in begin
    /// order — the stage-sweep engine walks this after its solve to
    /// fill waits from its ordinal-indexed wait matrix.
    #[must_use]
    pub fn entries(&self) -> Vec<(usize, u64)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.ord))
            .collect()
    }

    /// Number of records opened so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been opened.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The shared per-run trace sink: hands out [`RepTrace`]s keyed by
/// replication index and reassembles committed records in replication
/// order, so the final record list is independent of thread count and
/// worker scheduling.
#[derive(Debug)]
pub struct MsgTracer {
    rate: f64,
    all: bool,
    threshold: u64,
    slots: Mutex<Vec<Option<Vec<MsgRecord>>>>,
}

impl MsgTracer {
    /// Builds a tracer sampling each tracked message independently
    /// with probability `rate` (clamped to `[0, 1]`; `1.0` traces
    /// every tracked message).
    #[must_use]
    pub fn new(rate: f64) -> Self {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        MsgTracer {
            rate,
            all: rate >= 1.0,
            // rate · 2^64, saturating; exact for the rates we pass.
            threshold: (rate * 18_446_744_073_709_551_616.0) as u64,
            slots: Mutex::new(Vec::new()),
        }
    }

    /// The sampling rate this tracer was built with.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// A fresh recording surface for replication `rep` seeded `seed`
    /// (the replication's own base seed, so the sample set is a pure
    /// function of the run configuration).
    #[must_use]
    pub fn rep(&self, rep: u32, seed: u64) -> RepTrace {
        RepTrace {
            rep,
            seed,
            all: self.all,
            threshold: self.threshold,
            records: Vec::new(),
        }
    }

    /// Files a completed replication's records under its index.
    pub fn commit(&self, rt: RepTrace) {
        let mut slots = self.slots.lock().expect("msgtrace slots poisoned");
        let idx = rt.rep as usize;
        if slots.len() <= idx {
            slots.resize_with(idx + 1, || None);
        }
        slots[idx] = Some(rt.records);
    }

    /// All committed records, flattened in replication order (within a
    /// replication, ordinal order). Thread count and commit order do
    /// not affect the result.
    #[must_use]
    pub fn finish(&self) -> Vec<MsgRecord> {
        let slots = self.slots.lock().expect("msgtrace slots poisoned");
        slots.iter().flatten().flatten().cloned().collect()
    }
}

/// A parsed-and-validated trace file: the header's identifying fields
/// plus every record. [`parse_trace`] enforces the format's internal
/// contracts, so holders of this struct can trust the records.
#[derive(Debug)]
pub struct ParsedTrace {
    /// The header's `name` (e.g. `banyan-simulate`).
    pub name: String,
    /// Stage count every record must match (`None` when the header
    /// declares `stages: 0`, the variable-hop flow format).
    pub stages: Option<u32>,
    /// Base seed of the run.
    pub seed: u64,
    /// Replication count of the run.
    pub reps: u32,
    /// Sampling rate of the run.
    pub rate: f64,
    /// The full parsed header object, for workload fields (`k`, `p`,
    /// `m`, …) the core schema does not mandate.
    pub header: JsonValue,
    /// Every record, in file order (validated: ascending `(rep, ord)`).
    pub records: Vec<MsgRecord>,
}

/// Reads a `u64` field of a record line.
fn rec_u64(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{key} is not a nonnegative integer"))
}

/// Reads an integer array field of a record line.
fn rec_arr(doc: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    let arr = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{key} is not an array"))?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_u64()
                .ok_or_else(|| format!("{key}[{i}] is not a nonnegative integer"))
        })
        .collect()
}

/// Parses and validates a `banyan-obs/msgtrace/v1` document. Checks,
/// per record: parallel array lengths (equal to the header's stage
/// count when it is nonzero), the monotone cycle chain
/// `enter[j] ≤ start[j] < enter[j+1]` with `start = enter + wait` and
/// `enter[j+1] = start[j] + 1` exactly, the sum-of-stage-waits
/// identity `total = Σ wait[j]`, digits either absent or one per
/// stage, and file-wide strictly ascending `(rep, ord)` order. Values
/// the renderer can never emit are refused rather than truncated or
/// wrapped: a wait, header `stages` or header `reps` beyond `u32`, and
/// a cycle chain or wait sum that overflows `u64`.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.is_empty());
    let (_, first) = lines.next().ok_or("trace file is empty")?;
    let header = JsonValue::parse(first).map_err(|e| format!("line 1: invalid JSON: {e}"))?;
    if header.get("schema").and_then(JsonValue::as_str) != Some(MSGTRACE_SCHEMA) {
        return Err(format!("line 1: schema is not \"{MSGTRACE_SCHEMA}\""));
    }
    if header.get("kind").and_then(JsonValue::as_str) != Some("header") {
        return Err("line 1: kind is not \"header\"".into());
    }
    let name = header
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("line 1: name is not a string")?
        .to_string();
    let header_u32 = |key: &str| {
        let v = rec_u64(&header, key).map_err(|e| format!("line 1: {e}"))?;
        u32::try_from(v).map_err(|_| format!("line 1: {key} {v} does not fit 32 bits"))
    };
    let stages_raw = header_u32("stages")?;
    let stages = (stages_raw > 0).then_some(stages_raw);
    let seed = rec_u64(&header, "seed").map_err(|e| format!("line 1: {e}"))?;
    let reps = header_u32("reps")?;
    let rate = header
        .get("rate")
        .and_then(JsonValue::as_f64)
        .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
        .ok_or("line 1: rate is not a probability")?;
    let mut records = Vec::new();
    let mut last_key: Option<(u64, u64)> = None;
    for (i, line) in lines {
        let ctx = |msg: String| format!("line {}: {msg}", i + 1);
        let doc = JsonValue::parse(line).map_err(|e| ctx(format!("invalid JSON: {e}")))?;
        if doc.get("kind").and_then(JsonValue::as_str) != Some("msg") {
            return Err(ctx("kind is not \"msg\"".into()));
        }
        let rep = rec_u64(&doc, "rep").map_err(&ctx)?;
        let ord = rec_u64(&doc, "ord").map_err(&ctx)?;
        let inject = rec_u64(&doc, "inject").map_err(&ctx)?;
        let digits = rec_arr(&doc, "digits").map_err(&ctx)?;
        let enter = rec_arr(&doc, "enter").map_err(&ctx)?;
        let start = rec_arr(&doc, "start").map_err(&ctx)?;
        let wait = rec_arr(&doc, "wait").map_err(&ctx)?;
        let total = rec_u64(&doc, "total").map_err(&ctx)?;
        let n = wait.len();
        if n == 0 {
            return Err(ctx("record has no stages".into()));
        }
        if enter.len() != n || start.len() != n {
            return Err(ctx(format!(
                "array lengths disagree: enter {} start {} wait {n}",
                enter.len(),
                start.len()
            )));
        }
        if let Some(s) = stages {
            if n != s as usize {
                return Err(ctx(format!("record has {n} stages, header says {s}")));
            }
        }
        if !digits.is_empty() && digits.len() != n {
            return Err(ctx(format!(
                "digits length {} is neither 0 nor the stage count {n}",
                digits.len()
            )));
        }
        if let Some(d) = digits.iter().find(|&&d| d > u64::from(u8::MAX)) {
            return Err(ctx(format!("digit {d} out of range")));
        }
        if enter[0] != inject {
            return Err(ctx(format!(
                "enter[0] {} is not the inject cycle {inject}",
                enter[0]
            )));
        }
        let waits = wait
            .iter()
            .enumerate()
            .map(|(j, &w)| {
                u32::try_from(w).map_err(|_| ctx(format!("wait[{j}] {w} does not fit 32 bits")))
            })
            .collect::<Result<Vec<u32>, String>>()?;
        // The monotone lifecycle chain, exactly as derived; an overflowing
        // sum can never equal a valid cycle.
        for j in 0..n {
            if enter[j].checked_add(wait[j]) != Some(start[j]) {
                return Err(ctx(format!(
                    "start[{j}] {} != enter[{j}] {} + wait[{j}] {}",
                    start[j], enter[j], wait[j]
                )));
            }
            if j + 1 < n && start[j].checked_add(1) != Some(enter[j + 1]) {
                return Err(ctx(format!(
                    "enter[{}] {} != start[{j}] {} + 1 (cut-through)",
                    j + 1,
                    enter[j + 1],
                    start[j]
                )));
            }
        }
        let sum = wait.iter().try_fold(0u64, |acc, &w| acc.checked_add(w));
        if sum != Some(total) {
            return Err(ctx(format!(
                "total {total} != sum of stage waits {}",
                sum.map_or("(overflows u64)".to_string(), |s| s.to_string())
            )));
        }
        let key = (rep, ord);
        if last_key.is_some_and(|prev| prev >= key) {
            return Err(ctx(format!(
                "records out of order: (rep {rep}, ord {ord}) after {last_key:?}"
            )));
        }
        last_key = Some(key);
        if rep >= u64::from(reps) {
            return Err(ctx(format!("rep {rep} >= header reps {reps}")));
        }
        records.push(MsgRecord {
            rep: rep as u32,
            ord,
            inject,
            digits: digits.iter().map(|&d| d as u8).collect(),
            waits,
        });
    }
    Ok(ParsedTrace {
        name,
        stages,
        seed,
        reps,
        rate,
        header,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rep: u32, ord: u64, inject: u64, waits: &[u32]) -> MsgRecord {
        MsgRecord {
            rep,
            ord,
            inject,
            digits: vec![0; waits.len()],
            waits: waits.to_vec(),
        }
    }

    #[test]
    fn derived_cycles_follow_cut_through_chain() {
        let r = rec(0, 7, 100, &[2, 0, 5]);
        assert_eq!(r.enter_cycles(), vec![100, 103, 104]);
        assert_eq!(r.start_cycles(), vec![102, 103, 109]);
        assert_eq!(r.total_wait(), 7);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_calibrated() {
        let tracer = MsgTracer::new(0.25);
        let rt = tracer.rep(0, 0xDEAD_BEEF);
        let hits = (0..10_000u64).filter(|&o| rt.sampled(o)).count();
        // Binomial(10000, 0.25): ±5σ ≈ ±217.
        assert!((2_283..=2_717).contains(&hits), "hits {hits}");
        let rt2 = tracer.rep(0, 0xDEAD_BEEF);
        for o in 0..1_000 {
            assert_eq!(rt.sampled(o), rt2.sampled(o));
        }
        assert!(MsgTracer::new(1.0).rep(0, 1).sampled(12345));
        assert!(!MsgTracer::new(0.0).rep(0, 1).sampled(12345));
    }

    #[test]
    fn tracer_reassembles_commits_in_rep_order() {
        let tracer = MsgTracer::new(1.0);
        let mut late = tracer.rep(1, 2);
        late.begin(0, 50);
        late.set_waits(0, &[1]);
        let mut early = tracer.rep(0, 1);
        early.begin(3, 10);
        early.set_waits(0, &[0]);
        tracer.commit(late);
        tracer.commit(early);
        let records = tracer.finish();
        assert_eq!(records.len(), 2);
        assert_eq!((records[0].rep, records[0].ord), (0, 3));
        assert_eq!((records[1].rep, records[1].ord), (1, 0));
    }

    #[test]
    fn digits_from_dest_are_msb_first() {
        let tracer = MsgTracer::new(1.0);
        let mut rt = tracer.rep(0, 1);
        let idx = rt.begin(0, 0);
        rt.set_digits_from_dest(idx, 6, 2, 3); // 6 = 110₂
        assert_eq!(rt.records[idx].digits, vec![1, 1, 0]);
        rt.set_digits_from_dest(idx, 11, 4, 2); // 11 = 23₄
        assert_eq!(rt.records[idx].digits, vec![2, 3]);
    }

    #[test]
    fn rendered_trace_round_trips_through_parser() {
        let records = vec![rec(0, 2, 100, &[1, 0]), rec(1, 0, 501, &[0, 3])];
        let mut h = header_object("banyan-simulate", 2, 42, 2, 0.5);
        h.field_u64("k", 2);
        let doc = render_jsonl(&h.finish(), &records);
        let parsed = parse_trace(&doc).expect("parse");
        assert_eq!(parsed.name, "banyan-simulate");
        assert_eq!(parsed.stages, Some(2));
        assert_eq!((parsed.seed, parsed.reps), (42, 2));
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.header.get("k").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn parser_rejects_broken_contracts() {
        let h = header_object("t", 1, 1, 1, 1.0).finish();
        let good = rec(0, 0, 5, &[2]).render_line();
        assert!(parse_trace(&render_jsonl(&h, &[])).is_ok());
        // Sum identity broken.
        let bad_total = good.replace("\"total\": 2", "\"total\": 3");
        assert!(parse_trace(&format!("{h}\n{bad_total}\n")).is_err());
        // Chain broken.
        let bad_start = good.replace("\"start\": [7]", "\"start\": [8]");
        assert!(parse_trace(&format!("{h}\n{bad_start}\n")).is_err());
        // Stage count disagrees with the header.
        let two = rec(0, 1, 5, &[1, 1]).render_line();
        assert!(parse_trace(&format!("{h}\n{two}\n")).is_err());
        // Out of order.
        let a = rec(0, 3, 5, &[1]).render_line();
        let b = rec(0, 1, 6, &[1]).render_line();
        assert!(parse_trace(&format!("{h}\n{a}\n{b}\n")).is_err());
        // Ordered is fine.
        assert!(parse_trace(&format!("{h}\n{b}\n{a}\n")).is_ok());
    }

    /// A one-stage record line with explicit fields, for crafting input
    /// the renderer would never produce.
    fn raw_line(inject: u64, wait: u64, start: u64, total: u64) -> String {
        format!(
            "{{\"kind\": \"msg\", \"rep\": 0, \"ord\": 0, \"inject\": {inject}, \
             \"digits\": [], \"enter\": [{inject}], \"start\": [{start}], \
             \"wait\": [{wait}], \"total\": {total}}}"
        )
    }

    #[test]
    fn parser_refuses_waits_beyond_32_bits() {
        let h = header_object("t", 1, 1, 1, 1.0).finish();
        // Consistent chain and total, but 2^32 + 1 would truncate to 1.
        let w = (1u64 << 32) + 1;
        let line = raw_line(5, w, 5 + w, w);
        let err = parse_trace(&format!("{h}\n{line}\n")).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.contains("wait[0] 4294967297"), "{err}");
        // The largest representable wait still parses.
        let max = u64::from(u32::MAX);
        let ok = raw_line(5, max, 5 + max, max);
        let parsed = parse_trace(&format!("{h}\n{ok}\n")).expect("u32::MAX wait");
        assert_eq!(parsed.records[0].waits, vec![u32::MAX]);
    }

    #[test]
    fn parser_refuses_wrapping_cycle_chains() {
        let h = header_object("t", 1, 1, 1, 1.0).finish();
        // enter + wait = 2^63 + 2^63 wraps to 0 = start in u64.
        let big = 1u64 << 63;
        let line = raw_line(big, big, 0, big);
        let err = parse_trace(&format!("{h}\n{line}\n")).unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
        // A wait that fits 32 bits, on an enter cycle (exact in the
        // f64-backed JSON numbers) close enough to 2^64 that the sum
        // wraps to the stated start.
        let enter = u64::MAX - 2047;
        let line = raw_line(enter, 4096, 2048, 4096);
        let err = parse_trace(&format!("{h}\n{line}\n")).unwrap_err();
        assert!(
            err.starts_with("line 2: start[0] 2048 != enter[0]"),
            "{err}"
        );
    }

    #[test]
    fn parser_refuses_header_counts_beyond_32_bits() {
        let too_big = (1u64 << 32) + 2;
        for key in ["stages", "reps"] {
            let h = header_object("t", 1, 1, 1, 1.0)
                .finish()
                .replace(&format!("\"{key}\": 1"), &format!("\"{key}\": {too_big}"));
            let err = parse_trace(&format!("{h}\n")).unwrap_err();
            assert!(err.contains(&format!("line 1: {key} {too_big}")), "{err}");
        }
    }

    #[test]
    fn chrome_events_nest_stages_inside_message_span() {
        let events = chrome_events(&[rec(0, 1, 10, &[3, 1])]);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "rep0/msg1");
        assert_eq!((events[0].ts_us, events[0].dur_us), (10, 6)); // departs 16
        assert_eq!((events[1].ts_us, events[1].dur_us), (10, 4)); // stage 1
        assert_eq!((events[2].ts_us, events[2].dur_us), (14, 2)); // stage 2
        assert!(events.iter().all(|e| e.tid == 0));
    }
}
