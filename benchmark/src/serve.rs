//! `serve_mixed`: a closed loop over one keep-alive connection to an
//! in-process `banyan serve` daemon, pinned to one CPU (see
//! `run_pinned` in `main.rs`).
//!
//! The client sends its next request only after the previous reply, the
//! way dashboards and planners use the daemon. One connection, not two:
//! on a 2-CPU host two clients plus their two workers kept both CPUs
//! busy, the host's own load then set qps, and the run-to-run spread
//! nearly doubled. The request mix comes from the seed: 88% `/query`
//! over a hot set of 16 analytic configurations (half POST JSON, half
//! GET query string), 10% `/query` over a cold key space of about 20 k
//! analytic configurations (larger than the 1024-entry cache, so FIFO
//! eviction churns it), and 2% `POST /v1/batch` of 8 elements from the
//! same mix.

use crate::stats::{median, percentile, Rng};
use crate::trace::{Ledger, Recorder};
use crate::{end_to_end, peak_rss_mib, reset_peak_rss, Ctx, Metric, Outcome};
use banyan_repro::obs::json::{JsonObject, JsonValue};
use banyan_repro::obs::Registry;
use banyan_repro::serve::answer::{analytic_body, AnalyticModel};
use banyan_repro::serve::cache::{AnswerCache, CachedAnswer};
use banyan_repro::serve::http::{
    read_request, write_response, Client, Response, DEFAULT_MAX_BODY_BYTES,
};
use banyan_repro::serve::ops::OpsPlane;
use banyan_repro::serve::query::Query;
use banyan_repro::serve::{ServeConfig, ServerHandle};
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Hot configurations.
const HOT: usize = 16;
/// Requests in the connection's (cyclic) sequence.
const SEQ_LEN: usize = 16_384;
/// Every this-many-th response is compared with an in-process answer.
const CHECK_EVERY: usize = 64;
/// Elements per `/v1/batch` request.
const BATCH: usize = 8;
/// The daemon's answer-cache capacity.
const CACHE_CAP: usize = 1024;
/// Latency samples kept. The buffer is written in full before the loop
/// starts, so peak memory does not grow with the request count;
/// requests beyond it are counted but not sampled.
const SAMPLES: usize = 1 << 22;

/// One analytic configuration: `k ∈ {2, 4, 8}`, `n ∈ 2..=11`, and
/// `p = milli / 1000` on a 667-point grid (20 010 keys).
#[derive(Clone, Copy)]
struct Key {
    k: u32,
    stages: u32,
    milli: u32,
}

impl Key {
    fn draw(rng: &mut Rng) -> Key {
        Key {
            k: [2, 4, 8][rng.below(3)],
            stages: 2 + rng.below(10) as u32,
            milli: 50 + rng.below(667) as u32,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"k\": {}, \"stages\": {}, \"p\": 0.{:03}, \"mode\": \"analytic\"}}",
            self.k, self.stages, self.milli
        )
    }

    fn query_string(&self) -> String {
        format!(
            "k={}&stages={}&p=0.{:03}&mode=analytic",
            self.k, self.stages, self.milli
        )
    }

    /// The body the daemon must return: `analytic_body` in process.
    fn answer(&self) -> String {
        let q = Query::from_json(&self.json()).expect("workload key decodes");
        let model = AnalyticModel::for_query(&q).expect("workload key is analytic");
        analytic_body(&q, &model, None)
    }
}

/// What a checked response must contain.
enum Expect {
    /// Byte-identical body.
    Body(String),
    /// Each element's answer, in order, inside the batch body.
    Batch(Vec<String>),
}

/// One request of a connection's sequence.
struct Req {
    method: &'static str,
    target: String,
    body: Option<String>,
    expect: Option<Expect>,
}

impl Req {
    /// The request as the client puts it on the wire.
    fn wire(&self) -> Vec<u8> {
        let body = self.body.as_deref().unwrap_or("");
        format!(
            "{} {} HTTP/1.1\r\nhost: banyan\r\ncontent-length: {}\r\n\r\n{body}",
            self.method,
            self.target,
            body.len()
        )
        .into_bytes()
    }
}

/// The workload's inputs, all derived from the seed.
struct Inputs {
    hot: Vec<Key>,
    seq: Vec<Req>,
}

impl Inputs {
    fn generate(seed: u64, len: usize) -> Inputs {
        let mut rng = Rng::new(seed, 0);
        let mut hot = Vec::with_capacity(HOT);
        while hot.len() < HOT {
            let k = Key::draw(&mut rng);
            if !hot.iter().any(|h: &Key| h.json() == k.json()) {
                hot.push(k);
            }
        }
        let mut rng = Rng::new(seed, 1);
        let seq = (0..len)
            .map(|i| Inputs::request(&hot, &mut rng, i % CHECK_EVERY == 0))
            .collect();
        Inputs { hot, seq }
    }

    fn key(hot: &[Key], rng: &mut Rng, hot_share: f64) -> Key {
        if rng.unit() < hot_share {
            hot[rng.below(HOT)]
        } else {
            Key::draw(rng)
        }
    }

    fn request(hot: &[Key], rng: &mut Rng, checked: bool) -> Req {
        if rng.unit() < 0.98 {
            let key = Inputs::key(hot, rng, 0.88 / 0.98);
            let expect = checked.then(|| Expect::Body(key.answer()));
            return if rng.unit() < 0.5 {
                Req {
                    method: "POST",
                    target: "/query".to_string(),
                    body: Some(key.json()),
                    expect,
                }
            } else {
                Req {
                    method: "GET",
                    target: format!("/query?{}", key.query_string()),
                    body: None,
                    expect,
                }
            };
        }
        let keys: Vec<Key> = (0..BATCH)
            .map(|_| Inputs::key(hot, rng, 0.88 / 0.98))
            .collect();
        let items: Vec<String> = keys.iter().map(Key::json).collect();
        Req {
            method: "POST",
            target: "/v1/batch".to_string(),
            body: Some(format!("[{}]", items.join(", "))),
            expect: checked.then(|| {
                Expect::Batch(
                    keys.iter()
                        .map(|k| k.answer().trim_end().to_string())
                        .collect(),
                )
            }),
        }
    }
}

/// Whether a response body satisfies its expectation.
fn matches(expect: &Expect, body: &str) -> bool {
    match expect {
        Expect::Body(b) => body == b,
        Expect::Batch(items) => {
            let mut rest = body;
            items.iter().all(|item| match rest.find(item.as_str()) {
                Some(at) => {
                    rest = &rest[at + item.len()..];
                    true
                }
                None => false,
            })
        }
    }
}

/// The running daemon with its hot set in the cache.
struct Daemon {
    handle: ServerHandle,
    addr: String,
}

impl Daemon {
    fn start(inputs: &Inputs) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_cap: CACHE_CAP,
            drift_poll_ms: 0,
            ..ServeConfig::default()
        };
        let handle = ServerHandle::spawn(cfg).map_err(|e| format!("spawn daemon: {e}"))?;
        let addr = handle.addr().to_string();
        let daemon = Daemon { handle, addr };
        let mut c = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        let health = c
            .request("GET", "/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        for key in &inputs.hot {
            let r = c
                .request("POST", "/query", Some(&key.json()))
                .map_err(|e| format!("hot fill: {e}"))?;
            if r.status != 200 || r.body != key.answer() {
                return Err(format!("hot fill answered {}: {}", r.status, r.body));
            }
        }
        Ok(daemon)
    }

    fn counter(&self, name: &str) -> u64 {
        self.handle
            .state()
            .telemetry()
            .registry()
            .counter_value(name)
            .unwrap_or(0)
    }

    /// The daemon's own accounting must balance.
    fn ledger(&self) -> Result<(), String> {
        let c = |n: &str| self.counter(n);
        let (requests, responses, parse_errors) = (
            c("serve.http.requests_total"),
            c("serve.http.responses_total"),
            c("serve.http.parse_errors_total"),
        );
        if responses != requests + parse_errors {
            return Err(format!(
                "responses {responses} != requests {requests} + parse errors {parse_errors}"
            ));
        }
        let validated = c("serve.query.validated_total") + c("serve.flow.validated_total");
        let (hits, misses) = (c("serve.cache.hits"), c("serve.cache.misses"));
        if validated != hits + misses {
            return Err(format!(
                "validated {validated} != hits {hits} + misses {misses}"
            ));
        }
        Ok(())
    }

    /// The daemon's `serve/request` span median, microseconds.
    fn server_p50_us(&self) -> f64 {
        self.handle
            .state()
            .telemetry()
            .spans()
            .duration_quantiles()
            .into_iter()
            .find(|(name, _)| name == "serve/request")
            .and_then(|(_, q)| q.estimates().into_iter().find(|&(p, _)| p == 0.5))
            .map_or(f64::NAN, |(_, secs)| secs * 1e6)
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown().map_err(|e| format!("shutdown: {e}"))
    }
}

/// What the closed loop measured.
struct Loop {
    latencies_ns: Vec<u32>,
    requests: u64,
    window_s: f64,
}

/// Sends the sequence (cyclically) over one connection for `seconds`,
/// timing each request from send to reply; checks land in `checks`.
fn closed_loop(addr: &str, seq: &[Req], seconds: f64, checks: &mut Outcome) -> Loop {
    let mut client = Client::connect(addr).expect("connect to the daemon");
    let mut out = Loop {
        latencies_ns: vec![u32::MAX; SAMPLES],
        requests: 0,
        window_s: 0.0,
    };
    let begun = Instant::now();
    let deadline = begun + Duration::from_secs_f64(seconds);
    let mut last = begun;
    for (i, req) in seq.iter().cycle().enumerate() {
        let t = Instant::now();
        if t >= deadline {
            break;
        }
        let resp = client.request(req.method, &req.target, req.body.as_deref());
        last = Instant::now();
        if let Some(slot) = out.latencies_ns.get_mut(i) {
            *slot = (last - t).as_nanos().min(u128::from(u32::MAX)) as u32;
        }
        out.requests += 1;
        match resp {
            Ok(r) if r.status == 200 => {
                if req.expect.as_ref().is_some_and(|e| !matches(e, &r.body)) {
                    checks.fail(format!("request {i}: body differs from analytic_body"));
                }
            }
            Ok(r) => checks.fail(format!("request {i}: status {}", r.status)),
            Err(e) => {
                checks.fail(format!("request {i}: {e}"));
                client = Client::connect(addr).expect("reconnect to the daemon");
            }
        }
    }
    out.latencies_ns.truncate(out.requests as usize);
    out.window_s = (last - begun).as_secs_f64();
    out
}

fn ms(latencies_ns: &[u32]) -> Vec<f64> {
    latencies_ns
        .iter()
        .map(|&ns| f64::from(ns) * 1e-6)
        .collect()
}

pub fn run(ctx: &Ctx) -> Option<Outcome> {
    let len = if ctx.smoke { 4 * CHECK_EVERY } else { SEQ_LEN };
    let inputs = Inputs::generate(ctx.seed, len);
    let daemon = Daemon::start(&inputs).unwrap_or_else(|e| panic!("serve_mixed set-up: {e}"));
    let Some(setup) = ctx.setup_metric() else {
        daemon.stop().expect("daemon stops");
        return None;
    };
    let mut out = Outcome {
        attempted: HOT as u64,
        failed: 0,
        metrics: Vec::new(),
        diagnostics: Vec::new(),
    };
    let seconds = if ctx.trace {
        (ctx.seconds / 2.0).min(5.0)
    } else {
        ctx.seconds
    };
    let (hits0, misses0) = (
        daemon.counter("serve.cache.hits"),
        daemon.counter("serve.cache.misses"),
    );
    reset_peak_rss();
    let live = closed_loop(&daemon.addr, &inputs.seq, seconds, &mut out);
    let rss = peak_rss_mib();
    out.attempted += live.requests;
    if let Err(e) = daemon.ledger() {
        out.fail(format!("daemon ledger: {e}"));
    }
    let lat_ms = ms(&live.latencies_ns);
    let (hits, misses) = (
        daemon.counter("serve.cache.hits") - hits0,
        daemon.counter("serve.cache.misses") - misses0,
    );
    let server_p50 = daemon.server_p50_us();
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }
    if !ctx.trace {
        let qps = live.requests as f64 / live.window_s;
        out.metrics = end_to_end(
            Metric::point("throughput", "1/s", qps),
            &lat_ms,
            setup,
            Metric::point("peak_rss_mib", "MiB", rss),
        );
        out.diagnostics = vec![
            Metric::from_samples("latency_p90_ms", "ms", percentile(&lat_ms, 0.90), &lat_ms),
            Metric::from_samples("latency_p99_ms", "ms", percentile(&lat_ms, 0.99), &lat_ms),
            Metric::from_samples("latency_p999_ms", "ms", percentile(&lat_ms, 0.999), &lat_ms),
        ];
        return Some(out);
    }
    let rec = traced(&inputs, &mut out);
    out.metrics.extend([
        Metric::point(
            "serve.hit_ratio",
            "share",
            hits as f64 / (hits + misses) as f64,
        ),
        Metric::point("serve.server_p50_us", "us", server_p50),
        Metric::point(
            "serve.transport_us",
            "us",
            median(&lat_ms) * 1e3 - server_p50,
        ),
    ]);
    crate::finish_trace(ctx, &rec, &mut out);
    Some(out)
}

/// The in-process answer path of one request, in the order the
/// daemon's `answer_query` makes its calls. Each call runs in its own
/// span; the spans are chained ([`Recorder::next`]) so a boundary costs
/// one clock read, and the little glue between two calls counts toward
/// the later one.
struct Replay {
    cache: AnswerCache,
    ops: OpsPlane,
}

impl Replay {
    /// The answer body and whether the cache held it.
    fn answer(&self, rec: &mut Recorder, q: &Query) -> Result<(String, bool), String> {
        rec.next("serve.key");
        let key = q.cache_key();
        rec.next("serve.cache_get");
        if let Some(hit) = self.cache.get(&key) {
            return Ok((hit.body, true));
        }
        rec.next("serve.model");
        let model =
            AnalyticModel::for_query(q).ok_or_else(|| format!("{key} has no closed form"))?;
        rec.next("serve.render");
        let body = analytic_body(q, &model, None);
        rec.next("serve.cache_insert");
        let cached = CachedAnswer {
            body: body.clone(),
            source: "analytic",
        };
        self.cache.insert(key, cached);
        Ok((body, false))
    }

    fn request(&self, rec: &mut Recorder, wire: &[u8]) -> Result<(), String> {
        rec.begin("serve.parse");
        let req = read_request(&mut Cursor::new(wire), DEFAULT_MAX_BODY_BYTES)
            .map_err(|e| format!("{e:?}"))?;
        rec.next("serve.ops_timer");
        let timer = self.ops.timer(req.path());
        rec.next("serve.decode");
        let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let (body, hit) = if req.path() == "/v1/batch" {
            let doc = JsonValue::parse(text)?;
            let items = doc
                .as_array()
                .ok_or_else(|| "batch body is not an array".to_string())?;
            let mut results = Vec::with_capacity(items.len());
            for item in items {
                rec.next("serve.decode");
                let q = Query::from_value(item)?;
                results.push(self.answer(rec, &q)?.0.trim_end().to_string());
            }
            rec.next("serve.render");
            let mut o = JsonObject::new();
            o.field_str("schema", "banyan-serve/batch/v1")
                .field_u64("count", results.len() as u64)
                .field_raw("results", &format!("[{}]", results.join(", ")));
            (o.finish() + "\n", None)
        } else {
            let q = match req.method.as_str() {
                "POST" => Query::from_json(text),
                _ => Query::from_query_string(req.query_string().unwrap_or("")),
            }?;
            let (body, hit) = self.answer(rec, &q)?;
            (body, Some(hit))
        };
        rec.next("serve.write");
        let mut resp = Response::json(200, body);
        if let Some(hit) = hit {
            resp = resp
                .with_header("X-Banyan-Cache", if hit { "hit" } else { "miss" })
                .with_header("X-Banyan-Source", "analytic");
        }
        let mut out = Vec::new();
        write_response(&mut out, &resp, true).map_err(|e| e.to_string())?;
        rec.next("serve.ops_finish");
        timer.finish(&req, &resp);
        Ok(())
    }
}

/// The traced replay: the request sequence once through a fresh cache
/// and operations plane in this process; even requests untraced, odd
/// ones traced.
fn traced(inputs: &Inputs, out: &mut Outcome) -> Recorder {
    let registry = Registry::new();
    let replay = Replay {
        cache: AnswerCache::new(CACHE_CAP),
        ops: OpsPlane::new(&registry, true, None, 0)
            .expect("operations plane without an access log"),
    };
    let mut rec = Recorder::new();
    for key in &inputs.hot {
        let q = Query::from_json(&key.json()).expect("hot key decodes");
        replay.answer(&mut rec, &q).expect("hot key answers");
    }
    let wires: Vec<Vec<u8>> = inputs.seq.iter().map(Req::wire).collect();
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    for (i, wire) in wires.iter().enumerate() {
        let on = i % 2 == 1;
        rec.set_enabled(on);
        rec.set_op(i as u64);
        let t = Instant::now();
        rec.begin("op");
        let done = replay.request(&mut rec, wire);
        rec.end_all();
        let ns = t.elapsed().as_nanos() as f64;
        if on { &mut traced_ns } else { &mut plain_ns }.push(ns);
        out.attempted += 1;
        if let Err(e) = done {
            out.fail(format!("replay request {i}: {e}"));
        }
    }
    rec.set_enabled(false);
    let ledger = Ledger::of(rec.spans());
    let call = |name: &'static str, metric: &'static str| {
        Metric::median(metric, "ns", ledger.samples(name))
    };
    let ops: Vec<f64> = ledger
        .samples("serve.ops_timer")
        .iter()
        .zip(ledger.samples("serve.ops_finish"))
        .map(|(a, b)| a + b)
        .collect();
    out.metrics = vec![
        call("serve.parse", "serve.parse_ns"),
        call("serve.decode", "serve.decode_ns"),
        call("serve.key", "serve.key_ns"),
        call("serve.cache_get", "serve.cache_get_ns"),
        call("serve.cache_insert", "serve.cache_insert_ns"),
        call("serve.model", "serve.model_ns"),
        call("serve.render", "serve.render_ns"),
        call("serve.write", "serve.write_ns"),
        Metric::median("serve.ops_ns", "ns", &ops),
        Metric::point(
            "trace.overhead",
            "ratio",
            median(&traced_ns) / median(&plain_ns),
        ),
        Metric::point("trace.residual_share", "share", ledger.residual_share()),
    ];
    out.diagnostics = vec![Metric::median("serve.replay_op_ns", "ns", &plain_ns)];
    rec
}
