//! `banyan serve` — the capacity-planning daemon.
//!
//! A zero-dependency HTTP/1.1 server on `std::net::TcpListener` that
//! answers "given this traffic matrix / switch degree / message-size
//! mix, what are E(w), Var(w), p99/p999 end to end?" using the paper's
//! closed forms, with three moving parts:
//!
//! * **One hardened decode path** — requests (JSON bodies or query
//!   strings) validate through the same `cli` flag machinery as the
//!   command line ([`query`]).
//! * **A memoized answer cache** — the canonical rendering of a
//!   validated query keys a FIFO-bounded map of fully rendered
//!   responses ([`cache`]); hits are a map lookup plus a write.
//! * **A drift-gated slow path** — in `auto` mode a small probe
//!   simulation measures the KS distance between observed waiting
//!   times and the closed form (the PR 4 drift gauge); within
//!   threshold the analytic answer is served, otherwise a full
//!   replicated simulation answers ([`answer`]).
//!
//! Beyond `/query`, the daemon answers `/v1/flow` (feed-forward flow
//! queries over the `banyan-flow` engine — [`flow`]) and
//! `POST /v1/batch` (an array of query objects answered in order, each
//! element riding the canonical-key cache individually).
//!
//! The operations plane ([`ops`]) watches all of it: `GET /metrics`
//! renders the Prometheus text exposition, `GET /readyz` gates on the
//! worker pool, cache capacity, and the background drift monitor,
//! `GET /statusz` reports per-route rolling-window latency quantiles,
//! and `--access-log` appends one structured JSON line per request.
//! The daemon also emits `serve.*` counters/gauges, per-request spans,
//! and a `banyan-obs` run manifest on shutdown. See DESIGN.md §9–§10.

pub mod answer;
pub mod cache;
pub mod flow;
pub mod http;
pub mod ops;
pub mod query;

use answer::{analytic_body, probe_drift, run_sim, sim_body, AnalyticModel, SimSettings};
use banyan_obs::json::{JsonObject, JsonValue};
use banyan_obs::{Counter, Gauge, Registry, Telemetry, TelemetryConfig};
use cache::{AnswerCache, CachedAnswer};
use flow::FlowQuery;
use http::{HttpError, Request, Response};
use ops::OpsPlane;
use query::{Mode, Query};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Daemon configuration (all knobs have serviceable defaults).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (0 = `available_parallelism` clamped to 4..=8).
    /// Workers spend most of their time blocked on connection reads,
    /// so the floor of 4 holds even on single-core hosts: with one
    /// worker, an idle keep-alive connection would pin the whole
    /// daemon until its read timeout fires, starving new connections.
    pub workers: usize,
    /// Answer-cache capacity (entries).
    pub cache_cap: usize,
    /// KS threshold for the drift gate in `auto` mode.
    pub drift_threshold: f64,
    /// Measured cycles per probe replication.
    pub probe_cycles: u64,
    /// Probe replications.
    pub probe_reps: u32,
    /// Measured cycles per full-simulation replication.
    pub sim_cycles: u64,
    /// Full-simulation replications.
    pub sim_reps: u32,
    /// Base RNG seed for embedded simulations.
    pub seed: u64,
    /// Request-body cap; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Per-connection read timeout in milliseconds (bounds how long an
    /// idle keep-alive connection pins a worker).
    pub read_timeout_ms: u64,
    /// Structured JSON access-log path (`None` disables the log).
    pub access_log: Option<String>,
    /// Minimum interval between access-log lines in milliseconds
    /// (0 = log every request; the first line is always emitted).
    pub access_log_sample_ms: u64,
    /// Separate admin bind address for `/metrics`, `/statusz`,
    /// `/healthz`, `/readyz`, `/shutdown` (`None` = the main listener
    /// serves them too — it always does).
    pub admin_addr: Option<String>,
    /// Drift-monitor poll interval in milliseconds (0 disables the
    /// background re-probes; benches set 0 for determinism). The
    /// monitor thread runs either way: it flushes the operations plane
    /// every 25 ms.
    pub drift_poll_ms: u64,
    /// Rolling-window SLO aggregation on the request path (the
    /// `overhead_guard` off-config disables it).
    pub rolling: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: 0,
            cache_cap: 1024,
            drift_threshold: 0.05,
            probe_cycles: 2_000,
            probe_reps: 2,
            sim_cycles: 20_000,
            sim_reps: 4,
            seed: 0x0BAD_5EED,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            read_timeout_ms: 10_000,
            access_log: None,
            access_log_sample_ms: 0,
            admin_addr: None,
            drift_poll_ms: 5_000,
            rolling: true,
        }
    }
}

impl ServeConfig {
    fn worker_count(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(4, 8)
        }
    }
}

/// A registry instrument looked up by name once and then kept, so the
/// request path does not take the registry's lock and allocate a
/// `String` key on every count. The lookup happens on first use rather
/// than at bind: a family enters the registry, and so the `/metrics`
/// scrape, only once something has counted in it, exactly as with a
/// lookup per call.
struct Handle<T> {
    name: &'static str,
    resolved: OnceLock<Arc<T>>,
}

impl<T> Handle<T> {
    const fn new(name: &'static str) -> Self {
        Handle {
            name,
            resolved: OnceLock::new(),
        }
    }
}

impl Handle<Counter> {
    fn inc(&self, reg: &Registry) {
        self.resolved.get_or_init(|| reg.counter(self.name)).inc();
    }
}

impl Handle<Gauge> {
    fn set(&self, reg: &Registry, value: u64) {
        self.resolved.get_or_init(|| reg.gauge(self.name)).set(value);
    }
}

/// The counters and gauges the request path moves, created with the
/// daemon's state.
struct ServeMetrics {
    connections: Handle<Counter>,
    requests: Handle<Counter>,
    responses: Handle<Counter>,
    parse_errors: Handle<Counter>,
    cache_hits: Handle<Counter>,
    cache_misses: Handle<Counter>,
    cache_entries: Handle<Gauge>,
    query_requests: Handle<Counter>,
    query_validated: Handle<Counter>,
    query_errors: Handle<Counter>,
    flow_requests: Handle<Counter>,
    flow_validated: Handle<Counter>,
    flow_errors: Handle<Counter>,
    batch_requests: Handle<Counter>,
    batch_errors: Handle<Counter>,
    batch_element_errors: Handle<Counter>,
    answer_analytic: Handle<Counter>,
    answer_probes: Handle<Counter>,
    answer_sim: Handle<Counter>,
    answer_sim_fallback: Handle<Counter>,
    last_ks_ppm: Handle<Gauge>,
}

impl ServeMetrics {
    const fn new() -> Self {
        ServeMetrics {
            connections: Handle::new("serve.http.connections_total"),
            requests: Handle::new("serve.http.requests_total"),
            responses: Handle::new("serve.http.responses_total"),
            parse_errors: Handle::new("serve.http.parse_errors_total"),
            cache_hits: Handle::new("serve.cache.hits"),
            cache_misses: Handle::new("serve.cache.misses"),
            cache_entries: Handle::new("serve.cache.entries"),
            query_requests: Handle::new("serve.query.requests_total"),
            query_validated: Handle::new("serve.query.validated_total"),
            query_errors: Handle::new("serve.query.errors_total"),
            flow_requests: Handle::new("serve.flow.requests_total"),
            flow_validated: Handle::new("serve.flow.validated_total"),
            flow_errors: Handle::new("serve.flow.errors_total"),
            batch_requests: Handle::new("serve.batch.requests_total"),
            batch_errors: Handle::new("serve.batch.errors_total"),
            batch_element_errors: Handle::new("serve.batch.element_errors_total"),
            answer_analytic: Handle::new("serve.answer.analytic_total"),
            answer_probes: Handle::new("serve.answer.probes_total"),
            answer_sim: Handle::new("serve.answer.sim_total"),
            answer_sim_fallback: Handle::new("serve.answer.sim_fallback_total"),
            last_ks_ppm: Handle::new("serve.drift.last_ks_ppm"),
        }
    }
}

/// State shared by the accept loop and every worker.
pub struct ServerState {
    cfg: ServeConfig,
    tel: Telemetry,
    metrics: ServeMetrics,
    cache: AnswerCache,
    ops: OpsPlane,
    shutdown: AtomicBool,
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
}

impl ServerState {
    /// The daemon's telemetry (metrics, spans, run log) — the manifest
    /// writer reads this after `run` returns.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound admin address, when `--admin-port` split the surfaces.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The operations plane (rolling windows, access log, hot keys).
    pub fn ops(&self) -> &OpsPlane {
        &self.ops
    }

    /// Requests shutdown: sets the flag and wakes every accept loop
    /// with a throwaway connection. Idempotent.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(admin) = self.admin_addr {
            let _ = TcpStream::connect(admin);
        }
    }
}

/// A bound (not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    admin_listener: Option<TcpListener>,
    state: Arc<ServerState>,
}

/// Decrements the live-worker accounting even if the worker panics, so
/// `/readyz` notices a lost worker.
struct WorkerGuard<'a>(&'a Registry);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.counter("serve.workers.exited_total").inc();
    }
}

impl Server {
    /// Binds the configured address(es) and prepares shared state
    /// around the given telemetry sink: the answer cache, the
    /// operations plane (which opens the access log when configured),
    /// and the optional admin listener.
    pub fn bind(cfg: ServeConfig, tel: Telemetry) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let admin_listener = match &cfg.admin_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let admin_addr = match &admin_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let cache = AnswerCache::new(cfg.cache_cap);
        let ops = OpsPlane::new(
            tel.registry(),
            cfg.rolling,
            cfg.access_log.as_deref(),
            cfg.access_log_sample_ms,
        )?;
        for name in ["serve.workers.started_total", "serve.workers.exited_total"] {
            tel.registry().counter(name);
        }
        let state = Arc::new(ServerState {
            cfg,
            tel,
            metrics: ServeMetrics::new(),
            cache,
            ops,
            shutdown: AtomicBool::new(false),
            addr,
            admin_addr,
        });
        Ok(Server {
            listener,
            admin_listener,
            state,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Clone of the shared state handle.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until [`ServerState::request_shutdown`] fires: a fixed
    /// worker pool drains accepted connections from an mpsc channel,
    /// each worker handling batched keep-alive requests per
    /// connection. The optional admin listener feeds the same pool
    /// (its connections tagged admin-only), and the monitor thread
    /// flushes the operations plane and, when `drift_poll_ms > 0`,
    /// re-probes hot analytic keys in the background.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            admin_listener,
            state,
        } = self;
        let workers = state.cfg.worker_count();
        let result = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(TcpStream, bool)>();
            let rx = Arc::new(Mutex::new(rx));
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                state
                    .tel
                    .registry()
                    .counter("serve.workers.started_total")
                    .inc();
                scope.spawn(move || {
                    let _guard = WorkerGuard(state.tel.registry());
                    loop {
                        // Hold the lock only for the dequeue, never
                        // while serving.
                        let next = rx.lock().expect("receiver poisoned").recv();
                        match next {
                            Ok((stream, admin)) => handle_connection(&state, stream, admin),
                            Err(_) => break,
                        }
                    }
                });
            }
            if let Some(admin) = admin_listener {
                let tx = tx.clone();
                let state = Arc::clone(&state);
                scope.spawn(move || loop {
                    let Ok((stream, _)) = admin.accept() else { break };
                    if state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = tx.send((stream, true));
                });
            }
            let monitor = {
                let state = Arc::clone(&state);
                scope.spawn(move || monitor_loop(&state))
            };
            let accepted = loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            // The wake-up connection (or any racing
                            // late arrival) is dropped unanswered.
                            break Ok(());
                        }
                        let _ = tx.send((stream, false));
                    }
                    Err(e) => break Err(e),
                }
            };
            // Idempotent: on the error path this raises the flag so the
            // admin accept loop and the monitor also wind down.
            state.request_shutdown();
            monitor.thread().unpark();
            drop(tx);
            accepted
        });
        // Final maintenance: durable access log, rolling aggregates
        // published as `serve.rolling.*` gauges for the run manifest.
        state.ops.maintenance_flush();
        state.ops.publish_rolling_gauges(state.tel.registry());
        result
    }
}

/// A daemon running on a background thread (tests and the load
/// client).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Binds and serves `cfg` on a fresh thread with its own active
    /// telemetry.
    pub fn spawn(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let tel = Telemetry::new(TelemetryConfig::on());
        let server = Server::bind(cfg, tel)?;
        let addr = server.local_addr();
        let state = server.state();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (telemetry, cache introspection).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests shutdown and joins the server thread.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.state.request_shutdown();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// Serves one connection: batched keep-alive request handling until
/// the peer closes, errors, or asks to stop. `admin` marks
/// connections from the dedicated admin listener, which only serve
/// the operational surface.
fn handle_connection(state: &ServerState, stream: TcpStream, admin: bool) {
    stream
        .set_read_timeout(Some(Duration::from_millis(state.cfg.read_timeout_ms)))
        .ok();
    stream.set_nodelay(true).ok();
    let (reg, m) = (state.tel.registry(), &state.metrics);
    m.connections.inc(reg);
    let mut reader = BufReader::new(stream);
    loop {
        let req = match http::read_request(&mut reader, state.cfg.max_body_bytes) {
            Ok(req) => req,
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
            Err(err) => {
                let resp = match err {
                    HttpError::Bad(m) => Response::error(400, &m),
                    HttpError::TooLarge(limit) => {
                        Response::error(413, &format!("request body exceeds {limit} bytes"))
                    }
                    HttpError::Unsupported(m) => Response::error(501, &m),
                    HttpError::Closed | HttpError::Io(_) => unreachable!("handled above"),
                };
                m.parse_errors.inc(reg);
                write_counted(state, &mut reader, &resp, false);
                break;
            }
        };
        m.requests.inc(reg);
        let keep = {
            let _span = state.tel.span("serve/request");
            // The timer finishes after the response write, so rolling
            // latencies and access-log lines cover the full request.
            let timer = state.ops.timer(req.path());
            let resp = route(state, &req, admin);
            let keep = req.keep_alive() && resp.status != 413;
            write_counted(state, &mut reader, &resp, keep);
            timer.finish(&req, &resp);
            keep
        };
        if !keep {
            break;
        }
    }
}

/// Writes a response, counting it even when the peer is gone — the
/// ledger `responses == requests + parse_errors` stays exact.
fn write_counted(
    state: &ServerState,
    reader: &mut BufReader<TcpStream>,
    resp: &Response,
    keep_alive: bool,
) {
    state.metrics.responses.inc(state.tel.registry());
    let mut stream = reader.get_ref();
    let _ = http::write_response(&mut stream, resp, keep_alive);
}

/// Routes one parsed request. Admin-listener connections only see the
/// operational surface; the main listener serves everything.
fn route(state: &ServerState, req: &Request, admin: bool) -> Response {
    if admin && matches!(req.path(), "/query" | "/v1/flow" | "/v1/batch") {
        return Response::error(
            404,
            &format!("'{}' is not served on the admin listener", req.path()),
        );
    }
    match (req.method.as_str(), req.path()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\": \"ok\"}\n".to_string()),
        ("GET", "/metrics") => Response::exposition(200, state.ops.render_metrics(&state.tel)),
        ("GET", "/statusz") => Response::json(200, statusz_body(state)),
        ("GET", "/readyz") => readyz(state),
        ("POST", "/shutdown") => {
            state.request_shutdown();
            Response::json(200, "{\"status\": \"shutting-down\"}\n".to_string())
        }
        ("GET" | "POST", "/query") => answer_query(state, req),
        ("GET" | "POST", "/v1/flow") => answer_flow(state, req),
        ("POST", "/v1/batch") => answer_batch(state, req),
        (
            _,
            "/healthz" | "/readyz" | "/statusz" | "/metrics" | "/shutdown" | "/query" | "/v1/flow"
            | "/v1/batch",
        ) => Response::error(
            405,
            &format!("method {} not allowed for {}", req.method, req.path()),
        ),
        (_, path) => Response::error(404, &format!("unknown path '{path}'")),
    }
}

/// `GET /readyz`: `200` only when the worker pool is whole, the answer
/// cache is within capacity, and the drift monitor has not flagged an
/// analytic answer as drifted past the KS threshold; otherwise `503`
/// with the failing checks listed.
fn readyz(state: &ServerState) -> Response {
    let reg = state.tel.registry();
    let started = reg.counter_value("serve.workers.started_total").unwrap_or(0);
    let exited = reg.counter_value("serve.workers.exited_total").unwrap_or(0);
    let expected = state.cfg.worker_count() as u64;
    let mut failing = Vec::new();
    if started.saturating_sub(exited) != expected {
        failing.push(format!(
            "worker pool degraded: {} of {expected} workers live",
            started.saturating_sub(exited)
        ));
    }
    if state.cache.len() > state.cfg.cache_cap {
        failing.push(format!(
            "cache over capacity: {} entries > {}",
            state.cache.len(),
            state.cfg.cache_cap
        ));
    }
    if reg.gauge("serve.drift.degraded").get() != 0 {
        failing.push(format!(
            "analytic drift past threshold: worst probe ks_ppm = {}",
            reg.gauge("serve.drift.probe_ks_ppm").get()
        ));
    }
    let mut o = JsonObject::new();
    if failing.is_empty() {
        o.field_str("status", "ready");
    } else {
        let items: Vec<String> = failing
            .iter()
            .map(|f| format!("\"{}\"", banyan_obs::json::escape(f)))
            .collect();
        o.field_str("status", "not-ready")
            .field_raw("failing", &format!("[{}]", items.join(", ")));
    }
    let mut body = o.finish();
    body.push('\n');
    Response::json(if failing.is_empty() { 200 } else { 503 }, body)
}

/// `GET /statusz`: one JSON document for humans and tests — uptime,
/// worker pool, cache health, the drift-gauge table, and per-route
/// rolling-window latency quantiles.
fn statusz_body(state: &ServerState) -> String {
    let reg = state.tel.registry();
    let started = reg.counter_value("serve.workers.started_total").unwrap_or(0);
    let exited = reg.counter_value("serve.workers.exited_total").unwrap_or(0);
    let hits = reg.counter_value("serve.cache.hits").unwrap_or(0);
    let misses = reg.counter_value("serve.cache.misses").unwrap_or(0);
    let looked_up = hits + misses;
    let mut workers = JsonObject::new();
    workers
        .field_u64("expected", state.cfg.worker_count() as u64)
        .field_u64("active", started.saturating_sub(exited));
    let mut cache = JsonObject::new();
    cache
        .field_u64("entries", state.cache.len() as u64)
        .field_u64("capacity", state.cfg.cache_cap as u64)
        .field_u64("hits", hits)
        .field_u64("misses", misses)
        .field_f64(
            "hit_ratio",
            if looked_up == 0 {
                0.0
            } else {
                hits as f64 / looked_up as f64
            },
        );
    let mut drift = JsonObject::new();
    drift
        .field_u64("degraded", reg.gauge("serve.drift.degraded").get())
        .field_f64("threshold", state.cfg.drift_threshold)
        .field_u64("last_ks_ppm", reg.gauge("serve.drift.last_ks_ppm").get())
        .field_u64("probe_ks_ppm", reg.gauge("serve.drift.probe_ks_ppm").get())
        .field_u64(
            "probes_total",
            reg.counter_value("serve.drift.probes_total").unwrap_or(0),
        )
        .field_u64("hot_keys", state.ops.hot_queries().len() as u64);
    let mut o = JsonObject::new();
    o.field_str("schema", "banyan-serve/statusz/v1")
        .field_f64("uptime_secs", state.ops.uptime().as_secs_f64())
        .field_str("addr", &state.addr.to_string())
        .field_raw("workers", &workers.finish())
        .field_raw("cache", &cache.finish())
        .field_raw("drift", &drift.finish())
        .field_raw("routes", &state.ops.routes_status_json());
    let mut body = o.finish();
    body.push('\n');
    body
}

/// One drift-monitor pass: re-probes every hot analytic configuration
/// with a fresh short simulation and updates the drift gauges `/readyz`
/// consumes. Public so tests (and the monitor thread) can tick
/// deterministically.
pub fn drift_tick(state: &ServerState) {
    let reg = state.tel.registry();
    let hot = state.ops.hot_queries();
    let settings = SimSettings {
        cycles: state.cfg.probe_cycles,
        reps: state.cfg.probe_reps,
        seed: state.cfg.seed,
    };
    let mut worst = 0u64;
    let mut degraded = false;
    let mut probed = false;
    for (_, q) in &hot {
        let Some(model) = AnalyticModel::for_query(q) else {
            continue;
        };
        let report = probe_drift(q, &model, settings);
        reg.counter("serve.drift.probes_total").inc();
        probed = true;
        worst = worst.max(report.ks_ppm());
        degraded = degraded || report.ks > state.cfg.drift_threshold;
    }
    if probed {
        reg.gauge("serve.drift.probe_ks_ppm").set(worst);
        reg.gauge("serve.drift.degraded").set(u64::from(degraded));
    }
}

/// The monitor loop's step: the longest an access-log line waits to be
/// written, and the span of requests rolling staging holds.
const MONITOR_STEP: Duration = Duration::from_millis(25);

/// The background monitor. Every step it flushes the operations plane,
/// so the access log is written while the daemon runs and rolling
/// staging stays bounded by the request rate rather than the request
/// count; the P² folding stays off the request threads. When
/// `drift_poll_ms > 0` it also runs a [`drift_tick`] that often. It
/// parks between steps, and [`Server::run`] unparks it at shutdown.
fn monitor_loop(state: &ServerState) {
    let poll = Duration::from_millis(state.cfg.drift_poll_ms);
    let step = if poll.is_zero() {
        MONITOR_STEP
    } else {
        MONITOR_STEP.min(poll)
    };
    let mut last_tick = Instant::now();
    loop {
        std::thread::park_timeout(step);
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        state.ops.maintenance_flush();
        if !poll.is_zero() && last_tick.elapsed() >= poll {
            drift_tick(state);
            last_tick = Instant::now();
        }
    }
}

/// Looks a canonical key up in the answer cache, computing and
/// inserting on a miss. Returns the answer and whether it was a hit.
/// The hit/miss counters move for every validated query — including
/// batch elements — so the `validated == hits + misses` ledger stays
/// exact; the miss is counted *before* `compute` so a failed
/// computation still balances.
fn cached_answer(
    state: &ServerState,
    key: String,
    compute: impl FnOnce() -> Result<CachedAnswer, String>,
) -> Result<(CachedAnswer, bool), String> {
    let (reg, m) = (state.tel.registry(), &state.metrics);
    if let Some(hit) = state.cache.get(&key) {
        m.cache_hits.inc(reg);
        return Ok((hit, true));
    }
    m.cache_misses.inc(reg);
    let answer = compute()?;
    state.cache.insert(key, answer.clone());
    m.cache_entries.set(reg, state.cache.len() as u64);
    Ok((answer, false))
}

/// Decodes, caches, and answers a capacity query.
fn answer_query(state: &ServerState, req: &Request) -> Response {
    let (reg, m) = (state.tel.registry(), &state.metrics);
    m.query_requests.inc(reg);
    let parsed = if req.method == "POST" {
        std::str::from_utf8(&req.body)
            .map_err(|_| "request body is not valid UTF-8".to_string())
            .and_then(Query::from_json)
    } else {
        Query::from_query_string(req.query_string().unwrap_or(""))
    };
    let query = match parsed {
        Ok(q) => q,
        Err(msg) => {
            m.query_errors.inc(reg);
            return Response::error(400, &msg);
        }
    };
    m.query_validated.inc(reg);
    match cached_answer(state, query.cache_key(), || compute_answer(state, &query)) {
        Ok((answer, hit)) => Response::json(200, answer.body)
            .with_header("X-Banyan-Cache", if hit { "hit" } else { "miss" })
            .with_header("X-Banyan-Source", answer.source),
        Err(msg) => {
            m.query_errors.inc(reg);
            Response::error(422, &msg)
        }
    }
}

/// Decodes, caches, and answers a feed-forward flow query
/// (`/v1/flow`): the generalized `banyan-flow` engine behind the same
/// canonical-key cache and counter discipline as `/query`.
fn answer_flow(state: &ServerState, req: &Request) -> Response {
    let (reg, m) = (state.tel.registry(), &state.metrics);
    m.flow_requests.inc(reg);
    let parsed = if req.method == "POST" {
        std::str::from_utf8(&req.body)
            .map_err(|_| "request body is not valid UTF-8".to_string())
            .and_then(FlowQuery::from_json)
    } else {
        FlowQuery::from_query_string(req.query_string().unwrap_or(""))
    };
    let fq = match parsed {
        Ok(q) => q,
        Err(msg) => {
            m.flow_errors.inc(reg);
            return Response::error(400, &msg);
        }
    };
    m.flow_validated.inc(reg);
    let compute = || {
        let _span = state.tel.span("serve/flow/analytic");
        Ok(CachedAnswer {
            body: flow::flow_body(&fq)?,
            source: "flow-analytic",
        })
    };
    match cached_answer(state, fq.cache_key(), compute) {
        Ok((answer, hit)) => Response::json(200, answer.body)
            .with_header("X-Banyan-Cache", if hit { "hit" } else { "miss" })
            .with_header("X-Banyan-Source", answer.source),
        Err(msg) => {
            m.flow_errors.inc(reg);
            Response::error(422, &msg)
        }
    }
}

/// Largest accepted `/v1/batch` array (each element can cost a probe or
/// full simulation, so the cap bounds one request's work).
const BATCH_MAX: usize = 256;

/// `POST /v1/batch`: a JSON array of query objects answered in order.
/// Elements carrying a `topo` field are flow queries; everything else
/// is a capacity query. Each element rides the canonical-key cache
/// individually (with the usual validated/hit/miss counters), and a bad
/// element yields an `{"error": …}` entry instead of failing the batch.
fn answer_batch(state: &ServerState, req: &Request) -> Response {
    let (reg, m) = (state.tel.registry(), &state.metrics);
    m.batch_requests.inc(reg);
    let parsed: Result<JsonValue, String> = std::str::from_utf8(&req.body)
        .map_err(|_| "request body is not valid UTF-8".to_string())
        .and_then(|text| JsonValue::parse(text).map_err(|e| format!("invalid JSON body: {e}")));
    let doc = match parsed {
        Ok(doc) => doc,
        Err(msg) => {
            m.batch_errors.inc(reg);
            return Response::error(400, &msg);
        }
    };
    let items = match doc.as_array() {
        Some([]) => {
            m.batch_errors.inc(reg);
            return Response::error(400, "batch array is empty");
        }
        Some(items) if items.len() > BATCH_MAX => {
            m.batch_errors.inc(reg);
            return Response::error(
                400,
                &format!("batch of {} elements exceeds the {BATCH_MAX}-element cap", items.len()),
            );
        }
        Some(items) => items,
        None => {
            m.batch_errors.inc(reg);
            return Response::error(400, "batch body must be a JSON array of query objects");
        }
    };
    let _span = state.tel.span("serve/batch");
    let mut results = Vec::with_capacity(items.len());
    for item in items {
        let answered = if item.get("topo").is_some() {
            FlowQuery::from_value(item).and_then(|fq| {
                m.flow_validated.inc(reg);
                cached_answer(state, fq.cache_key(), || {
                    // Same span as answer_flow, so batch-driven flow
                    // work shows up in span-based observability too.
                    let _span = state.tel.span("serve/flow/analytic");
                    Ok(CachedAnswer {
                        body: flow::flow_body(&fq)?,
                        source: "flow-analytic",
                    })
                })
            })
        } else {
            Query::from_value(item).map(|q| (q.cache_key(), q)).and_then(|(key, q)| {
                m.query_validated.inc(reg);
                cached_answer(state, key, || compute_answer(state, &q))
            })
        };
        results.push(match answered {
            // Answer bodies are single JSON objects with a trailing
            // newline; embedded as array elements they drop it.
            Ok((answer, _)) => answer.body.trim_end().to_string(),
            Err(msg) => {
                m.batch_element_errors.inc(reg);
                let mut e = JsonObject::new();
                e.field_str("error", &msg);
                e.finish()
            }
        });
    }
    let mut o = JsonObject::new();
    o.field_str("schema", "banyan-serve/batch/v1")
        .field_u64("count", results.len() as u64)
        .field_raw("results", &format!("[{}]", results.join(", ")));
    let mut body = o.finish();
    body.push('\n');
    Response::json(200, body)
}

/// The drift-gated answer policy.
fn compute_answer(state: &ServerState, query: &Query) -> Result<CachedAnswer, String> {
    let (cfg, reg, m) = (&state.cfg, state.tel.registry(), &state.metrics);
    let sim_settings = SimSettings {
        cycles: cfg.sim_cycles,
        reps: cfg.sim_reps,
        seed: cfg.seed,
    };
    match query.mode {
        Mode::Analytic => {
            let model = AnalyticModel::for_query(query).ok_or_else(|| {
                "no closed form covers this configuration; use mode=auto or mode=simulate"
                    .to_string()
            })?;
            let _span = state.tel.span("serve/query/analytic");
            m.answer_analytic.inc(reg);
            state.ops.note_hot(query);
            Ok(CachedAnswer {
                body: analytic_body(query, &model, None),
                source: "analytic",
            })
        }
        Mode::Simulate => Ok(simulate(state, query, sim_settings, None)),
        Mode::Auto => {
            let Some(model) = AnalyticModel::for_query(query) else {
                // Outside analytic reach: straight to the simulator.
                return Ok(simulate(state, query, sim_settings, None));
            };
            // Analytically covered: the drift monitor re-probes it.
            state.ops.note_hot(query);
            let probe_settings = SimSettings {
                cycles: cfg.probe_cycles,
                reps: cfg.probe_reps,
                seed: cfg.seed,
            };
            let report = {
                let _span = state.tel.span("serve/query/probe");
                m.answer_probes.inc(reg);
                probe_drift(query, &model, probe_settings)
            };
            m.last_ks_ppm.set(reg, report.ks_ppm());
            if report.ks <= cfg.drift_threshold {
                let _span = state.tel.span("serve/query/analytic");
                m.answer_analytic.inc(reg);
                Ok(CachedAnswer {
                    body: analytic_body(query, &model, Some(report.ks)),
                    source: "analytic",
                })
            } else {
                m.answer_sim_fallback.inc(reg);
                Ok(simulate(state, query, sim_settings, Some(report.ks)))
            }
        }
    }
}

/// The simulation slow path (also the `auto` fallback).
fn simulate(
    state: &ServerState,
    query: &Query,
    settings: SimSettings,
    drift_ks: Option<f64>,
) -> CachedAnswer {
    let _span = state.tel.span("serve/query/sim");
    state.metrics.answer_sim.inc(state.tel.registry());
    let outcome = run_sim(query, settings);
    state.tel.log_run(format!(
        "sim answer {} cycles={} reps={} delivered={}",
        query.cache_key(),
        settings.cycles,
        settings.reps,
        outcome.delivered
    ));
    CachedAnswer {
        body: sim_body(query, &outcome, drift_ks),
        source: "simulation",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_healthz_shutdown() {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeConfig::default()
        };
        let handle = ServerHandle::spawn(cfg).unwrap();
        let addr = handle.addr().to_string();
        let mut client = http::Client::connect(&addr).unwrap();
        let resp = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("ok"), "{}", resp.body);
        drop(client);
        handle.shutdown().unwrap();
    }

    #[test]
    fn worker_count_defaults_are_bounded() {
        let cfg = ServeConfig::default();
        let n = cfg.worker_count();
        assert!((4..=8).contains(&n), "{n}");
        let cfg = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.worker_count(), 3);
    }
}
