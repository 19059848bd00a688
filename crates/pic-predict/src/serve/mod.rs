//! `picpredict serve` — the resident prediction service (DESIGN.md §13).
//!
//! A long-lived daemon that keeps ingested traces resident in a
//! content-addressed [`registry::TraceRegistry`] and answers
//! sweep/predict/check requests against them over hand-rolled HTTP/1.1 +
//! JSON (`std::net` only; the workspace is offline). The performance
//! contract:
//!
//! * **Ingest once, replay many.** `POST /traces` streams the body
//!   through [`pic_trace::BoundedReader`] → [`pic_trace::DigestReader`] →
//!   [`pic_trace::TraceReader`]: the trace — raw or compact
//!   delta-encoded, sniffed by magic — is read exactly once, its
//!   content address is the FNV-1a-128 digest of the bytes the decoder
//!   consumed, and identical bytes always land on the identical address.
//!   A compact trace stays resident as its encoded frames and is
//!   decoded sample by sample as a replay reads it; the registry
//!   charges each entry [`pic_trace::ParticleTrace::resident_bytes`].
//! * **Shared replays.** `/sweep`, `/predict` and `/check` against a
//!   resident trace run through [`pic_workload::replay`] on the trace's
//!   shared [`pic_workload::AssignmentCache`], so concurrent and repeat
//!   requests reuse each group's per-sample replay: the assignment
//!   artifacts (mapper pass + region index) across filter radii, strides
//!   and ghost toggles, the ghost rows of every radius and the migration
//!   diffs of every stride already asked for, so a repeated grid point
//!   runs no kernel and no diff at all. Byte-identical in-flight requests
//!   additionally collapse onto one computation (single-flight batching),
//!   whose response body the leader and its followers share, uncopied.
//! * **Bit-identical to offline.** A `POST /sweep` response body is
//!   byte-for-byte the file `picpredict sweep --out` writes for the same
//!   grid — both run [`Request::sweep`] and render it straight to text
//!   through [`crate::request::grid_to_json`], and the cached sweep engine
//!   is bit-identical to the per-configuration reference.
//! * **One request vocabulary.** A JSON endpoint is a transport over
//!   [`Request`], as the CLI is: [`request::admit`] holds the body's keys
//!   to the endpoint's list — a key it does not take, a key given twice or
//!   a required key left out is a `400` naming the key — and
//!   [`Request::parse`] reads the values through the same field table the
//!   CLI's flags go through, so a value it refuses (a `422`) reads the same
//!   on both, apart from how the key is spelled. The handler then resolves
//!   the resident trace and models and calls what the CLI calls: `/predict`
//!   is [`crate::predict`] and answers with its `Display`.
//! * **Gated responses.** Sweep grids pass
//!   [`pic_analysis::assert_sweep_valid`] before a byte leaves the
//!   server; a prediction's workload and kernel table are gated inside
//!   [`crate::predict`].
//! * **Opt-in reduced replay.** A sweep request carrying `"reduced":
//!   true` replays SimPoint representatives instead of every sample
//!   (stride 1 only, served from the same assignment cache) through
//!   [`crate::simpoint::replay_reduced_gated`], which holds every grid
//!   point to the holdout error budget; the reduction plan is cached per
//!   trace in its [`registry::PlanCache`] under the same LRU weight.
//! * **Adversarial clients survive.** Framing is bounded and deadlined
//!   (see [`http`]); a JSON body nested past `serde_json::MAX_DEPTH` is a
//!   `400`, not a stack overflow; the pic-trace fault corpus replayed over
//!   a socket yields positioned 4xx responses, never a panic or a hung
//!   thread.

pub mod http;
pub mod registry;

use crate::kernel_models::KernelModels;
use crate::request::{self, grid_to_json, Raw, Request, Transport};
use http::HttpError;
use pic_trace::{BoundedReader, DigestReader, ParticleTrace, TraceReader};
use pic_types::hash::fnv1a_128;
use pic_types::sync::{TrackedCondvar, TrackedMutex, TrackedRwLock};
use pic_types::{PicError, Result};
use pic_workload::ReplayOptions;
use registry::TraceRegistry;
use serde::Value;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The declared lock hierarchy of the serve layer (DESIGN.md §14).
///
/// Levels must strictly increase along any nested acquisition; the
/// tracked primitives check this on every lock in debug/test builds.
/// The sweep-engine `AssignmentCache` sits *below* everything here (level
/// 100, declared in `pic-workload`): the registry computes entry weights
/// by calling `cache.stats()` under its own lock, so `registry <
/// assignment_cache` is a real nesting this hierarchy must admit.
pub(crate) mod lock_order {
    /// `TraceRegistry::inner` — the outermost serve lock.
    pub const REGISTRY: u32 = 10;
    /// `ServerState::inflight` — the single-flight table.
    pub const INFLIGHT: u32 = 20;
    /// `Flight::done` — one in-flight computation's result slot.
    pub const FLIGHT_DONE: u32 = 30;
    /// `ServerState::shutdown` — the shutdown flag.
    pub const SHUTDOWN: u32 = 40;
    /// `ServerState::addr` — the bound-address cell.
    pub const ADDR: u32 = 50;
    /// `PlanCache::inner` — a resident trace's reduction-plan map. Sits
    /// above the `pic-workload` assignment cache (level 100) because the
    /// registry weighs both sequentially under its own lock when
    /// computing entry bytes.
    pub const PLAN_CACHE: u32 = 110;
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Registry byte budget for resident traces + assignment artifacts.
    pub budget_bytes: usize,
    /// Per-socket read deadline (slow-loris cutoff).
    pub read_timeout: Duration,
    /// Per-socket write deadline.
    pub write_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            budget_bytes: 512 << 20,
            read_timeout: Duration::from_millis(2000),
            write_timeout: Duration::from_millis(10_000),
            max_body_bytes: 256 << 20,
        }
    }
}

/// A response: status and body. The body is shared, never copied, between
/// a flight's leader and its followers.
type Response = (u16, Arc<String>);

/// One single-flight computation: followers park on the condvar until the
/// leader publishes `(status, body)`.
struct Flight {
    done: TrackedMutex<Option<Response>>,
    cv: TrackedCondvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: TrackedMutex::new("serve.flight.done", lock_order::FLIGHT_DONE, None),
            cv: TrackedCondvar::new(),
        }
    }
}

/// Shared server state. `Send + Sync`: the registry and flight table are
/// mutex-guarded, counters are atomics, and request handlers only hold
/// `Arc`s into registry entries while computing.
pub struct ServerState {
    cfg: ServeConfig,
    registry: TraceRegistry,
    inflight: TrackedMutex<HashMap<u128, Arc<Flight>>>,
    requests: AtomicU64,
    errors: AtomicU64,
    batched: AtomicU64,
    active_connections: AtomicUsize,
    shutdown: TrackedMutex<bool>,
    shutdown_cv: TrackedCondvar,
    addr: TrackedRwLock<Option<SocketAddr>>,
}

impl ServerState {
    fn new(cfg: ServeConfig) -> ServerState {
        ServerState {
            registry: TraceRegistry::new(cfg.budget_bytes),
            cfg,
            inflight: TrackedMutex::new("serve.inflight", lock_order::INFLIGHT, HashMap::new()),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            active_connections: AtomicUsize::new(0),
            shutdown: TrackedMutex::new("serve.shutdown", lock_order::SHUTDOWN, false),
            shutdown_cv: TrackedCondvar::new(),
            addr: TrackedRwLock::new("serve.addr", lock_order::ADDR, None),
        }
    }

    /// The trace/model registry (exposed for tests and stats).
    pub fn registry(&self) -> &TraceRegistry {
        &self.registry
    }

    /// Request counters since startup: `(requests, errors, batched)`.
    /// `batched` counts requests that rode an identical in-flight
    /// computation instead of running their own.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.batched.load(Ordering::Relaxed),
        )
    }

    fn is_shutting_down(&self) -> bool {
        *self.shutdown.lock()
    }

    fn begin_shutdown(&self) {
        {
            let mut flag = self.shutdown.lock();
            if *flag {
                return;
            }
            *flag = true;
        }
        self.shutdown_cv.notify_all();
        // Poke the accept loop out of its blocking accept.
        if let Some(addr) = *self.addr.read() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    fn wait_shutdown(&self) {
        let flag = self.shutdown.lock();
        // wait_while re-checks under the lock on every wakeup: lost and
        // spurious wakeups cannot produce a premature return (the model
        // in pic-analysis::serve_model::shutdown proves the handshake).
        let _flag = self.shutdown_cv.wait_while(flag, |f| !*f);
    }
}

/// A running server: accept loop plus one thread per connection.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns as soon as the listener is live.
    pub fn start(cfg: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| PicError::config(format!("cannot bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PicError::config(format!("cannot resolve bound address: {e}")))?;
        let state = Arc::new(ServerState::new(cfg));
        *state.addr.write() = Some(addr);
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_state.is_shutting_down() {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let st = Arc::clone(&accept_state);
                st.active_connections.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    handle_connection(&st, stream);
                    st.active_connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        Ok(Server {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state handle (stats inspection in tests and benches).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Block until `POST /shutdown` (or [`Server::shutdown`] from another
    /// thread via the state handle), then drain connections and join the
    /// accept loop.
    pub fn run_to_completion(mut self) {
        self.state.wait_shutdown();
        self.cleanup();
    }

    /// Initiate shutdown and drain: stops accepting, waits (bounded) for
    /// in-flight connections, joins the accept thread.
    pub fn shutdown(mut self) {
        self.state.begin_shutdown();
        self.cleanup();
    }

    fn cleanup(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self.state.active_connections.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.state.begin_shutdown();
        self.cleanup();
    }
}

// --------------------------------------------------------------- routing

fn handle_connection(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(state.cfg.write_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let head = match http::read_head(&mut reader) {
        Ok(h) => h,
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            http::write_error(&mut write_half, &e);
            lingering_close(&mut reader);
            return;
        }
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    match route(state, &head, &mut reader) {
        Ok((status, body)) => {
            http::write_response(&mut write_half, status, "application/json", body.as_bytes());
        }
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            http::write_error(&mut write_half, &e);
            lingering_close(&mut reader);
        }
    }
}

/// Drain (bounded) whatever request bytes the client already sent before
/// dropping an errored connection. Closing with unread data in the
/// receive buffer makes the kernel send RST, which can destroy the error
/// response before the client reads it.
fn lingering_close(reader: &mut BufReader<TcpStream>) {
    use std::io::Read;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(150)));
    let mut scratch = [0u8; 16 * 1024];
    let mut drained = 0usize;
    while drained < 1 << 20 {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Dispatch one parsed request. JSON-body endpoints read the (bounded)
/// body here; `POST /traces` streams it straight into the decoder.
fn route(
    state: &ServerState,
    head: &http::Request,
    reader: &mut BufReader<TcpStream>,
) -> std::result::Result<Response, HttpError> {
    let unshared = match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => Ok((200, "{\"ok\":true}".to_string())),
        ("GET", "/stats") => handle_stats(state),
        ("GET", "/traces") => handle_list_traces(state),
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            Ok((200, "{\"ok\":true,\"shutting_down\":true}".to_string()))
        }
        ("POST", "/traces") => handle_ingest_trace(state, head, reader),
        ("POST", "/models") => {
            let body = read_json_body(state, head, reader)?;
            handle_ingest_models(state, &body)
        }
        ("POST", path @ ("/sweep" | "/predict" | "/check")) => {
            let body = read_json_body(state, head, reader)?;
            let key = flight_key(path, &body);
            return single_flight(state, key, || match path {
                "/sweep" => handle_sweep(state, &body),
                "/predict" => handle_predict(state, &body),
                _ => handle_check(state, &body),
            });
        }
        (
            _,
            "/healthz" | "/stats" | "/traces" | "/shutdown" | "/sweep" | "/predict" | "/check"
            | "/models",
        ) => Err(HttpError::new(
            405,
            format!("method {} not allowed on {}", head.method, head.path),
        )),
        (_, path) => Err(HttpError::new(404, format!("no such endpoint {path}"))),
    };
    unshared.map(|(status, body)| (status, Arc::new(body)))
}

fn read_json_body(
    state: &ServerState,
    head: &http::Request,
    reader: &mut BufReader<TcpStream>,
) -> std::result::Result<Vec<u8>, HttpError> {
    let len = head
        .content_length
        .ok_or_else(|| HttpError::new(411, "Content-Length required"))?;
    if len > state.cfg.max_body_bytes {
        return Err(HttpError::new(
            413,
            format!(
                "declared body of {len} bytes exceeds the {} byte limit",
                state.cfg.max_body_bytes
            ),
        ));
    }
    http::read_body(reader, len)
}

fn flight_key(path: &str, body: &[u8]) -> u128 {
    let mut keyed = Vec::with_capacity(path.len() + 1 + body.len());
    keyed.extend_from_slice(path.as_bytes());
    keyed.push(0);
    keyed.extend_from_slice(body);
    fnv1a_128(&keyed)
}

/// Publishes a flight's result exactly once, even if the leader panics.
///
/// The leader's obligation — publish, wake followers, clear the table
/// entry — is owed no matter how the compute ends. If the leader unwinds
/// before [`FlightPublisher::publish`] runs (the abandonment bug the
/// single-flight model in `pic-analysis::serve_model` proves deadlocks
/// followers), `Drop` publishes a 500 so every parked follower gets a
/// response and a later request can elect a fresh leader.
struct FlightPublisher<'a> {
    state: &'a ServerState,
    key: u128,
    flight: &'a Flight,
    published: bool,
}

impl FlightPublisher<'_> {
    fn publish(&mut self, outcome: Response) {
        *self.flight.done.lock() = Some(outcome);
        self.flight.cv.notify_all();
        self.state.inflight.lock().remove(&self.key);
        self.published = true;
    }
}

impl Drop for FlightPublisher<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.state.errors.fetch_add(1, Ordering::Relaxed);
            self.publish((
                500,
                Arc::new(
                    "{\"error\":{\"status\":500,\"message\":\"request computation \
                     abandoned: the leading request panicked before publishing\"}}"
                        .to_string(),
                ),
            ));
        }
    }
}

/// Collapse byte-identical in-flight requests onto one computation: the
/// first arrival computes, later arrivals park and share the response —
/// the leader's body itself, behind an `Arc`, so publishing copies nothing
/// whether or not anyone follows.
fn single_flight(
    state: &ServerState,
    key: u128,
    compute: impl FnOnce() -> std::result::Result<(u16, String), HttpError>,
) -> std::result::Result<Response, HttpError> {
    let (flight, leader) = {
        let mut tbl = state.inflight.lock();
        match tbl.get(&key) {
            Some(f) => (Arc::clone(f), false),
            None => {
                let f = Arc::new(Flight::new());
                tbl.insert(key, Arc::clone(&f));
                (f, true)
            }
        }
    };
    if leader {
        let mut publisher = FlightPublisher {
            state,
            key,
            flight: &flight,
            published: false,
        };
        let outcome = compute().map(|(status, body)| (status, Arc::new(body)));
        let published = match &outcome {
            Ok(ok) => ok.clone(),
            Err(e) => (
                e.status,
                Arc::new(format!(
                    "{{\"error\":{{\"status\":{},\"message\":{}}}}}",
                    e.status,
                    http::json_escape(&e.message)
                )),
            ),
        };
        publisher.publish(published);
        outcome
    } else {
        state.batched.fetch_add(1, Ordering::Relaxed);
        let done = flight.done.lock();
        let done = flight.cv.wait_while(done, |d| d.is_none());
        let (status, body) = done
            .clone()
            .expect("wait_while guarantees a published result");
        Ok((status, body))
    }
}

// -------------------------------------------------------------- handlers

fn handle_stats(state: &ServerState) -> std::result::Result<(u16, String), HttpError> {
    let reg = serde_json::to_string(&state.registry.stats())
        .map_err(|e| HttpError::new(500, format!("stats serialization: {e}")))?;
    let cache = serde_json::to_string(&state.registry.aggregate_cache_stats())
        .map_err(|e| HttpError::new(500, format!("stats serialization: {e}")))?;
    let body = format!(
        "{{\"requests\":{},\"errors\":{},\"batched\":{},\"budget_bytes\":{},\"registry\":{reg},\"sweep_cache\":{cache}}}",
        state.requests.load(Ordering::Relaxed),
        state.errors.load(Ordering::Relaxed),
        state.batched.load(Ordering::Relaxed),
        state.cfg.budget_bytes,
    );
    Ok((200, body))
}

fn handle_list_traces(state: &ServerState) -> std::result::Result<(u16, String), HttpError> {
    let rows: Vec<String> = state
        .registry
        .list_traces()
        .into_iter()
        .map(|(addr, particles, samples, encoded, resident)| {
            format!(
                "{{\"address\":\"{addr}\",\"particles\":{particles},\"samples\":{samples},\
                 \"encoded_bytes\":{encoded},\"resident_bytes\":{resident}}}"
            )
        })
        .collect();
    Ok((200, format!("[{}]", rows.join(","))))
}

fn handle_ingest_trace(
    state: &ServerState,
    head: &http::Request,
    reader: &mut BufReader<TcpStream>,
) -> std::result::Result<(u16, String), HttpError> {
    let len = head
        .content_length
        .ok_or_else(|| HttpError::new(411, "Content-Length required for trace ingest"))?;
    if len == 0 {
        return Err(HttpError::new(400, "empty trace body"));
    }
    if len > state.cfg.max_body_bytes {
        return Err(HttpError::new(
            413,
            format!(
                "declared trace of {len} bytes exceeds the {} byte limit",
                state.cfg.max_body_bytes
            ),
        ));
    }
    // The hardened ingest stack: cap at the declaration, digest what the
    // decoder consumes, decode frame-by-frame. No full-body buffer exists
    // at any point.
    let bounded = BoundedReader::new(reader, len);
    let mut digesting = DigestReader::new(bounded);
    let decoded = TraceReader::new(&mut digesting).and_then(TraceReader::read_all);
    let trace = decoded.map_err(|e| match e {
        PicError::Io(ref io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            HttpError::new(
                408,
                format!("read deadline expired during trace ingest: {e}"),
            )
        }
        e => HttpError::new(422, format!("trace rejected: {e}")),
    })?;
    let consumed = digesting.bytes_read();
    if consumed != len {
        return Err(HttpError::new(
            400,
            format!("trace decoded cleanly at byte {consumed} but body declares {len} bytes"),
        ));
    }
    let address = digesting.digest().hex();
    let (resident, evicted) = state.registry.insert_trace(&address, trace, len);
    let evicted_json: Vec<String> = evicted.iter().map(|a| format!("\"{a}\"")).collect();
    let body = format!(
        "{{\"address\":\"{address}\",\"particles\":{},\"samples\":{},\"encoded_bytes\":{len},\
         \"evicted\":[{}]}}",
        resident.particle_count(),
        resident.sample_count(),
        evicted_json.join(",")
    );
    Ok((200, body))
}

fn handle_ingest_models(
    state: &ServerState,
    body: &[u8],
) -> std::result::Result<(u16, String), HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| HttpError::new(400, format!("models body is not UTF-8: {e}")))?;
    // from_json runs the full admission pass: corrupt or degenerate
    // models are rejected here with positioned diagnostics.
    let models = KernelModels::from_json(text)
        .map_err(|e| HttpError::new(422, format!("models rejected: {e}")))?;
    let mut digest = pic_types::hash::Fnv128::new();
    digest.update(body);
    let address = digest.hex();
    let resident = state.registry.insert_models(&address, models);
    let body = format!(
        "{{\"address\":\"{address}\",\"kernels\":{}}}",
        resident.models().len()
    );
    Ok((200, body))
}

/// A JSON endpoint's body: its fields and the [`Request`] they name. A
/// body that is not a JSON object, or that names a key the endpoint does
/// not take, names one twice or leaves out a required one, is a `400`
/// naming the key; a value the request refuses is a `422`.
fn parse_request(
    path: &str,
    body: &[u8],
) -> std::result::Result<(Vec<(String, Value)>, Request), HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| HttpError::new(400, format!("request body is not UTF-8: {e}")))?;
    let bad = |e: String| HttpError::new(400, format!("bad request JSON: {e}"));
    let Value::Map(fields) = serde_json::from_str(text).map_err(|e| bad(e.to_string()))? else {
        return Err(bad("expected an object".to_string()));
    };
    let given: Vec<_> = (fields.iter())
        .map(|(k, v)| (k.as_str(), Raw::Json(v)))
        .collect();
    request::admit(path, &given, Transport::Json)
        .map_err(|e| HttpError::new(400, e.to_string()))?;
    let request = Request::parse(path, |key| serde::find_key(&fields, key).map(Raw::Json))
        .map_err(semantic)?;
    Ok((fields, request))
}

/// The string `key` of an admitted body: a trace or model-set address.
fn address<'a>(
    fields: &'a [(String, Value)],
    key: &str,
) -> std::result::Result<&'a str, HttpError> {
    serde::find_key(fields, key)
        .and_then(Value::as_str)
        .ok_or_else(|| HttpError::new(400, format!("\"{key}\" must be a string")))
}

fn not_resident(address: &str) -> HttpError {
    HttpError::new(
        404,
        format!("trace {address} is not resident; POST /traces it first"),
    )
}

fn resolve_trace(
    state: &ServerState,
    address: &str,
) -> std::result::Result<(Arc<ParticleTrace>, Arc<pic_workload::AssignmentCache>), HttpError> {
    (state.registry.get_trace(address)).ok_or_else(|| not_resident(address))
}

fn semantic(e: PicError) -> HttpError {
    HttpError::new(422, format!("{e}"))
}

fn handle_sweep(state: &ServerState, body: &[u8]) -> std::result::Result<(u16, String), HttpError> {
    let (fields, req) = parse_request("/sweep", body)?;
    let address = address(&fields, "trace")?;
    let (trace, cache) = resolve_trace(state, address)?;
    let plan = match req.reduced {
        true => Some(reduction_plan(state, address, &trace, req.k)?),
        false => None,
    };
    let swept = req.sweep(&trace, Some(&cache), plan.as_deref());
    let (entries, _) = swept.map_err(|e| match e {
        // the holdout gate's message, which names the grid point, as it is
        PicError::ModelFit(message) if req.reduced => HttpError::new(422, message),
        PicError::ModelFit(_) => HttpError::new(500, format!("response failed validity gate: {e}")),
        e => semantic(e),
    })?;
    Ok((200, grid_to_json(&entries)))
}

/// The trace's reduction plan for `k` clusters (`None`: automatic), from
/// its registry entry's [`registry::PlanCache`] or built and cached there.
fn reduction_plan(
    state: &ServerState,
    address: &str,
    trace: &ParticleTrace,
    k: Option<usize>,
) -> std::result::Result<Arc<pic_workload::ReductionPlan>, HttpError> {
    let plans = state.registry.plan_cache(address);
    let plans = plans.ok_or_else(|| not_resident(address))?;
    let opts = crate::simpoint::SimpointOptions {
        k,
        ..crate::simpoint::SimpointOptions::default()
    };
    let key = registry::PlanKey {
        k: k.unwrap_or(0),
        k_max: opts.k_max,
        seed: opts.seed,
        bins_per_axis: opts.features.bins_per_axis,
    };
    // Built outside the plan-cache lock; a racing builder loses to the
    // first insert and adopts the resident plan (identical by
    // determinism, so only the work is duplicated).
    match plans.get(&key) {
        Some(plan) => Ok(plan),
        None => {
            let built = crate::simpoint::build_plan(trace, &opts).map_err(semantic)?;
            Ok(plans.insert(key, built))
        }
    }
}

fn handle_predict(
    state: &ServerState,
    body: &[u8],
) -> std::result::Result<(u16, String), HttpError> {
    let (fields, req) = parse_request("/predict", body)?;
    let (trace, cache) = resolve_trace(state, address(&fields, "trace")?)?;
    let models = address(&fields, "models")?;
    let models = state.registry.get_models(models).ok_or_else(|| {
        HttpError::new(
            404,
            format!("models {models} are not resident; POST /models them first"),
        )
    })?;
    // Through the trace's assignment cache: the same bits as offline, and
    // the artifacts are shared with every other request.
    let prediction =
        crate::predict(&trace, &models, &req.specs()[0], Some(&cache)).map_err(|e| match e {
            // only the two response gates report through this variant
            PicError::ModelFit(_) => {
                HttpError::new(500, format!("response failed validity gate: {e}"))
            }
            e => semantic(e),
        })?;
    Ok((200, prediction.to_string()))
}

fn handle_check(state: &ServerState, body: &[u8]) -> std::result::Result<(u16, String), HttpError> {
    let (fields, req) = parse_request("/check", body)?;
    let (trace, cache) = resolve_trace(state, address(&fields, "trace")?)?;
    let mesh = req.element_mesh(trace.meta().domain).map_err(semantic)?;
    let opts = ReplayOptions::new(mesh.as_ref(), Some(&cache), None);
    let (mut workloads, _) =
        pic_workload::replay(&trace, &req.grid.points(), &opts).map_err(semantic)?;
    let workload = workloads.remove(0);
    let violations = pic_analysis::check_workload(&workload, Some(trace.particle_count() as u64));
    let rendered: Vec<String> = violations
        .iter()
        .map(|v| http::json_escape(&v.to_string()))
        .collect();
    let body = format!(
        "{{\"ok\":{},\"ranks\":{},\"samples\":{},\"violations\":[{}]}}",
        violations.is_empty(),
        workload.ranks,
        workload.samples(),
        rendered.join(",")
    );
    Ok((200, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three-phase synthetic trace (clouds parked in distinct corners,
    /// jittered) — the clustering-friendly shape the simpoint unit tests
    /// use, small enough for a handler-level test.
    fn phased_trace(np: usize, per_phase: usize) -> ParticleTrace {
        use pic_types::rng::SplitMix64;
        use pic_types::Vec3;
        let centers = [
            Vec3::new(0.3, 0.3, 0.3),
            Vec3::new(0.7, 0.3, 0.3),
            Vec3::new(0.3, 0.7, 0.7),
        ];
        let meta = pic_trace::TraceMeta::new(np, 10, pic_types::Aabb::unit(), "serve-reduced");
        let mut tr = ParticleTrace::new(meta);
        let mut rng = SplitMix64::new(3);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        for c in centers {
            for _ in 0..per_phase {
                let positions: Vec<Vec3> = dirs
                    .iter()
                    .map(|d| {
                        let jitter = Vec3::new(
                            rng.next_range(-0.01, 0.01),
                            rng.next_range(-0.01, 0.01),
                            rng.next_range(-0.01, 0.01),
                        );
                        (c + *d * 0.05 + jitter).clamp(Vec3::ZERO, Vec3::ONE)
                    })
                    .collect();
                tr.push_positions(positions).unwrap();
            }
        }
        tr
    }

    /// `"reduced": true` sweeps replay representatives, pass the holdout
    /// gate, and cache the plan in the trace's registry entry — a repeat
    /// request reuses the resident plan instead of re-clustering.
    #[test]
    fn reduced_sweep_serves_and_caches_plan() {
        let state = ServerState::new(ServeConfig::default());
        state.registry.insert_trace("tt", phased_trace(80, 6), 1);
        let body =
            br#"{"trace":"tt","ranks":[8],"reduced":true,"reduced_k":3,"reduced_budget":1.0}"#;
        let (status, resp) = handle_sweep(&state, body).unwrap();
        assert_eq!(status, 200, "{resp}");
        let plans = state.registry.plan_cache("tt").unwrap();
        assert_eq!(plans.len(), 1);
        // repeat: same knobs land on the cached plan, not a second entry
        let (status, _) = handle_sweep(&state, body).unwrap();
        assert_eq!(status, 200);
        assert_eq!(plans.len(), 1);
        // the cached plan weighs into the entry's LRU bytes
        assert!(plans.resident_bytes() > 0);
        pic_types::sync::assert_witness_clean();
    }

    /// Strided reduced requests are refused up front: the one-step
    /// migration proxy is unguarded beyond stride 1, so the serve layer
    /// does not offer it.
    #[test]
    fn reduced_sweep_rejects_strides() {
        let state = ServerState::new(ServeConfig::default());
        state.registry.insert_trace("tt", phased_trace(40, 4), 1);
        let body =
            br#"{"trace":"tt","ranks":[8],"strides":[1,2],"reduced":true,"reduced_budget":1.0}"#;
        let err = handle_sweep(&state, body).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("stride 1"), "{}", err.message);
        pic_types::sync::assert_witness_clean();
    }

    /// Stride 0 is refused by the replay engine, naming the value, on the
    /// full and the reduced path alike.
    #[test]
    fn sweep_refuses_stride_zero_on_both_paths() {
        let state = ServerState::new(ServeConfig::default());
        state.registry.insert_trace("tt", phased_trace(40, 4), 1);
        for reduced in [false, true] {
            let body = format!(
                r#"{{"trace":"tt","ranks":[8],"strides":[0],"reduced":{reduced},"reduced_k":2}}"#
            );
            let err = handle_sweep(&state, body.as_bytes()).unwrap_err();
            assert_eq!(err.status, 422, "reduced={reduced}: {}", err.message);
            assert!(
                err.message.contains("stride must be positive, got 0"),
                "reduced={reduced}: {}",
                err.message
            );
        }
        pic_types::sync::assert_witness_clean();
    }

    /// An impossible budget turns into a 422 naming the failing grid
    /// point — the reduced path never ships an unguarded reconstruction.
    #[test]
    fn reduced_sweep_budget_breach_is_422() {
        let state = ServerState::new(ServeConfig::default());
        state.registry.insert_trace("tt", phased_trace(80, 6), 1);
        // K=1 on a three-phase trace cannot reconstruct peaks exactly;
        // a zero budget requires exactly that.
        let body =
            br#"{"trace":"tt","ranks":[8],"reduced":true,"reduced_k":1,"reduced_budget":0.0}"#;
        let err = handle_sweep(&state, body).unwrap_err();
        assert_eq!(err.status, 422, "{}", err.message);
        assert!(err.message.contains("error-budget"), "{}", err.message);
        pic_types::sync::assert_witness_clean();
    }

    /// A panicking leader must not strand its followers: the drop guard
    /// publishes a 500, wakes every parked follower, and clears the
    /// inflight table. Mirrors the `sf-no-abandonment-guard` mutant in
    /// the pic-analysis model, on the real primitives.
    #[test]
    fn abandoned_leader_unparks_followers_with_500() {
        let state = Arc::new(ServerState::new(ServeConfig::default()));
        let key = 42u128;

        let leader_state = Arc::clone(&state);
        let leader = std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                single_flight(&leader_state, key, || {
                    // Hold the flight open until a follower has joined,
                    // so the follower deterministically parks on an
                    // unpublished slot.
                    while leader_state.batched.load(Ordering::Relaxed) == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    panic!("leader dies mid-compute");
                })
            }));
            assert!(result.is_err(), "leader must observe its own panic");
        });

        // Wait for the flight to be registered before joining as follower.
        while state.inflight.lock().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let follower_state = Arc::clone(&state);
        let follower = std::thread::spawn(move || {
            single_flight(&follower_state, key, || {
                panic!("follower must never be elected while the flight is registered")
            })
        });

        let (status, body) = follower.join().unwrap().unwrap();
        assert_eq!(status, 500);
        assert!(body.contains("abandoned"), "{body}");
        leader.join().unwrap();

        // The abandonment counted as an error and the table is clean.
        assert_eq!(state.counters().1, 1);
        assert!(state.inflight.lock().is_empty());
        pic_types::sync::assert_witness_clean();
    }

    /// After an abandonment the key is no longer in flight: the next
    /// request for the same bytes elects a fresh leader and computes.
    #[test]
    fn fresh_leader_after_abandonment() {
        let state = Arc::new(ServerState::new(ServeConfig::default()));
        let key = 7u128;
        let panicking = Arc::clone(&state);
        std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                single_flight(&panicking, key, || panic!("first leader dies"))
            }));
        })
        .join()
        .unwrap();
        assert!(state.inflight.lock().is_empty());

        let (status, body) =
            single_flight(&state, key, || Ok((200, "\"recomputed\"".to_string()))).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.as_str(), "\"recomputed\"");
        pic_types::sync::assert_witness_clean();
    }

    /// The ordinary path: one leader computes, a follower shares the
    /// response — the leader's own allocation, not a copy — and is counted
    /// as batched.
    #[test]
    fn follower_shares_leader_response() {
        let state = Arc::new(ServerState::new(ServeConfig::default()));
        let key = 9u128;
        let leader_state = Arc::clone(&state);
        let leader = std::thread::spawn(move || {
            single_flight(&leader_state, key, || {
                while leader_state.batched.load(Ordering::Relaxed) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok((200, "\"shared\"".to_string()))
            })
        });
        while state.inflight.lock().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let follower_state = Arc::clone(&state);
        let follower = std::thread::spawn(move || {
            single_flight(&follower_state, key, || unreachable!("must batch"))
        });
        let (status, followed) = follower.join().unwrap().unwrap();
        assert_eq!((status, followed.as_str()), (200, "\"shared\""));
        let (status, led) = leader.join().unwrap().unwrap();
        assert_eq!((status, led.as_str()), (200, "\"shared\""));
        assert!(Arc::ptr_eq(&followed, &led), "the follower got a copy");
        assert_eq!(state.counters().2, 1);
        pic_types::sync::assert_witness_clean();
    }
}
