//! `picpredict serve` — the resident prediction service (DESIGN.md §13–14).
//!
//! A long-lived daemon that keeps ingested traces resident in a
//! content-addressed [`registry::TraceRegistry`] and answers
//! sweep/predict/check requests against them over hand-rolled HTTP/1.1 +
//! JSON (`std::net` only; the workspace is offline):
//!
//! * **Ingest once, replay many.** `POST /traces` streams the body through
//!   [`Read::take`] at the declared length → a digesting reader →
//!   [`pic_trace::TraceReader`]: the trace, raw or compact, is decoded once
//!   and addressed by the FNV-1a-128 digest of the bytes the decoder
//!   consumed, and the registry charges each entry its resident bytes.
//! * **One answer.** `/sweep`, `/predict` and `/check` are one handler. The
//!   body is admitted and parsed into a [`Request`] by the key list and
//!   field table the CLI's flags go through (an unknown, repeated or missing
//!   key is a `400`, a value the request refuses a `422`); then
//!   [`request::answer`], the call the CLI makes, runs it on the trace's
//!   shared [`pic_workload::AssignmentCache`] — and for `"reduced": true` on
//!   the plan its [`registry::PlanCache`] keeps — and the answer is rendered
//!   as JSON: byte for byte what `picpredict sweep --out` writes and
//!   `picpredict predict` prints. A response gate that fails is a `500`.
//! * **Adversarial clients survive.** Framing is bounded and deadlined (see
//!   [`http`]); a JSON body nested past `serde_json::MAX_DEPTH` is a `400`,
//!   not a stack overflow; the pic-trace fault corpus replayed over a socket
//!   yields positioned 4xx responses, never a panic or a hung thread.
//! * **Overload is shed, not spawned.** One acceptor thread hands sockets to
//!   [`WORKERS`] worker threads through a queue of [`QUEUE_DEPTH`]; a socket
//!   that finds the queue full is answered `429` with `Retry-After`. A
//!   handler that panics answers `500` and its worker serves on. Shutdown
//!   wakes the acceptor, whose exit drops the queue's sender; the workers
//!   answer what is queued, and every thread is joined.

pub mod http;
pub mod registry;

use crate::kernel_models::KernelModels;
use crate::request::{self, Raw, Request, Resident, Transport};
use crate::simpoint::SimpointOptions;
use http::HttpError;
use pic_trace::{ParticleTrace, TraceReader};
use pic_types::hash::Fnv128;
use pic_types::sync::Mutex;
use pic_types::{PicError, Result};
use registry::TraceRegistry;
use serde::Value;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Threads that serve connections (the acceptor is one more).
pub const WORKERS: usize = 4;

/// Accepted connections waiting for a worker; the acceptor answers the
/// next one `429`.
pub const QUEUE_DEPTH: usize = 32;

/// How long the acceptor may spend on a connection it refuses: on writing
/// the `429`, and again on draining what the client sent.
const REFUSE_LINGER: Duration = Duration::from_millis(20);

/// How long a worker drains a connection it answered with an error.
const ERROR_LINGER: Duration = Duration::from_millis(150);

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

/// A response: status and body. The handler's body is written to the
/// socket as it is, never copied.
type Response = (u16, String);

/// Shared server state. `Send + Sync`: the registry is mutex-guarded,
/// counters and the shutdown flag are atomics, the bound address is fixed
/// before the state is shared, and request handlers only hold `Arc`s into
/// registry entries while computing.
struct ServerState {
    cfg: ServeConfig,
    registry: TraceRegistry,
    requests: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl ServerState {
    fn new(cfg: ServeConfig, addr: SocketAddr) -> ServerState {
        ServerState {
            registry: TraceRegistry::new(cfg.budget_bytes),
            cfg,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            addr,
        }
    }

    /// Set the shutdown flag and wake the acceptor out of its blocking
    /// `accept` with a connection of our own; it sees the flag and exits.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        }
    }
}

/// A running server: one acceptor thread and [`WORKERS`] worker threads.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    /// Every thread the server started; empty once they are joined.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns as soon as the listener is live.
    pub fn start(cfg: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| PicError::config(format!("cannot bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PicError::config(format!("cannot resolve bound address: {e}")))?;
        let mut server = Server {
            addr,
            state: Arc::new(ServerState::new(cfg, addr)),
            threads: Vec::with_capacity(WORKERS + 1),
        };
        // The acceptor first: it owns the sender, so if a worker cannot
        // start, dropping `server` stops the acceptor and the started
        // workers see the queue disconnect.
        let (sender, receiver) = mpsc::sync_channel(QUEUE_DEPTH);
        let state = Arc::clone(&server.state);
        server.spawn(move || accept(&listener, &state, sender))?;
        let queue = Arc::new(Mutex::new(receiver));
        for _ in 0..WORKERS {
            let (queue, state) = (Arc::clone(&queue), Arc::clone(&server.state));
            server.spawn(move || {
                work(&queue, &state.errors, |stream| {
                    handle_connection(&state, stream)
                })
            })?;
        }
        Ok(server)
    }

    /// Start one of the server's threads, named after its port.
    fn spawn(&mut self, body: impl FnOnce() + Send + 'static) -> Result<()> {
        let name = format!("pic-serve:{}", self.addr.port());
        let thread = (std::thread::Builder::new().name(name).spawn(body))
            .map_err(|e| PicError::config(format!("cannot start a serve thread: {e}")))?;
        self.threads.push(thread);
        Ok(())
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until `POST /shutdown` arrives, then answer what is queued and
    /// join every thread.
    pub fn run_to_completion(mut self) {
        self.join();
    }

    /// Stop accepting, answer what is queued and join every thread.
    pub fn shutdown(mut self) {
        self.state.begin_shutdown();
        self.join();
    }

    fn join(&mut self) {
        for thread in self.threads.drain(..) {
            // Neither loop can panic: a worker catches its handler's panics.
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.state.begin_shutdown();
        self.join();
    }
}

// ------------------------------------------------------------ threads

/// The acceptor: queue each connection for a worker, or refuse it when the
/// queue is full, until the shutdown flag is set. Returning drops
/// `queue`'s sender, which ends the workers once they have drained it.
fn accept(listener: &TcpListener, state: &ServerState, queue: SyncSender<TcpStream>) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if let Err(TrySendError::Full(mut stream)) = queue.try_send(stream) {
            state.errors.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_write_timeout(Some(REFUSE_LINGER));
            let busy = format!("{WORKERS} workers are busy and {QUEUE_DEPTH} connections wait");
            http::write_error(&mut stream, &HttpError::new(429, busy));
            lingering_close(&stream, REFUSE_LINGER);
        }
    }
}

/// A worker: serve queued connections until the queue is empty and its
/// sender is gone. A panicking `handle` answers `500` and counts in
/// `errors`, and the worker goes on to the next connection, so the pool
/// never shrinks.
fn work(queue: &Mutex<Receiver<TcpStream>>, errors: &AtomicU64, handle: impl Fn(TcpStream)) {
    loop {
        let next = queue.lock().recv();
        let Ok(stream) = next else { return };
        let reply = stream.try_clone();
        if catch_unwind(AssertUnwindSafe(|| handle(stream))).is_err() {
            errors.fetch_add(1, Ordering::Relaxed);
            if let Ok(mut reply) = reply {
                let panicked = HttpError::new(500, "the request handler panicked");
                http::write_error(&mut reply, &panicked);
                lingering_close(&reply, ERROR_LINGER);
            }
        }
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
            lingering_close(reader.get_ref(), ERROR_LINGER);
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
            lingering_close(reader.get_ref(), ERROR_LINGER);
        }
    }
}

/// Drain, for at most `linger` and 1 MiB, whatever request bytes the
/// client sent before dropping a connection answered early. Closing with
/// unread data in the receive buffer makes the kernel send RST, which can
/// destroy the response before the client reads it.
fn lingering_close(mut stream: &TcpStream, linger: Duration) {
    let deadline = Instant::now() + linger;
    let mut scratch = [0u8; 16 * 1024];
    let mut drained = 0usize;
    while drained < 1 << 20 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut scratch) {
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
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => Ok((200, "{\"ok\":true}".to_string())),
        ("GET", "/stats") => handle_stats(state),
        ("GET", "/traces") => handle_list_traces(state),
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            Ok((200, "{\"ok\":true,\"shutting_down\":true}".to_string()))
        }
        ("POST", "/traces") => handle_ingest_trace(state, head, reader),
        ("POST", "/models") => handle_ingest_models(state, &read_json_body(state, head, reader)?),
        ("POST", path @ ("/sweep" | "/predict" | "/check")) => {
            handle(state, path, &read_json_body(state, head, reader)?)
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
    }
}

/// The declared length of a request body holding a `what`, within the
/// server's limit.
fn declared_length(
    state: &ServerState,
    head: &http::Request,
    what: &str,
) -> std::result::Result<u64, HttpError> {
    let len = (head.content_length)
        .ok_or_else(|| HttpError::new(411, format!("Content-Length required for a {what}")))?;
    let max = state.cfg.max_body_bytes;
    if len > max {
        let message = format!("declared {what} of {len} bytes exceeds the {max} byte limit");
        return Err(HttpError::new(413, message));
    }
    Ok(len)
}

fn read_json_body(
    state: &ServerState,
    head: &http::Request,
    reader: &mut BufReader<TcpStream>,
) -> std::result::Result<Vec<u8>, HttpError> {
    http::read_body(reader, declared_length(state, head, "body")?)
}

// -------------------------------------------------------------- handlers

fn handle_stats(state: &ServerState) -> std::result::Result<Response, HttpError> {
    let failed = |e: serde_json::Error| HttpError::new(500, format!("stats serialization: {e}"));
    let reg = serde_json::to_string(&state.registry.stats()).map_err(failed)?;
    let cache = serde_json::to_string(&state.registry.aggregate_cache_stats()).map_err(failed)?;
    let body = format!(
        "{{\"requests\":{},\"errors\":{},\"budget_bytes\":{},\"registry\":{reg},\"sweep_cache\":{cache}}}",
        state.requests.load(Ordering::Relaxed),
        state.errors.load(Ordering::Relaxed),
        state.cfg.budget_bytes,
    );
    Ok((200, body))
}

fn handle_list_traces(state: &ServerState) -> std::result::Result<Response, HttpError> {
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
) -> std::result::Result<Response, HttpError> {
    let len = declared_length(state, head, "trace")?;
    if len == 0 {
        return Err(HttpError::new(400, "empty trace body"));
    }
    // The hardened ingest stack: cap at the declaration, digest what the
    // decoder consumes, decode frame-by-frame. No full-body buffer exists
    // at any point.
    let mut digesting = DigestReader::new(reader.take(len));
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

/// A reader that feeds every byte it passes through into an incremental
/// 128-bit FNV-1a digest: after the decoder finishes, [`DigestReader::digest`]
/// is the content address of precisely the bytes it consumed.
struct DigestReader<R> {
    inner: R,
    digest: Fnv128,
}

impl<R: Read> DigestReader<R> {
    fn new(inner: R) -> DigestReader<R> {
        DigestReader {
            inner,
            digest: Fnv128::new(),
        }
    }

    /// The digest state over all bytes read so far.
    fn digest(&self) -> &Fnv128 {
        &self.digest
    }

    /// Bytes read so far.
    fn bytes_read(&self) -> u64 {
        self.digest.len()
    }
}

impl<R: Read> Read for DigestReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }
}

fn handle_ingest_models(
    state: &ServerState,
    body: &[u8],
) -> std::result::Result<Response, HttpError> {
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

fn semantic(e: PicError) -> HttpError {
    HttpError::new(422, format!("{e}"))
}

/// `/sweep`, `/predict` and `/check`: the body's [`Request`], answered
/// ([`request::answer`]) against the resident trace, its assignment cache,
/// the models the body names and, for a reduced sweep, the trace's
/// reduction plan, and rendered as JSON. A resource not resident is a
/// `404`; a response gate that fails is a `500`, and every other refusal —
/// a reduced sweep's holdout-budget breach among them — a `422`.
fn handle(
    state: &ServerState,
    path: &str,
    body: &[u8],
) -> std::result::Result<Response, HttpError> {
    let (fields, req) = parse_request(path, body)?;
    let at = address(&fields, "trace")?;
    let (trace, cache) = (state.registry.get_trace(at)).ok_or_else(|| not_resident(at))?;
    let models = match serde::find_key(&fields, "models") {
        Some(_) => Some(resident_models(state, address(&fields, "models")?)?),
        None => None,
    };
    let plan = match req.reduced {
        true => Some(reduction_plan(state, at, &trace, req.k)?),
        false => None,
    };
    let resident = Resident {
        trace: &trace,
        models: models.as_deref(),
        cache: Some(&cache),
        plan: plan.as_deref(),
        holdout: None,
    };
    let answer = request::answer(path, &req, &resident).map_err(|e| match e {
        PicError::ModelFit(_) if !req.reduced => {
            HttpError::new(500, format!("response failed validity gate: {e}"))
        }
        e => semantic(e),
    })?;
    Ok((200, answer.to_json()))
}

fn resident_models(
    state: &ServerState,
    address: &str,
) -> std::result::Result<Arc<KernelModels>, HttpError> {
    state.registry.get_models(address).ok_or_else(|| {
        let message = format!("models {address} are not resident; POST /models them first");
        HttpError::new(404, message)
    })
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
    // Built outside the plan-cache lock; a racing builder loses to the
    // first insert and adopts the resident plan (identical by
    // determinism, so only the work is duplicated).
    match plans.get(k) {
        Some(plan) => Ok(plan),
        None => {
            let opts = SimpointOptions {
                k,
                ..SimpointOptions::default()
            };
            let built = crate::simpoint::build_plan(trace, &opts).map_err(semantic)?;
            Ok(plans.insert(k, built))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_trace::codec::{encode_trace, Precision};

    fn fnv1a_128(bytes: &[u8]) -> u128 {
        let mut d = Fnv128::new();
        d.update(bytes);
        d.digest()
    }

    fn state() -> ServerState {
        ServerState::new(
            ServeConfig::default(),
            SocketAddr::from(([127, 0, 0, 1], 0)),
        )
    }

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

    fn sample_trace() -> ParticleTrace {
        let meta = pic_trace::TraceMeta::new(3, 10, pic_types::Aabb::unit(), "bounded-test");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..4 {
            let s = 0.1 * (k + 1) as f64;
            tr.push_positions(vec![pic_types::Vec3::splat(s); 3])
                .unwrap();
        }
        tr
    }

    #[test]
    fn digest_reader_addresses_exactly_the_consumed_bytes() {
        let bytes = encode_trace(&sample_trace(), Precision::F32).unwrap();
        let mut digesting = DigestReader::new(&bytes[..]);
        let mut out = Vec::new();
        digesting.read_to_end(&mut out).unwrap();
        assert_eq!(out, bytes);
        assert_eq!(digesting.digest().digest(), fnv1a_128(&bytes));
        assert_eq!(digesting.bytes_read(), bytes.len() as u64);
    }

    #[test]
    fn stacked_adapters_digest_only_admitted_bytes() {
        let bytes = encode_trace(&sample_trace(), Precision::F64).unwrap();
        let cap = bytes.len() as u64; // exact-length body, the serve case
        let bounded = (&bytes[..]).take(cap);
        let mut digesting = DigestReader::new(bounded);
        let mut reader = TraceReader::new(&mut digesting).unwrap();
        let mut frames = 0;
        while reader.read_sample().unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(frames, 4);
        assert_eq!(digesting.digest().digest(), fnv1a_128(&bytes));
    }

    /// `"reduced": true` sweeps replay representatives, pass the holdout
    /// gate, and cache the plan in the trace's registry entry — a repeat
    /// request reuses the resident plan instead of re-clustering.
    #[test]
    fn reduced_sweep_serves_and_caches_plan() {
        let state = state();
        state.registry.insert_trace("tt", phased_trace(80, 6), 1);
        let body =
            br#"{"trace":"tt","ranks":[8],"reduced":true,"reduced_k":3,"reduced_budget":1.0}"#;
        let (status, resp) = handle(&state, "/sweep", body).unwrap();
        assert_eq!(status, 200, "{resp}");
        let plans = state.registry.plan_cache("tt").unwrap();
        let plan = plans
            .get(Some(3))
            .expect("the plan of 3 clusters is cached");
        // the cached plan weighs into the entry's LRU bytes
        let bytes = plans.resident_bytes();
        assert!(bytes > 0);
        // repeat: same knobs land on the cached plan, not a second entry
        let (status, _) = handle(&state, "/sweep", body).unwrap();
        assert_eq!(status, 200);
        assert!(Arc::ptr_eq(&plans.get(Some(3)).unwrap(), &plan));
        assert_eq!(plans.resident_bytes(), bytes);
    }

    /// A handler that panics costs its client a `500`, not the worker: the
    /// same worker serves the next connection, and the loop ends only when
    /// the queue disconnects. (Before the pool, a panicking handler skipped
    /// the connection count it owed shutdown, and every later shutdown
    /// waited out a 10 s drain.)
    #[test]
    fn a_panicking_handler_answers_500_and_its_worker_serves_on() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (sender, receiver) = mpsc::sync_channel(2);
        let queue = Mutex::new(receiver);
        let errors = AtomicU64::new(0);
        let served = std::sync::Mutex::new(Vec::new());
        let handle = |mut stream: TcpStream| {
            let mut served = served.lock().unwrap();
            served.push(std::thread::current().id());
            if served.len() == 1 {
                drop(served);
                panic!("the first connection's handler panics");
            }
            http::write_response(&mut stream, 200, "application/json", b"{}");
        };
        let answer = |client: &mut TcpStream| {
            let mut text = String::new();
            client.read_to_string(&mut text).unwrap();
            text.split(' ').nth(1).unwrap().parse::<u16>().unwrap()
        };
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| work(&queue, &errors, handle));
            for want in [500, 200] {
                let mut client = TcpStream::connect(addr).unwrap();
                sender.send(listener.accept().unwrap().0).unwrap();
                assert_eq!(answer(&mut client), want);
            }
            drop(sender);
            worker.join().unwrap();
        });
        assert_eq!(errors.into_inner(), 1);
        let served = served.into_inner().unwrap();
        assert_eq!(served.len(), 2);
        assert_eq!(
            served[0], served[1],
            "a second worker served the next connection"
        );
    }

    /// Strided reduced requests are refused up front: the one-step
    /// migration proxy is unguarded beyond stride 1, so the serve layer
    /// does not offer it.
    #[test]
    fn reduced_sweep_rejects_strides() {
        let state = state();
        state.registry.insert_trace("tt", phased_trace(40, 4), 1);
        let body =
            br#"{"trace":"tt","ranks":[8],"strides":[1,2],"reduced":true,"reduced_budget":1.0}"#;
        let err = handle(&state, "/sweep", body).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("stride 1"), "{}", err.message);
    }

    /// Stride 0 is refused by the replay engine, naming the value, on the
    /// full and the reduced path alike.
    #[test]
    fn sweep_refuses_stride_zero_on_both_paths() {
        let state = state();
        state.registry.insert_trace("tt", phased_trace(40, 4), 1);
        for reduced in [false, true] {
            let body = format!(
                r#"{{"trace":"tt","ranks":[8],"strides":[0],"reduced":{reduced},"reduced_k":2}}"#
            );
            let err = handle(&state, "/sweep", body.as_bytes()).unwrap_err();
            assert_eq!(err.status, 422, "reduced={reduced}: {}", err.message);
            assert!(
                err.message.contains("stride must be positive, got 0"),
                "reduced={reduced}: {}",
                err.message
            );
        }
    }

    /// An impossible budget turns into a 422 naming the failing grid
    /// point — the reduced path never ships an unguarded reconstruction.
    #[test]
    fn reduced_sweep_budget_breach_is_422() {
        let state = state();
        state.registry.insert_trace("tt", phased_trace(80, 6), 1);
        // K=1 on a three-phase trace cannot reconstruct peaks exactly;
        // a zero budget requires exactly that.
        let body =
            br#"{"trace":"tt","ranks":[8],"reduced":true,"reduced_k":1,"reduced_budget":0.0}"#;
        let err = handle(&state, "/sweep", body).unwrap_err();
        assert_eq!(err.status, 422, "{}", err.message);
        assert!(err.message.contains("error-budget"), "{}", err.message);
    }
}
