//! `serve-closed2`: the prediction path through the resident service.
//!
//! An in-process `Server::start` on `127.0.0.1:0`, the `heleshaw` stride-6
//! trace and the kernel models ingested over the wire, then a closed loop
//! of two client threads (`Connection: close`, next request only after the
//! previous reply): 70 % `/sweep` from 8 fixed 4-point bodies (assignment
//! cache hits), 10 % `/sweep` with a never-seen filter (assignment-cache
//! miss), 20 % `/predict`. One operation is one request.
//!
//! The loop runs in rounds of 2 x 150 requests, each against a fresh
//! server. Every miss leaves an entry in the server's assignment cache, so
//! a server that lived for the whole window would hold the more memory the
//! faster it answered; a round holds at most its own misses.

use crate::calls;
use crate::inputs;
use crate::report::{field, parse_json, Tally};
use crate::spans::Recorder;
use crate::workloads::Ctx;
use pic_des::SyncMode;
use pic_mapping::MappingAlgorithm;
use pic_types::hash::fnv1a_64;
use pic_types::rng::SplitMix64;
use pic_types::{PicError, Result};
use pic_workload::DynamicWorkload;
use serde::{Deserialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const STRIDE: usize = 6;
pub const CLIENTS: usize = 2;
/// Requests of one client in one round.
const ROUND_REQUESTS: usize = 150;

/// Span names of the three request classes (client-side clocks).
pub const HIT: &str = "serve.sweep_hit";
pub const MISS: &str = "serve.sweep_miss";
pub const PREDICT: &str = "serve.predict";

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::result::Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).map_err(io)?;
    s.write_all(body).map_err(io)?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).map_err(io)?;
    let text = String::from_utf8_lossy(&resp);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header terminator"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// POST and require a 2xx; the body is the answer.
fn post_ok(addr: SocketAddr, path: &str, body: &[u8]) -> std::result::Result<String, String> {
    match http(addr, "POST", path, body)? {
        (200..=299, resp) => Ok(resp),
        (status, resp) => Err(format!("POST {path}: status {status}: {:.200}", resp)),
    }
}

fn harness(e: String) -> PicError {
    PicError::config(e)
}

fn json_str(v: &Value, key: &str) -> Result<String> {
    field(v, key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| harness(format!("response has no \"{key}\"")))
}

/// Ingest a trace file; returns its content address.
fn ingest_trace(addr: SocketAddr, path: &std::path::Path) -> Result<String> {
    let bytes = std::fs::read(path).map_err(|e| harness(format!("{}: {e}", path.display())))?;
    let resp = post_ok(addr, "/traces", &bytes).map_err(harness)?;
    json_str(&parse_json(&resp).map_err(harness)?, "address")
}

/// The text of `"predicted_seconds":<text>` in a `/predict` response. The
/// rest of that response carries the DES's own wall clock and differs
/// between identical requests.
pub fn predicted_seconds_text(resp: &str) -> std::result::Result<String, String> {
    let key = "\"predicted_seconds\":";
    let at = resp
        .find(key)
        .ok_or("no predicted_seconds in /predict response")?
        + key.len();
    let rest = &resp[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Ok(rest[..end].to_string())
}

/// One request of the mix.
#[derive(Clone)]
pub struct RequestSpec {
    pub class: &'static str,
    pub path: &'static str,
    pub body: String,
    /// Particle-sample-points the answer covers.
    pub psamples: u64,
}

/// The fixed part of the traffic: 8 four-point `/sweep` bodies (2 mappings
/// x 2 filters at one rank count each) and one `/predict` body.
pub struct Mix {
    pub hits: Vec<RequestSpec>,
    pub predict: RequestSpec,
    trace: String,
    point_psamples: u64,
    next_miss: AtomicU64,
}

impl Mix {
    fn new(trace: &str, models: &str, point_psamples: u64) -> Mix {
        let mut hits = Vec::new();
        for ranks in [64, 128, 256, 512] {
            for filters in ["0.01,0.02", "0.03,0.04"] {
                hits.push(RequestSpec {
                    class: HIT,
                    path: "/sweep",
                    body: format!(
                        "{{\"trace\":\"{trace}\",\"ranks\":[{ranks}],\"mappings\":[\"bin-based\",\"element-based\"],\
                         \"filters\":[{filters}],\"mesh\":\"8x8x8\",\"order\":3}}"
                    ),
                    psamples: 4 * point_psamples,
                });
            }
        }
        let predict = RequestSpec {
            class: PREDICT,
            path: "/predict",
            body: format!(
                "{{\"trace\":\"{trace}\",\"models\":\"{models}\",\"ranks\":256,\"filters\":[0.02],\
                 \"machine\":\"quartz\",\"sync\":\"barrier\"}}"
            ),
            psamples: point_psamples,
        };
        Mix {
            hits,
            predict,
            trace: trace.to_string(),
            point_psamples,
            next_miss: AtomicU64::new(0),
        }
    }

    /// A one-point bin-based `/sweep` whose filter no request has used, so
    /// its assignment is not in the cache.
    fn miss(&self) -> RequestSpec {
        let n = self.next_miss.fetch_add(1, Ordering::Relaxed);
        let filter = 0.0201 + n as f64 * 1e-6;
        RequestSpec {
            class: MISS,
            path: "/sweep",
            body: format!(
                "{{\"trace\":\"{}\",\"ranks\":[128],\"filters\":[{filter}]}}",
                self.trace
            ),
            psamples: self.point_psamples,
        }
    }

    /// Draw the next request: 70 % hit, 10 % miss, 20 % predict.
    fn draw(&self, rng: &mut SplitMix64) -> RequestSpec {
        match rng.next_below(10) {
            0..=6 => self.hits[rng.next_below(self.hits.len() as u64) as usize].clone(),
            7 => self.miss(),
            _ => self.predict.clone(),
        }
    }
}

/// Send one request and account for it: a non-2xx or a response that
/// differs from the first one to the same body is a failed operation.
/// Returns the request's seconds and whether it succeeded.
pub fn send(
    addr: SocketAddr,
    spec: &RequestSpec,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> (f64, bool) {
    let t = Instant::now();
    let resp = rec.span(spec.class, |_| {
        post_ok(addr, spec.path, spec.body.as_bytes())
    });
    let seconds = t.elapsed().as_secs_f64();
    let answer = resp.and_then(|r| {
        if spec.path == "/predict" {
            predicted_seconds_text(&r)
        } else {
            Ok(format!("{:016x}", fnv1a_64(r.as_bytes())))
        }
    });
    (seconds, tally.record(&spec.body, answer))
}

/// What the closed loop measured, summed over rounds.
#[derive(Default)]
pub struct LoopResult {
    pub seconds: Vec<f64>,
    pub psamples: u64,
    pub window_s: f64,
    /// Start plus ingest of the first round's server.
    pub ingest_s: f64,
    /// `GET /stats` of each round's server when its round ended.
    pub errors: u64,
    pub batched: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Closed-loop rounds until `seconds` of them have passed: each round
/// starts a server, answers every fixed body once (untimed) and sends
/// `ROUND_REQUESTS` requests per client. A round is never cut short, so
/// the peak resident set does not depend on how many requests fit the
/// window. Every round draws its misses from the same sequence of
/// filters; the request order differs from round to round.
pub fn rounds(
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<LoopResult> {
    let mut total = LoopResult::default();
    let mut round = 0u64;
    while total.window_s < seconds {
        let session = Session::start(ctx)?;
        session.warm(tally);
        let r = session.closed_loop(ctx.seed.wrapping_add(round), traced, rec, tally);
        let (errors, batched, hits, misses) = session.stats()?;
        if round == 0 {
            total.ingest_s = session.ingest_s;
        }
        session.shutdown();
        total.seconds.extend(r.seconds);
        total.psamples += r.psamples;
        total.window_s += r.window_s;
        total.errors += errors;
        total.batched += batched;
        total.cache_hits += hits;
        total.cache_misses += misses;
        round += 1;
    }
    Ok(total)
}

/// The untimed verify step, on a server of its own.
pub fn verify(ctx: &Ctx) -> Result<f64> {
    let session = Session::start(ctx)?;
    let outcome = session.verify(ctx);
    session.shutdown();
    outcome
}

/// A running server with both artifacts resident and every fixed body
/// answered once (cache warm, references recorded in `tally`).
pub struct Session {
    server: pic_predict::Server,
    pub addr: SocketAddr,
    pub mix: Mix,
    pub ingest_s: f64,
}

impl Session {
    /// Start the server, ingest the stride-6 trace and the models.
    pub fn start(ctx: &Ctx) -> Result<Session> {
        let t = Instant::now();
        let server = calls::start_server()?;
        let addr = server.addr();
        let trace = ingest_trace(addr, &ctx.files.heleshaw(STRIDE))?;
        let models_json = inputs::read(&ctx.files.models())?;
        let resp = post_ok(addr, "/models", models_json.as_bytes()).map_err(harness)?;
        let models = json_str(&parse_json(&resp).map_err(harness)?, "address")?;
        let ingest_s = t.elapsed().as_secs_f64();
        let samples = inputs::SIM_STEPS / inputs::SIM_SAMPLE_INTERVAL / STRIDE;
        let mix = Mix::new(&trace, &models, (inputs::PARTICLES * samples) as u64);
        Ok(Session {
            server,
            addr,
            mix,
            ingest_s,
        })
    }

    /// Answer every fixed body once, untimed.
    fn warm(&self, tally: &mut Tally) {
        let rec = &mut Recorder::default();
        for spec in self.mix.hits.iter().chain([&self.mix.predict]) {
            send(self.addr, spec, rec, tally);
        }
    }

    /// One round of the closed loop: `CLIENTS` threads, each drawing
    /// `ROUND_REQUESTS` requests from its own stream of `seed`.
    fn closed_loop(
        &self,
        seed: u64,
        traced: bool,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> LoopResult {
        let epoch = Instant::now();
        let results: Vec<(LoopResult, Recorder, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let mut tally = tally.fork();
                    scope.spawn(move || {
                        let mut rng = SplitMix64::new(
                            seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        );
                        let mut rec = Recorder::new(epoch);
                        rec.begin_pass(client as u32 + 1, traced);
                        let mut out = LoopResult::default();
                        for _ in 0..ROUND_REQUESTS {
                            let spec = self.mix.draw(&mut rng);
                            let (s, ok) = send(self.addr, &spec, &mut rec, &mut tally);
                            out.seconds.push(s);
                            if ok {
                                out.psamples += spec.psamples;
                            }
                        }
                        out.window_s = epoch.elapsed().as_secs_f64();
                        (out, rec, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        let mut total = LoopResult::default();
        for (r, thread_rec, thread_tally) in results {
            total.seconds.extend(r.seconds);
            total.psamples += r.psamples;
            total.window_s = total.window_s.max(r.window_s);
            rec.absorb(thread_rec);
            tally.merge(thread_tally);
        }
        total
    }

    /// `GET /stats`: `(errors, batched, assignment-cache hits, misses)`.
    fn stats(&self) -> Result<(u64, u64, u64, u64)> {
        let (_, body) = http(self.addr, "GET", "/stats", b"").map_err(harness)?;
        let v = parse_json(&body).map_err(harness)?;
        let num = |v: &Value, k: &str| field(v, k).and_then(Value::as_u64).unwrap_or(0);
        let cache = field(&v, "sweep_cache").cloned().unwrap_or(Value::Null);
        Ok((
            num(&v, "errors"),
            num(&v, "batched"),
            num(&cache, "hits"),
            num(&cache, "misses"),
        ))
    }

    /// The verify step, through the service: ingest the full
    /// trace, `/sweep` the `pic-sim` configuration and hold the served
    /// workload to ground truth exactly; `/predict` it and require
    /// `predicted_seconds` byte-equal to the library's. Returns the mean
    /// kernel MAPE in percent.
    fn verify(&self, ctx: &Ctx) -> Result<f64> {
        let rec = &mut Recorder::default();
        let full = ingest_trace(self.addr, &ctx.files.heleshaw(1))?;
        let models = json_str(
            &parse_json(&self.mix.predict.body).map_err(harness)?,
            "models",
        )?;
        let (ranks, filter, order) = (inputs::SIM_RANKS, inputs::SIM_FILTER, inputs::SIM_ORDER);
        let mesh_spec = format!("{0}x{0}x{0}", inputs::SIM_MESH_CUBE);
        let body = format!(
            "{{\"trace\":\"{full}\",\"ranks\":[{ranks}],\"filters\":[{filter}],\"mesh\":\"{mesh_spec}\",\"order\":{order}}}"
        );
        let grid = post_ok(self.addr, "/sweep", body.as_bytes()).map_err(harness)?;
        let mut entries: Vec<GridEntry> =
            serde_json::from_str(&grid).map_err(|e| harness(format!("/sweep grid: {e}")))?;
        let served = entries
            .pop()
            .ok_or_else(|| harness("empty grid".into()))?
            .workload;

        let gt = inputs::load_ground_truth(&ctx.files.ground_truth())?;
        let predicted =
            calls::kernel_seconds(&served, &ctx.models, &gt.elements_per_rank, order, filter);
        let mape = calls::check_against_ground_truth(&served, &predicted, &gt)?;

        let body = format!(
            "{{\"trace\":\"{full}\",\"models\":\"{models}\",\"ranks\":{ranks},\"filters\":[{filter}],\
             \"mesh\":\"{mesh_spec}\",\"order\":{order}}}"
        );
        let resp = post_ok(self.addr, "/predict", body.as_bytes()).map_err(harness)?;
        let trace = calls::load_raw(rec, &ctx.files.heleshaw(1))?;
        let mesh = calls::mesh(rec, &trace, inputs::SIM_MESH_CUBE, order)?;
        let cfg = calls::workload_config(ranks, MappingAlgorithm::BinBased, filter);
        let generated = calls::generate(rec, &trace, &cfg, Some(&mesh))?;
        let elements = calls::elements_per_rank(rec, &mesh, ranks)?;
        let library = calls::predict_tail(
            rec,
            &generated,
            &ctx.models,
            &elements,
            order,
            filter,
            trace.meta().sample_interval,
            &[SyncMode::BulkSynchronous],
        )?;
        let served_text = predicted_seconds_text(&resp).map_err(harness)?;
        if served_text != format!("{}", library[0]) {
            return Err(harness(format!(
                "/predict says {served_text}, the library says {}",
                library[0]
            )));
        }
        Ok(mape)
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// One entry of a served sweep grid (`pic_predict::SweepGridEntry` is
/// serialize-only).
#[derive(Deserialize)]
#[allow(dead_code)]
struct GridEntry {
    point: usize,
    mapping: MappingAlgorithm,
    ranks: usize,
    projection_filter: f64,
    stride: usize,
    workload: DynamicWorkload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_seconds_is_cut_out_of_the_response() {
        let resp = "{\"machine\":\"quartz\",\"predicted_seconds\":0.22279136889566223,\"des_wall_seconds\":0.001}";
        assert_eq!(predicted_seconds_text(resp).unwrap(), "0.22279136889566223");
        assert!(predicted_seconds_text("{}").is_err());
    }

    /// A server that answers every request with the next canned body.
    fn canned_server(bodies: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for body in bodies {
                let (mut s, _) = listener.accept().unwrap();
                // the request is a head and the two-byte body "{}"
                let mut seen = Vec::new();
                let mut buf = [0u8; 4096];
                while !seen.ends_with(b"\r\n\r\n{}") {
                    let n = s.read(&mut buf).unwrap();
                    assert!(n > 0, "client closed before sending the body");
                    seen.extend_from_slice(&buf[..n]);
                }
                let status = if body.is_empty() {
                    "500 Internal Server Error"
                } else {
                    "200 OK"
                };
                write!(
                    s,
                    "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_serve_byte_mismatch_or_non_2xx_is_a_failed_op() {
        let (addr, server) = canned_server(vec!["[1,2,3]", "[1,2,3]", "[1,2,4]", ""]);
        let spec = RequestSpec {
            class: HIT,
            path: "/sweep",
            body: "{}".into(),
            psamples: 1,
        };
        let rec = &mut Recorder::default();
        let mut tally = Tally::default();
        assert!(send(addr, &spec, rec, &mut tally).1);
        assert!(send(addr, &spec, rec, &mut tally).1);
        assert_eq!(tally.failed, 0);
        assert!(!send(addr, &spec, rec, &mut tally).1, "one byte differs");
        assert_eq!(tally.failed, 1);
        assert!(!send(addr, &spec, rec, &mut tally).1, "status 500");
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        server.join().unwrap();
    }
}
