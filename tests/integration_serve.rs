//! Integration tests for the resident prediction service: bit-identity
//! of library, CLI binary and service answers (and of all three with the
//! bytes the service answered before `pic_predict::predict` existed),
//! content-address stability across LRU eviction and re-ingest, a fault
//! corpus replayed over real sockets, a trace body bounded by its declared
//! length, the slow-loris deadline, overload shed by a fixed pool of
//! threads, and no thread started per request once the process is warm.
//!
//! In debug builds every lock asserts that its thread holds no other, so
//! each test also runs that check over real concurrent traffic.

use pic_des::{MachineSpec, SyncMode};
use pic_mapping::MappingAlgorithm;
use pic_predict::{
    grid_entries, grid_to_json, KernelModels, PredictSpec, ServeConfig, Server, SweepGridSpec,
};
use pic_sim::{MiniPic, SimConfig};
use pic_trace::{codec, ParticleTrace, Precision};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn base_cfg(seed: u64) -> SimConfig {
    SimConfig {
        ranks: 8,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles: 300,
        steps: 30,
        sample_interval: 10,
        seed,
        ..SimConfig::default()
    }
}

fn make_trace(seed: u64) -> ParticleTrace {
    MiniPic::new(base_cfg(seed)).unwrap().run().unwrap().trace
}

/// Send one raw HTTP request and return `(status, body)`.
fn raw_request(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(bytes).expect("write request");
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).expect("read response");
    parse_response(&resp)
}

fn parse_response(resp: &[u8]) -> (u16, String) {
    let text = String::from_utf8_lossy(resp);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in response: {text:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head:?}"));
    (status, body.to_string())
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    raw_request(addr, &req)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
    )
}

/// Pull the string value of `"key":"..."` out of a flat JSON response.
fn json_str_field(body: &str, key: &str) -> String {
    let marker = format!("\"{key}\":\"");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + marker.len();
    let end = body[start..].find('"').unwrap() + start;
    body[start..end].to_string()
}

/// Run the `picpredict` binary of this build; returns its stdout.
fn picpredict(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_picpredict"))
        .args(args)
        .output()
        .expect("run picpredict");
    assert!(
        out.status.success(),
        "picpredict {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("picpredict stdout is UTF-8")
}

// What the service answered to this file's first test before the handlers
// became adapters over `pic_predict::predict` (captured at commit d09b5f9,
// equal in debug and release builds). `/sweep` is 27 581 bytes of grid, so
// it is pinned by length and FNV-1a-128; the same test compares it byte for
// byte with the library's serialization.
const PREDICT_GOLDEN: &str = "{\"machine\":\"quartz-like\",\"sync\":\"barrier\",\
    \"predicted_seconds\":0.019179878464265103,\"mean_idle_fraction\":0.009862041993163928,\
    \"events_processed\":20,\"samples\":3,\"ranks\":4}";
const CHECK_GOLDEN: &str = "{\"ok\":true,\"ranks\":4,\"samples\":3,\"violations\":[]}";
const SWEEP_GOLDEN: (usize, &str) = (27581, "e2069efab99f5169242dcffbd6237ab6");

#[test]
fn serve_responses_are_bit_identical_to_offline_cli_serialization() {
    let trace = make_trace(42);
    let encoded = codec::encode_trace(&trace, Precision::F64).unwrap();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    // Ingest.
    let (status, body) = request(addr, "POST", "/traces", &encoded);
    assert_eq!(status, 200, "{body}");
    let address = json_str_field(&body, "address");
    assert!(body.contains(&format!("\"particles\":{}", trace.particle_count())));
    assert!(body.contains(&format!("\"samples\":{}", trace.sample_count())));

    // The same grid, offline: the spec the CLI `sweep --out` builds.
    let spec = SweepGridSpec {
        mappings: vec![MappingAlgorithm::BinBased, MappingAlgorithm::ElementBased],
        ranks: vec![4, 8],
        filters: vec![0.02, 0.05],
        strides: vec![1, 2],
        compute_ghosts: true,
    };
    let points = spec.points();
    let mesh =
        pic_grid::ElementMesh::new(trace.meta().domain, pic_grid::MeshDims::cube(4), 3).unwrap();
    let opts = pic_workload::ReplayOptions::new(Some(&mesh), None, None);
    let (workloads, _) = pic_workload::replay(&trace, &points, &opts).unwrap();
    let offline = grid_to_json(&grid_entries(&points, workloads));

    let sweep_body = format!(
        "{{\"trace\":\"{address}\",\"ranks\":[4,8],\
         \"mappings\":[\"bin-based\",\"element-based\"],\
         \"filters\":[0.02,0.05],\"strides\":[1,2],\
         \"mesh\":\"4x4x4\",\"order\":3}}"
    );
    let (status, served) = request(addr, "POST", "/sweep", sweep_body.as_bytes());
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, offline, "served sweep differs from offline bytes");
    let mut digest = pic_types::hash::Fnv128::new();
    digest.update(served.as_bytes());
    assert_eq!((served.len(), digest.hex().as_str()), SWEEP_GOLDEN);

    // Concurrent identical requests: every response bit-identical.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sweep_body = sweep_body.clone();
                scope.spawn(move || request(addr, "POST", "/sweep", sweep_body.as_bytes()))
            })
            .collect();
        for h in handles {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, offline, "concurrent response diverged");
        }
    });

    // The repeat sweeps ran entirely from the assignment cache.
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"sweep_cache\":"), "{stats}");
    assert!(stats.contains("\"hits\":"), "{stats}");
    let hits_at = stats.find("\"hits\":").unwrap() + "\"hits\":".len();
    let hits: u64 = stats[hits_at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(
        hits > 0,
        "repeat sweeps should hit the assignment cache: {stats}"
    );

    // Predict through the service == predict through the library.
    let study = pic_predict::run_case_study(
        &base_cfg(42),
        &pic_des::MachineSpec::quartz_like(),
        &pic_predict::FitStrategy::Linear,
    )
    .unwrap();
    let models_json = study.models.to_json();
    let (status, body) = request(addr, "POST", "/models", models_json.as_bytes());
    assert_eq!(status, 200, "{body}");
    let models_addr = json_str_field(&body, "address");

    let predict_body = format!(
        "{{\"trace\":\"{address}\",\"models\":\"{models_addr}\",\"ranks\":4,\
         \"mapping\":\"bin-based\",\"filters\":[0.03]}}"
    );
    let (status, served) = request(addr, "POST", "/predict", predict_body.as_bytes());
    assert_eq!(status, 200, "{served}");
    // A prediction is a function of its request: asked again, the body
    // is the same bytes — nothing in it is read off a clock.
    let (status, again) = request(addr, "POST", "/predict", predict_body.as_bytes());
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, served);
    assert_eq!(served, PREDICT_GOLDEN);

    let models = KernelModels::from_json(&models_json).unwrap();
    let library = pic_predict::predict(&trace, &models, &PredictSpec::new(4), None).unwrap();
    assert_eq!(served, library.to_string());

    // Check endpoint agrees the workload is clean.
    let check_body = format!(
        "{{\"trace\":\"{address}\",\"ranks\":4,\"mapping\":\"bin-based\",\"filters\":[0.03]}}"
    );
    let (status, body) = request(addr, "POST", "/check", check_body.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, CHECK_GOLDEN);

    server.shutdown();
}

/// Library ≡ CLI ≡ service, byte for byte: one trace and one model set on
/// disk, every mapper under both sync modes through `pic_predict::predict`,
/// `POST /predict` and the `picpredict predict` binary; one grid through
/// `picpredict predict`'s list flags, line by line against the library;
/// one grid through `picpredict sweep --out` and `POST /sweep`.
#[test]
fn library_cli_and_service_answer_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("picpredict_three_way_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (trace_path, models_path, grid_path) =
        (path("t.pictrace"), path("models.json"), path("grid.json"));
    let study = pic_predict::run_case_study(
        &base_cfg(42),
        &MachineSpec::quartz_like(),
        &pic_predict::FitStrategy::Linear,
    )
    .unwrap();
    let trace = &study.sim.trace;
    codec::save_file(trace, &trace_path, Precision::F64).unwrap();
    std::fs::write(&models_path, study.models.to_json()).unwrap();
    let models = KernelModels::from_json(&study.models.to_json()).unwrap();

    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let (status, body) = request(
        addr,
        "POST",
        "/traces",
        &std::fs::read(&trace_path).unwrap(),
    );
    assert_eq!(status, 200, "{body}");
    let trace_addr = json_str_field(&body, "address");
    let (status, body) = request(
        addr,
        "POST",
        "/models",
        &std::fs::read(&models_path).unwrap(),
    );
    assert_eq!(status, 200, "{body}");
    let models_addr = json_str_field(&body, "address");

    for mapping in [
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::BinBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ] {
        for sync in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let spec = PredictSpec {
                mapping,
                sync,
                mesh: Some(pic_grid::MeshDims::cube(4)),
                ..PredictSpec::new(4)
            };
            let library = pic_predict::predict(trace, &models, &spec, None)
                .unwrap()
                .to_string();
            let (status, served) = request(
                addr,
                "POST",
                "/predict",
                format!(
                    "{{\"trace\":\"{trace_addr}\",\"models\":\"{models_addr}\",\"ranks\":4,\
                     \"mapping\":\"{mapping}\",\"sync\":\"{sync}\",\"mesh\":\"4x4x4\",\
                     \"order\":3,\"machine\":\"quartz\"}}"
                )
                .as_bytes(),
            );
            assert_eq!(status, 200, "{served}");
            let (mapping, sync) = (mapping.to_string(), sync.to_string());
            let cli = picpredict(&[
                "predict",
                "--trace",
                &trace_path,
                "--models",
                &models_path,
                "--ranks",
                "4",
                "--mapping",
                &mapping,
                "--sync",
                &sync,
                "--mesh",
                "4x4x4",
                "--order",
                "3",
                "--machine",
                "quartz",
            ]);
            assert_eq!(served, library, "{mapping} {sync}: service vs library");
            assert_eq!(
                cli.strip_suffix('\n'),
                Some(library.as_str()),
                "{mapping} {sync}: CLI vs library"
            );
            assert!(
                library.contains(&format!("\"sync\":\"{sync}\"")),
                "{library}"
            );
        }
    }

    // A CLI grid prints one line per point in mapping-major order, each
    // the library's answer for that point alone.
    let cli = picpredict(&[
        "predict",
        "--trace",
        &trace_path,
        "--models",
        &models_path,
        "--ranks",
        "4,8",
        "--mapping",
        "element-based,bin-based",
        "--mesh",
        "4x4x4",
    ]);
    let lines: Vec<&str> = cli.lines().collect();
    assert_eq!(lines.len(), 4, "{cli}");
    let points = [
        (MappingAlgorithm::ElementBased, 4),
        (MappingAlgorithm::ElementBased, 8),
        (MappingAlgorithm::BinBased, 4),
        (MappingAlgorithm::BinBased, 8),
    ];
    for (line, (mapping, ranks)) in lines.iter().zip(points) {
        let spec = PredictSpec {
            mapping,
            mesh: Some(pic_grid::MeshDims::cube(4)),
            ..PredictSpec::new(ranks)
        };
        let library = pic_predict::predict(trace, &models, &spec, None).unwrap();
        assert_eq!(*line, library.to_string(), "{mapping} at {ranks} ranks");
    }

    picpredict(&[
        "sweep",
        "--trace",
        &trace_path,
        "--ranks",
        "4",
        "--mappings",
        "bin-based,hilbert-ordered",
        "--filters",
        "0.02,0.05",
        "--mesh",
        "4x4x4",
        "--out",
        &grid_path,
    ]);
    let (status, served) = request(
        addr,
        "POST",
        "/sweep",
        format!(
            "{{\"trace\":\"{trace_addr}\",\"ranks\":[4],\
             \"mappings\":[\"bin-based\",\"hilbert-ordered\"],\
             \"filters\":[0.02,0.05],\"mesh\":\"4x4x4\"}}"
        )
        .as_bytes(),
    );
    assert_eq!(status, 200, "{served}");
    assert_eq!(std::fs::read_to_string(&grid_path).unwrap(), served);

    // `info` names the storage each format reads into, and its size.
    let compact_path = path("t.pictrc2");
    pic_trace::compact::save_file(trace, &compact_path, Precision::F32).unwrap();
    let samples = trace.sample_count();
    let compact = codec::load_file(&compact_path).unwrap();
    for (file, storage, bytes) in [
        (
            &trace_path,
            "f64",
            samples * (trace.particle_count() * 24 + 32),
        ),
        (
            &compact_path,
            "encoded u16, keyframe every 16 frames",
            compact.resident_bytes(),
        ),
    ] {
        let info = picpredict(&["info", "--trace", file]);
        let line = format!("storage:         {storage}, {bytes} bytes resident");
        assert!(info.lines().any(|l| l == line), "{file}: {info}");
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lru_eviction_and_reingest_yield_identical_artifacts() {
    let trace_a = make_trace(7);
    let trace_b = make_trace(8);
    let bytes_a = codec::encode_trace(&trace_a, Precision::F64).unwrap();
    let bytes_b = codec::encode_trace(&trace_b, Precision::F64).unwrap();

    // A budget of one byte keeps exactly one trace resident: inserting a
    // second always evicts the first (the just-inserted entry is never
    // evicted).
    let cfg = ServeConfig {
        budget_bytes: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let (status, body) = request(addr, "POST", "/traces", &bytes_a);
    assert_eq!(status, 200, "{body}");
    let addr_a = json_str_field(&body, "address");

    let sweep_body = format!("{{\"trace\":\"{addr_a}\",\"ranks\":[4],\"filters\":[0.03]}}");
    let (status, first) = request(addr, "POST", "/sweep", sweep_body.as_bytes());
    assert_eq!(status, 200, "{first}");

    // Ingest B: A is evicted (reported in the response), and requests
    // against A now miss.
    let (status, body) = request(addr, "POST", "/traces", &bytes_b);
    assert_eq!(status, 200, "{body}");
    let addr_b = json_str_field(&body, "address");
    assert_ne!(addr_a, addr_b);
    assert!(
        body.contains(&format!("\"evicted\":[\"{addr_a}\"]")),
        "{body}"
    );
    let (status, listing) = get(addr, "/traces");
    assert_eq!(status, 200);
    assert!(!listing.contains(&addr_a), "{listing}");
    assert!(listing.contains(&addr_b), "{listing}");
    let (status, body) = request(addr, "POST", "/sweep", sweep_body.as_bytes());
    assert_eq!(status, 404, "{body}");

    // Re-ingest the identical bytes: same content address, and the sweep
    // rebuilt from scratch is bit-identical to the pre-eviction one.
    let (status, body) = request(addr, "POST", "/traces", &bytes_a);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_str_field(&body, "address"), addr_a);
    let (status, second) = request(addr, "POST", "/sweep", sweep_body.as_bytes());
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second, "artifacts differ after eviction + re-ingest");

    server.shutdown();
}

/// Pull the unsigned value of `"key":N` out of a flat JSON object.
fn json_u64_field(body: &str, key: &str) -> u64 {
    let marker = format!("\"{key}\":");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + marker.len();
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a count in {body}"))
}

#[test]
fn a_compact_trace_is_charged_its_grid_coordinates() {
    // One trace, ingested raw at f64 and compact at f32: the registry
    // weighs what each keeps resident, and the 16-bit grid coordinates
    // weigh a quarter of the f64 positions.
    let trace = make_trace(11);
    let raw = codec::encode_trace(&trace, Precision::F64).unwrap();
    let compact = pic_trace::compact::encode_compact(&trace, Precision::F32).unwrap();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let mut weights = Vec::new();
    for bytes in [&raw, &compact] {
        let (status, body) = request(addr, "POST", "/traces", bytes);
        assert_eq!(status, 200, "{body}");
        let address = json_str_field(&body, "address");
        let (status, listing) = get(addr, "/traces");
        assert_eq!(status, 200, "{listing}");
        let entry = (listing.split("},{"))
            .find(|e| e.contains(&address))
            .unwrap_or_else(|| panic!("{address} not listed: {listing}"));
        weights.push(json_u64_field(entry, "resident_bytes"));
    }
    let (raw_weight, compact_weight) = (weights[0], weights[1]);
    assert!(
        compact_weight * 10 <= raw_weight * 3,
        "compact entry weighs {compact_weight} bytes, raw {raw_weight}"
    );
    // `/stats` reports the sum of the listed weights.
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200, "{stats}");
    assert_eq!(
        json_u64_field(&stats, "resident_bytes"),
        raw_weight + compact_weight,
        "{stats}"
    );

    server.shutdown();
}

#[test]
fn fault_corpus_over_http_yields_positioned_4xx_and_server_survives() {
    let trace = make_trace(3);
    let good = codec::encode_trace(&trace, Precision::F64).unwrap();
    let cfg = ServeConfig {
        max_body_bytes: 1 << 20,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // Framing faults.
    let (status, body) = raw_request(addr, b"\x01\x02 garbage\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    let (status, body) = raw_request(addr, b"GET /healthz NOTHTTP\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    let mut oversized = b"GET /healthz HTTP/1.1\r\n".to_vec();
    oversized.extend(std::iter::repeat_n(b'A', 20 * 1024));
    let (status, body) = raw_request(addr, &oversized);
    assert_eq!(status, 431, "{body}");
    let (status, body) = raw_request(
        addr,
        b"POST /sweep HTTP/1.1\r\nContent-Length: notanumber\r\n\r\n",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("byte"), "not positioned: {body}");
    let (status, body) = raw_request(addr, b"POST /sweep HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 411, "{body}");
    let (status, body) = raw_request(
        addr,
        b"POST /traces HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    let (status, body) = raw_request(addr, b"DELETE /sweep HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405, "{body}");
    let (status, body) = raw_request(addr, b"GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404, "{body}");

    // Trace-body faults: truncations at several depths and a flipped bit,
    // all rejected with positioned diagnostics, none fatal.
    for cut in [5, good.len() / 3, good.len() - 7] {
        let (status, body) = request(addr, "POST", "/traces", &good[..cut]);
        assert_eq!(status, 422, "cut at {cut}: {body}");
        assert!(
            body.contains("byte") || body.contains("frame") || body.contains("header"),
            "cut at {cut} not positioned: {body}"
        );
    }
    let mut flipped = good.clone();
    pic_trace::fault::flip_bit(&mut flipped, 17);
    let (status, body) = request(addr, "POST", "/traces", &flipped);
    assert!(
        (400..500).contains(&status),
        "flipped bit -> {status}: {body}"
    );

    // A client that declares more body than it sends, then hangs up.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let head = format!(
            "POST /traces HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            good.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(&good[..64]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (status, body) = parse_response(&resp);
        assert!(
            (400..500).contains(&status),
            "short body -> {status}: {body}"
        );
    }

    // Semantic faults on the JSON endpoints.
    let (status, body) = request(addr, "POST", "/sweep", b"not json at all");
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/sweep",
        b"{\"trace\":\"0000\",\"ranks\":[4]}",
    );
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(addr, "POST", "/traces", &good);
    assert_eq!(status, 200, "{body}");
    let address = json_str_field(&body, "address");
    let bad_mapping =
        format!("{{\"trace\":\"{address}\",\"ranks\":[4],\"mappings\":[\"quantum\"]}}");
    let (status, body) = request(addr, "POST", "/sweep", bad_mapping.as_bytes());
    assert_eq!(status, 422, "{body}");
    let empty_ranks = format!("{{\"trace\":\"{address}\",\"ranks\":[]}}");
    let (status, body) = request(addr, "POST", "/sweep", empty_ranks.as_bytes());
    assert_eq!(status, 422, "{body}");
    // A filter that is not finite and positive, under a mapping whose
    // assignment ignores the filter: refused, not answered with zeros.
    let bad_filter = format!(
        "{{\"trace\":\"{address}\",\"ranks\":[4],\"mappings\":[\"element-based\"],\
         \"filters\":[-0.5],\"mesh\":\"4x4x4\"}}"
    );
    let (status, body) = request(addr, "POST", "/sweep", bad_filter.as_bytes());
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("projection filter"), "{body}");
    // A mesh whose element count wraps `usize` (2^66 elements): refused
    // by name, not decomposed into an empty owner table.
    let wrapping_mesh = format!(
        "{{\"trace\":\"{address}\",\"ranks\":[4],\"mappings\":[\"element-based\"],\
         \"mesh\":\"4194304x4194304x4194304\"}}"
    );
    let (status, body) = request(addr, "POST", "/sweep", wrapping_mesh.as_bytes());
    assert_eq!(status, 422, "{body}");
    assert!(
        body.contains("bad mesh") && body.contains("4194304x4194304x4194304"),
        "{body}"
    );

    // After the whole corpus, the server still answers.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"ok\":true}");
    server.shutdown();
}

#[test]
fn trailing_bytes_past_the_declared_length_are_neither_ingested_nor_digested() {
    // `POST /traces` reads exactly `Content-Length` bytes. Were the body
    // read to the end of the stream, the decoder would reach the 64 bytes
    // after the trace and refuse a truncated frame with a `422`.
    let trace = make_trace(5);
    let good = codec::encode_trace(&trace, Precision::F64).unwrap();
    let mut clean_address = pic_types::hash::Fnv128::new();
    clean_address.update(&good);
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    let mut req = format!(
        "POST /traces HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        good.len()
    )
    .into_bytes();
    req.extend_from_slice(&good);
    req.extend_from_slice(&[0xA5; 64]);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(&req).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    // The server closes with the trailing bytes possibly unread, which may
    // reset the connection once the response is out: keep what came.
    let mut resp = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(n @ 1..) = s.read(&mut chunk) {
        resp.extend_from_slice(&chunk[..n]);
    }
    let (status, body) = parse_response(&resp);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_str_field(&body, "address"), clean_address.hex());
    assert_eq!(json_u64_field(&body, "encoded_bytes"), good.len() as u64);

    // A clean ingest of the same trace lands on the same address.
    let (status, body) = request(addr, "POST", "/traces", &good);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_str_field(&body, "address"), clean_address.hex());
    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_by_the_read_deadline() {
    let cfg = ServeConfig {
        read_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let started = std::time::Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"POST /sw").unwrap();
    // Dribble nothing further; the server's deadline must fire.
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let (status, body) = parse_response(&resp);
    assert_eq!(status, 408, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "loris held the connection {:?}",
        started.elapsed()
    );

    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
}

/// `count()` once it reads `want`, or its last reading after 5 s: a thread
/// can stay listed for a moment after `join` returns.
#[cfg(target_os = "linux")]
fn settled(want: usize, count: impl Fn() -> usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = count();
        if n == want || Instant::now() > deadline {
            return n;
        }
        std::thread::yield_now();
    }
}

/// Threads of this process that the server on `addr` started (they are
/// named after its port).
#[cfg(target_os = "linux")]
fn serve_threads(addr: SocketAddr) -> usize {
    let name = format!("pic-serve:{}", addr.port());
    let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
    (std::fs::read_dir("/proc/self/task").unwrap())
        .filter_map(|task| comm(task.ok()?).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

/// `Threads` of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    (status.lines())
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no Threads line in {status}"))
}

/// Whether this is the run of test `name` that does the work. The first
/// call runs this test binary again on `name` alone, in a child process
/// whose thread count no other test moves, asserts that it passed and
/// returns false; in the child it returns true.
#[cfg(target_os = "linux")]
fn in_a_process_of_its_own(name: &str) -> bool {
    const ALONE: &str = "PIC_SERVE_TEST_ALONE";
    if std::env::var_os(ALONE).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([name, "--exact", "--test-threads=1"])
        .env(ALONE, "1")
        .output()
        .expect("run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// Far more clients than workers — complete requests, slow-loris heads and
/// truncated bodies — are served or shed with `429` by a pool whose size
/// does not move. The process never runs more than the acceptor and the
/// workers over its baseline; every complete request is answered 2xx or
/// 4xx (429 included), every incomplete one 408 or 429; the server
/// answers `/healthz` afterwards; and `shutdown()` with slow clients still
/// connected joins every thread within the read deadline. One thread
/// drives all the sockets, so the clients add no thread to the count.
#[cfg(target_os = "linux")]
#[test]
fn overload_is_shed_with_429_by_a_fixed_pool() {
    if !in_a_process_of_its_own("overload_is_shed_with_429_by_a_fixed_pool") {
        return;
    }
    use pic_predict::serve::WORKERS;
    const CLIENTS: usize = 64;
    let read_timeout = Duration::from_millis(400);
    let baseline = process_threads();
    let server = Server::start(ServeConfig {
        read_timeout,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    assert_eq!(process_threads(), baseline + WORKERS + 1);
    let bound = baseline + WORKERS + 2;

    // Every socket is opened and sent its bytes before any answer is read.
    let mut clients: Vec<(bool, TcpStream)> = (0..CLIENTS)
        .map(|i| {
            let (complete, bytes): (bool, &[u8]) = match i % 4 {
                0 => (true, b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"),
                1 => (false, b"GET /healthz HTTP/1.1\r\nHost: te"),
                2 => (
                    false,
                    b"POST /sweep HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"trace\":",
                ),
                _ => (true, b"POST /sweep HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"),
            };
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            s.write_all(bytes).unwrap();
            (complete, s)
        })
        .collect();
    let mut peak = process_threads();
    let mut shed = 0;
    for (i, (complete, s)) in clients.iter_mut().enumerate() {
        let mut resp = Vec::new();
        // A refused client may read a reset after its answer; what it read
        // before stands.
        let _ = s.read_to_end(&mut resp);
        let (status, body) = parse_response(&resp);
        match *complete {
            true => assert!(
                (200..300).contains(&status) || (400..500).contains(&status),
                "client {i}: {status} {body}"
            ),
            false => assert!(
                status == 408 || status == 429,
                "client {i}: {status} {body}"
            ),
        }
        shed += usize::from(status == 429);
        peak = peak.max(process_threads());
    }
    assert!(peak <= bound, "{peak} threads, baseline {baseline}");
    assert!(
        shed > 0,
        "{CLIENTS} clients on {WORKERS} workers and none was refused"
    );
    assert_eq!(get(addr, "/healthz").0, 200);

    // Shutdown while slow clients (fewer than the workers) hold their
    // connections open.
    let loris: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
            s
        })
        .collect();
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < read_timeout + Duration::from_millis(1500),
        "shutdown took {took:?}"
    );
    drop(loris);
    assert_eq!(settled(baseline, process_threads), baseline);
}

/// No thread is started per request. Once one `/sweep` has warmed the
/// process up (the server's pool and the vendored rayon's workers), four
/// clients sending cached and uncached `/sweep`s and `/predict`s never
/// push `Threads` above the count read after the warm-up, the clients
/// already counted.
#[cfg(target_os = "linux")]
#[test]
fn requests_after_warm_up_start_no_thread() {
    if !in_a_process_of_its_own("requests_after_warm_up_start_no_thread") {
        return;
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;
    let trace = make_trace(7);
    let study = pic_predict::run_case_study(
        &base_cfg(7),
        &pic_des::MachineSpec::quartz_like(),
        &pic_predict::FitStrategy::Linear,
    )
    .unwrap();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let encoded = codec::encode_trace(&trace, Precision::F64).unwrap();
    let (status, body) = request(addr, "POST", "/traces", &encoded);
    assert_eq!(status, 200, "{body}");
    let address = json_str_field(&body, "address");
    let (status, body) = request(addr, "POST", "/models", study.models.to_json().as_bytes());
    assert_eq!(status, 200, "{body}");
    let models = json_str_field(&body, "address");
    let sweep = |filter: f64| {
        format!(
            "{{\"trace\":\"{address}\",\"ranks\":[4,8],\
             \"mappings\":[\"bin-based\",\"element-based\"],\
             \"filters\":[{filter}],\"mesh\":\"4x4x4\",\"order\":3}}"
        )
    };
    let hit = sweep(0.05);
    let predict = format!(
        "{{\"trace\":\"{address}\",\"models\":\"{models}\",\"ranks\":4,\
         \"mapping\":\"bin-based\",\"filters\":[0.03]}}"
    );
    let (status, body) = request(addr, "POST", "/sweep", hit.as_bytes());
    assert_eq!(status, 200, "{body}");

    let start = std::sync::Barrier::new(CLIENTS + 1);
    let finished = AtomicUsize::new(0);
    let (after_warm_up, peak) = std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (start, finished, hit, predict, sweep) =
                (&start, &finished, &hit, &predict, &sweep);
            scope.spawn(move || {
                start.wait();
                for k in 0..ROUNDS {
                    let (status, body) = match (c + k) % 3 {
                        0 => request(addr, "POST", "/sweep", hit.as_bytes()),
                        1 => {
                            let miss = sweep(0.02 + 0.001 * (c * ROUNDS + k) as f64);
                            request(addr, "POST", "/sweep", miss.as_bytes())
                        }
                        _ => request(addr, "POST", "/predict", predict.as_bytes()),
                    };
                    assert_eq!(status, 200, "client {c} request {k}: {body}");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        let after_warm_up = process_threads();
        start.wait();
        let mut peak = after_warm_up;
        while finished.load(Ordering::SeqCst) < CLIENTS {
            peak = peak.max(process_threads());
            std::thread::yield_now();
        }
        (after_warm_up, peak)
    });
    assert!(
        peak <= after_warm_up,
        "{peak} threads while serving, {after_warm_up} after the warm-up"
    );
    server.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_server_cleanly() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let (status, body) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"shutting_down\":true"));
    // run_to_completion returns promptly once the flag is set.
    server.run_to_completion();
    // The port no longer accepts new work.
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
    if let Ok(mut s) = refused {
        // The OS may still complete the TCP handshake on a dying socket;
        // but no response must come back.
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut out = Vec::new();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = s.read_to_end(&mut out).unwrap_or(0);
        assert_eq!(
            n,
            0,
            "server answered after shutdown: {:?}",
            String::from_utf8_lossy(&out)
        );
    }
    // Every thread the server started was joined.
    #[cfg(target_os = "linux")]
    assert_eq!(settled(0, || serve_threads(addr)), 0);
}

/// The number after `"key":` inside the `sweep_cache` object of a `/stats`
/// body.
fn sweep_cache_counter(stats: &str, key: &str) -> u64 {
    let cache = &stats[stats
        .find("\"sweep_cache\":")
        .expect("sweep_cache in /stats")..];
    let marker = format!("\"{key}\":");
    let at = cache
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {stats}"))
        + marker.len();
    (cache[at..].chars().take_while(|c| c.is_ascii_digit()))
        .collect::<String>()
        .parse()
        .unwrap()
}

/// A repeated grid point is a lookup: the same `/sweep` body twice answers
/// the same bytes, and the second is served from the cache's ghost rows
/// and migration diffs (every radius slot and every (group, stride) diff
/// set the first computed is a hit, none a miss).
#[test]
fn a_repeated_sweep_is_answered_from_cached_ghost_rows() {
    let trace = make_trace(21);
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let encoded = codec::encode_trace(&trace, Precision::F64).unwrap();
    let (status, body) = request(addr, "POST", "/traces", &encoded);
    assert_eq!(status, 200, "{body}");
    let address = json_str_field(&body, "address");
    let sweep_body = format!(
        "{{\"trace\":\"{address}\",\"ranks\":[4,8],\
         \"mappings\":[\"bin-based\",\"element-based\"],\
         \"filters\":[0.02,0.05],\"mesh\":\"4x4x4\",\"order\":3}}"
    );
    let counters = || {
        let (status, stats) = get(addr, "/stats");
        assert_eq!(status, 200, "{stats}");
        let read = |key| sweep_cache_counter(&stats, key);
        (
            (
                read("radius_hits"),
                read("radius_misses"),
                read("radius_rows"),
            ),
            (read("diff_hits"), read("diff_misses"), read("diff_sets")),
        )
    };
    let (status, first) = request(addr, "POST", "/sweep", sweep_body.as_bytes());
    assert_eq!(status, 200, "{first}");
    let ((hits0, computed, rows), (diff_hits0, diffed, sets)) = counters();
    assert_eq!((hits0, diff_hits0), (0, 0));
    assert!(computed > 0 && rows == computed, "{computed} {rows}");
    assert!(diffed > 0 && sets == diffed, "{diffed} {sets}");
    let (status, second) = request(addr, "POST", "/sweep", sweep_body.as_bytes());
    assert_eq!(status, 200, "{second}");
    assert_eq!(second, first, "a cached sweep changed the bytes");
    assert_eq!(
        counters(),
        ((computed, computed, rows), (diffed, diffed, sets))
    );
    server.shutdown();
}

/// Send `body` to `path` from `clients` threads that start together, or one
/// request after another when `serial`; the answers in sending order.
fn fire(
    addr: SocketAddr,
    path: &str,
    body: &str,
    clients: usize,
    serial: bool,
) -> Vec<(u16, String)> {
    if serial {
        return (0..clients)
            .map(|_| request(addr, "POST", path, body.as_bytes()))
            .collect();
    }
    let start = std::sync::Barrier::new(clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    request(addr, "POST", path, body.as_bytes())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Identical cold requests that arrive together each run their own
/// replay, and the assignment cache keeps the first insert of each
/// artifact. Four threads fire the same cold multi-group `/sweep` (strides
/// 1 and 2, so migration diffs are published too), then the same cold
/// `/predict`: every answer is the offline bytes, the cache holds one
/// entry per assignment group, and the registry weighs what it weighs on
/// a server that answered the same requests one at a time.
#[test]
fn identical_cold_requests_in_parallel_answer_the_offline_bytes() {
    const CLIENTS: usize = 4;
    let trace = make_trace(31);
    let encoded = codec::encode_trace(&trace, Precision::F64).unwrap();
    let records = pic_sim::benchmark_kernels(&pic_sim::SweepConfig::default()).unwrap();
    let fitted = KernelModels::fit(&records, &pic_predict::FitStrategy::Linear, 1).unwrap();
    let models_json = fitted.to_json();
    let models = KernelModels::from_json(&models_json).unwrap();

    let spec = SweepGridSpec {
        mappings: vec![MappingAlgorithm::BinBased, MappingAlgorithm::ElementBased],
        ranks: vec![4, 8],
        filters: vec![0.02, 0.05],
        strides: vec![1, 2],
        compute_ghosts: true,
    };
    let points = spec.points();
    let mesh =
        pic_grid::ElementMesh::new(trace.meta().domain, pic_grid::MeshDims::cube(4), 3).unwrap();
    let opts = pic_workload::ReplayOptions::new(Some(&mesh), None, None);
    let (workloads, offline_stats) = pic_workload::replay(&trace, &points, &opts).unwrap();
    assert!(offline_stats.groups > 1, "{offline_stats:?}");
    let sweep_offline = grid_to_json(&grid_entries(&points, workloads));
    let predict_offline = pic_predict::predict(&trace, &models, &PredictSpec::new(16), None)
        .unwrap()
        .to_string();

    // One fresh server per side, each answering the sweep then the
    // prediction; returns the registry's weight afterwards.
    let serve = |serial: bool| {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();
        let (status, body) = request(addr, "POST", "/traces", &encoded);
        assert_eq!(status, 200, "{body}");
        let trace_addr = json_str_field(&body, "address");
        let (status, body) = request(addr, "POST", "/models", models_json.as_bytes());
        assert_eq!(status, 200, "{body}");
        let models_addr = json_str_field(&body, "address");
        let entries = || {
            let (status, stats) = get(addr, "/stats");
            assert_eq!(status, 200, "{stats}");
            sweep_cache_counter(&stats, "entries")
        };

        let sweep_body = format!(
            "{{\"trace\":\"{trace_addr}\",\"ranks\":[4,8],\
             \"mappings\":[\"bin-based\",\"element-based\"],\
             \"filters\":[0.02,0.05],\"strides\":[1,2],\
             \"mesh\":\"4x4x4\",\"order\":3}}"
        );
        for (status, body) in fire(addr, "/sweep", &sweep_body, CLIENTS, serial) {
            assert_eq!(status, 200, "serial={serial}: {body}");
            assert!(body == sweep_offline, "serial={serial}: a sweep diverged");
        }
        assert_eq!(entries() as usize, offline_stats.groups, "serial={serial}");

        let predict_body = format!(
            "{{\"trace\":\"{trace_addr}\",\"models\":\"{models_addr}\",\"ranks\":16,\
             \"mapping\":\"bin-based\",\"filters\":[0.03]}}"
        );
        for answer in fire(addr, "/predict", &predict_body, CLIENTS, serial) {
            assert_eq!(answer, (200, predict_offline.clone()), "serial={serial}");
        }
        assert_eq!(
            entries() as usize,
            offline_stats.groups + 1,
            "serial={serial}"
        );

        assert_eq!(get(addr, "/healthz").0, 200);
        let (status, stats) = get(addr, "/stats");
        assert_eq!(status, 200, "{stats}");
        server.shutdown();
        json_u64_field(&stats, "resident_bytes")
    };
    let together = serve(false);
    let one_at_a_time = serve(true);
    assert_eq!(together, one_at_a_time);
}

/// A rank count no host could hold was a memory-allocation abort that took
/// the whole server down; every endpoint that replays now answers 422
/// naming the count, and the server keeps serving.
#[test]
fn an_unholdable_rank_count_is_422_and_the_server_survives() {
    let trace = make_trace(22);
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let encoded = codec::encode_trace(&trace, Precision::F64).unwrap();
    let (status, body) = request(addr, "POST", "/traces", &encoded);
    assert_eq!(status, 200, "{body}");
    let address = json_str_field(&body, "address");
    let models = KernelModels::from_models(Vec::new()).to_json();
    let (status, body) = request(addr, "POST", "/models", models.as_bytes());
    assert_eq!(status, 200, "{body}");
    let models = json_str_field(&body, "address");
    for ranks in [1u64 << 40, 1 << 32] {
        let bodies = [
            (
                "/sweep",
                format!("{{\"trace\":\"{address}\",\"ranks\":[{ranks}]}}"),
            ),
            (
                "/predict",
                format!("{{\"trace\":\"{address}\",\"models\":\"{models}\",\"ranks\":{ranks}}}"),
            ),
            (
                "/check",
                format!("{{\"trace\":\"{address}\",\"ranks\":{ranks}}}"),
            ),
        ];
        for (path, body) in bodies {
            let (status, answer) = request(addr, "POST", path, body.as_bytes());
            assert_eq!(status, 422, "{path} {ranks}: {answer}");
            assert!(answer.contains(&format!("got {ranks}")), "{path}: {answer}");
            let (status, stats) = get(addr, "/stats");
            assert_eq!(status, 200, "{path} {ranks}: {stats}");
        }
    }
    server.shutdown();
}

/// A request body of 8 KB of `[` overflowed the connection thread's stack
/// in the JSON parser and aborted the whole server. The parser now refuses
/// nesting past `serde_json::MAX_DEPTH`: each JSON endpoint answers 400
/// naming the bound, at any depth, and the server keeps serving.
#[test]
fn an_over_deep_request_body_is_400_and_the_server_survives() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    for depth in [8 << 10, 1 << 20] {
        let body = "[".repeat(depth);
        for path in ["/sweep", "/predict", "/check", "/models"] {
            let (status, answer) = request(addr, "POST", path, body.as_bytes());
            let expect = if path == "/models" { 422 } else { 400 };
            assert_eq!(status, expect, "{path} {depth}: {answer}");
            let bound = format!("nests deeper than {} levels", serde_json::MAX_DEPTH);
            assert!(answer.contains(&bound), "{path}: {answer}");
            let (status, health) = get(addr, "/healthz");
            assert_eq!(status, 200, "{path} {depth}: {health}");
        }
    }
    server.shutdown();
}

/// The message of a `{"error":{"status":…,"message":…}}` response body.
fn error_message(body: &str) -> String {
    #[derive(serde::Deserialize)]
    struct Body {
        error: Error,
    }
    #[derive(serde::Deserialize)]
    struct Error {
        message: String,
    }
    let parsed: Body = serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    parsed.error.message
}

/// A key an endpoint does not take, or one given twice, was answered as if
/// it were absent or given once: `"filter"` on `/sweep` got the grid of the
/// default filter, `/check` with `"bogus"` said `"ok":true`, and
/// `"ranks":8,"ranks":16` was answered at 8. Each JSON endpoint now answers
/// 400 naming the key, and the server keeps serving.
#[test]
fn unknown_or_repeated_keys_are_400_naming_the_key() {
    let trace = make_trace(5);
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let encoded = codec::encode_trace(&trace, Precision::F64).unwrap();
    let (status, body) = request(addr, "POST", "/traces", &encoded);
    assert_eq!(status, 200, "{body}");
    let t = json_str_field(&body, "address");
    let models = KernelModels::from_models(Vec::new()).to_json();
    let (status, body) = request(addr, "POST", "/models", models.as_bytes());
    assert_eq!(status, 200, "{body}");
    let m = json_str_field(&body, "address");
    let cases = [
        (
            "/sweep",
            format!("{{\"trace\":\"{t}\",\"ranks\":[4],\"filter\":[0.05]}}"),
            "unknown key \"filter\"",
        ),
        (
            "/predict",
            format!(
                "{{\"trace\":\"{t}\",\"models\":\"{m}\",\"ranks\":4,\
                 \"mappings\":[\"element-based\"],\"synk\":\"neighbor\",\"filter\":0.05}}"
            ),
            "unknown key \"filter\"",
        ),
        (
            "/check",
            format!("{{\"trace\":\"{t}\",\"ranks\":4,\"bogus\":1}}"),
            "unknown key \"bogus\"",
        ),
        (
            "/predict",
            format!("{{\"trace\":\"{t}\",\"models\":\"{m}\",\"ranks\":8,\"ranks\":16}}"),
            "repeated key \"ranks\"",
        ),
        (
            "/sweep",
            format!("{{\"trace\":\"{t}\",\"ranks\":[4],\"filters\":[0.1],\"filters\":[0.2]}}"),
            "repeated key \"filters\"",
        ),
        (
            "/check",
            format!("{{\"trace\":\"{t}\",\"trace\":\"{t}\",\"ranks\":4}}"),
            "repeated key \"trace\"",
        ),
    ];
    for (path, body, want) in &cases {
        let (status, answer) = request(addr, "POST", path, body.as_bytes());
        assert_eq!(status, 400, "{path} {body}: {answer}");
        let message = error_message(&answer);
        assert_eq!(message, format!("configuration error: {want} for '{path}'"));
    }
    // the same requests with the keys spelled as the endpoints take them
    let sweep = format!("{{\"trace\":\"{t}\",\"ranks\":[4],\"filters\":[0.05]}}");
    let (status, answer) = request(addr, "POST", "/sweep", sweep.as_bytes());
    assert_eq!(status, 200, "{answer}");
    let check = format!("{{\"trace\":\"{t}\",\"ranks\":4}}");
    let (status, answer) = request(addr, "POST", "/check", check.as_bytes());
    assert_eq!(
        (status, answer.starts_with("{\"ok\":true")),
        (200, true),
        "{answer}"
    );
    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    server.shutdown();
}
