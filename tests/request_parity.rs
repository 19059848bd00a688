//! The CLI and the service are two transports over one request vocabulary
//! (`pic_predict::request`). Each request below is written once, rendered
//! as `picpredict` argv and as a JSON body, and sent to the binary of this
//! build and to an in-process `Server`:
//!
//! * an accepted request gets the same bytes from both — `predict`'s stdout
//!   line and `/predict`'s body, `sweep --out`'s file and `/sweep`'s body;
//! * a refused request exits 1 on the CLI and is a 4xx from the service,
//!   with the same message apart from how the key is spelled (`--ranks`,
//!   `"ranks"`) and the command is named (`predict`, `/predict`).
//!
//! The table is seeded with the input bugs found at one front end or the
//! other: zero and 32-bit-overflowing rank counts, filters that are not
//! finite and positive, stride 0, a mesh mapping without a mesh, mesh dims
//! that are zero or wrap `usize`, unknown and repeated keys, order 0 and
//! feature bins 0.

use pic_des::MachineSpec;
use pic_predict::{FitStrategy, ServeConfig, Server};
use pic_sim::SimConfig;
use pic_trace::{codec, Precision};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What both transports must do with a request.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Both answer, byte for byte alike.
    Same,
    /// Both refuse with the same message, which contains this.
    Refused(&'static str),
    /// JSON has no spelling for the value (NaN): the CLI refuses with a
    /// message containing this, the service's parser with a 400.
    NotJson(&'static str),
    /// A key of the CLI command alone: only the CLI is asked.
    CliOnly(&'static str),
}

use Expect::*;

/// A command, its flags as `(key, value)` pairs, and what to expect.
type Row = (
    &'static str,
    &'static [(&'static str, &'static str)],
    Expect,
);

/// `predict` goes to `/predict` and `sweep` to `/sweep`, with `predict`'s
/// `--filter` spelled `"filters"` there.
const TABLE: &[Row] = &[
    ("predict", &[("ranks", "4")], Same),
    (
        "predict",
        &[
            ("ranks", "4"),
            ("mapping", "hilbert-ordered"),
            ("filter", "0.05"),
            ("mesh", "4x4x4"),
            ("order", "4"),
            ("machine", "vulcan"),
            ("sync", "neighbor"),
        ],
        Same,
    ),
    (
        "predict",
        &[
            ("ranks", "8"),
            ("mapping", "element-based"),
            ("mesh", "4x4x4"),
        ],
        Same,
    ),
    (
        "sweep",
        &[
            ("ranks", "4,8"),
            ("mappings", "bin-based,element-based"),
            ("filters", "0.02,0.05"),
            ("mesh", "4x4x4"),
        ],
        Same,
    ),
    (
        "sweep",
        &[("ranks", "4"), ("strides", "1,2"), ("ghosts", "false")],
        Same,
    ),
    (
        "predict",
        &[("ranks", "0")],
        Refused("needs at least one rank"),
    ),
    (
        "sweep",
        &[("ranks", "0")],
        Refused("needs at least one rank"),
    ),
    (
        "predict",
        &[("ranks", "4294967296")],
        Refused("ranks must be at most 4294967295"),
    ),
    (
        "sweep",
        &[("ranks", "4294967296")],
        Refused("ranks must be at most 4294967295"),
    ),
    (
        "sweep",
        &[("ranks", "four")],
        Refused("must be an integer, got 'four'"),
    ),
    (
        "predict",
        &[("ranks", "4"), ("filter", "NaN")],
        NotJson("projection filter must be positive and finite, got NaN"),
    ),
    (
        "sweep",
        &[("ranks", "4"), ("filters", "-0.5")],
        Refused("projection filter must be positive and finite, got -0.5"),
    ),
    (
        "sweep",
        &[("ranks", "4"), ("filters", "1e999")],
        Refused("projection filter must be positive and finite, got inf"),
    ),
    (
        "sweep",
        &[("ranks", "4"), ("strides", "0")],
        Refused("sampling stride must be positive, got 0"),
    ),
    (
        "predict",
        &[("ranks", "4"), ("mapping", "element-based")],
        Refused("element-based mapping requires a mesh"),
    ),
    (
        "sweep",
        &[("ranks", "4"), ("mesh", "0x4x4")],
        Refused("bad mesh: mesh dims must be non-zero on every axis"),
    ),
    (
        "sweep",
        &[
            ("ranks", "4"),
            ("mappings", "element-based"),
            ("mesh", "4194304x4194304x4194304"),
        ],
        Refused("bad mesh: mesh 4194304x4194304x4194304 has more than"),
    ),
    (
        "sweep",
        &[("ranks", "4"), ("mappings", "quantum")],
        Refused("unknown mapping 'quantum'"),
    ),
    (
        "predict",
        &[("ranks", "4"), ("sync", "neighbour")],
        Refused("unknown sync mode 'neighbour'"),
    ),
    (
        "predict",
        &[("ranks", "4"), ("filtr", "0.05")],
        Refused("unknown KEY(filtr) for 'predict'"),
    ),
    (
        "predict",
        &[("ranks", "4"), ("ranks", "8")],
        Refused("repeated KEY(ranks) for 'predict'"),
    ),
    (
        "predict",
        &[("mapping", "bin-based")],
        Refused("missing required KEY(ranks) for 'predict'"),
    ),
    (
        "predict",
        &[("ranks", "8"), ("order", "0")],
        Refused("element order (N) must be at least 2"),
    ),
    (
        "predict",
        &[("ranks", "8"), ("order", "0"), ("mesh", "4x4x4")],
        Refused("element order (N) must be at least 2"),
    ),
    (
        "simpoint",
        &[("ranks", "4"), ("mapping", "bin-based"), ("bins", "0")],
        CliOnly("feature bins per axis must be 1 to 1625 (cell ids are 32-bit), got 0"),
    ),
];

/// The key a JSON body spells `key` of `command` with, and whether it
/// takes a list there.
fn json_key(command: &str, key: &str) -> (String, bool) {
    match (command, key) {
        ("predict", "filter") => ("filters".to_string(), true),
        ("sweep", "ranks" | "mappings" | "filters" | "strides") => (key.to_string(), true),
        _ => (key.to_string(), false),
    }
}

/// Flag text as JSON: numbers and booleans as they are written, anything
/// else as a string.
fn json_value(text: &str) -> String {
    if text.parse::<f64>().is_ok() || text == "true" || text == "false" {
        text.to_string()
    } else {
        format!("\"{text}\"")
    }
}

fn json_body(command: &str, pairs: &[(&str, &str)], trace: &str, models: &str) -> String {
    let mut fields = vec![format!("\"trace\":\"{trace}\"")];
    if command == "predict" {
        fields.push(format!("\"models\":\"{models}\""));
    }
    for &(key, text) in pairs {
        let (key, list) = json_key(command, key);
        let value = match list {
            true => {
                let items: Vec<String> = text.split(',').map(json_value).collect();
                format!("[{}]", items.join(","))
            }
            false => json_value(text),
        };
        fields.push(format!("\"{key}\":{value}"));
    }
    format!("{{{}}}", fields.join(","))
}

/// The message with every key of the row and its JSON spelling written
/// `KEY(name)`, and the endpoint named as its command.
fn normalized(message: &str, command: &str, pairs: &[(&str, &str)]) -> String {
    let mut out = message.replace(&format!("'/{command}'"), &format!("'{command}'"));
    for &(key, _) in pairs.iter().chain(&[("ranks", "")]) {
        let (json, _) = json_key(command, key);
        for spelled in [
            format!("flag --{key}"),
            format!("key \"{json}\""),
            format!("--{key}"),
            format!("\"{json}\""),
        ] {
            out = out.replace(&spelled, &format!("KEY({key})"));
        }
    }
    out
}

fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    let (head, body) = resp.split_once("\r\n\r\n").expect("header terminator");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    (status.expect("status line"), body.to_string())
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

/// The `"address"` of an ingest response.
fn address(body: &str) -> String {
    #[derive(serde::Deserialize)]
    struct Ingested {
        address: String,
    }
    let parsed: Ingested = serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    parsed.address
}

#[test]
fn cli_and_service_answer_and_refuse_alike() {
    let dir = std::env::temp_dir().join(format!("picpredict_parity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (trace_path, models_path, grid_path) =
        (path("t.pictrace"), path("models.json"), path("grid.json"));
    let cfg = SimConfig {
        ranks: 8,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles: 300,
        steps: 30,
        sample_interval: 10,
        seed: 7,
        ..SimConfig::default()
    };
    let study =
        pic_predict::run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear)
            .unwrap();
    codec::save_file(&study.sim.trace, &trace_path, Precision::F64).unwrap();
    std::fs::write(&models_path, study.models.to_json()).unwrap();

    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let encoded = codec::encode_trace(&study.sim.trace, Precision::F64).unwrap();
    let (status, body) = post(addr, "/traces", &encoded);
    assert_eq!(status, 200, "{body}");
    let trace = address(&body);
    let (status, body) = post(addr, "/models", study.models.to_json().as_bytes());
    assert_eq!(status, 200, "{body}");
    let models = address(&body);

    for &(command, pairs, expect) in TABLE {
        let mut argv = vec![command.to_string(), "--trace".into(), trace_path.clone()];
        if command == "predict" {
            argv.extend(["--models".into(), models_path.clone()]);
        }
        if command == "sweep" {
            argv.extend(["--out".into(), grid_path.clone()]);
        }
        for &(key, text) in pairs {
            argv.extend([format!("--{key}"), text.to_string()]);
        }
        let row = argv.join(" ");
        std::fs::remove_file(&grid_path).ok();
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_picpredict"))
            .args(&argv)
            .output()
            .expect("run picpredict");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("panicked"), "{row}: {stderr}");
        let cli_message = stderr
            .lines()
            .next()
            .unwrap_or("")
            .trim_start_matches("error: ");
        if let CliOnly(want) = expect {
            assert_eq!(run.status.code(), Some(1), "{row}: {stderr}");
            assert!(cli_message.ends_with(want), "{row}: {cli_message}");
            continue;
        }
        let body = json_body(command, pairs, &trace, &models);
        let (status, served) = post(addr, &format!("/{command}"), body.as_bytes());
        match expect {
            Same => {
                assert!(run.status.success(), "{row}: {stderr}");
                assert_eq!(status, 200, "{body}: {served}");
                let cli = match command {
                    "sweep" => std::fs::read_to_string(&grid_path).unwrap(),
                    _ => String::from_utf8(run.stdout).unwrap(),
                };
                let cli = cli.strip_suffix('\n').unwrap_or(&cli);
                assert_eq!(cli, served, "{row} vs {body}");
            }
            Refused(want) => {
                assert_eq!(run.status.code(), Some(1), "{row}: {stderr}");
                assert!((400..500).contains(&status), "{body}: {status} {served}");
                let (cli, service) = (
                    normalized(cli_message, command, pairs),
                    normalized(&error_message(&served), command, pairs),
                );
                assert_eq!(cli, service, "{row} vs {body}");
                assert!(cli.contains(want), "{row}: {cli}");
            }
            NotJson(want) => {
                assert_eq!(run.status.code(), Some(1), "{row}: {stderr}");
                assert!(cli_message.ends_with(want), "{row}: {cli_message}");
                assert_eq!(status, 400, "{body}: {served}");
                assert!(error_message(&served).starts_with("bad request JSON"));
            }
            CliOnly(_) => unreachable!(),
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
