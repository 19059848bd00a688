//! The repo's end-to-end benchmark: file -> workload -> models ->
//! schedule -> DES, five workloads, per-layer spans. See `README.md`.
//!
//! ```text
//! pic-e2e-bench --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's call)
//! pic-e2e-bench [--seed N] [--seconds S]                           every workload, one document
//! pic-e2e-bench --list                                             workloads and metrics
//! pic-e2e-bench compare A.json B.json                              apply the bounds to two documents
//! ```
//!
//! A run generates its inputs from the seed into a scratch directory,
//! then re-executes this binary as a child that measures one workload, so
//! peak memory, pool state and caches are per workload.

mod calls;
mod catalog;
mod child;
mod inputs;
mod report;
mod serve;
mod spans;
mod workloads;

use catalog::{DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER, RUNS, WORKLOADS};
use report::{field, map, median, metric, parse_json, summary, to_json};
use serde::Value;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Batch;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            // A harness error. A regression or a failed operation is
            // reported in the output, never through the exit code.
            eprintln!("pic-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` flags. A name outside `KNOWN` is an error, so that a
/// typo does not run with the default.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// `--child` and `--dir` are how the parent calls the measuring child.
    const KNOWN: [&'static str; 6] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--child",
        "--dir",
    ];

    fn new(args: &'a [String]) -> Result<Flags<'a>, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(name) = args.next() {
            if !Self::KNOWN.contains(&name.as_str()) {
                return Err(format!("unknown argument {name}"));
            }
            let value = args.next().ok_or(format!("{name} needs a value"))?;
            pairs.push((name.as_str(), value.as_str()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("bad value for {name}: {text}")),
        }
    }
}

/// Where everything the benchmark writes goes: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [first, ..] if first == "compare" => return compare(args),
        [only] if only == "--list" => {
            list();
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    let flags = Flags::new(args)?;
    let seed: u64 = flags.parse("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parse("--seconds", DEFAULT_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    if let Some(mode) = flags.get("--child") {
        let name = flags.get("--workload").ok_or("--child needs --workload")?;
        let dir = PathBuf::from(flags.get("--dir").ok_or("--child needs --dir")?);
        let result = child::run(mode, name, seed, seconds, dir)?;
        println!("{}", to_json(&result, false));
        return Ok(ExitCode::SUCCESS);
    }
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    match flags.get("--workload") {
        Some(name) => {
            if !catalog::is_workload(name) {
                return Err(format!("unknown workload {name}; try --list"));
            }
            let traced = match flags.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
            };
            let run = run_workload(name, seed, seconds, traced)?;
            let path = out_dir.join(format!("run-{name}-seed{seed}-trace{}.json", traced as u8));
            std::fs::write(&path, to_json(&run, true))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            // the driver's contract: one JSON object on the last line
            let pick = |k: &str| field(&run, k).cloned().unwrap_or(Value::Null);
            let line = map(vec![
                ("correct", pick("correct")),
                ("attempted", pick("ops_attempted")),
                ("failed", pick("ops_failed")),
                ("metrics", pick("metrics")),
            ]);
            println!("{}", to_json(&line, false));
        }
        None => {
            if flags.get("--trace").is_some() {
                return Err("--trace needs --workload".into());
            }
            let doc = run_all(seed, seconds)?;
            let text = to_json(&doc, true);
            let path = out_dir.join(format!("report-seed{seed}.json"));
            std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("{text}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (tracing off; bound = share of the parent's median):");
    for m in &END_TO_END {
        println!(
            "  {:<32} {:<6} {:<6} bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("  (failed operations are reported as attempted/failed; answer error as verify.answer_err_pct)");
    println!("per-layer metrics (traced run):");
    for m in &PER_LAYER {
        println!("  {:<32} {:<6} {}", m.name, m.unit, m.better.as_str());
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [_, a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (rows, regressed) = report::compare(&load(a)?, &load(b)?);
    println!(
        "{:<16} {:<16} {:>14} {:>14}  verdict",
        "workload", "metric", "A", "B"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Produce one workload's inputs once; for serve this includes starting
/// the service and ingesting, which a user of the service also pays.
fn set_up(name: &str, seed: u64, files: &inputs::Files, rec: &mut Recorder) -> Result<(), String> {
    let made = match Batch::from_name(name) {
        Some(Batch::PhasedReduced) => inputs::make_phased(rec, files, seed),
        Some(batch) => inputs::make_heleshaw(rec, files, seed, batch.stride()),
        None => inputs::make_heleshaw(rec, files, seed, serve::STRIDE).and_then(|()| {
            let ctx = child::load_ctx(files.dir.clone(), seed)?;
            serve::Session::start(&ctx).map(serve::Session::shutdown)
        }),
    };
    made.map_err(|e| format!("set-up of {name}: {e}"))
}

/// Re-execute this binary to measure one workload under `threads` pool
/// threads; returns the JSON object the child prints last.
fn spawn_child(
    mode: &str,
    name: &str,
    seed: u64,
    seconds: f64,
    threads: usize,
    dir: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", mode, "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--dir")
        .arg(dir)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {mode} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the {mode} child of {name} ended with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    parse_json(last).map_err(|e| format!("the child's result does not parse: {e}"))
}

fn num(v: &Value, key: &str) -> f64 {
    field(v, key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn samples(v: &Value, key: &str) -> Vec<f64> {
    field(v, key)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// One run of one workload: set-up, the measuring child (and for a traced
/// run of a library workload the 1-thread child), and the run's report.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let scratch = Scratch(out_dir().join(format!("tmp-{}-{name}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let files = inputs::Files {
        dir: scratch.0.clone(),
    };

    let mut rec = Recorder::default();
    rec.begin_pass(0, true);
    let t = Instant::now();
    set_up(name, seed, &files, &mut rec)?;
    let setup_s = t.elapsed().as_secs_f64();

    let threads = nproc().min(2);
    let mode = if traced { "traced" } else { "timed" };
    let result = spawn_child(mode, name, seed, seconds, threads, &files.dir)?;
    let ops = samples(&result, "op_seconds");
    let mut metrics: Vec<(String, Value)> = Vec::new();
    if traced {
        let mut layer: Vec<(String, f64)> = field(&result, "layer")
            .and_then(Value::as_map)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                    .collect()
            })
            .unwrap_or_default();
        let setup_self = rec.self_seconds(|_| true);
        let sim_s = setup_self.get("sim.run").copied().unwrap_or(0.0);
        layer.push(("sim.run_s".into(), sim_s));
        if sim_s > 0.0 {
            let steps = (inputs::PARTICLES * inputs::SIM_STEPS) as f64;
            layer.push(("sim.particle_steps_per_s".into(), steps / sim_s));
        }
        layer.push((
            "models.fit_s".into(),
            setup_self.get("models.fit").copied().unwrap_or(0.0),
        ));
        layer.push(("scaling.threads".into(), threads as f64));
        let wall_nt = median(&ops);
        if Batch::from_name(name).is_some() {
            // The 1-thread run gets half a window more. With one core there
            // is no second row to measure: the n-thread run is the 1-thread
            // run and no speed-up is stated.
            let wall_1t = if threads > 1 {
                let one = spawn_child("scaling", name, seed, seconds * 0.5, 1, &files.dir)?;
                median(&samples(&one, "op_seconds"))
            } else {
                wall_nt
            };
            layer.push(("scaling.wall_1t_s".into(), wall_1t));
            if threads > 1 && wall_nt > 0.0 {
                layer.push(("scaling.speedup_nt".into(), wall_1t / wall_nt));
            }
        }
        for m in &PER_LAYER {
            let value = layer
                .iter()
                .find(|(k, _)| k == m.name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push((m.name.to_string(), metric(value, m.unit)));
        }
    } else {
        for m in &END_TO_END {
            let value = match m.name {
                "wall_s" => median(&ops),
                "psamples_per_s" => num(&result, "psamples") / num(&result, "window_s").max(1e-9),
                "peak_rss_mib" => num(&result, "peak_rss_mib"),
                "setup_s" => setup_s,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.push((m.name.to_string(), metric(value, m.unit)));
        }
    }

    let attempted = num(&result, "attempted");
    let failed = num(&result, "failed");
    let copy = |k: &str| field(&result, k).cloned().unwrap_or(Value::Null);
    let digest = field(&result, "workload_digest")
        .and_then(Value::as_str)
        .unwrap_or("");
    let counts_repeat = field(&result, "counts_repeat").and_then(Value::as_bool) != Some(false);
    let committed = match catalog::committed_digest(name) {
        Some(d) if seed == DEFAULT_SEED => Value::Bool(d == digest),
        _ => Value::Null,
    };
    Ok(map(vec![
        ("workload", Value::Str(name.to_string())),
        ("seed", Value::UInt(seed)),
        ("trace", Value::Bool(traced)),
        ("seconds", Value::Float(seconds)),
        ("threads", Value::UInt(threads as u64)),
        ("nproc", Value::UInt(nproc() as u64)),
        (
            "correct",
            Value::Bool(failed == 0.0 && attempted >= 1.0 && counts_repeat),
        ),
        ("ops_attempted", Value::UInt(attempted as u64)),
        ("ops_failed", Value::UInt(failed as u64)),
        (
            "failed_ops_pct",
            Value::Float(100.0 * failed / attempted.max(1.0)),
        ),
        ("errors", copy("errors")),
        ("answer_err_pct", copy("answer_err_pct")),
        ("predicted_seconds", copy("predicted_seconds")),
        ("workload_digest", Value::Str(digest.to_string())),
        ("digest_matches_committed", committed),
        ("counts_repeat", Value::Bool(counts_repeat)),
        ("counts", copy("counts")),
        ("op_seconds", summary(&ops, "s")),
        ("metrics", Value::Map(metrics)),
    ]))
}

/// Every workload: `RUNS` untraced runs (each end-to-end metric is stated
/// as the median of the runs, with min, quartiles and count) and one
/// traced run, as one document.
fn run_all(seed: u64, seconds: f64) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        eprintln!("pic-e2e-bench: {} ({RUNS} untraced runs, 1 traced)", w.name);
        let mut untraced = Vec::new();
        for _ in 0..RUNS {
            untraced.push(run_workload(w.name, seed, seconds, false)?);
        }
        let traced = run_workload(w.name, seed, seconds, true)?;
        let end_to_end: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<f64> = untraced
                    .iter()
                    .map(|r| {
                        field(r, "metrics")
                            .and_then(|ms| field(ms, m.name))
                            .map_or(0.0, |v| num(v, "value"))
                    })
                    .collect();
                (m.name.to_string(), summary(&values, m.unit))
            })
            .collect();
        let all = || untraced.iter().chain([&traced]);
        let sum = |key: &str| all().map(|r| num(r, key)).sum::<f64>();
        let (attempted, failed) = (sum("ops_attempted"), sum("ops_failed"));
        let correct = all().all(|r| field(r, "correct").and_then(Value::as_bool) == Some(true));
        let copy = |r: &Value, k: &str| field(r, k).cloned().unwrap_or(Value::Null);
        let first = &untraced[0];
        workloads.push((
            w.name.to_string(),
            map(vec![
                ("correct", Value::Bool(correct)),
                ("ops_attempted", Value::UInt(attempted as u64)),
                ("ops_failed", Value::UInt(failed as u64)),
                (
                    "failed_ops_pct",
                    Value::Float(100.0 * failed / attempted.max(1.0)),
                ),
                ("answer_err_pct", copy(first, "answer_err_pct")),
                ("predicted_seconds", copy(first, "predicted_seconds")),
                ("workload_digest", copy(first, "workload_digest")),
                (
                    "digest_matches_committed",
                    copy(first, "digest_matches_committed"),
                ),
                ("counts_repeat", copy(&traced, "counts_repeat")),
                ("counts", copy(&traced, "counts")),
                ("end_to_end", Value::Map(end_to_end)),
                ("per_layer", copy(&traced, "metrics")),
            ]),
        ));
    }
    Ok(map(vec![
        ("schema", Value::Str("pic-e2e-bench/1".into())),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("runs", Value::UInt(RUNS as u64)),
        ("threads", Value::UInt(nproc().min(2) as u64)),
        ("nproc", Value::UInt(nproc() as u64)),
        ("workloads", Value::Map(workloads)),
    ]))
}
