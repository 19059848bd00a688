//! `picpredict` — command-line front end for the prediction framework
//! (the commands and their flags are in `USAGE`, printed on any error).
//!
//! `run` executes the mini PIC application and writes the trace + timing
//! records; the other commands never touch the application again — they
//! are the paper's "predict anything from one trace" workflow. The flags of
//! the replaying commands are a [`pic_predict::Request`], admitted and
//! parsed by the key list and field table the service's endpoints go
//! through, and [`request::answer`] answers them as it answers the service:
//! `predict` prints one JSON line per point, for one point byte for byte
//! what `/predict` returns, and `sweep --out` writes what `/sweep` returns.
//! Every trace-consuming command reads the raw and the compact format alike.
#![forbid(unsafe_code)]

use pic_predict::request::{self, Answer, Raw, Resident, Transport};
use pic_predict::{kernel_models::FitStrategy, KernelModels, Request, SweepGridEntry};
use pic_sim::{MiniPic, Recorder, SimConfig};
use pic_trace::trace::KEYFRAME_SPACING;
use pic_trace::{codec, ParticleTrace, Precision};
use pic_types::{PicError, Result};
use pic_workload::{metrics, DynamicWorkload, ReductionPlan};
use std::collections::HashMap;
use std::fs::File;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            1
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "usage:
  picpredict run --config cfg.json --trace out.pictrace [--records rec.json] [--precision f64|f32]
  picpredict default-config                 # print a template configuration
  picpredict info --trace t.pictrace        # trace metadata and statistics
  picpredict check [--workload w.json] [--particles N | --trace t.pictrace] [--models m.json]
  picpredict workload --trace t.pictrace --ranks N --mapping M [--stream true] [--filter F] [--mesh AxBxC --order K] [--out DIR]
  picpredict benchmark --out rec.json [--wallclock true] [--order K] [--filter F]
  picpredict fit --records rec.json --out models.json [--strategy linear|auto]
  picpredict predict --trace t.pictrace --models models.json --ranks N[,N2] [--mapping M[,M2]] [--machine NAME|FILE] [--sync barrier|neighbor] [--mesh AxBxC --order K] [--filter F[,F2]]
                     # stdout: one compact JSON line per point (mapping-major, as sweep)
  picpredict extrapolate --trace t.pictrace --out big.pictrace --particles N [--seed S]
  picpredict study scalability --trace T --ranks 16,32,64 --mapping M [--filter F] [--mesh AxBxC --order K]
  picpredict study bins --trace T --filter F
  picpredict study sampling --trace T --ranks N --mapping M --strides 1,2,4 [--filter F] [--mesh AxBxC --order K]
  picpredict sweep --trace T --ranks 16,32 [--mappings M1,M2] [--filters F1,F2] [--strides 1,2]
                   [--ghosts false] [--stream true] [--mesh AxBxC --order K] [--out grid.json]
  picpredict simpoint --trace T --ranks N --mapping M [--k K] [--k-max 16] [--seed S] [--bins B]
                      [--features spatial|full]
                      [--filter F] [--mesh AxBxC --order K] [--budget 0.02] [--holdout 8]
                      [--plan-out plan.json] [--out workload.json]
  picpredict compact --trace t.pictrace --out t.pictrcz [--precision f64|f32]
  picpredict serve [--addr 127.0.0.1:7070] [--budget-mb 512] [--read-timeout-ms 2000] [--max-body-mb 256]

workload, sweep, predict, simpoint and study scalability|sampling are answered by the
call serve's /sweep and /predict make: predict prints, and sweep --out writes, the bytes
those endpoints answer. --holdout and a filter must be positive; --budget must be >= 0.
boolean flags take true or false (a flag given last with no value means true);
a flag the command does not list, or one given twice, is an error.

global flags:
  --threads N    run the command under an N-thread pool (default: shared
                 pool sized from RAYON_NUM_THREADS or machine parallelism)";

/// Split `args` into bare words and `--key value` flags, in the order
/// given, repeats included.
fn split_args(args: &[String]) -> (Vec<String>, Vec<(String, String)>) {
    let (mut positional, mut flags) = (Vec::new(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.strip_prefix("--") {
            Some(key) => flags.push((key.to_string(), args.next().cloned().unwrap_or_default())),
            None => positional.push(arg.clone()),
        }
    }
    (positional, flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str> {
    let missing = || PicError::config(format!("missing required flag --{key}"));
    flags.get(key).map(String::as_str).ok_or_else(missing)
}

/// `--key` parsed as `T`, `None` when the flag is absent. A value that
/// does not parse is an error naming the flag and the value, never a
/// silent fall-back.
fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<Option<T>> {
    let Some(s) = flags.get(key) else {
        return Ok(None);
    };
    let what = match std::any::type_name::<T>().starts_with('f') {
        true => "a number",
        false => "an integer",
    };
    let refused = || PicError::config(format!("--{key} must be {what}, got '{s}'"));
    s.parse().map(Some).map_err(|_| refused())
}

/// [`flag`], or `default` when the flag is absent.
fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T> {
    Ok(flag(flags, key)?.unwrap_or(default))
}

/// `--key` as one of the named `choices`, or `default` when absent.
fn choice_or<T: Copy>(
    flags: &HashMap<String, String>,
    key: &str,
    choices: &[(&str, T)],
    default: T,
) -> Result<T> {
    let Some(s) = flags.get(key) else {
        return Ok(default);
    };
    choices
        .iter()
        .find(|(name, _)| name == s)
        .map(|&(_, v)| v)
        .ok_or_else(|| {
            let names: Vec<&str> = (choices.iter().map(|c| c.0))
                .filter(|n| !n.is_empty())
                .collect();
            PicError::config(format!("--{key} must be {}, got '{s}'", names.join(" or ")))
        })
}

/// A boolean `--key`: `true`, `false`, or the flag with no value (which
/// means `true`); `default` when absent. Anything else is an error, never
/// a yes.
fn bool_flag(flags: &HashMap<String, String>, key: &str, default: bool) -> Result<bool> {
    let choices = [("true", true), ("false", false), ("", true)];
    choice_or(flags, key, &choices, default)
}

/// `--key` as a positive integer, `None` when the flag is absent.
fn positive_flag<T: std::str::FromStr + PartialOrd + Default>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>> {
    let Some(s) = flags.get(key) else {
        return Ok(None);
    };
    match s.parse::<T>() {
        Ok(n) if n > T::default() => Ok(Some(n)),
        _ => Err(PicError::config(format!(
            "--{key} must be a positive integer, got '{s}'"
        ))),
    }
}

const PRECISIONS: [(&str, codec::Precision); 2] = [
    ("f64", codec::Precision::F64),
    ("f32", codec::Precision::F32),
];

/// The request `command`'s flags name ([`Request::parse`]).
fn request(command: &str, flags: &HashMap<String, String>) -> Result<Request> {
    Request::parse(command, |key| flags.get(key).map(|s| Raw::Text(s)))
}

fn dispatch(args: &[String]) -> Result<()> {
    let (positional, pairs) = split_args(args);
    let cmd = positional.first().map(|s| s.as_str()).unwrap_or("");
    let kind = positional.get(1).map_or("", String::as_str);
    // A flag the command does not read is a typo or a retired option, and
    // a repeated one an ambiguity, not something to settle silently.
    let name = match cmd {
        "study" => format!("study {kind}"),
        _ => cmd.to_string(),
    };
    let given: Vec<_> = (pairs.iter())
        .map(|(k, v)| (k.as_str(), Raw::Text(v)))
        .collect();
    request::admit(&name, &given, Transport::Flags)?;
    let flags: HashMap<String, String> = pairs.into_iter().collect();
    // Global `--threads N`: run the whole command under a pool of that
    // size. Without it, the shared-pool policy applies (pool sized from
    // `RAYON_NUM_THREADS`, falling back to the machine's parallelism).
    if let Some(n) = positive_flag::<usize>(&flags, "threads")? {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| PicError::config(format!("cannot build {n}-thread pool: {e}")))?;
        return pool.install(|| dispatch_cmd(cmd, kind, &flags));
    }
    dispatch_cmd(cmd, kind, &flags)
}

fn dispatch_cmd(cmd: &str, kind: &str, flags: &HashMap<String, String>) -> Result<()> {
    match cmd {
        "run" => cmd_run(flags),
        "default-config" => {
            println!("{}", SimConfig::default().to_json());
            Ok(())
        }
        "info" => cmd_info(flags),
        "check" => cmd_check(flags),
        "workload" | "sweep" | "predict" | "simpoint" => cmd_answer(cmd, flags),
        "benchmark" => cmd_benchmark(flags),
        "fit" => cmd_fit(flags),
        "extrapolate" => cmd_extrapolate(flags),
        "study" => match kind {
            "bins" => cmd_study_bins(flags),
            "scalability" | "sampling" => cmd_answer(&format!("study {kind}"), flags),
            other => Err(PicError::config(format!(
                "unknown study '{other}' (expected scalability | bins | sampling)"
            ))),
        },
        "compact" => cmd_compact(flags),
        "serve" => cmd_serve(flags),
        "" => Err(PicError::config("no command given")),
        other => Err(PicError::config(format!("unknown command '{other}'"))),
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<()> {
    let cfg_path = required(flags, "config")?;
    let trace_path = required(flags, "trace")?;
    let cfg = SimConfig::from_json(&std::fs::read_to_string(cfg_path)?)?;
    let precision = choice_or(flags, "precision", &PRECISIONS, codec::Precision::F64)?;
    eprintln!(
        "running: {} particles / {} elements / {} ranks / {} mapping / {} steps",
        cfg.particles,
        cfg.element_count(),
        cfg.ranks,
        cfg.mapping,
        cfg.steps
    );
    let t0 = Instant::now();
    let out = MiniPic::new(cfg)?.run()?;
    let seconds = t0.elapsed().as_secs_f64();
    eprintln!("application finished in {seconds:.2} s");
    codec::save_file(&out.trace, trace_path, precision)?;
    let (samples, particles) = (out.trace.sample_count(), out.trace.particle_count());
    eprintln!("trace: {samples} samples x {particles} particles -> {trace_path}");
    if let Some(path) = flags.get("records") {
        std::fs::write(path, out.recorder.to_json())?;
        eprintln!("records: {} kernel timings -> {path}", out.recorder.len());
    }
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<()> {
    let trace = codec::load_file(required(flags, "trace")?)?;
    let meta = trace.meta();
    println!("description:     {}", meta.description);
    println!("particles:       {}", meta.particle_count);
    println!("samples:         {}", trace.sample_count());
    println!("sample interval: {} iterations", meta.sample_interval);
    println!("domain:          {}", meta.domain);
    let keyframes = match trace.storage() {
        "f64" => String::new(),
        _ => format!(", keyframe every {KEYFRAME_SPACING} frames"),
    };
    println!(
        "storage:         {}{keyframes}, {} bytes resident",
        trace.storage(),
        trace.resident_bytes()
    );
    let vols = pic_trace::stats::boundary_volume_series(&trace);
    if let (Some(first), Some(last)) = (vols.first(), vols.last()) {
        println!("boundary volume: {first:.4e} -> {last:.4e}");
    }
    println!(
        "max step move:   {:.4e}",
        pic_trace::stats::max_step_displacement(&trace)
    );
    Ok(())
}

/// Static verification of a user's files: the workload invariant catalog
/// (`--workload`) and kernel-model admission plus expression analysis
/// (`--models`). Exits nonzero if any check fails; warnings alone do not
/// fail the run.
fn cmd_check(flags: &HashMap<String, String>) -> Result<()> {
    if !flags.contains_key("workload") && !flags.contains_key("models") {
        return Err(PicError::config(
            "nothing to check: pass --workload and/or --models",
        ));
    }
    let mut failures = 0usize;

    if let Some(path) = flags.get("workload") {
        let w: pic_workload::DynamicWorkload =
            serde_json::from_str(&std::fs::read_to_string(path)?)
                .map_err(|e| PicError::config(format!("bad workload JSON in {path}: {e}")))?;
        // the conservation reference: explicit flag, else the trace header
        let expected: Option<u64> = match (flag(flags, "particles")?, flags.get("trace")) {
            (Some(n), _) => Some(n),
            (None, Some(path)) => {
                let reader =
                    pic_trace::TraceReader::new(std::io::BufReader::new(File::open(path)?))?;
                Some(reader.meta().particle_count as u64)
            }
            (None, None) => None,
        };
        let violations = pic_analysis::check_workload(&w, expected);
        if violations.is_empty() {
            println!(
                "workload {path}: OK ({} ranks x {} samples, all invariants hold)",
                w.ranks,
                w.samples()
            );
        } else {
            for v in &violations {
                eprintln!("error: {v}");
            }
            eprintln!("workload {path}: {} violation(s)", violations.len());
            failures += violations.len();
        }
    }

    if let Some(path) = flags.get("models") {
        // from_json runs the admission pass: corrupt models error out here
        // with positioned diagnostics
        let models = KernelModels::from_json(&std::fs::read_to_string(path)?)?;
        let mut warnings = 0usize;
        for km in models.models() {
            if let pic_models::FittedModel::Symbolic(sm) = &km.model {
                let space = pic_analysis::FeatureSpace::unconstrained(km.feature_columns.len());
                let report = pic_analysis::analyze_expr(&sm.expr, &space);
                for d in &report.diagnostics {
                    println!("{}: {d}", km.kernel);
                    if d.severity == pic_analysis::Severity::Warning {
                        warnings += 1;
                    }
                }
                // Differential check: the compiled tape predictions run on
                // must match the tree evaluator on the space's corners.
                pic_analysis::check_compiled_equivalence(&sm.expr, &space)
                    .map_err(|e| PicError::model(format!("kernel '{}': {e}", km.kernel)))?;
            }
        }
        println!(
            "models {path}: OK ({} kernel model(s) admitted, {warnings} warning(s))",
            models.models().len()
        );
    }

    if failures > 0 {
        // diagnostics were already printed, positioned; no usage dump
        eprintln!("check failed with {failures} violation(s)");
        std::process::exit(1);
    }
    Ok(())
}

/// Kernel benchmarking sweep (paper §II-B): the preferred way to produce
/// training data, since it varies every workload parameter independently —
/// unlike a single application run, whose balanced mapping keeps `N_p`
/// nearly constant across ranks.
fn cmd_benchmark(flags: &HashMap<String, String>) -> Result<()> {
    let mut sweep = pic_sim::SweepConfig::default();
    sweep.order = flag_or(flags, "order", sweep.order)?;
    sweep.projection_filter = flag_or(flags, "filter", sweep.projection_filter)?;
    let mode = match bool_flag(flags, "wallclock", false)? {
        true => {
            sweep.timing = pic_sim::config::TimingMode::WallClock;
            "wall-clock"
        }
        false => "oracle",
    };
    let observations = sweep.record_count();
    eprintln!("benchmarking {observations} kernel observations ({mode} mode)...");
    let t0 = Instant::now();
    let rec = pic_sim::benchmark_kernels(&sweep)?;
    let seconds = t0.elapsed().as_secs_f64();
    eprintln!("sweep finished in {seconds:.2} s");
    let out = required(flags, "out")?;
    std::fs::write(out, rec.to_json())?;
    eprintln!("records: {} -> {out}", rec.len());
    Ok(())
}

fn cmd_fit(flags: &HashMap<String, String>) -> Result<()> {
    let recorder = Recorder::from_json(&std::fs::read_to_string(required(flags, "records")?)?)?;
    let strategy = match flags.get("strategy").map(|s| s.as_str()) {
        Some("linear") | None => FitStrategy::Linear,
        Some("auto") => FitStrategy::default(),
        Some(other) => return Err(PicError::config(format!("unknown strategy '{other}'"))),
    };
    let models = KernelModels::fit(&recorder, &strategy, 42)?;
    print!("{}", models.describe());
    let mape = models.mean_validation_mape();
    println!("average validation MAPE: {mape:.2}%");
    let out = required(flags, "out")?;
    std::fs::write(out, models.to_json())?;
    eprintln!("models -> {out}");
    Ok(())
}

/// `workload`, `sweep`, `predict`, `simpoint` and `study scalability` /
/// `study sampling`: resolve what the flags name — the `--trace` file, the
/// `--models` file, for `simpoint` the reduction plan its clustering flags
/// build and the `--holdout` of its gate — then [`request::answer`] and
/// render the [`Answer`] for the terminal and the `--out` files. The
/// studies replay without ghosts; `study sampling` scores every stride
/// against a stride-1 row 0.
fn cmd_answer(command: &str, flags: &HashMap<String, String>) -> Result<()> {
    let mut req = request(command, flags)?;
    if let Some(kind) = command.strip_prefix("study ") {
        req.grid.compute_ghosts = false;
        if kind == "sampling" {
            if !flags.contains_key("strides") {
                req.grid.strides = vec![1, 2, 4, 8];
            }
            req.grid.strides.insert(0, 1);
        }
    }
    let path = required(flags, "trace")?;
    if bool_flag(flags, "stream", false)? {
        let t0 = Instant::now();
        return render(command, &stream(&req, path)?, t0, flags);
    }
    let trace = codec::load_file(path)?;
    let models = match command {
        "predict" => {
            let text = std::fs::read_to_string(required(flags, "models")?)?;
            Some(KernelModels::from_json(&text)?)
        }
        _ => None,
    };
    let t0 = Instant::now();
    let plan = match command {
        "simpoint" => Some(simpoint_plan(&trace, &req, flags)?),
        _ => None,
    };
    let resident = Resident {
        trace: &trace,
        models: models.as_ref(),
        cache: None,
        plan: plan.as_ref(),
        holdout: flag(flags, "holdout")?,
    };
    let t1 = Instant::now();
    let answer = request::answer(command, &req, &resident)?;
    match (&answer, plan) {
        (Answer::Grid { entries, .. }, _) if command == "study sampling" => {
            print_sampling(entries, trace.particle_count());
            Ok(())
        }
        (_, Some(plan)) => print_simpoint(&answer, &plan, t1 - t0, t1.elapsed(), flags),
        _ => render(command, &answer, t1, flags),
    }
}

/// The grid `req` names, replayed from the file at `path` by the bounded
/// streaming pipeline, which never loads the trace whole (the path for
/// traces larger than memory; a truncated or corrupt file fails with a
/// byte-positioned error), and gated as [`request::answer`] gates a full
/// replay. Prints the pipeline's ingest stats.
fn stream(req: &Request, path: &str) -> Result<Answer> {
    let reader = pic_trace::TraceReader::new(std::io::BufReader::new(File::open(path)?))?;
    let particles = reader.meta().particle_count as u64;
    let mesh = req.element_mesh(reader.meta().domain)?;
    let points = req.grid.points();
    let (workloads, stats, ingest) = pic_workload::sweep_streaming(reader, &points, mesh.as_ref())?;
    pic_analysis::assert_sweep_valid(&workloads, Some(particles))?;
    let json = serde_json::to_string_pretty(&ingest)
        .map_err(|e| PicError::config(format!("cannot serialize ingest stats: {e}")))?;
    println!("ingest stats: {json}");
    let entries = pic_predict::grid_entries(&points, workloads);
    let reports = Vec::new();
    Ok(Answer::Grid {
        entries,
        stats,
        reports,
    })
}

/// How `predict` (its JSON lines on stdout, a summary on stderr),
/// `workload` (its one point's summary, and with `--out` its matrices and
/// workload file), `sweep` (one row per point, and with `--out` the grid
/// JSON) and `study scalability` (one row per rank count) print the answer
/// computed since `t0`.
fn render(
    command: &str,
    answer: &Answer,
    t0: Instant,
    flags: &HashMap<String, String>,
) -> Result<()> {
    let seconds = t0.elapsed().as_secs_f64();
    match (command, answer) {
        ("predict", Answer::Predictions(predictions)) => {
            println!("{}", answer.to_json());
            for prediction in predictions {
                let t = &prediction.timeline;
                eprintln!("machine:             {}", prediction.machine);
                eprintln!("sync mode:           {}", prediction.sync);
                eprintln!("predicted time:      {:.6} s", t.total_seconds);
                let idle = 100.0 * t.mean_idle_fraction();
                eprintln!("mean idle fraction:  {idle:.2}%");
                eprintln!("events processed:    {}", t.events_processed);
            }
            eprintln!("predicted in:        {seconds:.3} s");
        }
        ("workload", Answer::Grid { entries, .. }) => {
            eprintln!("workload generated in {seconds:.2} s");
            print_workload(&entries[0].workload, flags)?;
        }
        ("sweep", Answer::Grid { entries, stats, .. }) => {
            let points = entries.len();
            eprintln!("sweep of {points} grid point(s) generated in {seconds:.2} s");
            eprintln!(
                "sharing: {} point(s) -> {} assignment group(s); {} of {} assignment passes run; \
                 {} ghost radii ({} group(s) served by one shared query)",
                stats.points,
                stats.groups,
                stats.assign_passes,
                stats.naive_assign_passes,
                stats.ghost_radii,
                stats.shared_query_groups,
            );
            println!(
                "point          mapping    ranks     filter  stride       peak   utilization   \
                 migrations       ghosts"
            );
            for e in entries {
                let summary = metrics::summarize(&e.workload);
                println!(
                    "{:>5} {:>16} {:>8} {:>10.4} {:>7} {:>10} {:>12.1}% {:>12} {:>12}",
                    e.point,
                    e.mapping.to_string(),
                    e.ranks,
                    e.projection_filter,
                    e.stride,
                    summary.peak_workload,
                    100.0 * summary.resource_utilization,
                    summary.total_migrations,
                    summary.total_ghosts
                );
            }
            if let Some(out) = flags.get("out") {
                std::fs::write(out, answer.to_json())?;
                eprintln!("full grid ({points} point(s)) -> {out}");
            }
        }
        ("study scalability", Answer::Grid { entries, .. }) => {
            println!("   ranks         peak    utilization   migrations");
            for e in entries {
                let summary = metrics::summarize(&e.workload);
                println!(
                    "{:>8} {:>12} {:>13.1}% {:>12}",
                    e.ranks,
                    summary.peak_workload,
                    100.0 * summary.resource_utilization,
                    summary.total_migrations
                );
            }
        }
        _ => unreachable!("'{command}' renders no such answer"),
    }
    Ok(())
}

/// `workload`'s one point: its summary, and with `--out` its matrices as
/// CSV and the workload as JSON, the input format of `picpredict check`.
fn print_workload(w: &DynamicWorkload, flags: &HashMap<String, String>) -> Result<()> {
    let summary = metrics::summarize(w);
    println!("ranks:                {}", summary.ranks);
    println!("samples:              {}", summary.samples);
    println!("peak workload:        {}", summary.peak_workload);
    let (utilization, idle) = (summary.resource_utilization, summary.mean_idle_fraction);
    println!("resource utilization: {:.2}%", 100.0 * utilization);
    println!("mean idle fraction:   {:.2}%", 100.0 * idle);
    println!("mean imbalance:       {:.2}", summary.mean_imbalance);
    println!("total migrations:     {}", summary.total_migrations);
    if let Some(bins) = summary.max_bins {
        println!("max bins:             {bins}");
    }
    if let Some(dir) = flags.get("out") {
        std::fs::create_dir_all(dir)?;
        std::fs::write(format!("{dir}/comp_real.csv"), w.real.to_csv())?;
        std::fs::write(format!("{dir}/comp_ghost_recv.csv"), w.ghost_recv.to_csv())?;
        let mut comm = String::from("sample,from,to,count\n");
        for (t, entries) in w.comm.entries.iter().enumerate() {
            for &(f, to, c) in entries {
                comm.push_str(&format!("{t},{f},{to},{c}\n"));
            }
        }
        std::fs::write(format!("{dir}/comm.csv"), comm)?;
        std::fs::write(format!("{dir}/workload.json"), w.to_json_pretty())?;
        eprintln!("matrices written to {dir}/");
    }
    Ok(())
}

/// `study sampling`: each stride's fidelity against the stride-1 row 0 and
/// the trace bytes it would keep.
fn print_sampling(rows: &[SweepGridEntry], particles: usize) {
    println!("  stride    trace bytes    peak MAPE [%]     migration loss [%]");
    for e in &rows[1..] {
        let (mape, lost) = metrics::sampling_fidelity(&rows[0].workload, &e.workload, e.stride);
        let samples = e.workload.samples();
        let bytes = pic_trace::stats::estimated_file_size(particles, samples, Precision::F32);
        println!("{:>8} {bytes:>14} {mape:>16.2} {lost:>22.2}", e.stride);
    }
}

/// The paper's bin study: the unbounded bin count per sample, whose peak
/// is the processor count a bin mapping would use. It replays no grid: its
/// one request field is the filter.
fn cmd_study_bins(flags: &HashMap<String, String>) -> Result<()> {
    let trace = codec::load_file(required(flags, "trace")?)?;
    let filter = flag_or(flags, "filter", Request::default().grid.filters[0])?;
    let bins = pic_workload::generator::unbounded_bin_series(&trace, &[filter])?.remove(0);
    for (iter, bins) in trace.iterations().iter().zip(&bins) {
        println!("iteration {iter:>8}: {bins} bins");
    }
    println!(
        "optimal processor count: {}",
        bins.iter().max().unwrap_or(&0)
    );
    Ok(())
}

/// `simpoint`'s reduction plan: the trace's samples clustered into phases
/// under the clustering flags. [`request::answer`] then replays one
/// representative per phase (plus owner-only passes for representative
/// predecessors), broadcasts each outcome across its cluster, and holds the
/// reconstruction to the holdout error budget before anything is written.
fn simpoint_plan(
    trace: &ParticleTrace,
    req: &Request,
    flags: &HashMap<String, String>,
) -> Result<ReductionPlan> {
    let mut opts = pic_predict::SimpointOptions {
        k: req.k,
        ..Default::default()
    };
    opts.k_max = flag_or(flags, "k-max", opts.k_max)?;
    opts.seed = flag_or(flags, "seed", opts.seed)?;
    opts.features.bins_per_axis = flag_or(flags, "bins", opts.features.bins_per_axis)?;
    let features = [("spatial", true), ("full", false)];
    opts.spatial_only = choice_or(flags, "features", &features, opts.spatial_only)?;
    pic_predict::build_simpoint_plan(trace, &opts)
}

/// `simpoint`'s report: the plan, the replay, the gate, the reconstructed
/// workload's headline figures, and with `--plan-out` / `--out` the plan
/// and the workload as JSON.
fn print_simpoint(
    answer: &Answer,
    plan: &ReductionPlan,
    cluster: Duration,
    replay: Duration,
    flags: &HashMap<String, String>,
) -> Result<()> {
    let Answer::Grid {
        entries,
        stats,
        reports,
    } = answer
    else {
        unreachable!("'simpoint' answers a grid")
    };
    let (w, report) = (&entries[0].workload, &reports[0]);
    println!("samples:            {}", plan.total_samples);
    println!("phases (K):         {}", plan.k());
    let (full, owner_only) = (stats.assign_passes, stats.owner_only_passes);
    println!("replayed samples:   {full} full + {owner_only} owner-only");
    println!("reduction factor:   {:.1}x", plan.reduction_factor());
    println!(
        "holdout peak error: {:.4} (budget {:.4}, {} holdout sample(s))",
        report.max_rel_error,
        report.budget.max_peak_rel_error,
        report.points.len()
    );
    let (cluster, replay) = (cluster.as_secs_f64(), replay.as_secs_f64());
    println!("timing:             cluster {cluster:.3} s + reduced replay and gate {replay:.3} s");
    let summary = metrics::summarize(w);
    println!("peak workload:      {}", summary.peak_workload);
    let utilization = 100.0 * summary.resource_utilization;
    println!("resource util:      {utilization:.2}%");
    if let Some(path) = flags.get("plan-out") {
        let json = serde_json::to_string_pretty(plan)
            .map_err(|e| PicError::config(format!("cannot serialize plan: {e}")))?;
        std::fs::write(path, json)?;
        eprintln!("reduction plan -> {path}");
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, w.to_json_pretty())?;
        eprintln!("reconstructed workload -> {path}");
    }
    Ok(())
}

/// Convert a trace (either format in) to the compact delta-encoded
/// format, reporting the size ratio. The conversion is gated on a
/// decode-back check: the compact file must read back with the trace's
/// sample and particle counts before the command succeeds.
fn cmd_compact(flags: &HashMap<String, String>) -> Result<()> {
    let in_path = required(flags, "trace")?;
    let out_path = required(flags, "out")?;
    let trace = codec::load_file(in_path)?;
    let precision = choice_or(flags, "precision", &PRECISIONS, codec::Precision::F32)?;
    let in_bytes = std::fs::metadata(in_path)?.len();
    let out_bytes = pic_trace::compact::save_file(&trace, out_path, precision)?;
    // round-trip gate: the file we just wrote must decode to the same
    // shape (sample/particle counts) before we report success
    let back = codec::load_file(out_path)?;
    if back.sample_count() != trace.sample_count()
        || back.particle_count() != trace.particle_count()
    {
        return Err(PicError::config(format!(
            "compact round-trip mismatch: wrote {}x{}, read back {}x{}",
            trace.sample_count(),
            trace.particle_count(),
            back.sample_count(),
            back.particle_count()
        )));
    }
    println!(
        "{in_path} ({in_bytes} B) -> {out_path} ({out_bytes} B, {:.2}x smaller)",
        in_bytes as f64 / out_bytes.max(1) as f64
    );
    Ok(())
}

/// `serve`'s flags as a [`pic_predict::ServeConfig`]. A size in MiB whose
/// byte count does not fit the field is refused, naming the flag, rather
/// than wrapped.
fn serve_config(flags: &HashMap<String, String>) -> Result<pic_predict::ServeConfig> {
    let bytes = |key: &str| -> Result<Option<usize>> {
        let Some(mb) = positive_flag::<usize>(flags, key)? else {
            return Ok(None);
        };
        let max = usize::MAX >> 20;
        let refused = || PicError::config(format!("--{key} must be at most {max} MiB, got '{mb}'"));
        mb.checked_mul(1 << 20).map(Some).ok_or_else(refused)
    };
    let mut cfg = pic_predict::ServeConfig {
        addr: flags
            .get("addr")
            .map_or("127.0.0.1:7070", String::as_str)
            .to_string(),
        ..pic_predict::ServeConfig::default()
    };
    cfg.budget_bytes = bytes("budget-mb")?.unwrap_or(cfg.budget_bytes);
    if let Some(ms) = positive_flag(flags, "read-timeout-ms")? {
        cfg.read_timeout = Duration::from_millis(ms);
    }
    cfg.max_body_bytes = bytes("max-body-mb")?.map_or(cfg.max_body_bytes, |b| b as u64);
    Ok(cfg)
}

/// The resident prediction service: bind, announce, serve until a
/// `POST /shutdown` arrives, then drain connections and exit cleanly.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<()> {
    let server = pic_predict::Server::start(serve_config(flags)?)?;
    println!("picpredict serve listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run_to_completion();
    println!("picpredict serve: shutdown complete");
    Ok(())
}

fn cmd_extrapolate(flags: &HashMap<String, String>) -> Result<()> {
    let trace = codec::load_file(required(flags, "trace")?)?;
    let out = required(flags, "out")?;
    let missing = || PicError::config("missing required flag --particles");
    let particles: usize = flag(flags, "particles")?.ok_or_else(missing)?;
    let seed: u64 = flag_or(flags, "seed", 1)?;
    let big = pic_trace::extrapolate(&trace, particles, seed)?;
    codec::save_file(&big, out, codec::Precision::F32)?;
    println!(
        "extrapolated {} -> {} particles ({} samples) -> {out}",
        trace.particle_count(),
        particles,
        big.sample_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_mapping::MappingAlgorithm;
    use pic_predict::PredictSpec;
    use pic_types::Aabb;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// [`split_args`] with the flags as the map `dispatch` reads.
    fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
        let (positional, pairs) = split_args(args);
        (positional, pairs.into_iter().collect())
    }

    #[test]
    fn parse_flags_splits_positional_and_flags() {
        let (pos, flags) = parse_flags(&argv("run --config c.json --trace t.bin"));
        assert_eq!(pos, vec!["run"]);
        assert_eq!(flags.get("config").map(String::as_str), Some("c.json"));
        assert_eq!(flags.get("trace").map(String::as_str), Some("t.bin"));
    }

    #[test]
    fn parse_flags_trailing_flag_without_value() {
        let (_, flags) = parse_flags(&argv("run --verbose"));
        assert_eq!(flags.get("verbose").map(String::as_str), Some(""));
    }

    #[test]
    fn required_reports_missing_flag() {
        let (_, flags) = parse_flags(&argv("run"));
        let err = required(&flags, "config").unwrap_err();
        assert!(err.to_string().contains("--config"));
    }

    /// The names are `MappingAlgorithm::from_str`'s; the CLI's part is the
    /// default and an error that names the flag.
    #[test]
    fn parse_mapping_accepts_all_algorithms() {
        let mappings = |args: &str| {
            let (_, flags) = parse_flags(&argv(&format!("predict --ranks 1 {args}")));
            request("predict", &flags).map(|r| r.grid.mappings)
        };
        for algorithm in [
            MappingAlgorithm::BinBased,
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
            MappingAlgorithm::LoadBalanced,
        ] {
            let given = mappings(&format!("--mapping {algorithm}"));
            assert_eq!(given.unwrap(), vec![algorithm]);
        }
        assert_eq!(mappings("").unwrap(), vec![MappingAlgorithm::BinBased]);
        let err = mappings("--mapping nonsense").unwrap_err();
        assert!(err
            .to_string()
            .contains("--mapping: unknown mapping 'nonsense'"));
    }

    /// The names are `MachineSpec::preset`'s; what the CLI adds is the
    /// fall-back to a machine file.
    #[test]
    fn parse_machine_presets() {
        let parse_machine = |name: &str| {
            let flags = HashMap::from([
                ("ranks".to_string(), "1".to_string()),
                ("machine".to_string(), name.to_string()),
            ]);
            request("predict", &flags).map(|r| r.machine)
        };
        assert_eq!(parse_machine("quartz").unwrap().name, "quartz-like");
        assert!(parse_machine("/nonexistent/machine.json").is_err());
        let path = std::env::temp_dir().join(format!("picpredict_machine_{}", std::process::id()));
        let mut custom = pic_des::MachineSpec::localhost(4);
        custom.name = "custom".to_string();
        std::fs::write(&path, serde_json::to_string(&custom).unwrap()).unwrap();
        assert_eq!(parse_machine(path.to_str().unwrap()).unwrap(), custom);
        std::fs::write(&path, "{not json").unwrap();
        assert!(parse_machine(path.to_str().unwrap()).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// `AxBxC` itself is `MeshDims::from_str`'s; the CLI's part is the
    /// pairing with `--order` and its default.
    #[test]
    fn mesh_and_order_flags_pair_into_one_mesh() {
        let mesh = |args: &str| {
            let (_, flags) = parse_flags(&argv(&format!("sweep --ranks 1 {args}")));
            request("sweep", &flags)?.element_mesh(Aabb::unit())
        };
        let given = mesh("--mesh 4x6x8 --order 4").unwrap().unwrap();
        assert_eq!(given.dims().to_array(), [4, 6, 8]);
        assert_eq!(given.order(), 4);
        let given = mesh("--mesh 2x2x2").unwrap().unwrap();
        assert_eq!(given.order(), Request::default().order);
        // absent → None
        assert!(mesh("").unwrap().is_none());
        // malformed: the error names the flag and the value
        let err = mesh("--mesh 4x6").unwrap_err().to_string();
        assert!(err.contains("--mesh") && err.contains("'4x6'"), "{err}");
    }

    #[test]
    fn malformed_flag_values_are_errors_naming_flag_and_value() {
        let dir = std::env::temp_dir().join(format!("picpredict_flags_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (t, m, c, o) = (
            path("t.pictrace"),
            path("m.json"),
            path("c.json"),
            path("o"),
        );
        let mut trace =
            pic_trace::ParticleTrace::new(pic_trace::TraceMeta::new(8, 10, Aabb::unit(), "flags"));
        for k in 0..2 {
            let at = |i: usize| pic_types::Vec3::new(0.1 * i as f64, 0.5, 0.1 + 0.1 * k as f64);
            trace.push_positions((0..8).map(at).collect()).unwrap();
        }
        codec::save_file(&trace, &t, codec::Precision::F64).unwrap();
        let records = pic_sim::benchmark_kernels(&pic_sim::SweepConfig::default()).unwrap();
        let models = KernelModels::fit(&records, &FitStrategy::Linear, 1).unwrap();
        std::fs::write(&m, models.to_json()).unwrap();
        std::fs::write(&c, SimConfig::default().to_json()).unwrap();

        let predict = format!("predict --trace {t} --models {m} --ranks 4");
        let meshed = format!("{predict} --mesh 2x2x2");
        let placed = format!("--trace {t} --ranks 4 --mapping bin-based");
        let sweep = format!("sweep --trace {t} --ranks 4");
        // (command, flag appended to it, malformed value)
        let table = [
            // `0,05` is the list [0, 5]; a decimal comma cannot be told apart
            (predict.clone(), "--filter", "0;05"),
            (predict.clone(), "--order", "3rd"),
            (meshed, "--order", "three"),
            (predict.clone(), "--sync", "neighbour"),
            (predict.clone(), "--mapping", "bins"),
            (predict.clone(), "--mesh", "2x2"),
            // booleans are true or false, not "anything but false"
            (sweep.clone(), "--ghosts", "no"),
            (sweep.clone(), "--ghosts", "0"),
            (sweep.clone(), "--ghosts", "False"),
            (sweep.clone(), "--stream", "off"),
            (format!("workload {placed}"), "--stream", "yes"),
            (format!("benchmark --out {o}"), "--wallclock", "1"),
            // positive integers
            (predict.clone(), "--threads", "0"),
            (predict.clone(), "--threads", "two"),
            ("serve".to_string(), "--budget-mb", "0"),
            ("serve".to_string(), "--read-timeout-ms", "-5"),
            ("serve".to_string(), "--max-body-mb", "1.5"),
            (format!("workload {placed}"), "--filter", "3%"),
            (format!("study bins --trace {t}"), "--filter", "wide"),
            (format!("simpoint {placed}"), "--filter", "0..3"),
            (
                format!("extrapolate --trace {t} --out {o} --particles 16"),
                "--seed",
                "-1",
            ),
            (
                format!("run --config {c} --trace {o}"),
                "--precision",
                "f16",
            ),
            (
                format!("compact --trace {t} --out {o}"),
                "--precision",
                "double",
            ),
        ];
        for (base, flag, value) in &table {
            let cmd = format!("{base} {flag} {value}");
            let err = dispatch(&argv(&cmd)).expect_err(&cmd).to_string();
            assert!(
                err.contains(flag) && err.contains(&format!("'{value}'")),
                "{cmd}: {err}"
            );
        }
        // the same commands with the flag absent run on the documented default
        dispatch(&argv(&predict)).unwrap();
        // a list flag names the entry that does not parse
        let cmd = format!("{predict} --ranks 4,four");
        let err = dispatch(&argv(&cmd)).expect_err(&cmd).to_string();
        assert!(
            err.ends_with("--ranks must be an integer, got 'four'"),
            "{err}"
        );
        // dims that parse but whose element count wraps `usize` (2^66) are
        // refused by the mesh, naming them, on every command that builds one
        for cmd in [
            format!("{predict} --mapping element-based --mesh 4194304x4194304x4194304"),
            format!("{sweep} --mappings element-based --mesh 4194304x4194304x4194304"),
        ] {
            let err = dispatch(&argv(&cmd)).expect_err(&cmd).to_string();
            assert!(err.contains("mesh 4194304x4194304x4194304"), "{cmd}: {err}");
        }
        // a stride of 0 parses but is refused by the replay engine, naming
        // the value, on both commands that take strides
        for cmd in [
            format!("{sweep} --strides 0"),
            format!("study sampling {placed} --strides 1,0"),
        ] {
            let err = dispatch(&argv(&cmd)).expect_err(&cmd).to_string();
            assert!(
                err.contains("stride must be positive, got 0"),
                "{cmd}: {err}"
            );
        }

        // a flag the command does not read is an error, never skipped: a
        // typo, a flag of another command, or a model-checking flag that
        // `check` does not take (the interleaving models run as tests)
        let good = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/analysis/good/workload_drift.json"
        );
        let unknown = [
            (
                format!("check --workload {good} --particles 40"),
                "--bogus",
                "yes",
            ),
            (predict.clone(), "--filtr", "0.05"),
            (sweep.clone(), "--mapping", "bin-based"),
            // each study kind reads its own flags
            (format!("study bins --trace {t}"), "--ranks", "64"),
            (format!("study bins --trace {t}"), "--mesh", "4x4x4"),
            (format!("study scalability {placed}"), "--strides", "1,2"),
            ("check".to_string(), "--des", "true"),
            ("check".to_string(), "--serve", "true"),
            ("check".to_string(), "--pipeline", "true"),
        ];
        for (base, flag, value) in &unknown {
            let cmd = format!("{base} {flag} {value}");
            let err = dispatch(&argv(&cmd)).expect_err(&cmd).to_string();
            let words: Vec<&str> = base.split_whitespace().collect();
            let name = match words[0] {
                "study" => words[..2].join(" "),
                command => command.to_string(),
            };
            assert_eq!(
                err,
                format!("configuration error: unknown flag {flag} for '{name}'")
            );
        }
        // a flag given twice is an ambiguity, refused on every command
        let repeated = [
            (format!("{predict} --ranks 8"), "--ranks", "predict"),
            (
                format!("{sweep} --filters 0.1 --filters 0.2"),
                "--filters",
                "sweep",
            ),
            (
                format!("{predict} --threads 1 --threads 2"),
                "--threads",
                "predict",
            ),
            (format!("run --config {c} --config {c}"), "--config", "run"),
        ];
        for (cmd, flag, name) in &repeated {
            let err = dispatch(&argv(cmd)).expect_err(cmd).to_string();
            let want = format!("configuration error: repeated flag {flag} for '{name}'");
            assert_eq!(err, want);
        }
        dispatch(&argv(&format!(
            "check --workload {good} --particles 40 --threads 1"
        )))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let (_, none) = parse_flags(&argv("x"));
        assert!(bool_flag(&none, "ghosts", true).unwrap());
        assert!(!bool_flag(&none, "stream", false).unwrap());
        let (_, given) = parse_flags(&argv("x --ghosts false --wallclock true --stream"));
        assert!(!bool_flag(&given, "ghosts", true).unwrap());
        assert!(bool_flag(&given, "wallclock", false).unwrap());
        assert!(bool_flag(&given, "stream", false).unwrap());
        assert_eq!(positive_flag::<usize>(&none, "threads").unwrap(), None);
        let (_, given) = parse_flags(&argv("x --threads 2"));
        assert_eq!(positive_flag::<usize>(&given, "threads").unwrap(), Some(2));
        assert_eq!(flag_or(&none, "filter", 0.03).unwrap(), 0.03);
        assert_eq!(flag_or(&none, "order", 3usize).unwrap(), 3);
        assert_eq!(flag_or(&none, "seed", 1u64).unwrap(), 1);
        let f32_default = choice_or(&none, "precision", &PRECISIONS, codec::Precision::F32);
        assert_eq!(f32_default.unwrap(), codec::Precision::F32);
        let (_, f64_given) = parse_flags(&argv("x --precision f64"));
        let given = choice_or(&f64_given, "precision", &PRECISIONS, codec::Precision::F32);
        assert_eq!(given.unwrap(), codec::Precision::F64);
    }

    /// `--budget-mb` and `--max-body-mb` take any positive size whose
    /// byte count fits, and refuse the next one and 0, naming the flag.
    #[test]
    fn serve_sizes_refuse_values_whose_bytes_do_not_fit() {
        let max = usize::MAX >> 20;
        let cfg = |flag: &str, mb: usize| {
            let (_, flags) = parse_flags(&argv(&format!("serve --{flag} {mb}")));
            serve_config(&flags)
        };
        let fits = cfg("budget-mb", max).unwrap();
        assert_eq!(fits.budget_bytes, max << 20);
        let fits = cfg("max-body-mb", max).unwrap();
        assert_eq!(fits.max_body_bytes, (max << 20) as u64);
        for flag in ["budget-mb", "max-body-mb"] {
            let err = cfg(flag, max + 1).unwrap_err().to_string();
            assert!(
                err.ends_with(&format!(
                    "--{flag} must be at most {max} MiB, got '{}'",
                    max + 1
                )),
                "{err}"
            );
            let err = cfg(flag, 0).unwrap_err().to_string();
            assert!(
                err.ends_with(&format!("--{flag} must be a positive integer, got '0'")),
                "{err}"
            );
        }
        let defaults = cfg("budget-mb", 1).unwrap();
        assert_eq!(defaults.budget_bytes, 1 << 20);
        assert_eq!(defaults.addr, "127.0.0.1:7070");
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    /// The flags of one list key, as `sweep` reads them.
    fn sweep_flag(key: &str, value: &str) -> Result<Request> {
        let flags = HashMap::from([
            ("ranks".to_string(), "1".to_string()),
            (key.to_string(), value.to_string()),
        ]);
        request("sweep", &flags)
    }

    #[test]
    fn usize_list_parsing() {
        assert_eq!(
            sweep_flag("ranks", "1,2, 4").unwrap().grid.ranks,
            vec![1, 2, 4]
        );
        let err = sweep_flag("ranks", "1,a").unwrap_err();
        assert!(err
            .to_string()
            .ends_with("--ranks must be an integer, got 'a'"));
    }

    #[test]
    fn f64_list_parsing() {
        let filters = sweep_flag("filters", "0.01, 0.02,0.4")
            .unwrap()
            .grid
            .filters;
        assert_eq!(filters, vec![0.01, 0.02, 0.4]);
        assert!(sweep_flag("filters", "0.01,oops").is_err());
        assert_eq!(
            (sweep_flag("mappings", "bin-based, load-balanced").unwrap())
                .grid
                .mappings,
            vec![MappingAlgorithm::BinBased, MappingAlgorithm::LoadBalanced]
        );
        let err = sweep_flag("mappings", "bin-based,bins").unwrap_err();
        assert!(
            err.to_string()
                .contains("--mappings: unknown mapping 'bins'"),
            "{err}"
        );
        assert_eq!(sweep_flag("strides", "1").unwrap().grid.filters, vec![0.03]);
    }

    /// `predict`'s list flags expand in `SweepGridSpec::points` order:
    /// mapping-major, then ranks, then filter, every other flag shared.
    #[test]
    fn predict_list_flags_expand_mapping_major() {
        let (_, flags) = parse_flags(&argv(
            "predict --ranks 2,4 --mapping element-based,bin-based --filter 0.02,0.05 \
             --mesh 2x2x2 --sync neighbor",
        ));
        let mut want = Vec::new();
        for mapping in [MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased] {
            for ranks in [2, 4] {
                for filter in [0.02, 0.05] {
                    want.push(PredictSpec {
                        mapping,
                        filter,
                        mesh: Some(pic_grid::MeshDims::cube(2)),
                        sync: pic_des::SyncMode::NeighborSync,
                        ..PredictSpec::new(ranks)
                    });
                }
            }
        }
        assert_eq!(request("predict", &flags).unwrap().specs(), want);
        // single values are the one-point grid, absent lists their default
        let (_, flags) = parse_flags(&argv("predict --ranks 8"));
        let specs = request("predict", &flags).unwrap().specs();
        assert_eq!(specs, vec![PredictSpec::new(8)]);
    }
}
