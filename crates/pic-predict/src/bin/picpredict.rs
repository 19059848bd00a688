//! `picpredict` — command-line front end for the prediction framework.
//!
//! ```text
//! picpredict run       --config cfg.json --trace out.pictrace --records rec.json
//! picpredict workload  --trace t.pictrace --ranks 128 --mapping bin-based
//!                      [--stream true] [--filter 0.03] [--mesh 6x6x6 --order 3] [--out dir]
//! picpredict fit       --records rec.json --out models.json [--strategy linear|auto]
//! picpredict predict   --trace t.pictrace --models models.json --ranks 128[,256…]
//!                      [--mapping bin-based[,…]] [--machine quartz|vulcan|localhost|FILE]
//!                      [--mesh 6x6x6 --order 3] [--filter 0.03[,…]] [--sync barrier|neighbor]
//! picpredict extrapolate --trace t.pictrace --out big.pictrace --particles 100000
//! ```
//!
//! `run` executes the mini PIC application and writes the trace + timing
//! records; the other commands never touch the application again — they
//! are the paper's "predict anything from one trace" workflow. `predict`
//! is [`pic_predict::predict_grid`] over the cross product of its list
//! flags and prints one compact JSON line per point; for one point that is
//! byte for byte what the service's `/predict` returns for the same
//! request. Mapping, sync-mode and mesh names are parsed by the types that
//! own them, defaults are the library's constants, and boolean flags take
//! `true` or `false`.
//!
//! Every trace-consuming command sniffs the file magic and accepts either
//! the raw (`PICTRC01`) or the compact delta-encoded (`PICTRC02`) format;
//! `compact` converts between them and `simpoint` replays a clustered
//! reduction of the trace instead of every sample.
#![forbid(unsafe_code)]

use pic_des::MachineSpec;
use pic_grid::ElementMesh;
use pic_predict::pipeline::{
    DEFAULT_FILTER, DEFAULT_MACHINE, DEFAULT_MAPPING, DEFAULT_ORDER, DEFAULT_SYNC,
};
use pic_predict::{kernel_models::FitStrategy, KernelModels, PredictSpec};
use pic_sim::{MiniPic, Recorder, SimConfig};
use pic_trace::codec;
use pic_types::{Aabb, PicError, Result};
use pic_workload::{metrics, ReplayOptions, SweepPoint, WorkloadConfig};
use std::collections::HashMap;

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
                     # stdout: one compact JSON line per point (mapping-major, as sweep),
                     # for one point the bytes serve's /predict answers with
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

boolean flags take true or false (a flag given last with no value means true);
a flag the command does not list is an error.

global flags:
  --threads N    run the command under an N-thread pool (default: shared
                 pool sized from RAYON_NUM_THREADS or machine parallelism)";

/// Parse `--key value` flags into a map; bare words are positional.
fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::new());
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (positional, flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| PicError::config(format!("missing required flag --{key}")))
}

/// Parse the value `s` of `--key`; the error names the flag and the value.
fn parse_flag<T: std::str::FromStr>(key: &str, s: &str) -> Result<T> {
    s.parse().map_err(|_| {
        let what = if std::any::type_name::<T>().starts_with('f') {
            "a number"
        } else {
            "an integer"
        };
        PicError::config(format!("--{key} must be {what}, got '{s}'"))
    })
}

/// `--key` parsed as `T`, or `default` when the flag is absent. A value
/// that does not parse is an error, never a silent fall-back.
fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T> {
    flags.get(key).map_or(Ok(default), |s| parse_flag(key, s))
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
            let names: Vec<&str> = choices.iter().map(|c| c.0).collect();
            PicError::config(format!("--{key} must be {}, got '{s}'", names.join(" or ")))
        })
}

/// A boolean `--key`: `true`, `false`, or the flag with no value (which
/// means `true`); `default` when absent. Anything else is an error, never
/// a yes.
fn bool_flag(flags: &HashMap<String, String>, key: &str, default: bool) -> Result<bool> {
    match flags.get(key).map(String::as_str) {
        None => Ok(default),
        Some("true" | "") => Ok(true),
        Some("false") => Ok(false),
        Some(s) => Err(PicError::config(format!(
            "--{key} must be true or false, got '{s}'"
        ))),
    }
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

/// Parse the value `s` of `--key` in the vocabulary its type owns (mapping,
/// sync mode, mesh dims); the error names the flag.
fn parse_named<T: std::str::FromStr<Err = PicError>>(key: &str, s: &str) -> Result<T> {
    s.parse().map_err(|e| match e {
        PicError::Config(message) => PicError::config(format!("--{key}: {message}")),
        e => e,
    })
}

/// `--key` through [`parse_named`], or `default` when the flag is absent.
fn named_or<T: std::str::FromStr<Err = PicError>>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T> {
    flags.get(key).map_or(Ok(default), |s| parse_named(key, s))
}

const PRECISIONS: [(&str, codec::Precision); 2] = [
    ("f64", codec::Precision::F64),
    ("f32", codec::Precision::F32),
];

/// A machine preset by name, or failing that a machine JSON file.
fn parse_machine(s: &str) -> Result<MachineSpec> {
    if let Some(preset) = MachineSpec::preset(s) {
        return Ok(preset);
    }
    let text = std::fs::read_to_string(s).map_err(|e| {
        PicError::config(format!(
            "machine '{s}' is not a preset and not a readable file: {e}"
        ))
    })?;
    serde_json::from_str(&text)
        .map_err(|e| PicError::config(format!("bad machine JSON in {s}: {e}")))
}

/// Load a whole trace file in either on-disk format, sniffed by magic —
/// raw `PICTRC01` or compact delta-encoded `PICTRC02`.
fn load_trace(path: &str) -> Result<pic_trace::ParticleTrace> {
    codec::load_file(path)
}

/// The `--mesh AxBxC --order K` element mesh over `domain`, if one is given.
fn mesh_flag(flags: &HashMap<String, String>, domain: Aabb) -> Result<Option<ElementMesh>> {
    let Some(spec) = flags.get("mesh") else {
        return Ok(None);
    };
    Ok(Some(ElementMesh::new(
        domain,
        parse_named("mesh", spec)?,
        flag_or(flags, "order", DEFAULT_ORDER)?,
    )?))
}

/// The flags each command (and each `study` kind) reads; `None` for an
/// unknown one.
fn command_flags(cmd: &str, kind: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "run" => &["config", "trace", "records", "precision"],
        "default-config" => &[],
        "info" => &["trace"],
        "check" => &["workload", "particles", "trace", "models"],
        "workload" => &[
            "trace", "ranks", "mapping", "filter", "stream", "mesh", "order", "out",
        ],
        "benchmark" => &["out", "wallclock", "order", "filter"],
        "fit" => &["records", "out", "strategy"],
        "predict" => &[
            "trace", "models", "ranks", "mapping", "machine", "sync", "filter", "mesh", "order",
        ],
        "extrapolate" => &["trace", "out", "particles", "seed"],
        "study" => match kind {
            "scalability" => &["trace", "ranks", "mapping", "filter", "mesh", "order"],
            "bins" => &["trace", "filter"],
            "sampling" => &[
                "trace", "ranks", "mapping", "filter", "mesh", "order", "strides",
            ],
            _ => return None,
        },
        "sweep" => &[
            "trace", "ranks", "mappings", "filters", "strides", "ghosts", "stream", "mesh",
            "order", "out",
        ],
        "simpoint" => &[
            "trace", "ranks", "mapping", "filter", "mesh", "order", "k", "k-max", "seed", "bins",
            "features", "budget", "holdout", "plan-out", "out",
        ],
        "compact" => &["trace", "out", "precision"],
        "serve" => &["addr", "budget-mb", "read-timeout-ms", "max-body-mb"],
        _ => return None,
    })
}

fn dispatch(args: &[String]) -> Result<()> {
    let (positional, flags) = parse_flags(args);
    let cmd = positional.first().map(|s| s.as_str()).unwrap_or("");
    let kind = positional.get(1).map_or("", String::as_str);
    // A flag the command does not read is a typo or a retired option, not
    // something to skip silently.
    if let Some(known) = command_flags(cmd, kind) {
        let unknown = flags
            .keys()
            .filter(|k| *k != "threads" && !known.contains(&k.as_str()))
            .min();
        if let Some(flag) = unknown {
            let name = if cmd == "study" {
                format!("study {kind}")
            } else {
                cmd.to_string()
            };
            return Err(PicError::config(format!(
                "unknown flag --{flag} for '{name}'"
            )));
        }
    }
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
        "workload" => cmd_workload(flags),
        "benchmark" => cmd_benchmark(flags),
        "fit" => cmd_fit(flags),
        "predict" => cmd_predict(flags),
        "extrapolate" => cmd_extrapolate(flags),
        "study" => cmd_study(kind, flags),
        "sweep" => cmd_sweep(flags),
        "simpoint" => cmd_simpoint(flags),
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
    let t0 = std::time::Instant::now();
    let out = MiniPic::new(cfg)?.run()?;
    eprintln!(
        "application finished in {:.2} s",
        t0.elapsed().as_secs_f64()
    );
    codec::save_file(&out.trace, trace_path, precision)?;
    eprintln!(
        "trace: {} samples x {} particles -> {}",
        out.trace.sample_count(),
        out.trace.particle_count(),
        trace_path
    );
    if let Some(records_path) = flags.get("records") {
        std::fs::write(records_path, out.recorder.to_json())?;
        eprintln!(
            "records: {} kernel timings -> {}",
            out.recorder.len(),
            records_path
        );
    }
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let meta = trace.meta();
    println!("description:     {}", meta.description);
    println!("particles:       {}", meta.particle_count);
    println!("samples:         {}", trace.sample_count());
    println!("sample interval: {} iterations", meta.sample_interval);
    println!("domain:          {}", meta.domain);
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
        let expected: Option<u64> = match flags.get("particles") {
            Some(n) => Some(parse_flag("particles", n)?),
            None => match flags.get("trace") {
                Some(tp) => {
                    let file = std::fs::File::open(tp)?;
                    let reader = pic_trace::TraceReader::new(std::io::BufReader::new(file))?;
                    Some(reader.meta().particle_count as u64)
                }
                None => None,
            },
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

/// The streaming pipeline's observability block, as `workload --stream
/// true` and `sweep --stream true` both print it.
fn print_ingest_stats(stats: &pic_workload::IngestStats) -> Result<()> {
    let json = serde_json::to_string_pretty(stats)
        .map_err(|e| PicError::config(format!("cannot serialize ingest stats: {e}")))?;
    println!("ingest stats: {json}");
    Ok(())
}

fn cmd_workload(flags: &HashMap<String, String>) -> Result<()> {
    let trace_path = required(flags, "trace")?;
    let ranks: usize = parse_flag("ranks", required(flags, "ranks")?)?;
    let mapping = parse_named("mapping", required(flags, "mapping")?)?;
    let filter = flag_or(flags, "filter", DEFAULT_FILTER)?;
    let points = [SweepPoint::new(WorkloadConfig::new(ranks, mapping, filter))];
    let streaming = bool_flag(flags, "stream", false)?;
    let t0 = std::time::Instant::now();
    // `--stream` replays the trace through the bounded pipeline without
    // ever loading it whole — the path for traces larger than memory. A
    // truncated or corrupt file fails here with a byte-positioned error.
    let (mut w, ingest, particles) = if streaming {
        let file = std::fs::File::open(trace_path)?;
        let reader = pic_trace::TraceReader::new(std::io::BufReader::new(file))?;
        let particles = reader.meta().particle_count as u64;
        let mesh = mesh_flag(flags, reader.meta().domain)?;
        let (w, _, stats) = pic_workload::sweep_streaming(reader, &points, mesh.as_ref())?;
        (w, Some(stats), particles)
    } else {
        let trace = load_trace(trace_path)?;
        let particles = trace.meta().particle_count as u64;
        let mesh = mesh_flag(flags, trace.meta().domain)?;
        let opts = ReplayOptions::new(mesh.as_ref(), None, None);
        let (w, _) = pic_workload::replay(&trace, &points, &opts)?;
        (w, None, particles)
    };
    let w = w.remove(0);
    eprintln!("workload generated in {:.2} s", t0.elapsed().as_secs_f64());
    // defense in depth: a generator bug (or a corrupted trace that decoded
    // cleanly) must not propagate silently into predictions
    pic_analysis::assert_workload_valid(&w, Some(particles))?;
    if let Some(stats) = &ingest {
        print_ingest_stats(stats)?;
    }

    let summary = metrics::summarize(&w);
    println!("ranks:                {}", summary.ranks);
    println!("samples:              {}", summary.samples);
    println!("peak workload:        {}", summary.peak_workload);
    println!(
        "resource utilization: {:.2}%",
        100.0 * summary.resource_utilization
    );
    println!(
        "mean idle fraction:   {:.2}%",
        100.0 * summary.mean_idle_fraction
    );
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
        // the full workload as JSON — the input format of `picpredict check`
        std::fs::write(format!("{dir}/workload.json"), w.to_json_pretty())?;
        eprintln!("matrices written to {dir}/");
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
    if bool_flag(flags, "wallclock", false)? {
        sweep.timing = pic_sim::config::TimingMode::WallClock;
    }
    eprintln!(
        "benchmarking {} kernel observations ({:?} mode)...",
        sweep.record_count(),
        if matches!(sweep.timing, pic_sim::config::TimingMode::WallClock) {
            "wall-clock"
        } else {
            "oracle"
        }
    );
    let t0 = std::time::Instant::now();
    let rec = pic_sim::benchmark_kernels(&sweep)?;
    eprintln!("sweep finished in {:.2} s", t0.elapsed().as_secs_f64());
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
    println!(
        "average validation MAPE: {:.2}%",
        models.mean_validation_mape()
    );
    let out = required(flags, "out")?;
    std::fs::write(out, models.to_json())?;
    eprintln!("models -> {out}");
    Ok(())
}

/// The specs `predict`'s flags name: the cross product of `--ranks`,
/// `--mapping` and `--filter`, each a comma list, in
/// [`pic_predict::SweepGridSpec`] order, sharing every other flag.
fn predict_specs(flags: &HashMap<String, String>) -> Result<Vec<PredictSpec>> {
    let grid = pic_predict::SweepGridSpec {
        ranks: parse_list("ranks", required(flags, "ranks")?, parse_flag)?,
        mappings: list_or(flags, "mapping", vec![DEFAULT_MAPPING], parse_named)?,
        filters: list_or(flags, "filter", vec![DEFAULT_FILTER], parse_flag)?,
        strides: vec![1],
        compute_ghosts: true,
    };
    let base = PredictSpec {
        mesh: flags
            .get("mesh")
            .map(|s| parse_named("mesh", s))
            .transpose()?,
        order: flag_or(flags, "order", DEFAULT_ORDER)?,
        machine: parse_machine(flags.get("machine").map_or(DEFAULT_MACHINE, String::as_str))?,
        sync: named_or(flags, "sync", DEFAULT_SYNC)?,
        ..PredictSpec::new(0)
    };
    Ok((grid.points().iter())
        .map(|p| PredictSpec {
            ranks: p.config.ranks,
            mapping: p.config.mapping,
            filter: p.config.projection_filter,
            ..base.clone()
        })
        .collect())
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let models = KernelModels::from_json(&std::fs::read_to_string(required(flags, "models")?)?)?;
    let specs = predict_specs(flags)?;
    let t0 = std::time::Instant::now();
    let predictions = pic_predict::predict_grid(&trace, &models, &specs, None)?;
    // machine-readable result on stdout, human summary on stderr
    for prediction in &predictions {
        println!("{prediction}");
        let t = &prediction.timeline;
        eprintln!("machine:             {}", prediction.machine);
        eprintln!("sync mode:           {}", prediction.sync);
        eprintln!("predicted time:      {:.6} s", t.total_seconds);
        eprintln!(
            "mean idle fraction:  {:.2}%",
            100.0 * t.mean_idle_fraction()
        );
        eprintln!("events processed:    {}", t.events_processed);
    }
    eprintln!("predicted in:        {:.3} s", t0.elapsed().as_secs_f64());
    Ok(())
}

/// The comma-separated list `s` given for `--key`, each entry parsed as the
/// flag's single value would be ([`parse_flag`] or [`parse_named`]).
fn parse_list<T>(key: &str, s: &str, parse: fn(&str, &str) -> Result<T>) -> Result<Vec<T>> {
    s.split(',').map(|p| parse(key, p.trim())).collect()
}

/// `--key` through [`parse_list`], or `default` when the flag is absent.
fn list_or<T>(
    flags: &HashMap<String, String>,
    key: &str,
    default: Vec<T>,
    parse: fn(&str, &str) -> Result<T>,
) -> Result<Vec<T>> {
    flags
        .get(key)
        .map_or(Ok(default), |s| parse_list(key, s, parse))
}

/// The paper's workload studies straight from the command line: the
/// scalability and sampling-fidelity studies are projections of one
/// ghost-free grid replay, the bin study is the unbounded bin series.
fn cmd_study(kind: &str, flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let filter = flag_or(flags, "filter", DEFAULT_FILTER)?;
    let replay_grid = |ranks: Vec<usize>, strides: Vec<usize>| -> Result<Vec<_>> {
        let grid = pic_predict::SweepGridSpec {
            mappings: vec![named_or(flags, "mapping", DEFAULT_MAPPING)?],
            ranks,
            filters: vec![filter],
            strides,
            compute_ghosts: false,
        };
        let mesh = mesh_flag(flags, trace.meta().domain)?;
        let points = grid.points();
        let opts = ReplayOptions::new(mesh.as_ref(), None, None);
        let (workloads, _) = pic_workload::replay(&trace, &points, &opts)?;
        Ok(points.into_iter().zip(workloads).collect())
    };
    match kind {
        "scalability" => {
            let ranks = parse_list("ranks", required(flags, "ranks")?, parse_flag)?;
            let rows = replay_grid(ranks, vec![1])?;
            println!(
                "{:>8} {:>12} {:>14} {:>12}",
                "ranks", "peak", "utilization", "migrations"
            );
            for (p, w) in &rows {
                let summary = metrics::summarize(w);
                println!(
                    "{:>8} {:>12} {:>13.1}% {:>12}",
                    p.config.ranks,
                    summary.peak_workload,
                    100.0 * summary.resource_utilization,
                    summary.total_migrations
                );
            }
        }
        "bins" => {
            let bins = pic_workload::generator::unbounded_bin_series(&trace, filter)?;
            for (iter, bins) in trace.iterations().iter().zip(&bins) {
                println!("iteration {iter:>8}: {bins} bins");
            }
            println!(
                "optimal processor count: {}",
                bins.iter().max().unwrap_or(&0)
            );
        }
        "sampling" => {
            let ranks = parse_flag("ranks", required(flags, "ranks")?)?;
            let strides = list_or(flags, "strides", vec![1, 2, 4, 8], parse_flag)?;
            // row 0 is the stride-1 reference the others are scored against
            let rows = replay_grid(vec![ranks], std::iter::once(1).chain(strides).collect())?;
            println!(
                "{:>8} {:>14} {:>16} {:>22}",
                "stride", "trace bytes", "peak MAPE [%]", "migration loss [%]"
            );
            for (p, w) in &rows[1..] {
                let (mape, lost) = metrics::sampling_fidelity(&rows[0].1, w, p.stride);
                let bytes = pic_trace::stats::estimated_file_size(
                    trace.particle_count(),
                    w.samples(),
                    pic_trace::Precision::F32,
                );
                println!("{:>8} {bytes:>14} {mape:>16.2} {lost:>22.2}", p.stride);
            }
        }
        other => {
            return Err(PicError::config(format!(
                "unknown study '{other}' (expected scalability | bins | sampling)"
            )))
        }
    }
    Ok(())
}

/// The multi-configuration sweep: replay the trace once, emit the whole
/// grid. Gated on the pic-analysis invariant catalog over every grid
/// point — a grid that fails verification is never written. The grid
/// expansion and `--out` serialization live in [`pic_predict::gridspec`],
/// shared with the resident service so both emit bit-identical bytes.
fn cmd_sweep(flags: &HashMap<String, String>) -> Result<()> {
    let trace_path = required(flags, "trace")?;
    let spec = pic_predict::SweepGridSpec {
        ranks: parse_list("ranks", required(flags, "ranks")?, parse_flag)?,
        mappings: list_or(flags, "mappings", vec![DEFAULT_MAPPING], parse_named)?,
        filters: list_or(flags, "filters", vec![DEFAULT_FILTER], parse_flag)?,
        strides: list_or(flags, "strides", vec![1], parse_flag)?,
        compute_ghosts: bool_flag(flags, "ghosts", true)?,
    };
    spec.validate()?;
    let streaming = bool_flag(flags, "stream", false)?;
    let points = spec.points();

    let t0 = std::time::Instant::now();
    let (workloads, stats, ingest, particles) = if streaming {
        let file = std::fs::File::open(trace_path)?;
        let reader = pic_trace::TraceReader::new(std::io::BufReader::new(file))?;
        let particles = reader.meta().particle_count as u64;
        let mesh = mesh_flag(flags, reader.meta().domain)?;
        let (w, stats, ingest) = pic_workload::sweep_streaming(reader, &points, mesh.as_ref())?;
        (w, stats, Some(ingest), particles)
    } else {
        let trace = load_trace(trace_path)?;
        let particles = trace.meta().particle_count as u64;
        let mesh = mesh_flag(flags, trace.meta().domain)?;
        let opts = ReplayOptions::new(mesh.as_ref(), None, None);
        let (w, stats) = pic_workload::replay(&trace, &points, &opts)?;
        (w, stats, None, particles)
    };
    eprintln!(
        "sweep of {} grid point(s) generated in {:.2} s",
        points.len(),
        t0.elapsed().as_secs_f64()
    );
    eprintln!(
        "sharing: {} point(s) -> {} assignment group(s); {} of {} assignment passes run; {} ghost radii ({} group(s) served by one shared query)",
        stats.points,
        stats.groups,
        stats.assign_passes,
        stats.naive_assign_passes,
        stats.ghost_radii,
        stats.shared_query_groups,
    );
    if let Some(ingest) = &ingest {
        print_ingest_stats(ingest)?;
    }
    // The gate: every grid point through the full invariant catalog, with
    // (point, rank, sample)-positioned diagnostics on failure.
    pic_analysis::assert_sweep_valid(&workloads, Some(particles))?;

    println!(
        "{:>5} {:>16} {:>8} {:>10} {:>7} {:>10} {:>13} {:>12} {:>12}",
        "point",
        "mapping",
        "ranks",
        "filter",
        "stride",
        "peak",
        "utilization",
        "migrations",
        "ghosts"
    );
    for (i, (p, w)) in points.iter().zip(&workloads).enumerate() {
        let summary = metrics::summarize(w);
        println!(
            "{:>5} {:>16} {:>8} {:>10.4} {:>7} {:>10} {:>12.1}% {:>12} {:>12}",
            i,
            p.config.mapping.to_string(),
            p.config.ranks,
            p.config.projection_filter,
            p.stride,
            summary.peak_workload,
            100.0 * summary.resource_utilization,
            summary.total_migrations,
            summary.total_ghosts
        );
    }
    if let Some(out) = flags.get("out") {
        let entries = pic_predict::grid_entries(&points, workloads);
        std::fs::write(out, pic_predict::grid_to_json(&entries))?;
        eprintln!("full grid ({} point(s)) -> {out}", entries.len());
    }
    Ok(())
}

/// SimPoint-style reduced replay: cluster the trace's samples into
/// phases, replay one representative per phase (plus owner-only passes
/// for representative predecessors), broadcast each outcome across its
/// cluster, and hold the reconstruction to the holdout error budget
/// before anything is written ([`pic_predict::replay_reduced_gated`], the
/// function the service's reduced sweeps go through).
fn cmd_simpoint(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let ranks: usize = parse_flag("ranks", required(flags, "ranks")?)?;
    let mapping = parse_named("mapping", required(flags, "mapping")?)?;
    let filter = flag_or(flags, "filter", DEFAULT_FILTER)?;
    let point = SweepPoint::new(WorkloadConfig::new(ranks, mapping, filter));
    let mesh = mesh_flag(flags, trace.meta().domain)?;

    let mut opts = pic_predict::SimpointOptions::default();
    if let Some(k) = flags.get("k") {
        opts.k = Some(parse_flag("k", k)?);
    }
    opts.k_max = flag_or(flags, "k-max", opts.k_max)?;
    opts.seed = flag_or(flags, "seed", opts.seed)?;
    opts.features.bins_per_axis = flag_or(flags, "bins", opts.features.bins_per_axis)?;
    opts.spatial_only = choice_or(
        flags,
        "features",
        &[("spatial", true), ("full", false)],
        opts.spatial_only,
    )?;
    let mut budget = pic_analysis::ReductionBudget::default();
    budget.max_peak_rel_error = flag_or(flags, "budget", budget.max_peak_rel_error)?;
    budget.holdout = flag_or(flags, "holdout", budget.holdout)?;

    let t0 = std::time::Instant::now();
    let plan = pic_predict::build_simpoint_plan(&trace, &opts)?;
    let cluster_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let (workloads, stats, reports) = pic_predict::replay_reduced_gated(
        &trace,
        std::slice::from_ref(&point),
        mesh.as_ref(),
        None,
        &plan,
        &budget,
    )?;
    let replay_s = t1.elapsed().as_secs_f64();
    let (w, report) = (&workloads[0], &reports[0]);

    println!("samples:            {}", plan.total_samples);
    println!("phases (K):         {}", plan.k());
    println!(
        "replayed samples:   {} full + {} owner-only",
        stats.assign_passes, stats.owner_only_passes
    );
    println!("reduction factor:   {:.1}x", plan.reduction_factor());
    println!(
        "holdout peak error: {:.4} (budget {:.4}, {} holdout sample(s))",
        report.max_rel_error,
        budget.max_peak_rel_error,
        report.points.len()
    );
    println!(
        "timing:             cluster {cluster_s:.3} s + reduced replay and gate {replay_s:.3} s"
    );
    let summary = metrics::summarize(w);
    println!("peak workload:      {}", summary.peak_workload);
    println!(
        "resource util:      {:.2}%",
        100.0 * summary.resource_utilization
    );
    if let Some(path) = flags.get("plan-out") {
        let json = serde_json::to_string_pretty(&plan)
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
/// decode-back comparison: the compact file's dequantized positions must
/// bin identically under the decode path before the command succeeds.
fn cmd_compact(flags: &HashMap<String, String>) -> Result<()> {
    let in_path = required(flags, "trace")?;
    let out_path = required(flags, "out")?;
    let trace = load_trace(in_path)?;
    let precision = choice_or(flags, "precision", &PRECISIONS, codec::Precision::F32)?;
    let in_bytes = std::fs::metadata(in_path)?.len();
    let out_bytes = pic_trace::compact::save_file(&trace, out_path, precision)?;
    // round-trip gate: the file we just wrote must decode to the same
    // shape (sample/particle counts) before we report success
    let back = load_trace(out_path)?;
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

/// The resident prediction service: bind, announce, serve until a
/// `POST /shutdown` arrives, then drain connections and exit cleanly.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<()> {
    let mut cfg = pic_predict::ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.clone();
    } else {
        cfg.addr = "127.0.0.1:7070".to_string();
    }
    if let Some(mb) = positive_flag::<usize>(flags, "budget-mb")? {
        cfg.budget_bytes = mb << 20;
    }
    if let Some(ms) = positive_flag(flags, "read-timeout-ms")? {
        cfg.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(mb) = positive_flag::<u64>(flags, "max-body-mb")? {
        cfg.max_body_bytes = mb << 20;
    }
    let server = pic_predict::Server::start(cfg)?;
    println!("picpredict serve listening on http://{}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run_to_completion();
    println!("picpredict serve: shutdown complete");
    Ok(())
}

fn cmd_extrapolate(flags: &HashMap<String, String>) -> Result<()> {
    let trace = load_trace(required(flags, "trace")?)?;
    let out = required(flags, "out")?;
    let particles: usize = parse_flag("particles", required(flags, "particles")?)?;
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

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
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
        for algorithm in [
            MappingAlgorithm::BinBased,
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
            MappingAlgorithm::LoadBalanced,
        ] {
            let (_, flags) = parse_flags(&argv(&format!("x --mapping {algorithm}")));
            assert_eq!(
                named_or(&flags, "mapping", DEFAULT_MAPPING).unwrap(),
                algorithm
            );
        }
        let (_, flags) = parse_flags(&argv("x"));
        assert_eq!(
            named_or(&flags, "mapping", DEFAULT_MAPPING).unwrap(),
            MappingAlgorithm::BinBased
        );
        let (_, flags) = parse_flags(&argv("x --mapping nonsense"));
        let err = named_or(&flags, "mapping", DEFAULT_MAPPING).unwrap_err();
        assert!(err
            .to_string()
            .contains("--mapping: unknown mapping 'nonsense'"));
    }

    /// The names are `MachineSpec::preset`'s; what the CLI adds is the
    /// fall-back to a machine file.
    #[test]
    fn parse_machine_presets() {
        assert_eq!(parse_machine("quartz").unwrap().name, "quartz-like");
        assert!(parse_machine("/nonexistent/machine.json").is_err());
        let path = std::env::temp_dir().join(format!("picpredict_machine_{}", std::process::id()));
        let mut custom = MachineSpec::localhost(4);
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
    fn mesh_flag_pairs_dims_with_order() {
        let (_, flags) = parse_flags(&argv("x --mesh 4x6x8 --order 4"));
        let mesh = mesh_flag(&flags, Aabb::unit()).unwrap().unwrap();
        assert_eq!(mesh.dims().to_array(), [4, 6, 8]);
        assert_eq!(mesh.order(), 4);
        let (_, flags) = parse_flags(&argv("x --mesh 2x2x2"));
        let mesh = mesh_flag(&flags, Aabb::unit()).unwrap().unwrap();
        assert_eq!(mesh.order(), DEFAULT_ORDER);
        // absent → None
        let (_, flags) = parse_flags(&argv("x"));
        assert!(mesh_flag(&flags, Aabb::unit()).unwrap().is_none());
        // malformed: the error names the flag and the value
        let (_, flags) = parse_flags(&argv("x --mesh 4x6"));
        let err = mesh_flag(&flags, Aabb::unit()).unwrap_err().to_string();
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

    #[test]
    fn dispatch_rejects_unknown_command() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn usize_list_parsing() {
        assert_eq!(
            parse_list::<usize>("x", "1,2, 4", parse_flag).unwrap(),
            vec![1, 2, 4]
        );
        let err = parse_list::<usize>("x", "1,a", parse_flag).unwrap_err();
        assert!(err.to_string().ends_with("--x must be an integer, got 'a'"));
    }

    #[test]
    fn f64_list_parsing() {
        assert_eq!(
            parse_list::<f64>("x", "0.01, 0.02,0.4", parse_flag).unwrap(),
            vec![0.01, 0.02, 0.4]
        );
        assert!(parse_list::<f64>("x", "0.01,oops", parse_flag).is_err());
        assert_eq!(
            parse_list::<MappingAlgorithm>("x", "bin-based, load-balanced", parse_named).unwrap(),
            vec![MappingAlgorithm::BinBased, MappingAlgorithm::LoadBalanced]
        );
        let err = parse_list::<MappingAlgorithm>("x", "bin-based,bins", parse_named).unwrap_err();
        assert!(
            err.to_string().contains("--x: unknown mapping 'bins'"),
            "{err}"
        );
        let (_, none) = parse_flags(&argv("x"));
        assert_eq!(
            list_or(&none, "filter", vec![0.03], parse_flag).unwrap(),
            vec![0.03]
        );
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
        assert_eq!(predict_specs(&flags).unwrap(), want);
        // single values are the one-point grid, absent lists their default
        let (_, flags) = parse_flags(&argv("predict --ranks 8"));
        assert_eq!(predict_specs(&flags).unwrap(), vec![PredictSpec::new(8)]);
    }
}
