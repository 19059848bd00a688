//! The measuring child process: one workload, one mode.
//!
//! * `timed`: tracing off, passes back to back for the window; the
//!   end-to-end metrics.
//! * `traced`: untraced and traced passes interleaved over the window,
//!   then the isolated sub-layer calls; the per-layer metrics. The
//!   difference between the two kinds of pass is the tracing overhead.
//! * `scaling`: `timed` without the verify step, run by the parent under
//!   one pool thread.
//!
//! The untimed verify step runs last, after the peak resident set is read,
//! so `peak_rss_mib` is the peak of the workload's own work.
//!
//! Prints one JSON object; the parent turns it into the run's report.

use crate::calls;
use crate::inputs::{self, Files};
use crate::report::{floats, map, median, Tally};
use crate::serve;
use crate::spans::Recorder;
use crate::workloads::{Batch, Ctx};
use pic_types::stats::percentile;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Timed,
    Traced,
    Scaling,
}

/// Ceilings of the verify step's answer error, in percent. The `heleshaw`
/// kernel MAPE sits near 8 % (the oracle's 10 % timing noise); the reduced
/// replay has to stay inside the 2 % gate budget.
const MAPE_CEILING_PCT: f64 = 15.0;
const REDUCTION_CEILING_PCT: f64 = 2.0;

pub fn load_ctx(dir: PathBuf, seed: u64) -> pic_types::Result<Ctx> {
    let files = Files { dir };
    let models = calls::models_from_json(&inputs::read(&files.models())?)?;
    Ok(Ctx {
        files,
        models,
        seed,
    })
}

pub fn run(mode: &str, name: &str, seed: u64, seconds: f64, dir: PathBuf) -> Result<Value, String> {
    let mode = match mode {
        "timed" => Mode::Timed,
        "traced" => Mode::Traced,
        "scaling" => Mode::Scaling,
        other => return Err(format!("unknown child mode {other}")),
    };
    let ctx = load_ctx(dir, seed).map_err(|e| format!("loading inputs: {e}"))?;
    let mut out = Measured::default();
    let batch = Batch::from_name(name);
    match batch {
        Some(batch) => run_batch(batch, &ctx, mode, seconds, &mut out),
        None if name == "serve-closed2" => run_serve(&ctx, mode, seconds, &mut out)?,
        None => return Err(format!("unknown workload {name}")),
    }
    if mode != Mode::Scaling {
        let outcome = match batch {
            Some(batch) => batch.verify(&ctx),
            None => serve::verify(&ctx),
        };
        let ceiling = if batch == Some(Batch::PhasedReduced) {
            REDUCTION_CEILING_PCT
        } else {
            MAPE_CEILING_PCT
        };
        out.record_verify(outcome, ceiling);
    }
    if mode == Mode::Traced {
        out.layer
            .insert("verify.answer_err_pct".into(), out.answer_err_pct);
        if let Some(&s) = out.predicted_seconds.first() {
            out.layer.insert("verify.predicted_seconds".into(), s);
        }
        let path = crate::out_dir().join(format!("spans-{name}-seed{seed}.jsonl"));
        out.rec
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out.into_json())
}

/// Everything a child measures.
#[derive(Default)]
struct Measured {
    rec: Recorder,
    tally: Tally,
    /// Seconds of each successful untraced operation.
    op_seconds: Vec<f64>,
    /// Seconds of each successful traced operation.
    traced_seconds: Vec<f64>,
    /// Timed window and the particle-sample-points answered in it.
    window_s: f64,
    psamples: u64,
    /// `VmHWM` after the first pass (serve: after the last round).
    peak_rss_mib: f64,
    answer_err_pct: f64,
    predicted_seconds: Vec<f64>,
    workload_digest: String,
    counts: BTreeMap<&'static str, u64>,
    /// Set when two traced passes of one run counted differently.
    counts_differ: bool,
    layer: BTreeMap<String, f64>,
}

impl Measured {
    /// Count the verify step as one operation: it fails on an error from
    /// the path or a validator, and on an answer error above its ceiling.
    fn record_verify(&mut self, outcome: pic_types::Result<f64>, ceiling_pct: f64) {
        let outcome = match outcome {
            Ok(err) => {
                self.answer_err_pct = err;
                if err <= ceiling_pct {
                    Ok("verified".to_string())
                } else {
                    Err(format!(
                        "verify: answer error {err:.3} % is above {ceiling_pct} %"
                    ))
                }
            }
            Err(e) => Err(format!("verify: {e}")),
        };
        self.tally.record("verify", outcome);
    }

    fn into_json(self) -> Value {
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
            .collect();
        let layer = self
            .layer
            .into_iter()
            .map(|(k, v)| (k, Value::Float(v)))
            .collect();
        let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::Str).collect());
        map(vec![
            ("attempted", Value::UInt(self.tally.attempted)),
            ("failed", Value::UInt(self.tally.failed)),
            ("errors", strings(&self.tally.errors)),
            ("op_seconds", floats(&self.op_seconds)),
            ("window_s", Value::Float(self.window_s)),
            ("psamples", Value::UInt(self.psamples)),
            ("peak_rss_mib", Value::Float(self.peak_rss_mib)),
            ("answer_err_pct", Value::Float(self.answer_err_pct)),
            ("predicted_seconds", floats(&self.predicted_seconds)),
            ("workload_digest", Value::Str(self.workload_digest)),
            ("counts", Value::Map(counts)),
            ("counts_repeat", Value::Bool(!self.counts_differ)),
            ("layer", Value::Map(layer)),
        ])
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_batch(batch: Batch, ctx: &Ctx, mode: Mode, seconds: f64, out: &mut Measured) {
    // The first pass is untimed: it lets the pool and the page cache fill,
    // and every later answer is held to its digest.
    out.rec.begin_pass(0, false);
    let first = batch.pass(&mut out.rec, ctx);
    if let Ok(answer) = &first {
        out.predicted_seconds = answer.predicted_seconds.clone();
        out.workload_digest = calls::workload_digest(&answer.workloads);
    }
    let first = first.map(|a| a.digest()).map_err(|e| e.to_string());
    if !out.tally.record("pass", first) {
        return;
    }
    // The peak of one pass in a fresh process, which is what a one-shot
    // prediction costs. Later passes reuse the allocator's heap, and what
    // glibc keeps of it differs from run to run on identical inputs
    // (`phased-reduced` peaks at 290 or at 460 MiB after a few passes).
    out.peak_rss_mib = peak_rss_mib();

    let min_passes = if mode == Mode::Traced { 6 } else { 3 };
    let start = Instant::now();
    let mut pass = 0u32;
    // each traced pass against the untraced pass just before it
    let mut last_untraced = None;
    let mut overheads = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || pass < min_passes {
        pass += 1;
        let traced = mode == Mode::Traced && pass.is_multiple_of(2);
        out.rec.begin_pass(pass, traced);
        out.rec.clear_counts();
        let t = Instant::now();
        let answer = out.rec.span("pass", |rec| batch.pass(rec, ctx));
        let dt = t.elapsed().as_secs_f64();
        out.window_s += dt;
        // digesting the answer is the harness's work, outside the clock
        let psamples = answer.as_ref().map_or(0, |a| a.psamples);
        let digest = answer.map(|a| a.digest()).map_err(|e| e.to_string());
        if !out.tally.record("pass", digest) {
            continue;
        }
        out.psamples += psamples;
        if traced {
            out.traced_seconds.push(dt);
            if let Some(u) = last_untraced.take() {
                overheads.push(100.0 * (dt - u) / u);
            }
            if out.counts.is_empty() {
                out.counts = out.rec.counts().clone();
            } else if out.counts != *out.rec.counts() {
                out.counts_differ = true;
            }
        } else {
            out.op_seconds.push(dt);
            last_untraced = Some(dt);
        }
    }

    if mode == Mode::Traced {
        out.rec.begin_pass(0, true);
        out.rec.clear_counts();
        if let Err(e) = batch.isolated(&mut out.rec, ctx) {
            out.tally
                .record("isolated", Err(format!("isolated calls: {e}")));
        }
        batch_layer_metrics(out);
        // Adjacent passes share the machine's state of the moment, so the
        // median of the paired differences is steadier than the difference
        // of the two medians.
        out.layer
            .insert("pass.trace_overhead_pct".into(), median(&overheads));
    }
}

/// Turn spans and counts into the per-layer metrics. Spans of traced
/// passes are stated per pass; isolated spans (pass 0) ran once. The
/// catalog is the list of metric names: the parent drops any other key.
fn batch_layer_metrics(out: &mut Measured) {
    let n = out.traced_seconds.len().max(1) as f64;
    let layer = &mut out.layer;
    let per_pass = out.rec.self_seconds(|s| s.pass != 0);
    for (name, total) in &per_pass {
        layer.insert(format!("{name}_s"), total / n);
    }
    let isolated = out.rec.self_seconds(|s| s.pass == 0);
    let mut assign_s = 0.0;
    for (name, total) in &isolated {
        if let Some(mapper) = name.strip_prefix("mapping.assign.") {
            assign_s += total;
            layer.insert(format!("mapping.assign_s.{mapper}"), *total);
        } else if matches!(*name, "workload.generate_noghost" | "trace.features") {
            layer.insert(format!("{name}_s"), *total);
        }
        // the isolated decode and mesh only feed the isolated calls
    }
    for (name, count) in &out.counts {
        layer.insert(name.to_string(), *count as f64);
    }
    let get = |layer: &BTreeMap<String, f64>, k: &str| layer.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let decode_s = get(layer, "trace.decode_s") + get(layer, "trace.compact_decode_s");
    layer.insert(
        "trace.decode_mb_per_s".into(),
        ratio(get(layer, "trace.decode_bytes") / 1e6, decode_s),
    );
    if assign_s > 0.0 {
        let psamples = out.rec.counts().get("mapping.assign_psamples").copied();
        layer.insert("mapping.assign_s".into(), assign_s);
        layer.insert(
            "mapping.assign_psamples_per_s".into(),
            psamples.unwrap_or(0) as f64 / assign_s,
        );
    }
    let (generate, noghost) = (
        get(layer, "workload.generate_s"),
        get(layer, "workload.generate_noghost_s"),
    );
    if generate > 0.0 && noghost > 0.0 {
        layer.insert("workload.ghost_share".into(), 1.0 - noghost / generate);
    }
    layer.insert(
        "models.evals_per_s".into(),
        ratio(get(layer, "models.evals"), get(layer, "models.eval_s")),
    );
    let features = get(layer, "trace.features_s");
    if features > 0.0 {
        let plan = get(layer, "predict.simpoint_plan_s");
        layer.insert("models.kmeans_s".into(), (plan - features).max(0.0));
    }
    let (bs_events, ns_events) = (get(layer, "des.bs_events"), get(layer, "des.ns_events"));
    layer.insert("des.events".into(), bs_events + ns_events);
    layer.insert(
        "des.bs_events_per_s".into(),
        ratio(bs_events, get(layer, "des.bs_s")),
    );
    layer.insert(
        "des.ns_events_per_s".into(),
        ratio(ns_events, get(layer, "des.ns_s")),
    );

    // `pass_s` is the pass span's self time: what no layer span covers.
    let pass_total: f64 = out
        .rec
        .spans()
        .iter()
        .filter(|s| s.name == "pass")
        .map(|s| s.seconds())
        .sum();
    let unattributed = get(layer, "pass_s");
    layer.insert("pass.unattributed_s".into(), unattributed);
    layer.insert(
        "pass.coverage".into(),
        ratio(pass_total / n - unattributed, pass_total / n),
    );
    layer.insert("pass.wall_s".into(), median(&out.traced_seconds));
}

fn run_serve(ctx: &Ctx, mode: Mode, seconds: f64, out: &mut Measured) -> Result<(), String> {
    let first = if mode == Mode::Traced {
        seconds / 2.0
    } else {
        seconds
    };
    let untraced = serve::rounds(ctx, first, false, &mut out.rec, &mut out.tally)
        .map_err(|e| format!("serve: {e}"))?;
    out.window_s = untraced.window_s;
    out.psamples = untraced.psamples;
    out.op_seconds = untraced.seconds;
    if mode == Mode::Traced {
        let traced = serve::rounds(ctx, seconds - first, true, &mut out.rec, &mut out.tally)
            .map_err(|e| format!("serve: {e}"))?;
        let layer = &mut out.layer;
        let ms: Vec<f64> = traced.seconds.iter().map(|s| s * 1e3).collect();
        layer.insert("serve.request_p50_ms".into(), percentile(&ms, 50.0));
        layer.insert("serve.request_p95_ms".into(), percentile(&ms, 95.0));
        for (class, metric) in [
            (serve::HIT, "serve.sweep_hit_p50_ms"),
            (serve::MISS, "serve.sweep_miss_p50_ms"),
            (serve::PREDICT, "serve.predict_p50_ms"),
        ] {
            let spans = out.rec.spans().iter().filter(|s| s.name == class);
            let class_ms: Vec<f64> = spans.map(|s| s.seconds() * 1e3).collect();
            layer.insert(metric.into(), median(&class_ms));
        }
        let window = traced.window_s.max(1e-9);
        layer.insert("serve.qps".into(), traced.seconds.len() as f64 / window);
        layer.insert("serve.ingest_s".into(), traced.ingest_s);
        let lookups = (traced.cache_hits + traced.cache_misses).max(1);
        layer.insert(
            "serve.cache_hit_rate".into(),
            traced.cache_hits as f64 / lookups as f64,
        );
        layer.insert("serve.batched_requests".into(), traced.batched as f64);
        layer.insert("serve.errors".into(), traced.errors as f64);
        // client busy share: request seconds over client seconds
        let busy: f64 = traced.seconds.iter().sum();
        layer.insert(
            "pass.coverage".into(),
            busy / (serve::CLIENTS as f64 * window),
        );
        // the two loops run one after the other: medians, not pairs
        let (u, t) = (median(&out.op_seconds), median(&traced.seconds));
        layer.insert("pass.wall_s".into(), t);
        layer.insert("pass.trace_overhead_pct".into(), 100.0 * (t - u) / u);
        out.traced_seconds = traced.seconds;
    }
    // the largest round's peak; the verify step comes after this
    out.peak_rss_mib = peak_rss_mib();
    Ok(())
}
