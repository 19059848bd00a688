//! SimPoint reduction speedup runner: times the full per-sample replay
//! against clustered representative replay on a multi-phase synthetic
//! trace and writes the measurements to `BENCH_SIMPOINT.json`.
//!
//! Both paths run on a single core (a 1-thread rayon pool) so the
//! speedup isolates sample reduction from thread-level parallelism. Two
//! speedups are reported: *replay* (reduced replay alone vs full replay)
//! and *end-to-end* (feature extraction + clustering + reduced replay vs
//! full replay — what a cold query actually pays). Accuracy is measured
//! two ways: the true peak-load error against the full replay over every
//! sample, and the `pic_analysis::check_reduction` holdout gate the
//! production paths use (which never sees the full replay).
//!
//! Usage: `cargo run --release -p pic-bench --bin simpoint_bench
//!         [output.json] [--smoke]`
//!
//! `--smoke` shrinks the run to CI scale and additionally checks the
//! identity plan (`K = T`) against the full generator bit-for-bit,
//! exiting non-zero on any divergence, gate failure, or speedup < 1.
#![forbid(unsafe_code)]

use pic_analysis::ReductionBudget;
use pic_bench::synthetic_phased_trace;
use pic_mapping::MappingAlgorithm;
use pic_predict::SimpointOptions;
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::{peak_rel_error, ReductionPlan};
use serde::Serialize;
use std::time::Instant;

/// The measured setup, echoed into the report.
#[derive(Serialize)]
struct BenchConfig {
    particles: usize,
    samples: usize,
    phases: usize,
    ranks: usize,
    mapping: MappingAlgorithm,
    projection_filter: f64,
    smoke: bool,
}

/// One timed path: best-of-`reps` wall seconds.
#[derive(Serialize)]
struct PathTiming {
    reps: usize,
    best_secs: f64,
}

/// The full report written to `BENCH_SIMPOINT.json`.
#[derive(Serialize)]
struct Report {
    config: BenchConfig,
    /// Clusters the plan settled on (automatic BIC-knee selection).
    plan_k: usize,
    /// Samples replayed through the full kernel + assignment-only passes.
    replayed_full: usize,
    replayed_owner_only: usize,
    full_replay: PathTiming,
    reduced_replay: PathTiming,
    /// Feature extraction + clustering, paid once per (trace, knobs).
    plan_build_secs: f64,
    /// full / reduced — replay alone.
    replay_speedup: f64,
    /// full / (plan build + reduced) — a cold query end to end.
    end_to_end_speedup: f64,
    /// max over samples of |reduced peak − exact peak| / exact peak,
    /// measured against the full replay (the bench-only ground truth).
    true_peak_rel_error: f64,
    /// Peak error the production holdout gate measured (no full replay).
    holdout_peak_rel_error: f64,
    gate_within_budget: bool,
    identity_oracle_checked: bool,
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (PathTiming, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (
        PathTiming {
            reps: reps.max(1),
            best_secs: best,
        },
        last.expect("at least one rep"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_SIMPOINT.json".to_string());

    let (particles, samples, phases, reps) = if smoke {
        (6_000usize, 60usize, 6usize, 2usize)
    } else {
        (20_000usize, 600usize, 12usize, 3usize)
    };
    let ranks = 32;
    let filter = 0.03;
    let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, filter);
    eprintln!(
        "simpoint_bench: np={particles} samples={samples} phases={phases} \
         ranks={ranks}, smoke={smoke}"
    );

    let trace = synthetic_phased_trace(particles, samples, phases, 17);

    // Single-core pool: the speedup must come from replaying fewer
    // samples, not from rayon.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");

    let (full_t, full) = best_of(reps, || {
        pool.install(|| generator::generate(&trace, &cfg).expect("full replay"))
    });
    eprintln!("  full replay: {:.3} s best", full_t.best_secs);

    // Coarse feature histograms for the clustering: the BIC penalty
    // charges `dim` parameters per centroid, and at the default 64-dim
    // resolution it swamps the likelihood gain on traces this short,
    // collapsing the automatic selection to K=1. Phase detection needs
    // far less spatial resolution than workload replay does — but at
    // least the trace's own 3-per-axis phase lattice, or unlike phases
    // share a histogram cell and the clustering merges them.
    let opts = SimpointOptions {
        features: pic_trace::FeatureConfig { bins_per_axis: 3 },
        ..SimpointOptions::default()
    };
    let t_plan = Instant::now();
    let plan = pool.install(|| pic_predict::build_simpoint_plan(&trace, &opts).expect("plan"));
    let plan_build_secs = t_plan.elapsed().as_secs_f64();
    eprintln!(
        "  plan: K={} of T={} in {plan_build_secs:.3} s",
        plan.k(),
        plan.total_samples
    );

    let (reduced_t, (reduced, stats)) = best_of(reps, || {
        pool.install(|| {
            pic_workload::generate_reduced_with_stats(&trace, &cfg, None, &plan)
                .expect("reduced replay")
        })
    });
    eprintln!("  reduced replay: {:.3} s best", reduced_t.best_secs);

    let true_err = peak_rel_error(&reduced, &full);
    let budget = ReductionBudget::default();
    let gate = pic_analysis::check_reduction(&trace, &cfg, None, &plan, &reduced, &budget)
        .expect("holdout gate runs");
    let replay_speedup = full_t.best_secs / reduced_t.best_secs;
    let end_to_end_speedup = full_t.best_secs / (plan_build_secs + reduced_t.best_secs);
    eprintln!(
        "  replay speedup {replay_speedup:.1}x, end-to-end {end_to_end_speedup:.1}x, \
         true peak error {true_err:.4}, holdout {:.4}",
        gate.max_rel_error
    );

    // Smoke oracle: the identity plan must reproduce the full generator
    // bit-for-bit — reduction correctness, not just closeness.
    let mut identity_checked = false;
    if smoke {
        let identity = ReductionPlan::identity(samples);
        let w = pool.install(|| {
            pic_workload::generate_reduced_with_stats(&trace, &cfg, None, &identity)
                .expect("identity replay")
                .0
        });
        assert!(w == full, "identity plan diverged from the full generator");
        identity_checked = true;
        eprintln!("  identity oracle: bit-identical");
    }

    let report = Report {
        config: BenchConfig {
            particles,
            samples,
            phases,
            ranks,
            mapping: cfg.mapping,
            projection_filter: filter,
            smoke,
        },
        plan_k: plan.k(),
        replayed_full: stats.representatives,
        replayed_owner_only: stats.owner_only_samples,
        full_replay: full_t,
        reduced_replay: reduced_t,
        plan_build_secs,
        replay_speedup,
        end_to_end_speedup,
        true_peak_rel_error: true_err,
        holdout_peak_rel_error: gate.max_rel_error,
        gate_within_budget: gate.within_budget,
        identity_oracle_checked: identity_checked,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("  report -> {out_path}");

    let mut failures = Vec::new();
    if !gate.within_budget {
        failures.push(format!(
            "holdout gate breached: {:.4} > {:.4}",
            gate.max_rel_error, budget.max_peak_rel_error
        ));
    }
    if true_err >= 0.02 {
        failures.push(format!("true peak error {true_err:.4} >= 0.02"));
    }
    // The smoke run is too small for the headline 10x; it only proves
    // the reduction is not slower than the thing it reduces.
    let floor = if smoke { 1.0 } else { 10.0 };
    if replay_speedup < floor {
        failures.push(format!("replay speedup {replay_speedup:.2}x < {floor}x"));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
