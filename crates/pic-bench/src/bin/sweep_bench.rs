//! Sweep-engine speedup runner: times the per-configuration replay loop
//! against the multi-configuration sweep engine on a Fig-10-shaped grid
//! (one trace × 6 projection filters × 4 rank counts, Hilbert-ordered
//! mapping) and writes the measurements to `BENCH_SWEEP.json`.
//!
//! Both headline paths run on a single core (a 1-thread rayon pool) so the
//! speedup isolates replay sharing from thread-level parallelism; a
//! separate `--threads` 1→N curve then measures how the sweep engine
//! scales across pool sizes, asserting the outputs never change with the
//! thread count.
//!
//! Usage: `cargo run --release -p pic-bench --bin sweep_bench
//!         [output.json] [--smoke] [--threads 1,2,4]`
//!
//! `--smoke` shrinks the grid to CI scale and additionally checks every
//! grid point against the sequential `generate_reference` oracle,
//! exiting non-zero on any divergence.
#![forbid(unsafe_code)]

use pic_bench::{
    parse_thread_list, run_thread_scaling, synthetic_expanding_trace, Scale, ThreadPoint,
};
use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_types::Aabb;
use pic_workload::generator::{self, DynamicWorkload, WorkloadConfig};
use pic_workload::sweep::{self, SweepPoint, SweepStats};
use serde::Serialize;
use std::time::Instant;

/// The measured grid, echoed into the report.
#[derive(Serialize)]
struct BenchConfig {
    particles: usize,
    samples: usize,
    mapping: MappingAlgorithm,
    rank_counts: Vec<usize>,
    projection_filters: Vec<f64>,
    grid_points: usize,
    threads: usize,
    smoke: bool,
}

/// One timed path: best-of-`reps` wall seconds.
#[derive(Serialize)]
struct PathTiming {
    reps: usize,
    best_secs: f64,
    mean_secs: f64,
}

/// The full report written to `BENCH_SWEEP.json`.
#[derive(Serialize)]
struct Report {
    config: BenchConfig,
    per_config_loop: PathTiming,
    sweep: PathTiming,
    speedup: f64,
    /// The sweep engine under pools of each requested size; outputs are
    /// asserted identical across the whole curve.
    thread_scaling: Vec<ThreadPoint>,
    sharing: SweepStats,
    outputs_identical: bool,
    oracle_checked: bool,
}

fn time_runs(
    reps: usize,
    mut f: impl FnMut() -> Vec<DynamicWorkload>,
) -> (PathTiming, Vec<DynamicWorkload>) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let w = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(w);
    }
    let best = secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = secs.iter().sum::<f64>() / reps as f64;
    (
        PathTiming {
            reps,
            best_secs: best,
            mean_secs: mean,
        },
        last.unwrap(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let thread_list = parse_thread_list(&args);
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--") && !a.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .cloned()
        .unwrap_or_else(|| "BENCH_SWEEP.json".to_string());

    // A mesh-based mapping shares its decomposition across every filter,
    // so the grid collapses to one assignment group per rank count while
    // the ghost phase runs once per group at the maximum radius. Hilbert
    // ordering has the priciest per-pass assignment (curve sort) of the
    // mesh-based mappings, and the paper-range filters keep the baseline's
    // per-radius queries comparable in cost to the shared maximum-radius
    // pass — both are what Fig 9/10 grids actually sweep.
    let mapping = MappingAlgorithm::HilbertOrdered;
    let rank_counts = Scale::Mini.rank_sweep();
    let filters = Scale::Paper.filter_sweep();
    let (particles, samples, reps_loop, reps_sweep) = if smoke {
        (2_000usize, 4usize, 1usize, 1usize)
    } else {
        (20_000usize, 6usize, 2usize, 3usize)
    };
    let (rank_counts, filters) = if smoke {
        (vec![16, 32], vec![0.02, 0.05, 0.12])
    } else {
        (rank_counts, filters)
    };

    eprintln!(
        "sweep_bench: np={particles} samples={samples}, grid {} ranks x {} filters ({}), smoke={smoke}",
        rank_counts.len(),
        filters.len(),
        serde_json::to_string(&mapping).unwrap(),
    );
    let trace = synthetic_expanding_trace(particles, samples, 7);
    let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(6), 3).expect("bench mesh");

    let mut points = Vec::new();
    for &ranks in &rank_counts {
        for &filter in &filters {
            points.push(SweepPoint::new(WorkloadConfig::new(ranks, mapping, filter)));
        }
    }

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");

    let (loop_timing, w_loop) = time_runs(reps_loop, || {
        pool.install(|| {
            points
                .iter()
                .map(|p| generator::generate_with_mesh(&trace, &p.config, Some(&mesh)).unwrap())
                .collect()
        })
    });
    eprintln!("  per-config loop: best {:.3}s", loop_timing.best_secs);

    let mut stats = SweepStats::default();
    let (sweep_timing, w_sweep) = time_runs(reps_sweep, || {
        pool.install(|| {
            let (w, s) = sweep::sweep_with_stats(&trace, &points, Some(&mesh)).unwrap();
            stats = s;
            w
        })
    });
    eprintln!("  sweep engine:    best {:.3}s", sweep_timing.best_secs);

    let outputs_identical = w_loop == w_sweep;
    assert!(
        outputs_identical,
        "sweep engine diverged from the per-config loop"
    );

    // 1→N thread scaling of the sweep engine. `run_thread_scaling` asserts
    // the workloads are identical at every pool size; additionally pin the
    // curve to the single-thread headline run above.
    let scaling_reps = if smoke { 1 } else { 2 };
    let thread_scaling = run_thread_scaling(&thread_list, scaling_reps, || {
        let (w, _) = sweep::sweep_with_stats(&trace, &points, Some(&mesh)).unwrap();
        assert!(
            w == w_sweep,
            "thread-scaled sweep diverged from headline run"
        );
        w
    });
    for p in &thread_scaling {
        eprintln!(
            "  threads={:<2} best {:.3}s  speedup_vs_1t {:.2}x",
            p.threads, p.best_secs, p.speedup_vs_1t
        );
    }

    let mut oracle_checked = false;
    if smoke {
        for (p, w) in points.iter().zip(&w_sweep) {
            let reference = generator::generate_reference(&trace, &p.config, Some(&mesh))
                .expect("reference replay");
            if *w != reference {
                eprintln!(
                    "sweep_bench: ORACLE DIVERGENCE at ranks={} filter={}",
                    p.config.ranks, p.config.projection_filter
                );
                std::process::exit(1);
            }
        }
        oracle_checked = true;
        eprintln!(
            "  oracle: all {} grid points match generate_reference",
            points.len()
        );
    }

    let report = Report {
        config: BenchConfig {
            particles,
            samples,
            mapping,
            rank_counts,
            projection_filters: filters,
            grid_points: points.len(),
            threads: 1,
            smoke,
        },
        speedup: loop_timing.best_secs / sweep_timing.best_secs,
        per_config_loop: loop_timing,
        sweep: sweep_timing,
        thread_scaling,
        sharing: stats,
        outputs_identical,
        oracle_checked,
    };
    eprintln!(
        "  speedup: {:.2}x ({} assign passes vs naive {})",
        report.speedup, report.sharing.assign_passes, report.sharing.naive_assign_passes
    );
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
