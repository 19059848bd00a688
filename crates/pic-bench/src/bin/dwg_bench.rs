//! DWG speedup runner: times the sequential reference replay against the
//! chunked-parallel and pipelined-streaming generator paths at the paper's
//! headline configuration (50 k particles re-targeted to 4176 ranks),
//! times the scalar ghost kernel against the grouped SoA matrix kernel on
//! one core, records a `--threads` 1→N scaling curve, and writes the
//! measurements to `BENCH_DWG.json`.
//!
//! Usage: `cargo run --release -p pic-bench --bin dwg_bench
//!         [output.json] [--threads 1,2,4]`
#![forbid(unsafe_code)]

use pic_bench::{parse_thread_list, run_thread_scaling, synthetic_expanding_trace, ThreadPoint};
use pic_mapping::{BinMapper, MappingAlgorithm, ParticleMapper, RegionIndex};
use pic_trace::codec::{encode_trace, Precision};
use pic_workload::generator::{self, DynamicWorkload, WorkloadConfig};
use pic_workload::reference::ghost_counts_chunked;
use pic_workload::soa::{ghost_counts_soa, SoAPositions};
use serde::Serialize;
use std::time::Instant;

/// The measured configuration, echoed into the report.
#[derive(Serialize)]
struct BenchConfig {
    particles: usize,
    samples: usize,
    ranks: usize,
    projection_filter: f64,
    mapping: MappingAlgorithm,
    threads: usize,
}

/// One timed path: best-of-`reps` wall seconds.
#[derive(Serialize)]
struct PathTiming {
    reps: usize,
    best_secs: f64,
    mean_secs: f64,
}

/// The full report written to `BENCH_DWG.json`.
#[derive(Serialize)]
struct Report {
    config: BenchConfig,
    sequential_reference: PathTiming,
    parallel: PathTiming,
    streaming: PathTiming,
    /// Mapping + comm diff only (`compute_ghosts = false`): the floor the
    /// ghost-kernel optimizations cannot go below.
    parallel_no_ghosts: PathTiming,
    speedup_parallel: f64,
    speedup_streaming: f64,
    speedup_ghost_phase: f64,
    /// Scalar candidate-walk kernel vs the grouped SoA matrix kernel, both
    /// on a 1-thread pool over the same assignments (pure kernel speedup).
    ghost_kernel_scalar: PathTiming,
    ghost_kernel_soa: PathTiming,
    speedup_ghost_kernel: f64,
    /// End-to-end `generate` under pools of each requested size.
    thread_scaling: Vec<ThreadPoint>,
    peak_workload: u32,
    outputs_identical: bool,
}

/// Time one closure best-of-`reps` without caring about its output.
fn time_kernel(reps: usize, mut f: impl FnMut()) -> PathTiming {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    PathTiming {
        reps,
        best_secs: secs.iter().cloned().fold(f64::INFINITY, f64::min),
        mean_secs: secs.iter().sum::<f64>() / reps as f64,
    }
}

fn time_path(reps: usize, mut f: impl FnMut() -> DynamicWorkload) -> (PathTiming, DynamicWorkload) {
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
    let thread_list = parse_thread_list(&args);
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--") && !a.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .cloned()
        .unwrap_or_else(|| "BENCH_DWG.json".to_string());
    let particles = 50_000usize;
    let samples = 6usize;
    let ranks = 4176usize;
    let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.02);

    eprintln!("dwg_bench: trace np={particles} samples={samples}, ranks={ranks}");
    let trace = synthetic_expanding_trace(particles, samples, 7);
    let encoded = encode_trace(&trace, Precision::F64).expect("encode trace");

    let (seq, w_seq) = time_path(2, || {
        generator::generate_reference(&trace, &cfg, None).unwrap()
    });
    eprintln!("  sequential reference: best {:.3}s", seq.best_secs);
    let (par, w_par) = time_path(3, || generator::generate(&trace, &cfg).unwrap());
    eprintln!("  chunked parallel:     best {:.3}s", par.best_secs);
    let (stream, w_stream) = time_path(3, || {
        let reader = pic_trace::TraceReader::new(&encoded[..]).unwrap();
        generator::generate_streaming_with_stats(reader, &cfg, None)
            .unwrap()
            .0
    });
    eprintln!("  pipelined streaming:  best {:.3}s", stream.best_secs);
    let mut cfg_ng = cfg.clone();
    cfg_ng.compute_ghosts = false;
    let (no_ghosts, _) = time_path(3, || generator::generate(&trace, &cfg_ng).unwrap());
    eprintln!("  parallel, no ghosts:  best {:.3}s", no_ghosts.best_secs);

    let outputs_identical = w_seq == w_par && w_seq == w_stream;
    assert!(
        outputs_identical,
        "parallel paths diverged from the sequential reference"
    );

    // Single-core kernel duel: the scalar candidate walk vs the grouped
    // SoA matrix kernel over the same per-sample assignments. A 1-thread
    // pool pins both to one core so the ratio is pure kernel speedup.
    let mapper = BinMapper::new(ranks, 0.02).expect("bench mapper");
    let assignments: Vec<_> = trace
        .samples()
        .map(|s| {
            let out = mapper.assign(&s.positions);
            let index = RegionIndex::build(&out.rank_regions);
            let soa = SoAPositions::from_positions(&s.positions);
            (s.positions.clone(), soa, out.ranks, index)
        })
        .collect();
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    for (positions, soa, owners, index) in &assignments {
        let scalar = ghost_counts_chunked(positions, owners, index, cfg.projection_filter, ranks);
        let lane = ghost_counts_soa(soa, owners, index, cfg.projection_filter, ranks);
        assert_eq!(scalar, lane, "SoA ghost kernel diverged from scalar");
    }
    let ghost_kernel_scalar = time_kernel(3, || {
        pool1.install(|| {
            for (positions, _, owners, index) in &assignments {
                std::hint::black_box(ghost_counts_chunked(
                    positions,
                    owners,
                    index,
                    cfg.projection_filter,
                    ranks,
                ));
            }
        })
    });
    eprintln!(
        "  ghost kernel scalar:  best {:.3}s",
        ghost_kernel_scalar.best_secs
    );
    let ghost_kernel_soa = time_kernel(3, || {
        pool1.install(|| {
            for (_, soa, owners, index) in &assignments {
                std::hint::black_box(ghost_counts_soa(
                    soa,
                    owners,
                    index,
                    cfg.projection_filter,
                    ranks,
                ));
            }
        })
    });
    eprintln!(
        "  ghost kernel SoA:     best {:.3}s ({:.2}x)",
        ghost_kernel_soa.best_secs,
        ghost_kernel_scalar.best_secs / ghost_kernel_soa.best_secs
    );
    drop(assignments);

    // 1→N scaling of the full generator (outputs must not depend on the
    // pool size; run_thread_scaling asserts equality across the curve).
    let thread_scaling = run_thread_scaling(&thread_list, 2, || {
        generator::generate(&trace, &cfg).unwrap()
    });
    for p in &thread_scaling {
        eprintln!(
            "  threads={:<2} best {:.3}s  speedup_vs_1t {:.2}x",
            p.threads, p.best_secs, p.speedup_vs_1t
        );
    }

    let report = Report {
        config: BenchConfig {
            particles,
            samples,
            ranks,
            projection_filter: cfg.projection_filter,
            mapping: cfg.mapping,
            threads: pic_types::pool::configured_threads(),
        },
        speedup_parallel: seq.best_secs / par.best_secs,
        speedup_streaming: seq.best_secs / stream.best_secs,
        speedup_ghost_phase: (seq.best_secs - no_ghosts.best_secs)
            / (par.best_secs - no_ghosts.best_secs).max(1e-9),
        speedup_ghost_kernel: ghost_kernel_scalar.best_secs / ghost_kernel_soa.best_secs,
        ghost_kernel_scalar,
        ghost_kernel_soa,
        thread_scaling,
        peak_workload: w_seq.peak_workload(),
        sequential_reference: seq,
        parallel: par,
        streaming: stream,
        parallel_no_ghosts: no_ghosts,
        outputs_identical,
    };
    eprintln!(
        "  speedup: parallel {:.2}x, streaming {:.2}x",
        report.speedup_parallel, report.speedup_streaming
    );
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
