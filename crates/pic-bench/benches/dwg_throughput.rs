//! Dynamic Workload Generator throughput — the paper's "two minutes for
//! 4176 ranks versus ~24 hours of application time" economy claim (§II).
//!
//! Measures full workload generation (assignment + ghost queries + comm
//! diff) over a synthetic dispersal trace at several particle counts and
//! rank counts, with and without ghost computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_bench::synthetic_expanding_trace;
use pic_mapping::MappingAlgorithm;
use pic_trace::ParticleTrace;
use pic_workload::{
    replay, DynamicWorkload, ReplayOptions, SweepPoint, SweepStats, WorkloadConfig,
};

/// One configuration through the replay door.
fn generate(trace: &ParticleTrace, cfg: &WorkloadConfig) -> (Vec<DynamicWorkload>, SweepStats) {
    replay(
        trace,
        &[SweepPoint::new(cfg.clone())],
        &ReplayOptions::default(),
    )
    .unwrap()
}

fn dwg_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("dwg_generate");
    group.sample_size(10);
    for &particles in &[10_000usize, 50_000] {
        let trace = synthetic_expanding_trace(particles, 8, 42);
        let total = (particles * trace.sample_count()) as u64;
        for &ranks in &[64usize, 1024] {
            group.throughput(Throughput::Elements(total));
            group.bench_with_input(
                BenchmarkId::new(format!("bin_ghosts_np{particles}"), ranks),
                &ranks,
                |b, &ranks| {
                    let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.02);
                    b.iter(|| generate(&trace, &cfg));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("bin_noghosts_np{particles}"), ranks),
                &ranks,
                |b, &ranks| {
                    let mut cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.02);
                    cfg.compute_ghosts = false;
                    b.iter(|| generate(&trace, &cfg));
                },
            );
        }
    }
    group.finish();
}

/// The headline configuration: one trace re-targeted to the paper's 4176
/// ranks. Wall-time here is the "less than two minutes" number.
fn dwg_paper_rank_count(c: &mut Criterion) {
    let trace = synthetic_expanding_trace(50_000, 6, 7);
    let mut group = c.benchmark_group("dwg_4176_ranks");
    group.sample_size(10);
    group.bench_function("bin_based", |b| {
        let cfg = WorkloadConfig::new(4176, MappingAlgorithm::BinBased, 0.02);
        b.iter(|| generate(&trace, &cfg));
    });
    group.finish();
}

criterion_group!(benches, dwg_throughput, dwg_paper_rank_count);
criterion_main!(benches);
