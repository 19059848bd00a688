//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **Region index vs brute force** for ghost-particle sphere queries —
//!   the `O(N_p · R)` scan the uniform-grid index replaces;
//! * **Parallel vs sequential** Dynamic Workload Generation — rayon's
//!   contribution to the "minutes instead of hours" claim;
//! * **f32 vs f64 trace precision** — the storage/bandwidth trade-off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_bench::synthetic_expanding_trace;
use pic_mapping::MappingAlgorithm;
use pic_mapping::{BinMapper, ParticleMapper, RegionIndex};
use pic_trace::codec::{encode_trace, Precision};
use pic_types::rng::SplitMix64;
use pic_types::{Rank, Vec3};
use pic_workload::{replay, ReplayOptions, SweepPoint, WorkloadConfig};

fn positions(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
        .collect()
}

/// Ghost queries through the spatial index vs a brute-force region scan.
fn ablation_region_index(c: &mut Criterion) {
    let pos = positions(20_000, 31);
    let filter = 0.03;
    let mut group = c.benchmark_group("ablation_ghost_query");
    group.sample_size(10);
    for &ranks in &[64usize, 512] {
        let mapper = BinMapper::new(ranks, 1e-4).unwrap();
        let outcome = mapper.assign(&pos);
        group.throughput(Throughput::Elements(pos.len() as u64));
        group.bench_with_input(BenchmarkId::new("indexed", ranks), &pos, |b, pos| {
            let index = RegionIndex::build(&outcome.rank_regions);
            let mut touched = Vec::new();
            b.iter(|| {
                let mut total = 0usize;
                for &p in pos {
                    index.ranks_touching_sphere(p, filter, &mut touched);
                    total += touched.len();
                }
                total
            });
        });
        group.bench_with_input(BenchmarkId::new("brute_force", ranks), &pos, |b, pos| {
            b.iter(|| {
                let mut total = 0usize;
                for &p in pos {
                    for (r, region) in outcome.rank_regions.iter().enumerate() {
                        if region.intersects_sphere(p, filter) {
                            total += Rank::from_index(r).index() + 1;
                        }
                    }
                }
                total
            });
        });
    }
    group.finish();
}

/// DWG on all cores (rayon) vs a single-threaded pool.
fn ablation_parallel_dwg(c: &mut Criterion) {
    let trace = synthetic_expanding_trace(20_000, 12, 32);
    let points = [SweepPoint::new(WorkloadConfig::new(
        256,
        MappingAlgorithm::BinBased,
        0.02,
    ))];
    let generate = || replay(&trace, &points, &ReplayOptions::default()).unwrap();
    let mut group = c.benchmark_group("ablation_dwg_parallelism");
    group.sample_size(10);
    group.bench_function("all_cores", |b| {
        b.iter(generate);
    });
    group.bench_function("single_thread", |b| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        b.iter(|| pool.install(generate));
    });
    group.finish();
}

/// Trace encoding at both precisions (bytes written per second).
fn ablation_precision(c: &mut Criterion) {
    let trace = synthetic_expanding_trace(50_000, 8, 33);
    let mut group = c.benchmark_group("ablation_trace_precision");
    group.sample_size(10);
    for precision in [Precision::F64, Precision::F32] {
        let size = encode_trace(&trace, precision).unwrap().len();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{precision:?}_{size}B"), |b| {
            b.iter(|| encode_trace(&trace, precision).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_region_index,
    ablation_parallel_dwg,
    ablation_precision
);
criterion_main!(benches);
