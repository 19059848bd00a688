//! Per-sample assignment cost of the four particle mapping algorithms, and
//! of the migration diff between two consecutive assignments.
//!
//! Bin-based mapping rebuilds its recursive planar-cut partition every
//! sample (CMT-nek rebuilds per iteration), so its per-sample cost is the
//! interesting one; element lookup is O(1) per particle; Hilbert pays a
//! radix sort by curve rank; load-balanced pays a weighted decomposition
//! of the mesh.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::{
    BinMapper, BinTree, ElementMapper, HilbertMapper, LoadBalancedMapper, ParticleMapper,
};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Vec3};

fn positions(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
        .collect()
}

fn mapping_assign(c: &mut Criterion) {
    let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(8), 5).unwrap();
    let ranks = 256;
    let mut group = c.benchmark_group("mapping_assign");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let pos = positions(n, 11);
        group.throughput(Throughput::Elements(n as u64));

        let element = ElementMapper::new(&mesh, ranks).unwrap();
        group.bench_with_input(BenchmarkId::new("element", n), &pos, |b, pos| {
            b.iter(|| element.assign(pos));
        });

        let bin = BinMapper::new(ranks, 1e-4).unwrap();
        group.bench_with_input(BenchmarkId::new("bin", n), &pos, |b, pos| {
            b.iter(|| bin.assign(pos));
        });

        let hilbert = HilbertMapper::new(&mesh, ranks).unwrap();
        group.bench_with_input(BenchmarkId::new("hilbert", n), &pos, |b, pos| {
            b.iter(|| hilbert.assign(pos));
        });

        let load_balanced = LoadBalancedMapper::new(&mesh, ranks).unwrap();
        group.bench_with_input(BenchmarkId::new("load-balanced", n), &pos, |b, pos| {
            b.iter(|| load_balanced.assign(pos));
        });
    }
    group.finish();
}

fn migration_diff(c: &mut Criterion) {
    // Two consecutive samples of a jittered cloud under bin-based mapping:
    // the bins move with the cloud, so most particles change rank, as in
    // `heleshaw`, where at most 0.61 keep theirs.
    let mut group = c.benchmark_group("migration_pairs");
    group.sample_size(10);
    for &(n, ranks) in &[(20_000usize, 512usize), (100_000, 4176)] {
        let before = positions(n, 17);
        let jitter = positions(n, 19);
        let after: Vec<Vec3> = (before.iter().zip(&jitter))
            .map(|(&p, &j)| p + (j - Vec3::splat(0.5)) * 0.1)
            .collect();
        let bin = BinMapper::new(ranks, 1e-4).unwrap();
        let (prev, cur) = (bin.assign(&before).ranks, bin.assign(&after).ranks);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("bin", format!("{n}x{ranks}")),
            &(prev, cur),
            |b, (prev, cur)| b.iter(|| pic_workload::migration_pairs(prev, cur)),
        );
    }
    group.finish();
}

fn bin_partition_depth(c: &mut Criterion) {
    // Cost of the unbounded partition (Fig 6 analysis) at three depths, and
    // of a grid of bounded ones with and without a shared tree.
    let pos = positions(50_000, 13);
    let mut group = c.benchmark_group("bin_partition");
    group.sample_size(10);
    for &threshold in &[0.2, 0.05, 0.01] {
        let mapper = BinMapper::new(usize::MAX - 1, threshold).unwrap();
        group.bench_with_input(
            BenchmarkId::new("unbounded", format!("t{threshold}")),
            &pos,
            |b, pos| b.iter(|| mapper.partition(pos, usize::MAX).bin_count()),
        );
    }
    // A 2 × 3 (ranks × threshold) grid of one sample, as a sweep's bin
    // groups see it: six lone partitions against one tree walked six times.
    let grid: Vec<(usize, f64)> = [512usize, 2048]
        .iter()
        .flat_map(|&r| [0.01, 0.02, 0.04].map(|t| (r, t)))
        .collect();
    let mappers: Vec<BinMapper> = (grid.iter())
        .map(|&(r, t)| BinMapper::new(r, t).unwrap())
        .collect();
    group.bench_with_input(
        BenchmarkId::new("2x3 grid", "partitions"),
        &pos,
        |b, pos| {
            b.iter(|| {
                (mappers.iter())
                    .map(|m| m.partition(pos, m.ranks()).bin_count())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("2x3 grid", "tree"), &pos, |b, pos| {
        b.iter(|| {
            let mut tree = BinTree::new(pos);
            (grid.iter())
                .map(|&(r, t)| tree.walk(r, t).bin_count())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, mapping_assign, migration_diff, bin_partition_depth);
criterion_main!(benches);
