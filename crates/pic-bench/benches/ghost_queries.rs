//! Ghost-query microbench at the paper's rank scale (~8k regions): CSR
//! `RegionIndex` build cost, the per-particle scratch visitor (the scalar
//! oracle's query), and the grouped SoA kernel the DWG ships for mesh
//! groups (`ghost_counts_soa`) at one radius and at a three-radius sweep.
//! Then the bin groups' kernel at `predict-4k`'s point (4176 ranks, filter
//! 0.02): `BinTree::ghost_counts` over the sample's bin tree, next to the SoA
//! kernel over a region index of the same partition.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_mapping::{BinTree, RegionIndex, RegionQueryScratch};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Rank, Vec3};
use pic_workload::soa::{ghost_counts_soa, SoAPositions};

/// A 20×20×20 brick decomposition of the unit cube: 8000 regions, the
/// shape rank regions take at the paper's 8352-rank scale.
fn brick_regions(per_axis: usize) -> Vec<Aabb> {
    let w = 1.0 / per_axis as f64;
    let mut regions = Vec::with_capacity(per_axis.pow(3));
    for z in 0..per_axis {
        for y in 0..per_axis {
            for x in 0..per_axis {
                let min = Vec3::new(x as f64 * w, y as f64 * w, z as f64 * w);
                regions.push(Aabb::new(min, min + Vec3::splat(w)));
            }
        }
    }
    regions
}

fn query_points(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
        .collect()
}

/// The brick of `brick_regions(per_axis)` that contains `p` (closed on the
/// top faces of the last brick).
fn brick_of(p: Vec3, per_axis: usize) -> Rank {
    let cell = |c: f64| ((c * per_axis as f64) as usize).min(per_axis - 1);
    Rank::from_index(cell(p.x) + per_axis * (cell(p.y) + per_axis * cell(p.z)))
}

fn ghost_queries(c: &mut Criterion) {
    let regions = brick_regions(20);
    let points = query_points(10_000, 7);
    let radius = 0.06; // a few cells wide, like a realistic projection filter
    let owners: Vec<Rank> = points.iter().map(|&p| brick_of(p, 20)).collect();
    let soa = SoAPositions::from_positions(&points);

    let mut group = c.benchmark_group("ghost_queries");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("build", regions.len()), |b| {
        b.iter(|| RegionIndex::build(black_box(&regions)))
    });

    let index = RegionIndex::build(&regions);
    group.throughput(Throughput::Elements(points.len() as u64));
    for radii in [&[radius][..], &[0.02, 0.04, radius]] {
        let id = BenchmarkId::new(format!("soa_kernel_{}r", radii.len()), regions.len());
        group.bench_function(id, |b| {
            b.iter(|| ghost_counts_soa(&soa, &owners, &index, black_box(radii), regions.len()))
        });
    }
    group.bench_function(BenchmarkId::new("query_scratch", regions.len()), |b| {
        let mut scratch = RegionQueryScratch::new();
        b.iter(|| {
            let mut touched = 0usize;
            for &p in &points {
                index.for_each_rank_touching_sphere(p, radius, &mut scratch, |r: Rank| {
                    touched += r.index() & 1;
                });
            }
            touched
        })
    });

    let (ranks, filter) = (4176, 0.02);
    let cloud = query_points(20_000, 11);
    let mut tree = BinTree::new(&cloud);
    let outcome = tree.walk(ranks, filter).into_outcome(ranks);
    let bins = outcome.bin_count.unwrap_or(0);
    group.throughput(Throughput::Elements(cloud.len() as u64));
    group.bench_function(BenchmarkId::new("bin_tree", bins), |b| {
        b.iter(|| {
            let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
            tree.ghost_counts(black_box(filter), &mut recv, &mut sent);
            (recv, sent)
        })
    });
    let index = RegionIndex::build(&outcome.rank_regions);
    let soa = SoAPositions::from_positions(&cloud);
    let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
    tree.ghost_counts(filter, &mut recv, &mut sent);
    let rows = ghost_counts_soa(&soa, &outcome.ranks, &index, &[filter], ranks);
    assert_eq!(rows, [(recv, sent)], "the two kernels disagree");
    group.bench_function(BenchmarkId::new("soa_kernel_bins", bins), |b| {
        b.iter(|| ghost_counts_soa(&soa, &outcome.ranks, &index, black_box(&[filter]), ranks))
    });
    group.finish();
}

criterion_group!(benches, ghost_queries);
criterion_main!(benches);
