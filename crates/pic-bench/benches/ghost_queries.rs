//! Ghost-query microbench: the CSR `RegionIndex` (pic-sim's ground-truth
//! query) at the paper's rank scale (~8k regions), its build and its
//! per-particle scratch visitor; then the DWG's ghost kernels, the pruned
//! joins. The mesh groups' join over a `RankTree` runs at 2048 ranks with
//! three radii under each mesh mapping (`rank_tree/{element,
//! hilbert-ordered, load-balanced}`): element reuses its fixed tree, the
//! other two build one per sample, as the replay does. The bin groups'
//! join at `predict-4k`'s point (4176 ranks, filter 0.02) runs over the
//! sample's bin tree (`bin_tree`). Every kernel's counts are asserted
//! equal to the region index's before it is timed.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::{BinTree, MappingAlgorithm, RankTree, RegionIndex, RegionQueryScratch};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Rank, Vec3};

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

/// Per-rank `(recv, sent)` at `radius` through the region index, one
/// sphere query per particle: the counts every kernel must reproduce.
fn index_counts(
    positions: &[Vec3],
    owners: &[Rank],
    regions: &[Aabb],
    radius: f64,
) -> (Vec<u32>, Vec<u32>) {
    let index = RegionIndex::build(regions);
    let mut scratch = RegionQueryScratch::new();
    let (mut recv, mut sent) = (vec![0u32; regions.len()], vec![0u32; regions.len()]);
    for (&p, &home) in positions.iter().zip(owners) {
        index.for_each_rank_touching_sphere(p, radius, &mut scratch, |t| {
            if t != home {
                recv[t.index()] += 1;
                sent[home.index()] += 1;
            }
        });
    }
    (recv, sent)
}

fn ghost_queries(c: &mut Criterion) {
    let regions = brick_regions(20);
    let points = query_points(10_000, 7);
    let radius = 0.06; // a few cells wide, like a realistic projection filter

    let mut group = c.benchmark_group("ghost_queries");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("build", regions.len()), |b| {
        b.iter(|| RegionIndex::build(black_box(&regions)))
    });

    let index = RegionIndex::build(&regions);
    group.throughput(Throughput::Elements(points.len() as u64));
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

    let (ranks, radii) = (2048, [0.01, 0.02, 0.04]);
    let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(16), 5).unwrap();
    let cloud = query_points(20_000, 11);
    group.throughput(Throughput::Elements(cloud.len() as u64));
    for mapping in [
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ] {
        let mapper = mapping.mapper(Some(&mesh), ranks, radii[0]).unwrap();
        let outcome = mapper.assign(&cloud);
        let fixed = mapper.fixed_regions().map(RankTree::new);
        let count = || match &fixed {
            Some(tree) => tree.ghost_counts(&cloud, &outcome.ranks, black_box(&radii)),
            None => RankTree::new(&outcome.rank_regions).ghost_counts(
                &cloud,
                &outcome.ranks,
                black_box(&radii),
            ),
        };
        let expect: Vec<_> = (radii.iter())
            .map(|&r| index_counts(&cloud, &outcome.ranks, &outcome.rank_regions, r))
            .collect();
        assert_eq!(
            count(),
            expect,
            "{mapping}: the rank tree and the index disagree"
        );
        group.bench_function(BenchmarkId::new("rank_tree", mapping), |b| b.iter(count));
    }

    let (ranks, filter) = (4176, 0.02);
    let mut tree = BinTree::new(&cloud);
    let outcome = tree.walk(ranks, filter).into_outcome(ranks);
    let bins = outcome.bin_count.unwrap_or(0);
    let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
    tree.ghost_counts(filter, &mut recv, &mut sent);
    let expect = index_counts(&cloud, &outcome.ranks, &outcome.rank_regions, filter);
    assert_eq!((recv, sent), expect, "the bin tree and the index disagree");
    group.bench_function(BenchmarkId::new("bin_tree", bins), |b| {
        b.iter(|| {
            let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
            tree.ghost_counts(black_box(filter), &mut recv, &mut sent);
            (recv, sent)
        })
    });
    group.finish();
}

criterion_group!(benches, ghost_queries);
criterion_main!(benches);
