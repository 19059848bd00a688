//! The DWG's two ghost joins against the `RegionIndex` (pic-sim's
//! ground-truth query) above the rank counts the other ghost tests reach.
//! The mesh groups' join over a `RankTree` runs at 2048 ranks with three
//! radii under each mesh mapping: element reuses its fixed tree, the other
//! two build one per sample, as the replay does. The bin groups' join runs
//! at `predict-4k`'s point (4176 ranks, filter 0.02) over the sample's bin
//! tree. Both run on the same uniform 20 000-point cloud. Run in release:
//! `cargo test -p pic-mapping --release --test paper_scale_ghosts`.

use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::{BinTree, MappingAlgorithm, RankTree, RegionIndex, RegionQueryScratch};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Rank, Vec3};

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

#[test]
fn rank_tree_matches_the_region_index_at_2048_ranks() {
    let (ranks, radii) = (2048, [0.01, 0.02, 0.04]);
    let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(16), 5).unwrap();
    let cloud = query_points(20_000, 11);
    for mapping in [
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ] {
        let mapper = mapping.mapper(Some(&mesh), ranks, radii[0]).unwrap();
        let outcome = mapper.assign(&cloud);
        let fixed = mapper.fixed_regions().map(RankTree::new);
        let count = || match &fixed {
            Some(tree) => tree.ghost_counts(&cloud, &outcome.ranks, &radii),
            None => {
                RankTree::new(&outcome.rank_regions).ghost_counts(&cloud, &outcome.ranks, &radii)
            }
        };
        let expect: Vec<_> = (radii.iter())
            .map(|&r| index_counts(&cloud, &outcome.ranks, &outcome.rank_regions, r))
            .collect();
        assert_eq!(
            count(),
            expect,
            "{mapping}: the rank tree and the index disagree"
        );
    }
}

#[test]
fn bin_tree_matches_the_region_index_at_4176_ranks() {
    let cloud = query_points(20_000, 11);
    let (ranks, filter) = (4176, 0.02);
    let mut tree = BinTree::new(&cloud);
    let outcome = tree.walk(ranks, filter).into_outcome(ranks);
    let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
    tree.ghost_counts(filter, &mut recv, &mut sent);
    let expect = index_counts(&cloud, &outcome.ranks, &outcome.rank_regions, filter);
    assert_eq!((recv, sent), expect, "the bin tree and the index disagree");
}
