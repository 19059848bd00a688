//! Property tests for the mesh groups' ghost kernel, the rank tree's pruned
//! join ([`RankTree::ghost_counts`]): it is bit-identical to the scalar
//! kernel, one region-index query per particle at each radius, for any
//! radius list, any rank layout, and the inputs where its compare-select
//! clamp and `f64::max`/`min` could part ways (coordinates on a face,
//! signed zeros, NaN and ±∞). The join counts each leaf pair's hits for
//! four radii at once in register lanes; the tests call it the lane kernel.

use pic_mapping::{BinMapper, ParticleMapper, RankTree, RegionIndex, RegionQueryScratch};
use pic_types::{Aabb, Rank, Vec3};
use proptest::prelude::*;

/// Particle counts around multiples of eight, plus arbitrary small sizes.
fn boundary_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(9), Just(15), Just(24), 1usize..130]
}

/// An assignment fixture: owners plus the regions the ghost kernels
/// query, from a bin mapping of the positions.
fn fixture(positions: &[Vec3], ranks: usize) -> (Vec<Rank>, Vec<Aabb>) {
    let mapper = BinMapper::new(ranks, 1e-4).unwrap();
    let out = mapper.assign(positions);
    (out.ranks, out.rank_regions)
}

/// The scalar kernel at one radius: for each particle, one receive on every
/// rank other than its owner that the region index finds within `radius`,
/// and as many sends on the owner.
fn scalar(
    positions: &[Vec3],
    owners: &[Rank],
    regions: &[Aabb],
    radius: f64,
) -> (Vec<u32>, Vec<u32>) {
    let ranks = regions.len();
    let index = RegionIndex::build(regions);
    let mut scratch = RegionQueryScratch::new();
    let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
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

/// The scalar kernel at each radius of the list, in list order.
fn multi_scalar(
    positions: &[Vec3],
    owners: &[Rank],
    regions: &[Aabb],
    radii: &[f64],
) -> Vec<(Vec<u32>, Vec<u32>)> {
    (radii.iter())
        .map(|&r| scalar(positions, owners, regions, r))
        .collect()
}

/// The lane kernel over the regions' rank tree.
fn lane(
    positions: &[Vec3],
    owners: &[Rank],
    regions: &[Aabb],
    radii: &[f64],
) -> Vec<(Vec<u32>, Vec<u32>)> {
    RankTree::new(regions).ghost_counts(positions, owners, radii)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lane_kernel_matches_scalar_kernel(
        n in boundary_len(),
        seed in 0u64..1000,
        ranks in 2usize..24,
        radius in prop_oneof![0.005..0.4f64, Just(0.0), Just(f64::INFINITY)],
    ) {
        let mut rng = pic_types::rng::SplitMix64::new(seed);
        let positions: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let (owners, regions) = fixture(&positions, ranks);
        prop_assert_eq!(
            vec![scalar(&positions, &owners, &regions, radius)],
            lane(&positions, &owners, &regions, &[radius])
        );
    }

    #[test]
    fn lane_kernel_matches_scalar_on_random_clouds(
        positions in proptest::collection::vec(
            (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..150,
        ),
        ranks in 2usize..24,
        radius in 0.005..0.4f64,
    ) {
        let (owners, regions) = fixture(&positions, ranks);
        prop_assert_eq!(
            vec![scalar(&positions, &owners, &regions, radius)],
            lane(&positions, &owners, &regions, &[radius])
        );
    }

    #[test]
    fn multi_radius_lane_kernel_matches_scalar(
        positions in proptest::collection::vec(
            (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..120,
        ),
        ranks in 2usize..20,
        radii in proptest::collection::vec(0.005..0.4f64, 2..5),
    ) {
        let (owners, regions) = fixture(&positions, ranks);
        let multi = lane(&positions, &owners, &regions, &radii);
        prop_assert_eq!(&multi_scalar(&positions, &owners, &regions, &radii), &multi);
        // And the shared pass agrees with running every radius standalone.
        for (k, &r) in radii.iter().enumerate() {
            prop_assert_eq!(&multi[k], &lane(&positions, &owners, &regions, &[r])[0]);
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_on_quantised_coordinates(
        // What a compact f32 trace decodes to: bin tight boxes then put
        // region faces exactly on particle coordinates, so `c == face` —
        // where a compare-select and `f64::max`/`min` could differ — is the
        // common case, not a measure-zero one.
        positions in proptest::collection::vec(
            (0u32..12, 0u32..12, 0u32..12).prop_map(|(x, y, z)| {
                let q = |v: u32| f64::from(v as f32 / 11.0);
                Vec3::new(q(x), q(y), q(z))
            }),
            1..150,
        ),
        ranks in 2usize..24,
        // More radii than one block of four, with duplicates and zero
        // allowed.
        radii in proptest::collection::vec(
            prop_oneof![Just(0.0), Just(1.0 / 11.0), Just(0.05), 0.005..0.4f64],
            1..10,
        ),
    ) {
        let (owners, regions) = fixture(&positions, ranks);
        let multi = lane(&positions, &owners, &regions, &radii);
        prop_assert_eq!(&multi_scalar(&positions, &owners, &regions, &radii), &multi);
        for (k, &r) in radii.iter().enumerate() {
            prop_assert_eq!(&multi[k], &lane(&positions, &owners, &regions, &[r])[0]);
        }
    }
}

/// Four x-slab regions over the unit cube with round-robin owners: the
/// bin mapper cannot partition non-finite positions, but the ghost
/// kernels must still agree on them, so the fixture is hand-built.
fn slab_fixture(particles: usize, ranks: usize) -> (Vec<Rank>, Vec<Aabb>) {
    let regions: Vec<Aabb> = (0..ranks)
        .map(|r| {
            let lo = r as f64 / ranks as f64;
            Aabb::new(
                Vec3::new(lo, 0.0, 0.0),
                Vec3::new(lo + 1.0 / ranks as f64, 1.0, 1.0),
            )
        })
        .collect();
    let owners = (0..particles)
        .map(|i| Rank::from_index(i % ranks))
        .collect();
    (owners, regions)
}

#[test]
fn lane_kernel_handles_degenerate_inputs_like_scalar() {
    // Finite-but-extreme coordinates (far outside the region bounds, so
    // far that their `d²` overflows) and edge radii are well-defined in
    // every build profile: the join must prune nothing the scalar kernel
    // counts.
    let positions = vec![
        Vec3::new(1e300, 0.5, 0.5),
        Vec3::new(0.2, 0.2, 0.2),
        Vec3::new(-1e300, 0.1, 0.9),
        Vec3::new(0.8, 0.8, 0.8),
        Vec3::new(0.2, -40.0, 0.3),
    ];
    let ranks = 4;
    let (owners, regions) = slab_fixture(positions.len(), ranks);
    for radius in [0.1, 0.0, f64::INFINITY] {
        assert_eq!(
            vec![scalar(&positions, &owners, &regions, radius)],
            lane(&positions, &owners, &regions, &[radius]),
            "radius {radius}"
        );
    }
    let radii = [0.1, 0.0, f64::INFINITY];
    assert_eq!(
        multi_scalar(&positions, &owners, &regions, &radii),
        lane(&positions, &owners, &regions, &radii)
    );
    let zeros = (vec![0; ranks], vec![0; ranks]);
    assert_eq!(lane(&[], &[], &regions, &[0.1]), vec![zeros]);
}

#[test]
fn lane_kernel_handles_signed_zeros_like_scalar() {
    // Rank 0's x face and every y/z face of the slabs sit at 0.0; a
    // coordinate of either zero on such a face is where the clamp's
    // compare-select may return the other zero than `f64::max` — which
    // `dx·dx` must erase.
    let positions: Vec<Vec3> = [-0.0, 0.0]
        .iter()
        .flat_map(|&a| {
            [-0.0, 0.0, 0.3]
                .iter()
                .flat_map(move |&b| [-0.0, 0.0, 0.7].map(|c| Vec3::new(a, b, c)).into_iter())
        })
        .chain([Vec3::new(0.25, -0.0, 0.0), Vec3::new(0.5, 0.0, -0.0)])
        .collect();
    let ranks = 4;
    let (owners, regions) = slab_fixture(positions.len(), ranks);
    for radius in [0.0, 0.1, 0.3] {
        assert_eq!(
            vec![scalar(&positions, &owners, &regions, radius)],
            lane(&positions, &owners, &regions, &[radius]),
            "radius {radius}"
        );
    }
    let radii = [0.0, 0.3, 0.1];
    assert_eq!(
        multi_scalar(&positions, &owners, &regions, &radii),
        lane(&positions, &owners, &regions, &radii)
    );
}

#[test]
fn lane_kernel_handles_non_finite_inputs_like_scalar() {
    // NaN/±inf coordinates and negative/NaN radii build malformed query
    // boxes that `Aabb::new` rejects in debug builds, so the scalar kernel
    // has no answer to compare there. In release (the profile the CI
    // thread-matrix job runs this suite under) the assert compiles out and
    // both kernels must count the same ghosts.
    if cfg!(debug_assertions) {
        return;
    }
    let positions = vec![
        Vec3::new(f64::NAN, 0.5, 0.5),
        Vec3::new(0.2, 0.2, 0.2),
        Vec3::new(f64::INFINITY, 0.1, 0.9),
        Vec3::new(0.8, 0.8, 0.8),
        Vec3::new(0.2, f64::NEG_INFINITY, 0.3),
    ];
    let ranks = 4;
    let (owners, regions) = slab_fixture(positions.len(), ranks);
    for radius in [0.1, 0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert_eq!(
            vec![scalar(&positions, &owners, &regions, radius)],
            lane(&positions, &owners, &regions, &[radius]),
            "radius {radius}"
        );
    }
    let radii = [0.1, 0.0, 0.3];
    assert_eq!(
        multi_scalar(&positions, &owners, &regions, &radii),
        lane(&positions, &owners, &regions, &radii)
    );
}
