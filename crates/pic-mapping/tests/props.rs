//! Property-based tests: mapping algorithms preserve particles, respect
//! their geometric invariants, and behave monotonically in their knobs.

use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::{
    hilbert::hilbert_index, BinMapper, ElementMapper, HilbertMapper, LoadBalancedMapper,
    ParticleMapper, RegionIndex, RegionQueryScratch,
};
use pic_types::{Aabb, Rank, Vec3};
use proptest::prelude::*;

fn unit_positions(max: usize) -> impl Strategy<Value = Vec<Vec3>> {
    proptest::collection::vec(
        (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..max,
    )
}

fn mesh() -> ElementMesh {
    ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 3).unwrap()
}

proptest! {
    #[test]
    fn every_mapper_assigns_every_particle(positions in unit_positions(200), ranks in 1usize..32) {
        let m = mesh();
        let mappers: Vec<Box<dyn ParticleMapper>> = vec![
            Box::new(ElementMapper::new(&m, ranks).unwrap()),
            Box::new(BinMapper::new(ranks, 0.05).unwrap()),
            Box::new(HilbertMapper::new(&m, ranks).unwrap()),
        ];
        for mapper in &mappers {
            let out = mapper.assign(&positions);
            prop_assert_eq!(out.ranks.len(), positions.len(), "{}", mapper.name());
            let counts = out.counts(ranks);
            prop_assert_eq!(
                counts.iter().sum::<u32>() as usize,
                positions.len(),
                "{}", mapper.name()
            );
            prop_assert_eq!(out.rank_regions.len(), ranks);
        }
    }

    #[test]
    fn bin_mapper_never_exceeds_rank_count(positions in unit_positions(300), ranks in 1usize..64, t in 0.001..0.5f64) {
        let mapper = BinMapper::new(ranks, t).unwrap();
        let out = mapper.assign(&positions);
        let bins = out.bin_count.unwrap();
        prop_assert!(bins <= ranks.min(positions.len()));
        // bins also bounded by the unbounded cap
        prop_assert!(bins <= mapper.partition(&positions, usize::MAX).bin_count().max(1));
    }

    #[test]
    fn bin_particles_live_in_their_bin_boxes(positions in unit_positions(300), ranks in 2usize..32) {
        let mapper = BinMapper::new(ranks, 1e-4).unwrap();
        let part = mapper.partition(&positions, ranks);
        for (i, &b) in part.assignment.iter().enumerate() {
            prop_assert!(part.boxes[b as usize].contains_closed(positions[i]));
        }
        let total: u32 = part.counts.iter().sum();
        prop_assert_eq!(total as usize, positions.len());
    }

    #[test]
    fn bin_unbounded_count_monotone_in_threshold(positions in unit_positions(300), t in 0.01..0.3f64) {
        let coarse = BinMapper::new(8, t * 2.0).unwrap().partition(&positions, usize::MAX).bin_count();
        let fine = BinMapper::new(8, t).unwrap().partition(&positions, usize::MAX).bin_count();
        prop_assert!(fine >= coarse, "fine {fine} < coarse {coarse}");
    }

    #[test]
    fn hilbert_chunks_differ_by_at_most_one(positions in unit_positions(300), ranks in 1usize..32) {
        let m = mesh();
        let mapper = HilbertMapper::new(&m, ranks).unwrap();
        let counts = mapper.assign(&positions).counts(ranks);
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "{counts:?}");
    }

    #[test]
    fn hilbert_index_bijective_any_bits(bits in 1u32..5) {
        let side = 1u32 << bits;
        let mut seen = vec![false; (side * side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let h = hilbert_index(x, y, z, bits) as usize;
                    prop_assert!(!seen[h]);
                    seen[h] = true;
                }
            }
        }
    }

    #[test]
    fn element_mapper_is_position_deterministic(positions in unit_positions(100), ranks in 1usize..16) {
        let m = mesh();
        let mapper = ElementMapper::new(&m, ranks).unwrap();
        let a = mapper.assign(&positions);
        let b = mapper.assign(&positions);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn region_index_matches_brute_force(
        positions in unit_positions(60),
        ranks in 2usize..24,
        q in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        r in 0.005..0.4f64,
    ) {
        let mapper = BinMapper::new(ranks, 1e-4).unwrap();
        let out = mapper.assign(&positions);
        let index = RegionIndex::build(&out.rank_regions);
        let c = Vec3::new(q.0, q.1, q.2);
        let mut fast = Vec::new();
        index.for_each_rank_touching_sphere(c, r, &mut RegionQueryScratch::new(), |t| fast.push(t));
        fast.sort_unstable();
        let mut brute: Vec<Rank> = out
            .rank_regions
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects_sphere(c, r))
            .map(|(i, _)| Rank::from_index(i))
            .collect();
        brute.sort_unstable();
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn fixed_regions_are_every_samples_regions(positions in unit_positions(200), ranks in 1usize..24) {
        // Element mapping's regions are its RCB bricks whatever the sample,
        // so a ghost count may build its rank tree over them once; the
        // other mappings' regions move with the particles.
        let m = mesh();
        let element = ElementMapper::new(&m, ranks).unwrap();
        let fixed = element.fixed_regions().expect("element regions are fixed");
        prop_assert_eq!(fixed, &element.assign(&positions).rank_regions[..]);
        prop_assert_eq!(fixed, &element.assign(&[]).rank_regions[..]);
        let moving: Vec<Box<dyn ParticleMapper>> = vec![
            Box::new(LoadBalancedMapper::new(&m, ranks).unwrap()),
            Box::new(HilbertMapper::new(&m, ranks).unwrap()),
            Box::new(BinMapper::new(ranks, 0.05).unwrap()),
        ];
        for mapper in &moving {
            prop_assert!(mapper.fixed_regions().is_none(), "{}", mapper.name());
        }
    }

    #[test]
    fn more_ranks_never_raise_bin_peak(positions in unit_positions(400), ranks in 2usize..16) {
        let few = BinMapper::new(ranks, 1e-4).unwrap();
        let many = BinMapper::new(ranks * 4, 1e-4).unwrap();
        let peak = |m: &BinMapper| {
            m.assign(&positions)
                .counts(m.ranks())
                .into_iter()
                .max()
                .unwrap_or(0)
        };
        prop_assert!(peak(&many) <= peak(&few));
    }
}
