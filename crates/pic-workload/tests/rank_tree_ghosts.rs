//! The mesh groups' ghost kernel (element, Hilbert and load-balanced
//! mappings) counts over a rank tree: a pruned join of each node's
//! particle box against each node's region box, then each rank's records
//! against each near rank's region. It must answer what the sequential
//! reference answers through a region index over the rank regions, on the
//! traces where that join is least regular:
//!
//! - particles outside the mesh domain, which the mappers clamp into
//!   boundary elements, so they lie outside their own rank's region;
//! - more ranks than particles (empty Hilbert chunks);
//! - more ranks than elements (RCB leaves ranks with empty regions);
//! - coincident particles, and a zero-extent axis;
//! - filter lists that are unsorted, repeat a filter, or include one that
//!   covers the whole domain;
//!
//! under pools of 1, 2 and 4 threads, and on every path a mesh group
//! takes: resident, streamed, cached (cold, warm, and a hit that lacks its
//! radii) and reduced.

use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_trace::codec::{encode_trace, Precision};
use pic_trace::{ParticleTrace, TraceMeta, TraceReader};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Vec3};
use pic_workload::generator::{generate_reference, WorkloadConfig};
use pic_workload::{
    replay, sweep_streaming, AssignmentCache, DynamicWorkload, ReductionPlan, ReplayOptions,
    SweepPoint,
};
use proptest::prelude::*;

const MESH_MAPPINGS: [MappingAlgorithm; 3] = [
    MappingAlgorithm::ElementBased,
    MappingAlgorithm::HilbertOrdered,
    MappingAlgorithm::LoadBalanced,
];

/// A 3 x 2 x 2 mesh of the unit cube: twelve elements, so a few dozen
/// ranks are more ranks than elements.
fn mesh() -> ElementMesh {
    ElementMesh::new(Aabb::unit(), MeshDims::new(3, 2, 2), 3).unwrap()
}

/// `t` frames of `np` particles, each frame drawn by `shape` from its own
/// seed.
fn trace_of(np: usize, t: usize, seed: u64, shape: usize) -> ParticleTrace {
    let mut tr = ParticleTrace::new(TraceMeta::new(np, 10, Aabb::unit(), "rank-tree-ghosts"));
    for k in 0..t {
        let mut rng = SplitMix64::new(seed.wrapping_add(k as u64));
        let anchors: Vec<Vec3> = (0..1 + seed as usize % 4)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let frame = (0..np)
            .map(|_| match shape {
                // Coincident particles: a few distinct points.
                0 => anchors[rng.next_below(anchors.len() as u64) as usize],
                // A zero-extent axis (z), and a second one half the time.
                1 => {
                    let y = if seed.is_multiple_of(2) {
                        1.0 / 3.0
                    } else {
                        rng.next_f64()
                    };
                    Vec3::new(rng.next_f64(), y, 0.5)
                }
                // Around the domain: a third of the particles lie outside
                // it, up to 0.3 past a face.
                2 => Vec3::new(
                    rng.next_range(-0.3, 1.3),
                    rng.next_range(-0.3, 1.3),
                    rng.next_range(-0.3, 1.3),
                ),
                // A uniform cloud, half of it snapped onto a lattice that
                // holds the element faces.
                _ => {
                    let mut c = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
                    if rng.next_below(2) == 0 {
                        c = c.map(|v| (v * 12.0).floor() / 12.0);
                    }
                    Vec3::from_array(c)
                }
            })
            .collect();
        tr.push_positions(frame).unwrap();
    }
    tr
}

fn edge_trace() -> impl Strategy<Value = ParticleTrace> {
    (1usize..200, 1usize..4, any::<u64>(), 0usize..4)
        .prop_map(|(np, t, seed, shape)| trace_of(np, t, seed, shape))
}

/// One rank, a few, more ranks than the mesh's twelve elements, and more
/// ranks than the trace has particles.
fn ranks_for(tr: &ParticleTrace) -> impl Strategy<Value = usize> {
    let np = tr.particle_count();
    prop_oneof![Just(1usize), 2usize..12, 13usize..40, np + 1..np + 30]
}

/// Filters below an element, about one, on the element lattice, and one
/// that covers the whole domain; lists come unsorted and may repeat one.
fn filters() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            1e-4..1e-2f64,
            0.01..0.4f64,
            Just(1.0 / 6.0),
            Just(0.25),
            Just(2.0)
        ],
        1..5,
    )
}

fn points_of(mapping: MappingAlgorithm, ranks: usize, filters: &[f64]) -> Vec<SweepPoint> {
    (filters.iter())
        .map(|&f| SweepPoint::new(WorkloadConfig::new(ranks, mapping, f)))
        .collect()
}

/// `run` under pools of 1, 2 and 4 threads; each must return `expect`.
fn under_pools<T: PartialEq + std::fmt::Debug>(
    expect: &T,
    run: impl Fn() -> T,
) -> Result<(), TestCaseError> {
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        prop_assert_eq!(&pool.install(&run), expect, "{} thread(s)", threads);
    }
    Ok(())
}

fn reference(
    tr: &ParticleTrace,
    points: &[SweepPoint],
    mesh: &ElementMesh,
) -> Vec<DynamicWorkload> {
    (points.iter())
        .map(|p| generate_reference(tr, &p.config, Some(mesh)).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Each mesh mapping's group, with every filter of the list as one
    /// radius slot of its one join, against the reference per point.
    #[test]
    fn rank_tree_ghosts_match_reference_under_every_pool(
        (tr, ranks) in edge_trace().prop_flat_map(|tr| {
            let ranks = ranks_for(&tr);
            (Just(tr), ranks)
        }),
        filters in filters(),
    ) {
        let mesh = mesh();
        let opts = ReplayOptions::new(Some(&mesh), None, None);
        for mapping in MESH_MAPPINGS {
            let points = points_of(mapping, ranks, &filters);
            let expect = reference(&tr, &points, &mesh);
            under_pools(&expect, || replay(&tr, &points, &opts).unwrap().0)?;
        }
    }

    /// The three mesh groups and a bin group in one grid, on every path:
    /// resident, streamed, cached (cold, then warm, then a hit whose entry
    /// was published with ghosts off and so lacks every radius), and
    /// reduced (each replayed row is the full replay's row of its
    /// representative).
    #[test]
    fn mesh_grid_matches_reference_on_every_path(
        tr in edge_trace(),
        ranks in prop_oneof![1usize..12, 13usize..40],
        filters in filters(),
        plan_seed in any::<u64>(),
    ) {
        let m = mesh();
        let mesh = Some(&m);
        let mut points: Vec<SweepPoint> = (MESH_MAPPINGS.iter())
            .flat_map(|&mapping| points_of(mapping, ranks, &filters))
            .collect();
        points.push(SweepPoint::new(WorkloadConfig::new(
            ranks,
            MappingAlgorithm::BinBased,
            filters[0],
        )));
        let reference = reference(&tr, &points, &m);
        let resident = replay(&tr, &points, &ReplayOptions::new(mesh, None, None)).unwrap().0;
        prop_assert_eq!(&resident, &reference);

        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let (streamed, ..) = sweep_streaming(reader, &points, mesh).unwrap();
        prop_assert_eq!(&streamed, &reference, "streamed");

        let cache = AssignmentCache::new(usize::MAX);
        let cached = ReplayOptions::new(mesh, Some(&cache), None);
        for leg in ["cold", "warm"] {
            prop_assert_eq!(&replay(&tr, &points, &cached).unwrap().0, &reference, "{}", leg);
        }
        let ghostless: Vec<SweepPoint> = (points.iter())
            .map(|p| SweepPoint::new(WorkloadConfig { compute_ghosts: false, ..p.config.clone() }))
            .collect();
        let lacking = AssignmentCache::new(usize::MAX);
        let lacking_opts = ReplayOptions::new(mesh, Some(&lacking), None);
        replay(&tr, &ghostless, &lacking_opts).unwrap();
        let (hit, stats) = replay(&tr, &points, &lacking_opts).unwrap();
        prop_assert_eq!(stats.cached_groups, stats.groups);
        prop_assert_eq!(stats.cached_radii, 0);
        prop_assert_eq!(&hit, &reference, "a hit lacking its radii");

        let t = tr.sample_count();
        let mut rng = SplitMix64::new(plan_seed);
        let reps: Vec<usize> = {
            let mut r: Vec<usize> = (0..t).filter(|_| rng.next_below(2) == 0).collect();
            if r.is_empty() {
                r.push(t - 1);
            }
            r
        };
        let assignment: Vec<usize> = (0..t)
            .map(|s| reps.iter().rposition(|&r| r <= s).unwrap_or(0))
            .collect();
        let plan = ReductionPlan::new(t, reps.clone(), assignment.clone()).unwrap();
        let reduced = replay(&tr, &points, &ReplayOptions::new(mesh, None, Some(&plan))).unwrap().0;
        for (w, full) in reduced.iter().zip(&reference) {
            for (s, &c) in assignment.iter().enumerate() {
                let rep = reps[c];
                prop_assert_eq!(w.real.sample_row(s), full.real.sample_row(rep));
                prop_assert_eq!(w.ghost_recv.sample_row(s), full.ghost_recv.sample_row(rep));
                prop_assert_eq!(w.ghost_sent.sample_row(s), full.ghost_sent.sample_row(rep));
            }
        }
    }
}
