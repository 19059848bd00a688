//! The bin groups' ghost kernel counts over the sample's bin tree (a
//! pruned self-join of its bins, then each bin's records against each near
//! bin's box). It must answer what
//! the sequential reference answers through a region index over the
//! partition's boxes, on the traces where a bin tree is least regular:
//! coincident particles (unsplittable bins), a zero-extent axis, more
//! ranks than particles, one rank, a single bin, and filters below and
//! above the bin size — under pools of 1, 2 and 4 threads, and on every
//! path a bin group takes: resident, cached (cold, warm, and a hit that
//! lacks its radius), reduced and streamed, next to mesh groups.

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

/// `t` frames of `np` particles, each frame drawn by `shape` from its own
/// seed.
fn trace_of(np: usize, t: usize, seed: u64, shape: usize) -> ParticleTrace {
    let mut tr = ParticleTrace::new(TraceMeta::new(np, 10, Aabb::unit(), "bin-ghosts"));
    for k in 0..t {
        let mut rng = SplitMix64::new(seed.wrapping_add(k as u64));
        let anchors: Vec<Vec3> = (0..1 + seed as usize % 4)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let frame = (0..np)
            .map(|_| match shape {
                // Coincident particles: a few distinct points, so bins
                // that no axis can split.
                0 => anchors[rng.next_below(anchors.len() as u64) as usize],
                // A zero-extent axis (z), and a second one half the time.
                1 => {
                    let y = if seed.is_multiple_of(2) {
                        0.5
                    } else {
                        rng.next_f64()
                    };
                    Vec3::new(rng.next_f64(), y, 0.25)
                }
                // A tight cluster: every filter above 1e-3 exceeds its bins.
                2 => Vec3::new(
                    0.5 + 1e-3 * rng.next_f64(),
                    0.5 + 1e-3 * rng.next_f64(),
                    0.5 + 1e-3 * rng.next_f64(),
                ),
                // A uniform cloud, half of it snapped onto a coarse lattice
                // so box faces coincide.
                _ => {
                    let mut c = [rng.next_f64(), rng.next_f64(), rng.next_f64()];
                    if rng.next_below(2) == 0 {
                        c = c.map(|v| (v * 8.0).floor() / 8.0);
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
    (1usize..250, 1usize..4, any::<u64>(), 0usize..4)
        .prop_map(|(np, t, seed, shape)| trace_of(np, t, seed, shape))
}

/// One rank, a few, and more ranks than the trace has particles.
fn ranks_for(tr: &ParticleTrace) -> impl Strategy<Value = usize> {
    let np = tr.particle_count();
    prop_oneof![Just(1usize), 2usize..48, np + 1..np + 40]
}

/// Filters below the bin size, about it, and above the whole cloud (a
/// single bin); the lattice ones put particles exactly `r` from a box.
fn filter() -> impl Strategy<Value = f64> {
    prop_oneof![
        1e-5..1e-3f64,
        0.01..0.3f64,
        Just(0.125),
        Just(0.25),
        Just(2.0)
    ]
}

fn bin_point(ranks: usize, filter: f64) -> SweepPoint {
    SweepPoint::new(WorkloadConfig::new(
        ranks,
        MappingAlgorithm::BinBased,
        filter,
    ))
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

fn replay_one(tr: &ParticleTrace, point: &SweepPoint) -> DynamicWorkload {
    replay(tr, std::slice::from_ref(point), &ReplayOptions::default())
        .unwrap()
        .0
        .remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bin_tree_ghosts_match_reference_under_every_pool(
        (tr, ranks) in edge_trace().prop_flat_map(|tr| {
            let ranks = ranks_for(&tr);
            (Just(tr), ranks)
        }),
        filter in filter(),
    ) {
        let point = bin_point(ranks, filter);
        let reference = generate_reference(&tr, &point.config, None).unwrap();
        under_pools(&reference, || replay_one(&tr, &point))?;
    }

    /// A grid of bin groups next to mesh groups, on every path: resident,
    /// streamed, cached (cold, then warm, then a hit whose entry was
    /// published with ghosts off and so lacks the bin group's radius),
    /// and reduced (each replayed row is the full replay's row of its
    /// representative).
    #[test]
    fn mixed_grid_matches_reference_on_every_path(
        tr in edge_trace(),
        rank_counts in proptest::collection::vec(1usize..40, 1..3),
        filters in proptest::collection::vec(filter(), 1..3),
        plan_seed in any::<u64>(),
    ) {
        let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(3), 3).unwrap();
        let mesh = Some(&mesh);
        let mut points: Vec<SweepPoint> = (rank_counts.iter())
            .flat_map(|&r| filters.iter().map(move |&f| bin_point(r, f)))
            .collect();
        for mapping in [MappingAlgorithm::ElementBased, MappingAlgorithm::HilbertOrdered] {
            points.push(SweepPoint::new(WorkloadConfig::new(rank_counts[0], mapping, filters[0])));
        }
        let reference: Vec<DynamicWorkload> = (points.iter())
            .map(|p| generate_reference(&tr, &p.config, mesh).unwrap())
            .collect();
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
        prop_assert_eq!(&hit, &reference, "a hit lacking its radius");

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
