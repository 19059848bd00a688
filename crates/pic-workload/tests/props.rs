//! Property-based tests: Dynamic Workload Generator conservation laws over
//! arbitrary traces.

use pic_grid::ElementMesh;
use pic_mapping::MappingAlgorithm;
use pic_trace::codec::{decode_trace, encode_trace, Precision};
use pic_trace::compact::encode_compact;
use pic_trace::{ParticleTrace, TraceMeta, TraceReader};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Rank, Vec3};
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::{
    metrics, migration_pairs, replay, sweep_streaming, AssignmentCache, DynamicWorkload,
    ReductionPlan, ReplayOptions, SweepPoint,
};
use proptest::prelude::*;

/// One configuration through [`replay`].
fn generate(
    tr: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> DynamicWorkload {
    let opts = ReplayOptions::new(mesh, None, None);
    replay(tr, &[SweepPoint::new(cfg.clone())], &opts)
        .unwrap()
        .0
        .remove(0)
}

/// A valid reduction plan drawn from `seed`: every sample joins one of up
/// to `t` clusters, and each nonempty cluster is represented by one of its
/// own members.
fn random_plan(t: usize, seed: u64) -> ReductionPlan {
    let mut rng = SplitMix64::new(seed);
    let k = 1 + rng.next_below(t as u64) as usize;
    let cluster: Vec<usize> = (0..t).map(|_| rng.next_below(k as u64) as usize).collect();
    let mut slot_of = vec![usize::MAX; k];
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (s, &c) in cluster.iter().enumerate() {
        if slot_of[c] == usize::MAX {
            slot_of[c] = members.len();
            members.push(Vec::new());
        }
        members[slot_of[c]].push(s);
    }
    let reps = (members.iter())
        .map(|m| m[rng.next_below(m.len() as u64) as usize])
        .collect();
    let assignment = cluster.iter().map(|&c| slot_of[c]).collect();
    ReductionPlan::new(t, reps, assignment).unwrap()
}

fn trace_strategy() -> impl Strategy<Value = ParticleTrace> {
    (1usize..40, 1usize..6).prop_flat_map(|(np, t)| {
        proptest::collection::vec(
            proptest::collection::vec(
                (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                np..=np,
            ),
            t..=t,
        )
        .prop_map(move |frames| {
            let meta = TraceMeta::new(np, 10, Aabb::unit(), "prop");
            let mut tr = ParticleTrace::new(meta);
            for f in frames {
                tr.push_positions(f).unwrap();
            }
            tr
        })
    })
}

fn mapping_strategy() -> impl Strategy<Value = MappingAlgorithm> {
    prop_oneof![
        Just(MappingAlgorithm::BinBased),
        Just(MappingAlgorithm::ElementBased),
        Just(MappingAlgorithm::HilbertOrdered),
        Just(MappingAlgorithm::LoadBalanced),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn real_counts_conserved_at_every_sample(tr in trace_strategy(), ranks in 1usize..32) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generate(&tr, &cfg, None);
        for t in 0..w.samples() {
            prop_assert_eq!(w.real.sample_total(t), tr.particle_count() as u64);
        }
    }

    #[test]
    fn ghost_send_receive_balance(tr in trace_strategy(), ranks in 1usize..24) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.08);
        let w = generate(&tr, &cfg, None);
        for t in 0..w.samples() {
            prop_assert_eq!(w.ghost_recv.sample_total(t), w.ghost_sent.sample_total(t));
        }
    }

    #[test]
    fn migrations_bounded_by_population(tr in trace_strategy(), ranks in 1usize..24) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generate(&tr, &cfg, None);
        prop_assert!(w.comm.entries[0].is_empty());
        for t in 0..w.samples() {
            prop_assert!(w.comm.sample_total(t) <= tr.particle_count() as u64);
            // no self-migrations
            for &(from, to, c) in &w.comm.entries[t] {
                prop_assert!(from != to);
                prop_assert!(c > 0);
            }
        }
    }

    #[test]
    fn single_rank_never_communicates(tr in trace_strategy()) {
        let cfg = WorkloadConfig::new(1, MappingAlgorithm::BinBased, 0.05);
        let w = generate(&tr, &cfg, None);
        prop_assert_eq!(w.comm.total(), 0);
        for t in 0..w.samples() {
            prop_assert_eq!(w.ghost_recv.sample_total(t), 0);
            prop_assert_eq!(w.real.get(Rank::new(0), t) as usize, tr.particle_count());
        }
    }

    #[test]
    fn utilization_bounds(tr in trace_strategy(), ranks in 1usize..32) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generate(&tr, &cfg, None);
        let ru = metrics::resource_utilization(&w.real);
        prop_assert!((0.0..=1.0).contains(&ru));
        let idle = metrics::mean_idle_fraction(&w.real);
        prop_assert!((0.0..=1.0).contains(&idle));
        // time-averaged utilization and idle fraction are complements
        prop_assert!((ru + idle - 1.0).abs() < 1e-12);
        // the "ever active" fraction dominates every per-sample fraction
        let ever = metrics::ever_active_fraction(&w.real);
        for t in 0..w.samples() {
            prop_assert!(ever >= metrics::active_fraction_at(&w.real, t) - 1e-12);
        }
        prop_assert!(ever >= ru - 1e-12);
    }

    #[test]
    fn migration_pairs_conserve_moves(
        prev in proptest::collection::vec(0u32..8, 1..60),
        cur_seed in any::<u64>(),
    ) {
        let prev: Vec<Rank> = prev.into_iter().map(Rank::new).collect();
        // derive cur by shifting some entries deterministically
        let cur: Vec<Rank> = prev
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if (cur_seed >> (i % 60)) & 1 == 1 {
                    Rank::new((r.0 + 1) % 8)
                } else {
                    r
                }
            })
            .collect();
        let pairs = migration_pairs(&prev, &cur);
        let moved: u32 = pairs.iter().map(|&(_, _, c)| c).sum();
        let expected = prev.iter().zip(&cur).filter(|(a, b)| a != b).count() as u32;
        prop_assert_eq!(moved, expected);
        // sorted and aggregated
        for w in pairs.windows(2) {
            prop_assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
        }
    }

    #[test]
    fn parallel_paths_match_sequential_reference(
        tr in trace_strategy(),
        ranks in 1usize..24,
        radius in 0.005..0.15f64,
        mapping in mapping_strategy(),
    ) {
        use pic_grid::MeshDims;
        let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap();
        let cfg = WorkloadConfig::new(ranks, mapping, radius);
        // The chunked intra-sample kernel and the streamed pipeline must
        // both reproduce the straight-line sequential replay exactly.
        let reference = generator::generate_reference(&tr, &cfg, Some(&mesh)).unwrap();
        prop_assert_eq!(&generate(&tr, &cfg, Some(&mesh)), &reference);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let points = [SweepPoint::new(cfg)];
        let (streamed, ..) = sweep_streaming(reader, &points, Some(&mesh)).unwrap();
        prop_assert_eq!(&streamed[0], &reference);
        // A compact stream is lossy once: it must answer what the resident
        // replay of its own decode answers.
        for precision in [Precision::F64, Precision::F32] {
            let compact = encode_compact(&tr, precision).unwrap();
            let decoded = decode_trace(&compact).unwrap();
            let opts = ReplayOptions::new(Some(&mesh), None, None);
            let (resident, _) = replay(&decoded, &points, &opts).unwrap();
            let reader = TraceReader::new(&compact[..]).unwrap();
            let (streamed, ..) = sweep_streaming(reader, &points, Some(&mesh)).unwrap();
            prop_assert_eq!(&streamed, &resident, "compact {:?}", precision);
        }
    }

    /// The equivalence matrix: the replay door answers the same random
    /// grid under every plan (none, identity, random) and every cache leg
    /// — none; cold; partial (warmed by the first radius only, so new
    /// radii on cached groups compute just those radii); warm (warmed by
    /// the whole grid, a full hit that runs no assignment, owner-only or
    /// ghost pass and no migration diff); tight (half the grid's resident
    /// bytes, so it evicts between and within calls) — and a cache never
    /// changes a bit. Each cached leg's radius hits and misses equal the
    /// radius slots it served and computed; without a plan its diff
    /// lookups are one per (group, stride), and a cold leg diffs every
    /// retained sample after the first. A plan looks up no diffs, and over
    /// the warm cache it publishes nothing. A new stride on the warm cache
    /// then diffs that step alone. The streaming driver answers the grid
    /// too. Without a plan, and under the identity plan at stride 1, every
    /// answer is the straight-line sequential replay of the point's
    /// subsampled trace.
    #[test]
    fn sweep_grid_matches_per_config_reference(
        tr in trace_strategy(),
        rank_counts in proptest::collection::vec(1usize..24, 1..3),
        radii in proptest::collection::vec(0.005..0.15f64, 1..4),
        strides in proptest::collection::vec(1usize..4, 1..3),
        mappings in proptest::collection::vec(mapping_strategy(), 1..3),
        ghosts in proptest::collection::vec(any::<bool>(), 1..3),
        plan_seed in any::<u64>(),
    ) {
        use pic_grid::MeshDims;
        let mesh = Some(ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap());
        let mesh = mesh.as_ref();
        let mut points = Vec::new();
        for &mapping in &mappings {
            for &ranks in &rank_counts {
                for &radius in &radii {
                    for &stride in &strides {
                        for &compute_ghosts in &ghosts {
                            let config = WorkloadConfig {
                                compute_ghosts,
                                ..WorkloadConfig::new(ranks, mapping, radius)
                            };
                            points.push(SweepPoint::with_stride(config, stride));
                        }
                    }
                }
            }
        }
        let reference: Vec<_> = points
            .iter()
            .map(|p| generator::generate_reference(&tr.subsample(p.stride), &p.config, mesh).unwrap())
            .collect();

        // The first radius alone: a cache warmed by it holds some groups
        // with some of their radii, so the whole grid is a partial hit.
        let first: Vec<SweepPoint> = (points.iter())
            .filter(|p| p.config.projection_filter.to_bits() == radii[0].to_bits())
            .cloned()
            .collect();
        let warm = AssignmentCache::new(usize::MAX);
        let full = ReplayOptions::new(mesh, Some(&warm), None);
        replay(&tr, &first, &full).unwrap();
        let (_, stats) = replay(&tr, &points, &full).unwrap();
        let resident = warm.stats();
        prop_assert_eq!(resident.entries, stats.groups);
        prop_assert_eq!(resident.radius_rows, stats.ghost_radii);
        // Half of what the whole grid keeps resident: eviction between
        // and within the calls below whenever there are two groups.
        let tight = AssignmentCache::new(resident.resident_bytes / 2);
        let mut distinct_strides = strides.clone();
        distinct_strides.sort_unstable();
        distinct_strides.dedup();
        prop_assert_eq!(resident.diff_sets, stats.groups * distinct_strides.len());
        // Retained samples after a member's first, per (group, stride).
        let diffed = |strides: &[usize]| -> usize {
            let t = tr.sample_count();
            stats.groups * strides.iter().map(|&s| t.saturating_sub(1) / s).sum::<usize>()
        };

        let identity = ReductionPlan::identity(tr.sample_count());
        let random = random_plan(tr.sample_count(), plan_seed);
        for plan in [None, Some(&identity), Some(&random)] {
            let (uncached, _) = replay(&tr, &points, &ReplayOptions::new(mesh, None, plan))
                .unwrap();
            let cold = AssignmentCache::new(usize::MAX);
            let partial = AssignmentCache::new(usize::MAX);
            replay(&tr, &first, &ReplayOptions::new(mesh, Some(&partial), None)).unwrap();
            let legs = [(&cold, "cold"), (&partial, "partial"), (&warm, "warm"), (&tight, "tight")];
            for (cache, label) in legs {
                let before = cache.stats();
                let opts = ReplayOptions::new(mesh, Some(cache), plan);
                let (cached, stats) = replay(&tr, &points, &opts).unwrap();
                prop_assert_eq!(&cached, &uncached, "{} cache, plan {:?}", label, plan);
                // The kernel ran exactly the radius slots the cache lacked.
                let after = cache.stats();
                prop_assert_eq!(after.radius_hits - before.radius_hits, stats.cached_radii as u64);
                prop_assert_eq!(
                    after.radius_misses - before.radius_misses,
                    (stats.ghost_radii - stats.cached_radii) as u64
                );
                let lookups = (after.diff_hits - before.diff_hits)
                    + (after.diff_misses - before.diff_misses);
                let keys = if plan.is_some() { 0 } else { resident.diff_sets };
                prop_assert_eq!(lookups, keys as u64, "{} cache, plan {:?}", label, plan);
                match (label, plan) {
                    ("cold", None) => {
                        prop_assert_eq!(stats.migration_diffs, diffed(&distinct_strides));
                    }
                    ("warm", None) => prop_assert_eq!(stats.migration_diffs, 0),
                    // A broadcast over the warm cache publishes nothing.
                    ("warm", Some(_)) => {
                        prop_assert_eq!(after.resident_bytes, before.resident_bytes);
                        prop_assert_eq!(after.diff_sets, before.diff_sets);
                    }
                    _ => {}
                }
                match label {
                    "cold" => prop_assert_eq!((stats.cached_groups, stats.cached_radii), (0, 0)),
                    "partial" if ghosts.contains(&true) => {
                        prop_assert!(stats.cached_radii > 0, "no radius was served");
                    }
                    // A full hit: no assignment, owner-only or ghost pass.
                    "warm" => {
                        prop_assert_eq!(stats.cached_groups, stats.groups);
                        prop_assert_eq!(stats.cached_radii, stats.ghost_radii);
                        prop_assert_eq!((stats.assign_passes, stats.owner_only_passes), (0, 0));
                    }
                    _ => {}
                }
            }
            if stats.groups > 1 {
                prop_assert!(tight.stats().evictions > 0, "the tight budget never evicted");
            }
            // The identity plan (K = T) makes the reduced replay exact at
            // stride 1; larger strides use a one-step migration proxy.
            for ((p, w), expect) in points.iter().zip(&uncached).zip(&reference) {
                if plan.is_none() || (plan == Some(&identity) && p.stride == 1) {
                    prop_assert_eq!(w, expect, "plan {:?}, {:?}", plan, p);
                }
            }
        }

        // A stride no point used, on every resident group: only that step
        // is diffed, and the entries keep it.
        let new_stride = distinct_strides.last().unwrap() + 1;
        let strided: Vec<SweepPoint> = (points.iter())
            .filter(|p| p.stride == strides[0])
            .map(|p| SweepPoint::with_stride(p.config.clone(), new_stride))
            .collect();
        let before = warm.stats();
        let (got, stats) = replay(&tr, &strided, &ReplayOptions::new(mesh, Some(&warm), None))
            .unwrap();
        prop_assert_eq!((stats.cached_groups, stats.assign_passes), (stats.groups, 0));
        prop_assert_eq!(stats.migration_diffs, diffed(&[new_stride]));
        let after = warm.stats();
        prop_assert_eq!(after.diff_misses - before.diff_misses, stats.groups as u64);
        prop_assert_eq!(after.diff_sets, before.diff_sets + stats.groups);
        for (p, w) in strided.iter().zip(&got) {
            let expect = generator::generate_reference(&tr.subsample(new_stride), &p.config, mesh)
                .unwrap();
            prop_assert_eq!(w, &expect, "new stride {:?}", p);
        }

        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let (streamed, _, ingest) = sweep_streaming(reader, &points, mesh).unwrap();
        prop_assert_eq!(&streamed, &reference, "streaming");
        prop_assert_eq!(ingest.frames_decoded, tr.sample_count());
        // The compact stream against the resident replay of its decode.
        let compact = encode_compact(&tr, Precision::F32).unwrap();
        let decoded = decode_trace(&compact).unwrap();
        let (resident, _) = replay(&decoded, &points, &ReplayOptions::new(mesh, None, None))
            .unwrap();
        let reader = TraceReader::new(&compact[..]).unwrap();
        let (streamed, _, ingest) = sweep_streaming(reader, &points, mesh).unwrap();
        prop_assert_eq!(&streamed, &resident, "compact streaming");
        prop_assert_eq!(ingest.bytes_read, compact.len() as u64);

        for (p, expect) in points.iter().zip(&reference) {
            let one = generate(&tr.subsample(p.stride), &p.config, mesh);
            prop_assert_eq!(&one, expect, "one point");
        }
    }

    /// A compact trace read whole keeps its frames encoded and decodes
    /// them on read; replaying it answers what replaying an f64 trace of its
    /// streamed frames answers, for every mapper, with and without a
    /// reduction plan.
    #[test]
    fn compact_resident_replay_matches_its_streamed_frames(
        tr in trace_strategy(),
        ranks in 1usize..16,
        radius in 0.005..0.15f64,
        plan_seed in any::<u64>(),
    ) {
        use pic_grid::MeshDims;
        let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap();
        let mappings = [
            MappingAlgorithm::BinBased,
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
            MappingAlgorithm::LoadBalanced,
        ];
        let points: Vec<SweepPoint> = (mappings.iter())
            .map(|&m| SweepPoint::new(WorkloadConfig::new(ranks, m, radius)))
            .collect();
        let random = random_plan(tr.sample_count(), plan_seed);
        for precision in [Precision::F64, Precision::F32] {
            let compact = encode_compact(&tr, precision).unwrap();
            let resident = decode_trace(&compact).unwrap();
            let mut frames = ParticleTrace::new(resident.meta().clone());
            let mut reader = TraceReader::new(&compact[..]).unwrap();
            while let Some(sample) = reader.read_sample().unwrap() {
                frames.push_sample(sample).unwrap();
            }
            for plan in [None, Some(&random)] {
                let opts = ReplayOptions::new(Some(&mesh), None, plan);
                let (got, _) = replay(&resident, &points, &opts).unwrap();
                let (expect, _) = replay(&frames, &points, &opts).unwrap();
                prop_assert_eq!(&got, &expect, "{:?}, plan {:?}", precision, plan);
            }
        }
    }

    #[test]
    fn peak_series_dominates_every_rank(tr in trace_strategy(), ranks in 1usize..16) {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = generate(&tr, &cfg, None);
        let peaks = w.real.peak_series();
        #[allow(clippy::needless_range_loop)] // t is the sample id
        for t in 0..w.samples() {
            for r in 0..ranks {
                prop_assert!(w.real.get(Rank::from_index(r), t) <= peaks[t]);
            }
        }
    }
}
