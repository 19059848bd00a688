//! Property-based tests for SimPoint-style reduced replay: under the
//! `K = T` identity plan, [`pic_workload::replay`] must be bit-identical
//! to the sequential oracle [`generator::generate_reference`] across every
//! mapping algorithm and ghost setting, and to the same grid replayed
//! without a plan at stride 1 — the contract that pins the reduced path's
//! per-sample kernel to the full replay's.

use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::{Aabb, Vec3};
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::{replay, DynamicWorkload, ReductionPlan, ReplayOptions, SweepPoint};
use proptest::prelude::*;

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
            let meta = TraceMeta::new(np, 10, Aabb::unit(), "reduce-prop");
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

fn mesh() -> ElementMesh {
    ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap()
}

/// `points` replayed under `plan` (or in full without one).
fn run(
    tr: &ParticleTrace,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
    plan: Option<&ReductionPlan>,
) -> Vec<DynamicWorkload> {
    let opts = ReplayOptions::new(mesh, None, plan);
    replay(tr, points, &opts).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identity_plan_is_bit_identical_to_reference(
        tr in trace_strategy(),
        mapping in mapping_strategy(),
        ranks in 1usize..24,
        ghosts in any::<bool>(),
    ) {
        let mesh = mesh();
        let mut cfg = WorkloadConfig::new(ranks, mapping, 0.05);
        cfg.compute_ghosts = ghosts;
        let plan = ReductionPlan::identity(tr.sample_count());
        let reduced = run(&tr, &[SweepPoint::new(cfg.clone())], Some(&mesh), Some(&plan));
        let full = generator::generate_reference(&tr, &cfg, Some(&mesh)).unwrap();
        prop_assert_eq!(reduced, vec![full]);
    }

    #[test]
    fn identity_plan_sweep_matches_full_sweep_at_stride_one(
        tr in trace_strategy(),
        mapping in mapping_strategy(),
        ranks in 1usize..16,
    ) {
        let mesh = mesh();
        let points = vec![
            SweepPoint::new(WorkloadConfig::new(ranks, mapping, 0.05)),
            SweepPoint::new(WorkloadConfig::new(ranks + 3, mapping, 0.05)),
            SweepPoint::new(WorkloadConfig::new(ranks, mapping, 0.02)),
        ];
        let plan = ReductionPlan::identity(tr.sample_count());
        let reduced = run(&tr, &points, Some(&mesh), Some(&plan));
        prop_assert_eq!(reduced, run(&tr, &points, Some(&mesh), None));
    }

    #[test]
    fn reduced_replay_conserves_particles_under_any_plan(
        tr in trace_strategy(),
        ranks in 1usize..16,
        seed in any::<u64>(),
    ) {
        // A random (but valid) plan still conserves particle count at
        // every reconstructed sample: each sample shows some real
        // sample's full outcome.
        let t = tr.sample_count();
        let k = 1 + (seed as usize) % t;
        // representatives: first of every chunk of ceil(t/k)
        let chunk = t.div_ceil(k);
        let reps: Vec<usize> = (0..t).step_by(chunk).collect();
        let assignment: Vec<usize> = (0..t).map(|s| s / chunk).collect();
        let plan = ReductionPlan::new(t, reps, assignment).unwrap();
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.05);
        let w = run(&tr, &[SweepPoint::new(cfg)], None, Some(&plan)).remove(0);
        for s in 0..w.samples() {
            prop_assert_eq!(w.real.sample_total(s), tr.particle_count() as u64);
        }
    }
}
