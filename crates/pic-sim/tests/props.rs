//! Property-based tests: PIC kernel invariants over arbitrary particle
//! states, and mini-app conservation laws over arbitrary configurations.

use pic_grid::gll::GllRule;
use pic_grid::{ElementMesh, MeshDims};
use pic_sim::field::{FluidField, UniformFlow, VortexField};
use pic_sim::kernels::{self, KernelContext};
use pic_sim::particles::CellList;
use pic_sim::{MiniPic, ScenarioKind, SimConfig};
use pic_types::{Aabb, Vec3};
use proptest::prelude::*;

fn mesh() -> ElementMesh {
    ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 3).unwrap()
}

fn ctx<'a>(
    mesh: &'a ElementMesh,
    gll: &'a GllRule,
    field: &'a dyn FluidField,
    dt: f64,
) -> KernelContext<'a> {
    KernelContext {
        mesh,
        gll,
        field,
        filter: 0.05,
        dt,
        gravity: Vec3::new(0.0, 0.0, -0.5),
        drag_tau: 0.05,
        collision_radius: 0.0,
        collision_stiffness: 0.0,
    }
}

fn unit_points(max: usize) -> impl Strategy<Value = Vec<Vec3>> {
    proptest::collection::vec(
        (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pusher_never_leaks_particles(
        positions in unit_points(40),
        velocities in proptest::collection::vec(
            (-50.0..50.0f64, -50.0..50.0f64, -50.0..50.0f64)
                .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            40,
        ),
        dt in 0.001..0.1f64,
    ) {
        // Reflective walls: no velocity, however extreme, may take a
        // particle out of the domain.
        let m = mesh();
        let gll = GllRule::new(3);
        let f = UniformFlow { velocity: Vec3::ZERO };
        let c = ctx(&m, &gll, &f, dt);
        let n = positions.len();
        let mut pos = positions.clone();
        let mut vel = velocities[..n].to_vec();
        let subset: Vec<u32> = (0..n as u32).collect();
        let accel = vec![Vec3::ZERO; n];
        kernels::particle_pusher(&c, &mut pos, &mut vel, &subset, &accel);
        for p in &pos {
            prop_assert!(m.domain().contains_closed(*p), "{p}");
            prop_assert!(p.is_finite());
        }
    }

    #[test]
    fn interpolation_is_exact_for_linear_fields(positions in unit_points(20)) {
        // GLL Lagrange interpolation (order >= 2) reproduces any field
        // linear in position to machine precision.
        let m = mesh();
        let gll = GllRule::new(3);
        let f = VortexField { center: Vec3::splat(0.5), angular_speed: 2.0 };
        let c = ctx(&m, &gll, &f, 0.01);
        let subset: Vec<u32> = (0..positions.len() as u32).collect();
        let mut out = Vec::new();
        kernels::interpolate(&c, &positions, &subset, 0.0, &mut out);
        for (p, u) in positions.iter().zip(&out) {
            let exact = f.velocity(*p, 0.0);
            prop_assert!(u.distance(exact) < 1e-8, "{u} vs {exact}");
        }
    }

    #[test]
    fn drag_only_acceleration_points_toward_fluid(positions in unit_points(20)) {
        let m = mesh();
        let gll = GllRule::new(3);
        let f = UniformFlow { velocity: Vec3::new(1.0, 0.0, 0.0) };
        let mut c = ctx(&m, &gll, &f, 0.01);
        c.gravity = Vec3::ZERO;
        let n = positions.len();
        let velocities = vec![Vec3::ZERO; n];
        let subset: Vec<u32> = (0..n as u32).collect();
        let fluid = vec![f.velocity; n];
        let cell = CellList::build(&positions, 0.05);
        let mut acc = Vec::new();
        kernels::equation_solver(&c, &positions, &velocities, &subset, &fluid, &cell, &mut acc);
        for a in &acc {
            // drag toward +x only
            prop_assert!(a.x > 0.0 && a.y.abs() < 1e-12 && a.z.abs() < 1e-12);
        }
    }

    #[test]
    fn projection_weight_monotone_in_subset(positions in unit_points(30)) {
        let m = mesh();
        let gll = GllRule::new(3);
        let f = UniformFlow { velocity: Vec3::ZERO };
        let c = ctx(&m, &gll, &f, 0.01);
        let n = positions.len();
        let all: Vec<u32> = (0..n as u32).collect();
        let half: Vec<u32> = (0..(n / 2) as u32).collect();
        let w_all = kernels::projection(&c, &positions, &all);
        let w_half = kernels::projection(&c, &positions, &half);
        prop_assert!(w_all >= w_half - 1e-12);
        prop_assert!(w_all >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mini_app_conserves_particles_for_any_small_config(
        particles in 50usize..200,
        ranks in 1usize..12,
        seed in any::<u64>(),
        scenario_pick in 0u8..3,
    ) {
        let scenario = match scenario_pick {
            0 => ScenarioKind::HeleShaw,
            1 => ScenarioKind::UniformCloud,
            _ => ScenarioKind::VortexCluster,
        };
        let cfg = SimConfig {
            ranks,
            mesh_dims: MeshDims::cube(3),
            order: 3,
            particles,
            steps: 12,
            sample_interval: 4,
            scenario,
            seed,
            ..SimConfig::default()
        };
        let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
        prop_assert_eq!(out.trace.sample_count(), 3);
        for s in &out.ground_truth.samples {
            prop_assert_eq!(s.real_counts.iter().sum::<u32>() as usize, particles);
            let sent: u32 = s.ghost_sent_counts.iter().sum();
            let recv: u32 = s.ghost_recv_counts.iter().sum();
            prop_assert_eq!(sent, recv);
        }
        // positions stay in the domain at every sample
        for t in 0..out.trace.sample_count() {
            for p in out.trace.positions_at(t).iter() {
                prop_assert!(cfg.domain.contains_closed(*p));
            }
        }
    }
}
