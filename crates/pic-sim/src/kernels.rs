//! The PIC solver-loop kernels (paper §III-A).
//!
//! These do *real* arithmetic with the same asymptotic shapes as CMT-nek's
//! kernels (tensor-product `N³` volumes for interpolation/projection,
//! per-particle streaming for the pusher, neighbour interactions for
//! collisions, sphere-vs-domain searches for ghosts), so wall-clock timing
//! of them yields legitimate model-training data.
//!
//! All kernels operate on an explicit *subset* of particle indices — the
//! particles residing on one simulated rank — so per-rank workloads and
//! timings fall out naturally.
//!
//! [`interpolate`] is the one kernel every solver step runs over every
//! particle, so it is laid out for that: cell-sorted, with the field
//! tabled once per element (the tensor-product view of the particle–grid
//! kernels), and bit for bit the per-particle evaluation it replaced.
//! [`fluid_solver`] and [`projection`] are stand-ins whose results nothing
//! reads; the app runs them only when their wall time is the record
//! (`TimingMode::WallClock`).

use crate::field::FluidField;
use crate::particles::CellList;
use pic_grid::gll::GllRule;
use pic_grid::ElementMesh;
use pic_mapping::{RegionIndex, RegionQueryScratch};
use pic_types::radix::radix_sort_by_key;
use pic_types::{ElementId, Rank, Vec3};

/// Shared, read-only context for one solver step.
pub struct KernelContext<'a> {
    /// The spectral-element mesh.
    pub mesh: &'a ElementMesh,
    /// 1-D GLL rule matching `mesh.order()`.
    pub gll: &'a GllRule,
    /// The fluid field driving the particles.
    pub field: &'a dyn FluidField,
    /// Projection filter radius (also the ghost influence radius).
    pub filter: f64,
    /// Time-step size.
    pub dt: f64,
    /// Gravitational acceleration.
    pub gravity: Vec3,
    /// Particle drag relaxation time (Stokes response time).
    pub drag_tau: f64,
    /// Collision radius (soft-sphere interaction distance).
    pub collision_radius: f64,
    /// Collision stiffness.
    pub collision_stiffness: f64,
}

/// **Interpolation** (grid → particle): evaluate the fluid velocity at each
/// subset particle by tensor-product Lagrange interpolation of the field
/// sampled at the containing element's GLL nodes, positions clamped onto
/// the domain first. `out[k]` is the velocity at `positions[subset[k]]`.
///
/// Cell-sorted and table-driven: the subset is grouped by element (a stable
/// radix sort on the element id), the field is sampled once per GLL node of
/// each group's element into an `N³` table, and each particle contracts
/// `lx ⊗ ly ⊗ lz` against that table. Node coordinates and the `k, j, ii`
/// summation order are those of a per-particle evaluation, so every result
/// has the same bits as sampling the field inside the particle loop.
/// Scratch is one `N³` table, whatever the element count.
///
/// Cost shape: `O(|subset| · N³)` multiply-adds plus `N³` field samples per
/// element the subset occupies.
pub fn interpolate(
    ctx: &KernelContext<'_>,
    positions: &[Vec3],
    subset: &[u32],
    time: f64,
    out: &mut Vec<Vec3>,
) {
    // The truncating lookup finds the element `element_of_point` finds for
    // the clamped position, without a `floor` call.
    let axis =
        |a: usize| -> Vec<f64> { subset.iter().map(|&i| positions[i as usize][a]).collect() };
    let mut elements = Vec::new();
    ctx.mesh
        .locate_clamped_soa(&axis(0), &axis(1), &axis(2), &mut elements);
    let mut by_element: Vec<(u64, u32)> = (elements.iter().enumerate())
        .map(|(k, &e)| (u64::from(e), k as u32))
        .collect();
    let max_id = ctx.mesh.element_count().saturating_sub(1) as u64;
    radix_sort_by_key(
        &mut by_element,
        &mut Vec::new(),
        u64::BITS - max_id.leading_zeros(),
    );

    // The clamped positions in element order, gathered in one pass so the
    // contraction streams them; its results come back in the same order.
    let domain = ctx.mesh.domain();
    let clamped: Vec<Vec3> = (by_element.iter())
        .map(|&(_, k)| positions[subset[k as usize] as usize].clamp(domain.min, domain.max))
        .collect();
    let mut sorted_out = vec![Vec3::ZERO; subset.len()];
    let mut start = 0;
    let n = ctx.gll.len();
    let nodes = &ctx.gll.nodes;
    let mut table = vec![Vec3::ZERO; n * n * n];
    let mut lx = Vec::with_capacity(n);
    let mut ly = Vec::with_capacity(n);
    let mut lz = Vec::with_capacity(n);
    for group in by_element.chunk_by(|a, b| a.0 == b.0) {
        let run = start..start + group.len();
        start = run.end;
        let b = ctx.mesh.element_aabb(ElementId(group[0].0 as u32));
        let h = b.extent();
        let mut slot = 0;
        for &gz in nodes {
            let nz = b.min.z + 0.5 * (gz + 1.0) * h.z;
            for &gy in nodes {
                let ny = b.min.y + 0.5 * (gy + 1.0) * h.y;
                for &gx in nodes {
                    let nx = b.min.x + 0.5 * (gx + 1.0) * h.x;
                    table[slot] = ctx.field.velocity(Vec3::new(nx, ny, nz), time);
                    slot += 1;
                }
            }
        }
        for (u_out, q) in sorted_out[run.clone()].iter_mut().zip(&clamped[run]) {
            // Reference coordinates in [-1, 1]³ of the clamped position.
            ctx.gll.basis_at(2.0 * (q.x - b.min.x) / h.x - 1.0, &mut lx);
            ctx.gll.basis_at(2.0 * (q.y - b.min.y) / h.y - 1.0, &mut ly);
            ctx.gll.basis_at(2.0 * (q.z - b.min.z) / h.z - 1.0, &mut lz);
            let mut u = Vec3::ZERO;
            for (plane, &wz) in table.chunks_exact(n * n).zip(&lz) {
                for (row, &wy) in plane.chunks_exact(n).zip(&ly) {
                    let wyz = wy * wz;
                    for (&v, &wx) in row.iter().zip(&lx) {
                        u += v * (wx * wyz);
                    }
                }
            }
            *u_out = u;
        }
    }
    out.clear();
    out.resize(subset.len(), Vec3::ZERO);
    for (&(_, k), &u) in by_element.iter().zip(&sorted_out) {
        out[k as usize] = u;
    }
}

/// **Equation solver**: acceleration from drag toward the interpolated
/// fluid velocity, gravity, and soft-sphere collision forces against
/// neighbours (paper Eq. 2 with `F_h`, `F_b`, `F_c`).
///
/// `fluid_vel[k]` must correspond to `subset[k]`. `neighbors` is a cell
/// list built over the *same* positions array.
pub fn equation_solver(
    ctx: &KernelContext<'_>,
    positions: &[Vec3],
    velocities: &[Vec3],
    subset: &[u32],
    fluid_vel: &[Vec3],
    neighbors: &CellList,
    out_accel: &mut Vec<Vec3>,
) {
    debug_assert_eq!(subset.len(), fluid_vel.len());
    out_accel.clear();
    out_accel.reserve(subset.len());
    let rc = ctx.collision_radius;
    for (k, &i) in subset.iter().enumerate() {
        let p = positions[i as usize];
        let v = velocities[i as usize];
        // Hydrodynamic (drag) + body forces.
        let mut a = (fluid_vel[k] - v) / ctx.drag_tau + ctx.gravity;
        // Collision forces: linear soft-sphere repulsion.
        if rc > 0.0 {
            neighbors.for_neighbors(positions, p, rc, |j| {
                if j != i {
                    let d = p - positions[j as usize];
                    let dist = d.norm();
                    if dist > 1e-12 {
                        let overlap = (rc - dist) / rc;
                        a += d * (ctx.collision_stiffness * overlap / dist);
                    }
                }
            });
        }
        out_accel.push(a);
    }
}

/// **Particle pusher**: semi-implicit Euler advance of the subset, with
/// reflective domain walls (particles bounce rather than leave — CMT-nek's
/// closed Hele-Shaw cell behaves the same way).
pub fn particle_pusher(
    ctx: &KernelContext<'_>,
    positions: &mut [Vec3],
    velocities: &mut [Vec3],
    subset: &[u32],
    accel: &[Vec3],
) {
    debug_assert_eq!(subset.len(), accel.len());
    let domain = ctx.mesh.domain();
    for (k, &i) in subset.iter().enumerate() {
        let i = i as usize;
        let mut v = velocities[i] + accel[k] * ctx.dt;
        let mut p = positions[i] + v * ctx.dt;
        // Reflect at walls, axis by axis.
        for a in 0..3 {
            let lo = domain.min[a];
            let hi = domain.max[a];
            if p[a] < lo {
                p[a] = lo + (lo - p[a]);
                v[a] = -v[a];
            }
            if p[a] > hi {
                p[a] = hi - (p[a] - hi);
                v[a] = -v[a];
            }
            // Extreme overshoot (> domain width) just clamps.
            p[a] = p[a].clamp(lo, hi);
        }
        positions[i] = p;
        velocities[i] = v;
    }
}

/// **Projection** (particle → grid): scatter each subset particle's
/// influence onto every GLL node within the filter radius, using a Gaussian
/// weight. Returns the total projected weight (the grid field itself is not
/// needed by the prediction framework; accumulating a scalar preserves the
/// arithmetic volume while avoiding a full grid buffer).
///
/// Cost shape: `O(|subset| · (elements in filter sphere) · N³)` — growing
/// with the filter size, the Fig 10b effect.
pub fn projection(ctx: &KernelContext<'_>, positions: &[Vec3], subset: &[u32]) -> f64 {
    let n = ctx.gll.len();
    let rf = ctx.filter;
    let inv_rf2 = 1.0 / (rf * rf);
    let mut total = 0.0;
    for &i in subset {
        let p = positions[i as usize];
        let query = pic_types::Aabb::new(p, p).inflate(rf);
        for e in ctx.mesh.elements_in_aabb(&query) {
            let b = ctx.mesh.element_aabb(e);
            if !b.intersects_sphere(p, rf) {
                continue;
            }
            let h = b.extent();
            for k in 0..n {
                let nz = b.min.z + 0.5 * (ctx.gll.nodes[k] + 1.0) * h.z;
                for j in 0..n {
                    let ny = b.min.y + 0.5 * (ctx.gll.nodes[j] + 1.0) * h.y;
                    for ii in 0..n {
                        let nx = b.min.x + 0.5 * (ctx.gll.nodes[ii] + 1.0) * h.x;
                        let d2 = p.distance_sq(Vec3::new(nx, ny, nz));
                        if d2 <= rf * rf {
                            total += (-d2 * inv_rf2).exp();
                        }
                    }
                }
            }
        }
    }
    total
}

/// **create_ghost_particles**: for every particle, find the remote ranks
/// whose workload region its filter sphere touches; the particle becomes a
/// ghost on each. Returns ghost particle index lists per rank.
///
/// `owners[i]` is particle `i`'s residing rank; `index` spatially indexes
/// the per-rank regions of the current mapping.
pub fn create_ghost_particles(
    ctx: &KernelContext<'_>,
    positions: &[Vec3],
    owners: &[Rank],
    index: &RegionIndex,
) -> Vec<Vec<u32>> {
    let mut ghosts: Vec<Vec<u32>> = vec![Vec::new(); index.rank_count()];
    let mut scratch = RegionQueryScratch::new();
    for (i, &p) in positions.iter().enumerate() {
        let home = owners[i];
        index.for_each_rank_touching_sphere(p, ctx.filter, &mut scratch, |r| {
            if r != home {
                ghosts[r.index()].push(i as u32);
            }
        });
    }
    ghosts
}

/// **Fluid solver** (regular workload): a stand-in Euler update sweeping
/// every GLL node of the subset elements. Returns an accumulated value so
/// the work cannot be optimized away.
///
/// Cost shape: `O(|elements| · N³)` — uniform across ranks by construction
/// of the element decomposition.
pub fn fluid_solver(ctx: &KernelContext<'_>, elements: &[pic_types::ElementId], time: f64) -> f64 {
    let n = ctx.gll.len();
    let mut acc = 0.0;
    for &e in elements {
        let b = ctx.mesh.element_aabb(e);
        let h = b.extent();
        for k in 0..n {
            let nz = b.min.z + 0.5 * (ctx.gll.nodes[k] + 1.0) * h.z;
            let wz = ctx.gll.weights[k];
            for j in 0..n {
                let ny = b.min.y + 0.5 * (ctx.gll.nodes[j] + 1.0) * h.y;
                let wyz = ctx.gll.weights[j] * wz;
                for ii in 0..n {
                    let nx = b.min.x + 0.5 * (ctx.gll.nodes[ii] + 1.0) * h.x;
                    let node = Vec3::new(nx, ny, nz);
                    let u = ctx.field.velocity(node, time);
                    let pr = ctx.field.pressure(node, time);
                    acc += (u.norm_sq() + pr) * ctx.gll.weights[ii] * wyz;
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{BlastField, UniformFlow, VortexField};
    use pic_grid::MeshDims;
    use pic_mapping::{ElementMapper, ParticleMapper};
    use pic_types::Aabb;
    use proptest::prelude::*;

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap()
    }

    /// Map a position to its element's reference coordinates in `[-1, 1]³`,
    /// clamping onto the domain first.
    fn reference_coords(mesh: &ElementMesh, p: Vec3) -> (pic_types::ElementId, Vec3) {
        let domain = mesh.domain();
        let q = p.clamp(domain.min, domain.max);
        let e = mesh
            .element_of_point(q)
            .expect("clamped point is inside the domain");
        let b = mesh.element_aabb(e);
        let h = b.extent();
        let xi = Vec3::new(
            2.0 * (q.x - b.min.x) / h.x - 1.0,
            2.0 * (q.y - b.min.y) / h.y - 1.0,
            2.0 * (q.z - b.min.z) / h.z - 1.0,
        );
        (e, xi)
    }

    /// [`interpolate`] as it was before it was cell-sorted and tabled: the
    /// field sampled at all `N³` nodes of each particle's element inside
    /// the particle loop. Kept verbatim as its oracle.
    fn interpolate_reference(
        ctx: &KernelContext<'_>,
        positions: &[Vec3],
        subset: &[u32],
        time: f64,
        out: &mut Vec<Vec3>,
    ) {
        out.clear();
        out.reserve(subset.len());
        let n = ctx.gll.len();
        let mut lx = Vec::with_capacity(n);
        let mut ly = Vec::with_capacity(n);
        let mut lz = Vec::with_capacity(n);
        for &i in subset {
            let p = positions[i as usize];
            let (e, xi) = reference_coords(ctx.mesh, p);
            let b = ctx.mesh.element_aabb(e);
            let h = b.extent();
            ctx.gll.basis_at(xi.x, &mut lx);
            ctx.gll.basis_at(xi.y, &mut ly);
            ctx.gll.basis_at(xi.z, &mut lz);
            let mut u = Vec3::ZERO;
            for (k, &wz) in lz.iter().enumerate() {
                let nz = b.min.z + 0.5 * (ctx.gll.nodes[k] + 1.0) * h.z;
                for (j, &wy) in ly.iter().enumerate() {
                    let ny = b.min.y + 0.5 * (ctx.gll.nodes[j] + 1.0) * h.y;
                    let wyz = wy * wz;
                    for (ii, &wx) in lx.iter().enumerate() {
                        let nx = b.min.x + 0.5 * (ctx.gll.nodes[ii] + 1.0) * h.x;
                        let node = Vec3::new(nx, ny, nz);
                        u += ctx.field.velocity(node, time) * (wx * wyz);
                    }
                }
            }
            out.push(u);
        }
    }

    fn ctx<'a>(
        mesh: &'a ElementMesh,
        gll: &'a GllRule,
        field: &'a dyn FluidField,
    ) -> KernelContext<'a> {
        KernelContext {
            mesh,
            gll,
            field,
            filter: 0.05,
            dt: 0.01,
            gravity: Vec3::new(0.0, 0.0, -1.0),
            drag_tau: 0.1,
            collision_radius: 0.0,
            collision_stiffness: 0.0,
        }
    }

    #[test]
    fn interpolation_reproduces_constant_field() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::new(1.0, -2.0, 0.5),
        };
        let c = ctx(&m, &gll, &f);
        let positions = vec![Vec3::new(0.13, 0.7, 0.42), Vec3::new(0.9, 0.1, 0.99)];
        let subset: Vec<u32> = vec![0, 1];
        let mut out = Vec::new();
        interpolate(&c, &positions, &subset, 0.0, &mut out);
        for u in out {
            assert!(u.distance(f.velocity) < 1e-10, "{u}");
        }
    }

    /// One drawn point: `(kind, element, u, v, w, corner bits)`.
    type PointDraw = (u8, u32, f64, f64, f64, u8);

    /// A position in `mesh`'s domain from a draw: interior (kind 0), on
    /// the faces of one element (1: each set corner bit puts that axis on
    /// the element's max face, each clear one on its min face), on a
    /// domain corner (2), or anywhere in a box three times the domain's
    /// size around it, so mostly outside and clamped (3).
    fn drawn_position(mesh: &ElementMesh, (kind, e, u, v, w, bits): PointDraw) -> Vec3 {
        let d = mesh.domain();
        let ext = d.extent();
        let pick = |b: &Aabb, a: usize| {
            if bits >> a & 1 == 1 {
                b.max[a]
            } else {
                b.min[a]
            }
        };
        match kind {
            0 => d.min + Vec3::new(u * ext.x, v * ext.y, w * ext.z),
            1 => {
                let b = mesh.element_aabb(ElementId(e % mesh.element_count() as u32));
                Vec3::new(pick(&b, 0), pick(&b, 1), pick(&b, 2))
            }
            2 => Vec3::new(pick(&d, 0), pick(&d, 1), pick(&d, 2)),
            _ => {
                d.min
                    + Vec3::new(
                        (3.0 * u - 1.0) * ext.x,
                        (3.0 * v - 1.0) * ext.y,
                        (3.0 * w - 1.0) * ext.z,
                    )
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn tabled_interpolation_matches_the_reference_bit_for_bit(
            order in 2usize..=6,
            dims in (1usize..=4, 1usize..=4, 1usize..=4),
            field_pick in 0u8..3,
            (at_zero, later) in (any::<bool>(), 0.0..2.0f64),
            draws in proptest::collection::vec(
                (0u8..4, any::<u32>(), 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0u8..8),
                1..40,
            ),
            picks in proptest::collection::vec(any::<u32>(), 0..60),
        ) {
            let domain = Aabb::new(Vec3::new(-0.5, 0.0, 1.0), Vec3::new(0.7, 0.4, 1.9));
            let m = ElementMesh::new(domain, MeshDims::new(dims.0, dims.1, dims.2), order).unwrap();
            let gll = GllRule::new(order);
            let field: Box<dyn FluidField> = match field_pick {
                0 => Box::new(UniformFlow { velocity: Vec3::new(1.0, -2.0, 0.5) }),
                1 => Box::new(VortexField { center: Vec3::new(0.1, 0.2, 1.4), angular_speed: 3.0 }),
                _ => Box::new(BlastField { origin: Vec3::new(0.0, 0.2, 1.0), ..BlastField::hele_shaw_default() }),
            };
            // The blast is identically zero at t = 0: its own branch.
            let time = if at_zero { 0.0 } else { later };
            let c = ctx(&m, &gll, field.as_ref());
            let positions: Vec<Vec3> = draws.into_iter().map(|d| drawn_position(&m, d)).collect();
            // Unsorted, with duplicates; the empty subset runs every case.
            let subset: Vec<u32> = picks.iter().map(|&x| x % positions.len() as u32).collect();
            for subset in [&subset[..], &[]] {
                let (mut tabled, mut reference) = (vec![Vec3::ONE; 3], Vec::new());
                interpolate(&c, &positions, subset, time, &mut tabled);
                interpolate_reference(&c, &positions, subset, time, &mut reference);
                prop_assert_eq!(tabled.len(), subset.len());
                let bits = |us: &[Vec3]| -> Vec<[u64; 3]> {
                    us.iter().map(|u| u.to_array().map(f64::to_bits)).collect()
                };
                prop_assert_eq!(bits(&tabled), bits(&reference));
            }
        }
    }

    #[test]
    fn interpolation_reproduces_linear_field() {
        // Vortex velocity is linear in position; GLL Lagrange interpolation
        // of order >= 2 must reproduce it to machine precision.
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = VortexField {
            center: Vec3::splat(0.5),
            angular_speed: 3.0,
        };
        let c = ctx(&m, &gll, &f);
        let positions = vec![Vec3::new(0.31, 0.77, 0.11)];
        let mut out = Vec::new();
        interpolate(&c, &positions, &[0], 0.0, &mut out);
        let exact = f.velocity(positions[0], 0.0);
        assert!(out[0].distance(exact) < 1e-9, "{} vs {exact}", out[0]);
    }

    #[test]
    fn drag_relaxes_toward_fluid() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::new(1.0, 0.0, 0.0),
        };
        let mut c = ctx(&m, &gll, &f);
        c.gravity = Vec3::ZERO;
        let positions = vec![Vec3::splat(0.5)];
        let velocities = vec![Vec3::ZERO];
        let cl = CellList::build(&positions, 0.1);
        let mut acc = Vec::new();
        equation_solver(
            &c,
            &positions,
            &velocities,
            &[0],
            &[f.velocity],
            &cl,
            &mut acc,
        );
        // a = (u - v)/tau = (1,0,0)/0.1
        assert!(acc[0].distance(Vec3::new(10.0, 0.0, 0.0)) < 1e-12);
    }

    #[test]
    fn collisions_push_particles_apart() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::ZERO,
        };
        let mut c = ctx(&m, &gll, &f);
        c.gravity = Vec3::ZERO;
        c.collision_radius = 0.1;
        c.collision_stiffness = 100.0;
        let positions = vec![Vec3::new(0.5, 0.5, 0.5), Vec3::new(0.55, 0.5, 0.5)];
        let velocities = vec![Vec3::ZERO; 2];
        let cl = CellList::build(&positions, 0.1);
        let mut acc = Vec::new();
        equation_solver(
            &c,
            &positions,
            &velocities,
            &[0, 1],
            &[Vec3::ZERO; 2],
            &cl,
            &mut acc,
        );
        assert!(acc[0].x < 0.0, "left particle pushed left: {}", acc[0]);
        assert!(acc[1].x > 0.0, "right particle pushed right: {}", acc[1]);
        // symmetric
        assert!((acc[0].x + acc[1].x).abs() < 1e-12);
    }

    #[test]
    fn pusher_advances_and_reflects() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::ZERO,
        };
        let c = ctx(&m, &gll, &f);
        let mut positions = vec![Vec3::new(0.5, 0.5, 0.005)];
        let mut velocities = vec![Vec3::new(0.0, 0.0, -1.0)];
        // no extra acceleration
        particle_pusher(&c, &mut positions, &mut velocities, &[0], &[Vec3::ZERO]);
        // would have gone to z = -0.005; reflected to +0.005 with flipped vz
        assert!((positions[0].z - 0.005).abs() < 1e-12, "{}", positions[0]);
        assert!(velocities[0].z > 0.0);
        // position stays in the domain
        assert!(m.domain().contains_closed(positions[0]));
    }

    #[test]
    fn pusher_only_touches_subset() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::ZERO,
        };
        let c = ctx(&m, &gll, &f);
        let mut positions = vec![Vec3::splat(0.5), Vec3::splat(0.25)];
        let mut velocities = vec![Vec3::new(1.0, 0.0, 0.0); 2];
        particle_pusher(&c, &mut positions, &mut velocities, &[0], &[Vec3::ZERO]);
        assert_ne!(positions[0], Vec3::splat(0.5));
        assert_eq!(positions[1], Vec3::splat(0.25));
    }

    #[test]
    fn projection_weight_positive_and_filter_monotone() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::ZERO,
        };
        let mut c = ctx(&m, &gll, &f);
        let positions = vec![Vec3::splat(0.5)];
        c.filter = 0.05;
        let w_small = projection(&c, &positions, &[0]);
        c.filter = 0.2;
        let w_large = projection(&c, &positions, &[0]);
        assert!(w_small >= 0.0);
        assert!(w_large > w_small, "larger filter must touch more nodes");
        // empty subset projects nothing
        assert_eq!(projection(&c, &positions, &[]), 0.0);
    }

    #[test]
    fn ghosts_match_decomposition_query() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::ZERO,
        };
        let mut c = ctx(&m, &gll, &f);
        c.filter = 0.1;
        let mapper = ElementMapper::new(&m, 8).unwrap();
        // one particle near the center: close to all octant boundaries
        let positions = vec![Vec3::new(0.48, 0.48, 0.48), Vec3::new(0.1, 0.1, 0.1)];
        let out = mapper.assign(&positions);
        let index = RegionIndex::build(&out.rank_regions);
        let ghosts = create_ghost_particles(&c, &positions, &out.ranks, &index);
        // particle 0 is a ghost on all ranks except its own
        let total_ghosts: usize = ghosts.iter().map(Vec::len).sum();
        assert_eq!(total_ghosts, 7, "{ghosts:?}");
        // particle 1 is interior: appears nowhere as a ghost
        for list in &ghosts {
            assert!(!list.contains(&1));
        }
        // no rank lists its own resident as a ghost
        for (r, list) in ghosts.iter().enumerate() {
            for &i in list {
                assert_ne!(out.ranks[i as usize].index(), r);
            }
        }
    }

    #[test]
    fn fluid_solver_scales_with_elements() {
        let m = mesh();
        let gll = GllRule::new(m.order());
        let f = UniformFlow {
            velocity: Vec3::new(1.0, 0.0, 0.0),
        };
        let c = ctx(&m, &gll, &f);
        let all: Vec<_> = m.element_ids().collect();
        let one = fluid_solver(&c, &all[..1], 0.0);
        let many = fluid_solver(&c, &all, 0.0);
        assert!(one > 0.0);
        assert!(
            (many / one - 64.0).abs() < 1e-6,
            "uniform field: work ∝ elements"
        );
    }
}
