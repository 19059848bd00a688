//! Property-based tests: mesh queries and RCB decomposition invariants.

use pic_grid::{ElementMesh, MeshDims, RcbDecomposition};
use pic_types::{Aabb, Rank, Vec3};
use proptest::prelude::*;

fn mesh_strategy() -> impl Strategy<Value = ElementMesh> {
    (1usize..8, 1usize..8, 1usize..8, 2usize..6).prop_map(|(nx, ny, nz, order)| {
        ElementMesh::new(Aabb::unit(), MeshDims::new(nx, ny, nz), order).unwrap()
    })
}

fn unit_point() -> impl Strategy<Value = Vec3> {
    (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn every_domain_point_has_exactly_one_element(mesh in mesh_strategy(), p in unit_point()) {
        let e = mesh.element_of_point(p).expect("in-domain point");
        // the element's box contains the point (allow the shared max-face)
        let b = mesh.element_aabb(e);
        prop_assert!(b.contains_closed(p), "{p} not in {b}");
        // no other element's half-open box contains it
        let owners = mesh
            .element_ids()
            .filter(|&id| mesh.element_aabb(id).contains(p))
            .count();
        prop_assert!(owners <= 1);
    }

    #[test]
    fn element_id_roundtrip(mesh in mesh_strategy()) {
        for id in mesh.element_ids() {
            let (ix, iy, iz) = mesh.element_indices(id);
            prop_assert_eq!(mesh.element_id(ix, iy, iz), id);
        }
    }

    #[test]
    fn aabb_query_equals_brute_force(
        mesh in mesh_strategy(),
        a in unit_point(),
        b in unit_point(),
    ) {
        let q = Aabb::new(a.min(b), a.max(b));
        let mut fast = mesh.elements_in_aabb(&q);
        let mut brute: Vec<_> = mesh
            .element_ids()
            .filter(|&id| mesh.element_aabb(id).intersects(&q))
            .collect();
        fast.sort_unstable();
        brute.sort_unstable();
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn rcb_conserves_elements(mesh in mesh_strategy(), ranks in 1usize..40) {
        let d = RcbDecomposition::decompose(&mesh, ranks).unwrap();
        let total: usize = d.element_counts().iter().sum();
        prop_assert_eq!(total, mesh.element_count());
        // ownership arrays agree with counts
        for r in Rank::all(ranks) {
            prop_assert_eq!(d.elements_of_rank(r).len(), d.elements_on_rank(r));
        }
    }

    #[test]
    fn rcb_regions_cover_owned_elements(mesh in mesh_strategy(), ranks in 1usize..20) {
        let d = RcbDecomposition::decompose(&mesh, ranks).unwrap();
        for id in mesh.element_ids() {
            let r = d.rank_of_element(id);
            let region = d.rank_region(r);
            let eb = mesh.element_aabb(id);
            prop_assert!(region.contains_closed(eb.center()));
        }
    }

    #[test]
    fn rcb_balance_bound(mesh in mesh_strategy(), ranks in 1usize..16) {
        // Cuts are quantized to whole element layers, so perfect balance is
        // impossible for awkward mesh shapes; the proportional cut still
        // keeps every rank within a small constant of the fair share.
        let d = RcbDecomposition::decompose(&mesh, ranks).unwrap();
        let fair = mesh.element_count().div_ceil(ranks).max(1);
        let bound = 3 * fair + 1;
        for r in Rank::all(ranks) {
            prop_assert!(
                d.elements_on_rank(r) <= bound,
                "rank {r}: {} > {bound} (fair {fair})",
                d.elements_on_rank(r)
            );
        }
    }

    #[test]
    fn gll_weights_positive_and_sum_two(n in 2usize..12) {
        let (nodes, weights) = pic_grid::gll::gll_nodes_weights(n);
        prop_assert_eq!(nodes.len(), n);
        for w in &weights {
            prop_assert!(*w > 0.0);
        }
        let s: f64 = weights.iter().sum();
        prop_assert!((s - 2.0).abs() < 1e-10);
        // nodes strictly increasing in [-1, 1]
        for w in nodes.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert_eq!(nodes[0], -1.0);
        prop_assert_eq!(nodes[n - 1], 1.0);
    }

    #[test]
    fn lagrange_interpolation_reproduces_low_degree_polys(n in 3usize..8, x in -1.0..1.0f64) {
        // interpolating t² at the nodes and evaluating at x must equal x²
        let (nodes, _) = pic_grid::gll::gll_nodes_weights(n);
        let interp: f64 = (0..n)
            .map(|i| nodes[i] * nodes[i] * pic_grid::gll::lagrange_basis(&nodes, i, x))
            .sum();
        prop_assert!((interp - x * x).abs() < 1e-8, "{interp} vs {}", x * x);
    }
}
