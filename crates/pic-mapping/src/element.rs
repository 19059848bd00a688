//! Element-based particle mapping (paper §III-B).
//!
//! A particle is stored on the rank that owns the spectral element it
//! currently resides in, so all fluid–particle interpolation/projection is
//! rank-local. The price is load imbalance: workload follows particle
//! density, and in explosive-dispersal problems most particles start packed
//! into a handful of elements.

use crate::mapper::{locate_clamped, MappingOutcome, ParticleMapper};
use pic_grid::{ElementMesh, RcbDecomposition};
use pic_types::{Aabb, ElementId, Rank, Result, Vec3};
use std::borrow::Cow;

/// Element-based mapper: `R_p = owner(element_of(particle position))`.
#[derive(Debug, Clone)]
pub struct ElementMapper {
    mesh: ElementMesh,
    decomp: RcbDecomposition,
    regions: Vec<Aabb>,
}

impl ElementMapper {
    /// Build a mapper for `ranks` processors over `mesh`, decomposing the
    /// elements with recursive coordinate bisection.
    pub fn new(mesh: &ElementMesh, ranks: usize) -> Result<ElementMapper> {
        let decomp = RcbDecomposition::decompose(mesh, ranks)?;
        Self::with_decomposition(mesh, decomp)
    }

    /// Build a mapper from an existing element decomposition.
    fn with_decomposition(mesh: &ElementMesh, decomp: RcbDecomposition) -> Result<ElementMapper> {
        let regions = Rank::all(decomp.ranks())
            .map(|r| decomp.rank_region(r))
            .collect();
        Ok(ElementMapper {
            mesh: mesh.clone(),
            decomp,
            regions,
        })
    }

    /// The underlying element decomposition.
    pub fn decomposition(&self) -> &RcbDecomposition {
        &self.decomp
    }

    /// The mesh this mapper operates on.
    pub fn mesh(&self) -> &ElementMesh {
        &self.mesh
    }
}

impl ParticleMapper for ElementMapper {
    fn name(&self) -> &'static str {
        "element-based"
    }

    fn ranks(&self) -> usize {
        self.decomp.ranks()
    }

    /// Positions outside the domain are clamped onto it first (a particle
    /// that drifted out numerically is kept by its nearest boundary
    /// element, matching production PIC codes that reflect or absorb at
    /// walls rather than dropping particles), then located, then looked up
    /// in the element-owner table.
    fn assign(&self, positions: &[Vec3]) -> MappingOutcome<'_> {
        let ranks = (locate_clamped(&self.mesh, positions).iter())
            .map(|&e| {
                self.decomp
                    .rank_of_element(ElementId::from_index(e as usize))
            })
            .collect();
        MappingOutcome {
            ranks,
            rank_regions: Cow::Borrowed(&self.regions),
            bin_count: None,
        }
    }

    fn fixed_regions(&self) -> Option<&[Aabb]> {
        Some(&self.regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_grid::MeshDims;

    fn mapper(ranks: usize) -> ElementMapper {
        let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap();
        ElementMapper::new(&mesh, ranks).unwrap()
    }

    #[test]
    fn particles_map_to_element_owner() {
        let m = mapper(8);
        let mesh = m.mesh().clone();
        let centroids: Vec<Vec3> = mesh
            .element_ids()
            .map(|id| mesh.element_aabb(id).center())
            .collect();
        let out = m.assign(&centroids);
        for (id, r) in mesh.element_ids().zip(out.ranks) {
            assert_eq!(r, m.decomposition().rank_of_element(id));
        }
    }

    #[test]
    fn out_of_domain_particles_are_clamped() {
        let m = mapper(8);
        let out = m.assign(&[Vec3::new(0.99, 0.99, 0.99), Vec3::new(5.0, 5.0, 5.0)]);
        assert_eq!(out.ranks[0], out.ranks[1]);
    }

    #[test]
    fn concentrated_particles_land_on_one_rank() {
        // The element-mapping pathology the paper builds on: all particles
        // in one corner element → a single rank holds everything.
        let m = mapper(8);
        let positions: Vec<Vec3> = (0..100)
            .map(|i| Vec3::splat(0.01 + (i as f64) * 0.0005))
            .collect();
        let out = m.assign(&positions);
        let counts = out.counts(8);
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1);
        assert_eq!(counts.iter().sum::<u32>(), 100);
    }

    #[test]
    fn uniform_particles_spread_over_all_ranks() {
        let m = mapper(8);
        let mut positions = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..10 {
                    positions.push(Vec3::new(
                        0.05 + i as f64 * 0.1,
                        0.05 + j as f64 * 0.1,
                        0.05 + k as f64 * 0.1,
                    ));
                }
            }
        }
        let out = m.assign(&positions);
        let counts = out.counts(8);
        assert!(counts.iter().all(|&c| c == 125), "{counts:?}");
    }

    #[test]
    fn regions_match_decomposition() {
        let m = mapper(4);
        let out = m.assign(&[Vec3::splat(0.5)]);
        assert_eq!(out.rank_regions.len(), 4);
        for r in Rank::all(4) {
            assert_eq!(
                out.rank_regions[r.index()],
                m.decomposition().rank_region(r)
            );
        }
        assert_eq!(out.bin_count, None);
        assert_eq!(m.name(), "element-based");
        assert_eq!(m.ranks(), 4);
    }

    #[test]
    fn assignment_is_region_consistent() {
        // every particle must lie inside its assigned rank's region
        let m = mapper(8);
        let mut positions = Vec::new();
        for i in 0..50 {
            positions.push(Vec3::new(
                (i as f64 * 0.137) % 1.0,
                (i as f64 * 0.311) % 1.0,
                (i as f64 * 0.523) % 1.0,
            ));
        }
        let out = m.assign(&positions);
        for (p, r) in positions.iter().zip(&out.ranks) {
            assert!(out.rank_regions[r.index()].contains_closed(*p));
        }
    }
}
