//! Load-balanced element partitioning (Zhai et al., paper ref \[11\]).
//!
//! Particle–grid locality is *preserved* (a particle always lives with its
//! element, like element-based mapping), but elements are distributed by a
//! weighted decomposition whose per-element load is
//!
//! ```text
//! w(e) = N³  +  particle_weight · particles_in(e)
//! ```
//!
//! — grid points plus residing particles. Zhai et al. re-partition when a
//! processor exceeds a threshold workload; since CMT-nek's particle counts
//! move every step, this implementation re-partitions at every sample
//! (threshold 0), the most adaptive point of that design space. The
//! trade-off against bin-based mapping: grid data never has to be shuffled
//! mid-iteration, but balance is limited by element granularity — a single
//! element holding most particles cannot be split.

use crate::mapper::{locate_clamped, MappingOutcome, ParticleMapper};
use pic_grid::{ElementMesh, RcbDecomposition};
use pic_types::{Aabb, ElementId, PicError, Rank, Result, Vec3};

/// Weighted-element mapper: locality-preserving, load-driven decomposition
/// recomputed per sample.
#[derive(Debug, Clone)]
pub struct LoadBalancedMapper {
    mesh: ElementMesh,
    ranks: usize,
    /// Relative cost of one particle against one grid point.
    particle_weight: f64,
    /// Static grid weight per element (`N³` grid points).
    grid_weight: f64,
}

impl LoadBalancedMapper {
    /// Default particle cost relative to a grid point, calibrated from the
    /// kernel cost oracle (per-particle interpolation+solve+push work vs
    /// per-gridpoint fluid work).
    pub const DEFAULT_PARTICLE_WEIGHT: f64 = 8.0;

    /// Build a mapper for `ranks` processors over `mesh` with the default
    /// particle weight.
    pub fn new(mesh: &ElementMesh, ranks: usize) -> Result<LoadBalancedMapper> {
        Self::with_particle_weight(mesh, ranks, Self::DEFAULT_PARTICLE_WEIGHT)
    }

    /// Build with an explicit particle weight (must be non-negative).
    fn with_particle_weight(
        mesh: &ElementMesh,
        ranks: usize,
        particle_weight: f64,
    ) -> Result<LoadBalancedMapper> {
        if ranks == 0 {
            return Err(PicError::config(
                "load-balanced mapper needs at least one rank",
            ));
        }
        if !(particle_weight.is_finite() && particle_weight >= 0.0) {
            return Err(PicError::config("particle weight must be non-negative"));
        }
        Ok(LoadBalancedMapper {
            mesh: mesh.clone(),
            ranks,
            particle_weight,
            grid_weight: (mesh.order().pow(3)) as f64,
        })
    }
}

impl ParticleMapper for LoadBalancedMapper {
    fn name(&self) -> &'static str {
        "load-balanced"
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    /// One clamp/locate pass (positions clamped onto the domain, as in
    /// element-based mapping) feeds both the per-element weight histogram
    /// of this sample's decomposition and the final rank gather.
    fn assign(&self, positions: &[Vec3]) -> MappingOutcome {
        let eidx = locate_clamped(&self.mesh, positions);
        let mut counts = vec![0u32; self.mesh.element_count()];
        for &e in &eidx {
            counts[e as usize] += 1;
        }
        let weights: Vec<f64> = counts
            .iter()
            .map(|&c| self.grid_weight + self.particle_weight * c as f64)
            .collect();
        let decomp = RcbDecomposition::decompose_weighted(&self.mesh, self.ranks, &weights)
            .expect("validated construction implies valid decomposition");
        let ranks = eidx
            .iter()
            .map(|&e| decomp.rank_of_element(ElementId::from_index(e as usize)))
            .collect();
        let rank_regions: Vec<Aabb> = Rank::all(self.ranks)
            .map(|r| decomp.rank_region(r))
            .collect();
        MappingOutcome {
            ranks,
            rank_regions,
            bin_count: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_grid::MeshDims;
    use pic_types::rng::SplitMix64;

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(8), 3).unwrap()
    }

    fn corner_cloud(n: usize, seed: u64) -> Vec<Vec3> {
        // 90 % of particles packed into one corner, 10 % spread out
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())
                } else {
                    Vec3::new(
                        rng.next_range(0.0, 0.2),
                        rng.next_range(0.0, 0.2),
                        rng.next_range(0.0, 0.2),
                    )
                }
            })
            .collect()
    }

    #[test]
    fn construction_validation() {
        let m = mesh();
        assert!(LoadBalancedMapper::new(&m, 0).is_err());
        assert!(LoadBalancedMapper::with_particle_weight(&m, 4, -1.0).is_err());
        assert!(LoadBalancedMapper::with_particle_weight(&m, 4, f64::NAN).is_err());
        assert!(LoadBalancedMapper::new(&m, 4).is_ok());
    }

    #[test]
    fn beats_plain_element_mapping_on_concentrated_cloud() {
        let m = mesh();
        let positions = corner_cloud(4000, 1);
        let lb = LoadBalancedMapper::new(&m, 16).unwrap();
        let el = crate::ElementMapper::new(&m, 16).unwrap();
        let peak = |o: &MappingOutcome| *o.counts(16).iter().max().unwrap();
        let lb_peak = peak(&lb.assign(&positions));
        let el_peak = peak(&el.assign(&positions));
        assert!(
            lb_peak * 2 <= el_peak,
            "load-balanced {lb_peak} should clearly beat element {el_peak}"
        );
    }

    #[test]
    fn preserves_particle_grid_locality() {
        // every particle must live on the rank that owns its element
        let m = mesh();
        let positions = corner_cloud(1000, 2);
        let lb = LoadBalancedMapper::new(&m, 8).unwrap();
        let out = lb.assign(&positions);
        let mut owner_of_element = vec![None; m.element_count()];
        for (p, r) in positions.iter().zip(&out.ranks) {
            let e = m.element_of_point(*p).unwrap();
            assert_eq!(*owner_of_element[e.index()].get_or_insert(*r), *r);
            assert!(out.rank_regions[r.index()].contains_closed(*p));
        }
    }

    #[test]
    fn all_particles_assigned() {
        let m = mesh();
        let positions = corner_cloud(500, 3);
        let lb = LoadBalancedMapper::new(&m, 12).unwrap();
        let out = lb.assign(&positions);
        assert_eq!(out.counts(12).iter().sum::<u32>(), 500);
        assert_eq!(out.bin_count, None);
        assert_eq!(lb.name(), "load-balanced");
    }

    #[test]
    fn zero_particle_weight_reduces_to_uniform_rcb() {
        let m = mesh();
        let positions = corner_cloud(1000, 4);
        let lb = LoadBalancedMapper::with_particle_weight(&m, 8, 0.0).unwrap();
        let uniform = crate::ElementMapper::new(&m, 8).unwrap();
        assert_eq!(lb.assign(&positions), uniform.assign(&positions));
    }

    #[test]
    fn balance_is_limited_by_element_granularity() {
        // all particles inside ONE element: no element decomposition can
        // split them — the documented limit of locality-preserving balance
        let m = mesh();
        let positions: Vec<Vec3> = (0..256)
            .map(|i| Vec3::splat(0.01 + (i as f64) * 1e-5))
            .collect();
        let lb = LoadBalancedMapper::new(&m, 8).unwrap();
        let out = lb.assign(&positions);
        assert_eq!(*out.counts(8).iter().max().unwrap(), 256);
    }

    #[test]
    fn adapts_between_samples() {
        // moving the hot spot moves the fine-grained region of the partition
        let m = mesh();
        let lb = LoadBalancedMapper::new(&m, 8).unwrap();
        let near: Vec<Vec3> = (0..500)
            .map(|i| Vec3::new(0.05 + (i % 10) as f64 * 0.01, 0.05, 0.05))
            .collect();
        let far: Vec<Vec3> = near
            .iter()
            .map(|p| Vec3::new(1.0 - p.x, 0.95, 0.95))
            .collect();
        let peak_near = *lb.assign(&near).counts(8).iter().max().unwrap();
        let peak_far = *lb.assign(&far).counts(8).iter().max().unwrap();
        // symmetric problem → similar balance at both ends
        let lo = peak_near.min(peak_far) as f64;
        let hi = peak_near.max(peak_far) as f64;
        assert!(hi / lo < 1.5, "near {peak_near} far {peak_far}");
    }
}
