//! The [`ParticleMapper`] abstraction and its per-sample output.

use crate::{BinMapper, ElementMapper, HilbertMapper, LoadBalancedMapper};
use pic_grid::ElementMesh;
use pic_types::{Aabb, PicError, Rank, Result, Vec3};
use serde::{Deserialize, Serialize};

/// Which particle mapping algorithm a configuration selects.
///
/// This is the `mapping algorithm` field of the framework's configuration
/// file (paper Fig 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum MappingAlgorithm {
    /// Particle lives with its containing spectral element (§III-B).
    ElementBased,
    /// Recursive planar-cut particle bins (§III-C).
    BinBased,
    /// Hilbert-ordered even split (related work, ref \[10\]).
    HilbertOrdered,
    /// Weighted element partitioning (related work, ref \[11\]).
    LoadBalanced,
}

impl std::fmt::Display for MappingAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MappingAlgorithm::ElementBased => "element-based",
            MappingAlgorithm::BinBased => "bin-based",
            MappingAlgorithm::HilbertOrdered => "hilbert-ordered",
            MappingAlgorithm::LoadBalanced => "load-balanced",
        };
        f.write_str(s)
    }
}

/// The inverse of `Display`: the names configurations, flags and requests
/// spell the algorithms with.
impl std::str::FromStr for MappingAlgorithm {
    type Err = PicError;

    fn from_str(s: &str) -> Result<MappingAlgorithm> {
        Ok(match s {
            "element-based" => MappingAlgorithm::ElementBased,
            "bin-based" => MappingAlgorithm::BinBased,
            "hilbert-ordered" => MappingAlgorithm::HilbertOrdered,
            "load-balanced" => MappingAlgorithm::LoadBalanced,
            _ => return Err(PicError::config(format!("unknown mapping '{s}'"))),
        })
    }
}

impl MappingAlgorithm {
    /// Construct this algorithm's mapper for `ranks` processors — the one
    /// constructor the application and the generator that mimics it share.
    /// `filter` is the bin-size threshold (bin-based only); every other
    /// algorithm partitions `mesh` and fails without one.
    pub fn mapper(
        self,
        mesh: Option<&ElementMesh>,
        ranks: usize,
        filter: f64,
    ) -> Result<Box<dyn ParticleMapper>> {
        if ranks == 0 {
            return Err(PicError::config(
                "workload generation needs at least one rank",
            ));
        }
        let mesh =
            || mesh.ok_or_else(|| PicError::config(format!("{self} mapping requires a mesh")));
        Ok(match self {
            MappingAlgorithm::BinBased => Box::new(BinMapper::new(ranks, filter)?),
            MappingAlgorithm::ElementBased => Box::new(ElementMapper::new(mesh()?, ranks)?),
            MappingAlgorithm::HilbertOrdered => Box::new(HilbertMapper::new(mesh()?, ranks)?),
            MappingAlgorithm::LoadBalanced => Box::new(LoadBalancedMapper::new(mesh()?, ranks)?),
        })
    }
}

/// Result of mapping one trace sample's particle positions onto processors.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingOutcome {
    /// Residing rank `R_p` of each particle, parallel to the input
    /// positions slice.
    pub ranks: Vec<Rank>,
    /// Spatial region each rank's particle workload occupies at this sample.
    /// Element-based: the rank's (static) element brick. Bin-based: the
    /// rank's bin box (empty for ranks beyond the bin count). The ghost
    /// generator intersects projection-filter spheres against these.
    pub rank_regions: Vec<Aabb>,
    /// Number of particle bins generated at this sample (bin-based mapping
    /// only; `None` for mappings without a bin concept).
    pub bin_count: Option<usize>,
}

impl MappingOutcome {
    /// Per-rank particle counts implied by the assignment.
    pub fn counts(&self, ranks: usize) -> Vec<u32> {
        let mut counts = vec![0u32; ranks];
        for r in &self.ranks {
            counts[r.index()] += 1;
        }
        counts
    }
}

/// Each position's element, the position clamped onto the mesh domain
/// first: the locate the three mesh mappers share, run over x/y/z lanes
/// (`ElementMesh::locate_clamped_soa`).
pub(crate) fn locate_clamped(mesh: &ElementMesh, positions: &[Vec3]) -> Vec<u32> {
    let lane = |axis: usize| -> Vec<f64> { positions.iter().map(|p| p[axis]).collect() };
    let mut elements = Vec::new();
    mesh.locate_clamped_soa(&lane(0), &lane(1), &lane(2), &mut elements);
    elements
}

/// A particle mapping algorithm: assigns every particle of a sample to its
/// residing processor.
///
/// Implementations are stateless across samples (`&self`) so that the
/// workload generator can process trace samples in parallel; any per-sample
/// state (e.g. the bin partition, which CMT-nek recomputes every iteration)
/// is built inside `assign`. A caller assigning one sample under several
/// bin-based configurations walks one [`crate::BinTree`] instead.
pub trait ParticleMapper: Send + Sync {
    /// Short algorithm name for reports and configs.
    fn name(&self) -> &'static str;

    /// Processor count the mapper targets.
    fn ranks(&self) -> usize;

    /// Map one sample's positions to residing ranks.
    fn assign(&self, positions: &[Vec3]) -> MappingOutcome;

    /// The rank regions, when they are the same for every sample (element
    /// mapping's RCB bricks): a caller counting ghosts builds its
    /// [`crate::RankTree`] over them once. `None` where they move with the
    /// particles.
    fn fixed_regions(&self) -> Option<&[Aabb]> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_serde_kebab_case() {
        let s = serde_json::to_string(&MappingAlgorithm::BinBased).unwrap();
        assert_eq!(s, "\"bin-based\"");
        let a: MappingAlgorithm = serde_json::from_str("\"element-based\"").unwrap();
        assert_eq!(a, MappingAlgorithm::ElementBased);
        assert_eq!(
            MappingAlgorithm::HilbertOrdered.to_string(),
            "hilbert-ordered"
        );
    }

    #[test]
    fn from_str_inverts_display_for_every_algorithm() {
        for algorithm in [
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::BinBased,
            MappingAlgorithm::HilbertOrdered,
            MappingAlgorithm::LoadBalanced,
        ] {
            assert_eq!(
                algorithm.to_string().parse::<MappingAlgorithm>().unwrap(),
                algorithm
            );
        }
        for bad in ["nonsense", "Bin-Based", "bin_based", ""] {
            let err = bad.parse::<MappingAlgorithm>().unwrap_err().to_string();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }

    #[test]
    fn mapper_needs_a_rank_and_a_mesh_where_the_algorithm_partitions_one() {
        let mesh = ElementMesh::new(Aabb::unit(), pic_grid::MeshDims::cube(2), 3).unwrap();
        for algorithm in [
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
            MappingAlgorithm::LoadBalanced,
        ] {
            let err = algorithm.mapper(None, 4, 0.1).err().unwrap().to_string();
            assert!(
                err.contains(&format!("{algorithm} mapping requires a mesh")),
                "{err}"
            );
            assert_eq!(algorithm.mapper(Some(&mesh), 4, 0.1).unwrap().ranks(), 4);
            assert!(algorithm.mapper(Some(&mesh), 0, 0.1).is_err());
        }
        assert_eq!(
            MappingAlgorithm::BinBased
                .mapper(None, 4, 0.1)
                .unwrap()
                .ranks(),
            4
        );
        assert!(MappingAlgorithm::BinBased.mapper(None, 0, 0.1).is_err());
    }

    #[test]
    fn outcome_counts() {
        let o = MappingOutcome {
            ranks: vec![Rank::new(0), Rank::new(2), Rank::new(2)],
            rank_regions: vec![Aabb::empty(); 3],
            bin_count: None,
        };
        assert_eq!(o.counts(3), vec![1, 0, 2]);
    }
}
