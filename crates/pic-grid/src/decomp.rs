//! Recursive-coordinate-bisection (RCB) decomposition of elements to ranks.
//!
//! CMT-nek distributes spectral elements with a recursive-bisection
//! algorithm (paper ref \[20\]) that minimizes grid-data exchange between
//! processors. For a structured mesh this reduces to recursively cutting the
//! element *index brick* perpendicular to its (physically) longest axis,
//! splitting the rank budget proportionally, so every rank ends up owning a
//! contiguous rectangular brick of elements.
//!
//! The decomposition answers ownership (`rank_of_element`, for the
//! element-based mapping and computation-load generation) and gives each
//! rank its brick (`rank_region`). Ghosts are not counted here: the replay
//! counts them with the pruned tree joins over these regions, and pic-sim's
//! ground truth asks a `RegionIndex`.

use crate::mesh::ElementMesh;
use pic_types::{Aabb, ElementId, PicError, Rank, Result};
use serde::{Deserialize, Serialize};

/// A brick of element indices, half-open on each axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct IndexBrick {
    lo: [usize; 3],
    hi: [usize; 3],
}

impl IndexBrick {
    fn count(&self) -> usize {
        (0..3).map(|a| self.hi[a] - self.lo[a]).product()
    }

    fn extent(&self, a: usize) -> usize {
        self.hi[a] - self.lo[a]
    }
}

/// Result of decomposing an [`ElementMesh`] onto `R` ranks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RcbDecomposition {
    ranks: usize,
    /// Owning rank of each element, indexed by `ElementId`.
    element_owner: Vec<Rank>,
    /// Physical region (union of owned element boxes) per rank. Ranks that
    /// received no elements (R > N_el) get an empty box.
    rank_regions: Vec<Aabb>,
    /// Number of elements owned by each rank.
    rank_element_counts: Vec<usize>,
}

impl RcbDecomposition {
    /// Decompose `mesh` onto `ranks` processors with uniform element weights.
    ///
    /// Every rank receives a contiguous brick; element counts per rank differ
    /// by at most a small factor governed by the bisection tree (exactly
    /// balanced when `ranks` divides the mesh cleanly).
    pub fn decompose(mesh: &ElementMesh, ranks: usize) -> Result<RcbDecomposition> {
        if ranks == 0 {
            return Err(PicError::config("cannot decompose onto zero ranks"));
        }
        // Cut index proportional to the rank split, at least one layer on
        // each side.
        Ok(Self::bisect(mesh, ranks, |brick, axis, ra, r| {
            let n = brick.extent(axis);
            ((n * ra + r / 2) / r).clamp(1, n - 1)
        }))
    }

    /// Decompose `mesh` onto `ranks` processors balancing per-element
    /// *weights* instead of counts (Zhai et al., paper ref \[11\]: element
    /// load = grid points + residing particles).
    ///
    /// Cuts still fall on whole element layers (bricks stay contiguous),
    /// but each cut position is chosen so the weight on either side is as
    /// close as possible to proportional to its rank share.
    ///
    /// Weights must be non-negative; `weights.len()` must equal the element
    /// count. All-zero bricks fall back to count-proportional cuts.
    pub fn decompose_weighted(
        mesh: &ElementMesh,
        ranks: usize,
        weights: &[f64],
    ) -> Result<RcbDecomposition> {
        if ranks == 0 {
            return Err(PicError::config("cannot decompose onto zero ranks"));
        }
        if weights.len() != mesh.element_count() {
            return Err(PicError::config(format!(
                "got {} weights for {} elements",
                weights.len(),
                mesh.element_count()
            )));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(PicError::config(
                "element weights must be finite and non-negative",
            ));
        }
        Ok(Self::bisect(mesh, ranks, |brick, axis, ra, r| {
            let n = brick.extent(axis);
            // Per-layer weights along the cut axis.
            let mut layer_w = vec![0.0f64; n];
            for iz in brick.lo[2]..brick.hi[2] {
                for iy in brick.lo[1]..brick.hi[1] {
                    for ix in brick.lo[0]..brick.hi[0] {
                        let layer = [ix, iy, iz][axis] - brick.lo[axis];
                        layer_w[layer] += weights[mesh.element_id(ix, iy, iz).index()];
                    }
                }
            }
            let total: f64 = layer_w.iter().sum();
            if total <= 0.0 {
                // no weight anywhere: proportional count cut
                return ((n * ra + r / 2) / r).clamp(1, n - 1);
            }
            // first cut whose left prefix meets the target share,
            // choosing the closer of the two candidates around it
            let target = total * ra as f64 / r as f64;
            let mut prefix = 0.0;
            let mut best = 1usize;
            let mut best_err = f64::INFINITY;
            for (layer, w) in layer_w.iter().enumerate().take(n - 1) {
                prefix += w;
                let err = (prefix - target).abs();
                if err < best_err {
                    best_err = err;
                    best = layer + 1;
                }
            }
            best
        }))
    }

    /// The bisection both decompositions share: cut each brick across its
    /// longest physical axis that has two layers, at the layer `cut(brick,
    /// axis, ra, r)` returns (in `1..extent`) for a rank split `ra : r −
    /// ra`, until a brick has one rank or one element.
    fn bisect(
        mesh: &ElementMesh,
        ranks: usize,
        mut cut: impl FnMut(&IndexBrick, usize, usize, usize) -> usize,
    ) -> RcbDecomposition {
        let dims = mesh.dims();
        let mut d = RcbDecomposition {
            ranks,
            element_owner: vec![Rank::new(0); mesh.element_count()],
            rank_regions: vec![Aabb::empty(); ranks],
            rank_element_counts: vec![0usize; ranks],
        };
        let root = IndexBrick {
            lo: [0, 0, 0],
            hi: [dims.nx, dims.ny, dims.nz],
        };
        let h = mesh.element_size();
        let mut stack: Vec<(IndexBrick, usize, usize)> = vec![(root, 0, ranks)];
        while let Some((brick, rank0, r)) = stack.pop() {
            if r == 1 || brick.count() <= 1 {
                d.assign_leaf(mesh, &brick, rank0);
                continue;
            }
            // Longest physical axis that can still be cut (>= 2 index layers).
            let lengths = [
                brick.extent(0) as f64 * h.x,
                brick.extent(1) as f64 * h.y,
                brick.extent(2) as f64 * h.z,
            ];
            let axis = (0..3)
                .filter(|&a| brick.extent(a) >= 2)
                .max_by(|&a, &b| lengths[a].partial_cmp(&lengths[b]).unwrap())
                .expect("brick with >1 element must have a cuttable axis");
            let ra = r / 2;
            let at = cut(&brick, axis, ra, r);
            let mut left = brick;
            let mut right = brick;
            left.hi[axis] = brick.lo[axis] + at;
            right.lo[axis] = brick.lo[axis] + at;
            stack.push((left, rank0, ra));
            stack.push((right, rank0 + ra, r - ra));
        }
        d
    }

    /// Give `brick` (never empty: every cut leaves a layer on each side)
    /// to rank `rank0`, which no other leaf reaches. The rank's region is
    /// the union of its element boxes, taken from two corners: an
    /// element's corners are `domain.min + i·h` and that plus `h`, both
    /// monotone in the index `i` because rounding is, so the first element
    /// holds the union's min corner and the last its max corner, bit for
    /// bit (the domain is finite, so there is no NaN for `f64::min` to
    /// drop).
    fn assign_leaf(&mut self, mesh: &ElementMesh, brick: &IndexBrick, rank0: usize) {
        let rank = Rank::from_index(rank0);
        let [x0, x1] = [brick.lo[0], brick.hi[0]];
        for iz in brick.lo[2]..brick.hi[2] {
            for iy in brick.lo[1]..brick.hi[1] {
                let row = mesh.element_id(x0, iy, iz).index();
                self.element_owner[row..row + (x1 - x0)].fill(rank);
            }
        }
        let first = mesh.element_aabb(mesh.element_id(x0, brick.lo[1], brick.lo[2]));
        let last = mesh.element_aabb(mesh.element_id(x1 - 1, brick.hi[1] - 1, brick.hi[2] - 1));
        self.rank_regions[rank0] = Aabb::new(first.min, last.max);
        self.rank_element_counts[rank0] = brick.count();
    }

    /// Number of ranks the mesh was decomposed onto.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Owning rank of element `id`.
    #[inline]
    pub fn rank_of_element(&self, id: ElementId) -> Rank {
        self.element_owner[id.index()]
    }

    /// Physical region owned by `rank` (empty box if the rank owns nothing).
    pub fn rank_region(&self, rank: Rank) -> Aabb {
        self.rank_regions[rank.index()]
    }

    /// Number of elements owned by `rank` — the paper's per-rank `N_el`.
    pub fn elements_on_rank(&self, rank: Rank) -> usize {
        self.rank_element_counts[rank.index()]
    }

    /// Per-rank element counts for all ranks.
    pub fn element_counts(&self) -> &[usize] {
        &self.rank_element_counts
    }

    /// All element ids owned by `rank` (O(N_el) scan; intended for tests and
    /// setup, not hot loops).
    pub fn elements_of_rank(&self, rank: Rank) -> Vec<ElementId> {
        self.element_owner
            .iter()
            .enumerate()
            .filter(|&(_i, &r)| r == rank)
            .map(|(i, &_r)| ElementId::from_index(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshDims;
    use pic_types::Vec3;
    use proptest::prelude::*;

    fn mesh(n: usize) -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(n), 5).unwrap()
    }

    /// `decompose_weighted` as it was before its leaves took their box from
    /// two corners, kept verbatim as the oracle of both decompositions:
    /// one `element_aabb` union per element.
    fn decompose_weighted_reference(
        mesh: &ElementMesh,
        ranks: usize,
        weights: &[f64],
    ) -> Result<RcbDecomposition> {
        if ranks == 0 {
            return Err(PicError::config("cannot decompose onto zero ranks"));
        }
        if weights.len() != mesh.element_count() {
            return Err(PicError::config(format!(
                "got {} weights for {} elements",
                weights.len(),
                mesh.element_count()
            )));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(PicError::config(
                "element weights must be finite and non-negative",
            ));
        }
        let dims = mesh.dims();
        let mut element_owner = vec![Rank::new(0); mesh.element_count()];
        let mut rank_regions = vec![Aabb::empty(); ranks];
        let mut rank_element_counts = vec![0usize; ranks];

        let root = IndexBrick {
            lo: [0, 0, 0],
            hi: [dims.nx, dims.ny, dims.nz],
        };
        let h = mesh.element_size();
        let mut stack: Vec<(IndexBrick, usize, usize)> = vec![(root, 0, ranks)];
        while let Some((brick, rank0, r)) = stack.pop() {
            if r == 1 || brick.count() <= 1 {
                let rank = Rank::from_index(rank0);
                for iz in brick.lo[2]..brick.hi[2] {
                    for iy in brick.lo[1]..brick.hi[1] {
                        for ix in brick.lo[0]..brick.hi[0] {
                            let id = mesh.element_id(ix, iy, iz);
                            element_owner[id.index()] = rank;
                            let b = mesh.element_aabb(id);
                            rank_regions[rank0] = rank_regions[rank0].union(&b);
                            rank_element_counts[rank0] += 1;
                        }
                    }
                }
                continue;
            }
            let lengths = [
                brick.extent(0) as f64 * h.x,
                brick.extent(1) as f64 * h.y,
                brick.extent(2) as f64 * h.z,
            ];
            let axis = (0..3)
                .filter(|&a| brick.extent(a) >= 2)
                .max_by(|&a, &b| lengths[a].partial_cmp(&lengths[b]).unwrap())
                .expect("brick with >1 element must have a cuttable axis");
            let ra = r / 2;
            let rb = r - ra;
            let n = brick.extent(axis);

            // Per-layer weights along the cut axis.
            let mut layer_w = vec![0.0f64; n];
            for iz in brick.lo[2]..brick.hi[2] {
                for iy in brick.lo[1]..brick.hi[1] {
                    for ix in brick.lo[0]..brick.hi[0] {
                        let layer = [ix, iy, iz][axis] - brick.lo[axis];
                        layer_w[layer] += weights[mesh.element_id(ix, iy, iz).index()];
                    }
                }
            }
            let total: f64 = layer_w.iter().sum();
            let cut = if total <= 0.0 {
                // no weight anywhere: proportional count cut
                ((n * ra + r / 2) / r).clamp(1, n - 1)
            } else {
                // first cut whose left prefix meets the target share,
                // choosing the closer of the two candidates around it
                let target = total * ra as f64 / r as f64;
                let mut prefix = 0.0;
                let mut best = 1usize;
                let mut best_err = f64::INFINITY;
                for (layer, w) in layer_w.iter().enumerate().take(n - 1) {
                    prefix += w;
                    let err = (prefix - target).abs();
                    if err < best_err {
                        best_err = err;
                        best = layer + 1;
                    }
                }
                best
            };
            let mut left = brick;
            let mut right = brick;
            left.hi[axis] = brick.lo[axis] + cut;
            right.lo[axis] = brick.lo[axis] + cut;
            stack.push((left, rank0, ra));
            stack.push((right, rank0 + ra, rb));
        }

        Ok(RcbDecomposition {
            ranks,
            element_owner,
            rank_regions,
            rank_element_counts,
        })
    }

    fn box_bits(b: &Aabb) -> [u64; 6] {
        let (lo, hi) = (b.min.to_array(), b.max.to_array());
        [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]].map(f64::to_bits)
    }

    fn assert_same(
        new: &RcbDecomposition,
        old: &RcbDecomposition,
    ) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(new.ranks, old.ranks);
        prop_assert_eq!(&new.element_owner, &old.element_owner);
        prop_assert_eq!(&new.rank_element_counts, &old.rank_element_counts);
        prop_assert_eq!(
            new.rank_regions.iter().map(box_bits).collect::<Vec<_>>(),
            old.rank_regions.iter().map(box_bits).collect::<Vec<_>>()
        );
        Ok(())
    }

    /// A mesh with a negative, positive or zero-straddling origin (the
    /// corner `-0.0` included) and a non-cubic shape.
    fn skewed_mesh() -> impl Strategy<Value = ElementMesh> {
        (
            (
                prop_oneof![-3.0..3.0f64, Just(-0.0), Just(0.0), Just(-1e6)],
                -3.0..3.0f64,
                -3.0..3.0f64,
            ),
            (0.01..5.0f64, 0.01..5.0f64, 0.01..5.0f64),
            (1usize..10, 1usize..10, 1usize..10),
        )
            .prop_map(|(lo, ext, (nx, ny, nz))| {
                let min = Vec3::new(lo.0, lo.1, lo.2);
                let domain = Aabb::new(min, min + Vec3::new(ext.0, ext.1, ext.2));
                ElementMesh::new(domain, MeshDims::new(nx, ny, nz), 3).unwrap()
            })
    }

    proptest! {
        #[test]
        fn leaf_boxes_match_per_element_union_oracle(
            mesh in skewed_mesh(),
            // up to more ranks than the mesh has elements
            ranks in 1usize..1200,
            // zero, sparse and dense weights (a zero total falls back to
            // the count cut)
            weights in proptest::collection::vec(
                prop_oneof![Just(0.0f64), 0.0..100.0f64, Just(1e6)],
                1000,
            ),
            zero in any::<bool>(),
        ) {
            let weights: Vec<f64> = weights
                .iter()
                .cycle()
                .take(mesh.element_count())
                .map(|&w| if zero { 0.0 } else { w })
                .collect();
            let reference = |w: &[f64]| decompose_weighted_reference(&mesh, ranks, w).unwrap();
            assert_same(
                &RcbDecomposition::decompose_weighted(&mesh, ranks, &weights).unwrap(),
                &reference(&weights),
            )?;
            // All-zero weights make every cut the count-proportional one,
            // so the oracle covers `decompose` too.
            let zeros = vec![0.0; mesh.element_count()];
            assert_same(&RcbDecomposition::decompose(&mesh, ranks).unwrap(), &reference(&zeros))?;
        }
    }

    #[test]
    fn zero_ranks_is_error() {
        assert!(RcbDecomposition::decompose(&mesh(2), 0).is_err());
    }

    #[test]
    fn single_rank_owns_everything() {
        let m = mesh(3);
        let d = RcbDecomposition::decompose(&m, 1).unwrap();
        assert_eq!(d.ranks(), 1);
        assert_eq!(d.elements_on_rank(Rank::new(0)), 27);
        assert_eq!(d.rank_region(Rank::new(0)), m.domain());
    }

    #[test]
    fn every_element_is_owned_exactly_once() {
        let m = mesh(4);
        for r in [2, 3, 5, 8, 16, 64] {
            let d = RcbDecomposition::decompose(&m, r).unwrap();
            let total: usize = d.element_counts().iter().sum();
            assert_eq!(total, m.element_count(), "ranks={r}");
        }
    }

    #[test]
    fn power_of_two_split_is_exactly_balanced() {
        let m = mesh(4); // 64 elements
        let d = RcbDecomposition::decompose(&m, 8).unwrap();
        for r in Rank::all(8) {
            assert_eq!(d.elements_on_rank(r), 8);
        }
    }

    #[test]
    fn uneven_ranks_stay_nearly_balanced() {
        let m = mesh(6); // 216 elements
        let d = RcbDecomposition::decompose(&m, 5).unwrap();
        let counts = d.element_counts();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(max / min <= 2.0, "counts {counts:?}");
    }

    #[test]
    fn more_ranks_than_elements_leaves_spares_empty() {
        let m = mesh(2); // 8 elements
        let d = RcbDecomposition::decompose(&m, 16).unwrap();
        let owned: usize = d.element_counts().iter().filter(|&&c| c > 0).count();
        assert_eq!(owned, 8);
        let total: usize = d.element_counts().iter().sum();
        assert_eq!(total, 8);
        // empty ranks report empty regions
        let empty_rank = Rank::all(16).find(|&r| d.elements_on_rank(r) == 0).unwrap();
        assert!(d.rank_region(empty_rank).is_empty());
    }

    #[test]
    fn regions_are_disjoint_bricks() {
        let m = mesh(4);
        let d = RcbDecomposition::decompose(&m, 8).unwrap();
        // Region volumes must sum to the domain volume (bricks tile).
        let v: f64 = Rank::all(8).map(|r| d.rank_region(r).volume()).sum();
        assert!((v - m.domain().volume()).abs() < 1e-12);
        // Every owned element's box must be inside its rank region.
        for id in m.element_ids() {
            let r = d.rank_of_element(id);
            let eb = m.element_aabb(id);
            let rb = d.rank_region(r);
            assert!(rb.contains_closed(eb.min) && rb.contains_closed(eb.max));
        }
    }

    #[test]
    fn elements_of_rank_consistent_with_counts() {
        let m = mesh(3);
        let d = RcbDecomposition::decompose(&m, 4).unwrap();
        for r in Rank::all(4) {
            assert_eq!(d.elements_of_rank(r).len(), d.elements_on_rank(r));
        }
    }

    #[test]
    fn weighted_decomposition_balances_hot_corner() {
        // all weight in one corner octant: the weighted cuts must slice the
        // hot corner across ranks instead of splitting element counts evenly
        let m = mesh(8); // 512 elements
        let mut weights = vec![0.0f64; m.element_count()];
        for id in m.element_ids() {
            let c = m.element_aabb(id).center();
            if c.x < 0.25 && c.y < 0.25 && c.z < 0.25 {
                weights[id.index()] = 100.0;
            } else {
                weights[id.index()] = 1.0;
            }
        }
        let uniform = RcbDecomposition::decompose(&m, 8).unwrap();
        let weighted = RcbDecomposition::decompose_weighted(&m, 8, &weights).unwrap();
        let imb = |d: &RcbDecomposition| {
            let mut w = vec![0.0; d.ranks()];
            for (i, &r) in d.element_owner.iter().enumerate() {
                w[r.index()] += weights[i];
            }
            let max = w.iter().cloned().fold(0.0f64, f64::max);
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            max / mean
        };
        assert!(
            imb(&weighted) < imb(&uniform) * 0.5,
            "weighted {} vs uniform {}",
            imb(&weighted),
            imb(&uniform)
        );
        // still a complete decomposition
        let total: usize = weighted.element_counts().iter().sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn weighted_decomposition_validates_inputs() {
        let m = mesh(2);
        assert!(RcbDecomposition::decompose_weighted(&m, 0, &[1.0; 8]).is_err());
        assert!(RcbDecomposition::decompose_weighted(&m, 2, &[1.0; 7]).is_err());
        assert!(RcbDecomposition::decompose_weighted(&m, 2, &[-1.0; 8]).is_err());
        assert!(RcbDecomposition::decompose_weighted(&m, 2, &[f64::NAN; 8]).is_err());
    }

    #[test]
    fn weighted_with_uniform_weights_matches_count_balance() {
        let m = mesh(4);
        let d = RcbDecomposition::decompose_weighted(&m, 8, &vec![1.0; 64]).unwrap();
        for r in Rank::all(8) {
            assert_eq!(d.elements_on_rank(r), 8);
        }
    }

    #[test]
    fn weighted_all_zero_weights_falls_back() {
        let m = mesh(4);
        let d = RcbDecomposition::decompose_weighted(&m, 4, &vec![0.0; 64]).unwrap();
        let total: usize = d.element_counts().iter().sum();
        assert_eq!(total, 64);
        assert!(d.element_counts().iter().all(|&c| c > 0));
    }
}
