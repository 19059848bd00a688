//! Ghost counting for the mesh mappings (element, Hilbert, load-balanced)
//! over a binary tree of rank ranges.
//!
//! Node 0 holds the ranks `0..R`; a node of two or more ranks `lo..hi`
//! splits at `lo + (hi − lo)/2`, which is RCB's `ra = r/2` rank split
//! (`pic_grid::RcbDecomposition`), so under the element and load-balanced
//! mappings each node is an RCB brick; under Hilbert mapping a node is a
//! run of consecutive curve chunks. A leaf is one rank.
//!
//! Each node has two boxes. Its *region box* Q is the union of its ranks'
//! live regions; [`RankTree::new`] builds that half once per set of
//! regions, so a mapping whose regions do not move (element) builds it
//! once and reuses it for every sample. Its *particle box* P is the tight
//! box of the particles its ranks own: [`RankTree::ghost_counts`] sorts a
//! sample's particles by owner (a counting sort, so each rank's particles
//! are one contiguous run of records and a node's are the run of its rank
//! range) and folds P bottom-up. P comes from the particles, not from the
//! regions: a particle outside the mesh is clamped into a boundary element
//! and so lies outside its rank's region.
//!
//! The directed pruned join of `join.rs` then drops a pair (a, b) as soon
//! as `box_gap_sq(P_a, Q_b)` exceeds the largest squared radius. A leaf
//! pair h ≠ t tests h's records against t's region with the compare-select
//! `d²` at every radius of the list, which is monotone in the radius, so
//! one join serves all of them. Where P is Q at every node, bit for bit
//! (Hilbert regions are particle hulls), the pruning test is symmetric and
//! the join runs symmetric, testing each leaf pair both ways.

use crate::join::{box_gap_sq, dist_sq, near_leaf_pairs};
use pic_types::{Aabb, Rank, Vec3};

/// One node: the ranks `lo..hi`, and for two or more ranks the first of
/// its two adjacent children (the root, node 0, is no node's child, so
/// `0` marks a leaf).
#[derive(Debug, Clone, Copy)]
struct Node {
    lo: u32,
    hi: u32,
    left: u32,
}

/// The region half of a rank tree: the rank-range nodes and each one's
/// region box Q.
#[derive(Debug, Clone)]
pub struct RankTree {
    nodes: Vec<Node>,
    /// Q, parallel to `nodes`: the union of the live regions of the node's
    /// ranks (`Aabb::empty()` where there are none).
    regions: Vec<Aabb>,
}

impl RankTree {
    /// The tree over `regions`, rank `i`'s region being `regions[i]`.
    /// Node ids are `u32`: at most `2³¹` ranks.
    pub fn new(regions: &[Aabb]) -> RankTree {
        let ranks = u32::try_from(regions.len())
            .ok()
            .filter(|&r| r <= 1 << 31)
            .expect("a rank tree holds at most 2^31 ranks");
        let mut nodes = Vec::with_capacity((2 * ranks as usize).saturating_sub(1));
        if ranks > 0 {
            nodes.push(Node {
                lo: 0,
                hi: ranks,
                left: 0,
            });
        }
        // Breadth first: a node's children come after it.
        let mut i = 0;
        while i < nodes.len() {
            let Node { lo, hi, .. } = nodes[i];
            if hi - lo >= 2 {
                let mid = lo + (hi - lo) / 2;
                nodes[i].left = nodes.len() as u32;
                nodes.push(Node {
                    lo,
                    hi: mid,
                    left: 0,
                });
                nodes.push(Node {
                    lo: mid,
                    hi,
                    left: 0,
                });
            }
            i += 1;
        }
        let mut boxes = vec![Aabb::empty(); nodes.len()];
        for (i, n) in nodes.iter().enumerate().rev() {
            boxes[i] = match (n.left, regions[n.lo as usize]) {
                (0, r) if r.is_empty() => Aabb::empty(),
                (0, r) => r,
                (l, _) => boxes[l as usize].union(&boxes[l as usize + 1]),
            };
        }
        RankTree {
            nodes,
            regions: boxes,
        }
    }

    /// Per-rank ghost `(recv, sent)` histograms of one sample at each of
    /// `radii` (any order, duplicates allowed), in `radii` order: for every
    /// particle and every rank other than its owner whose live region lies
    /// within `d² ≤ r²` of it, one receive on that rank and one send on the
    /// owner. `owners[i]` is particle `i`'s rank, which must be one of the
    /// tree's. An infinite radius reaches every live region, as it does in
    /// the region index; a NaN or negative one counts nothing. A particle
    /// with a NaN or infinite coordinate is never a ghost, at any radius,
    /// as in the region index, where its query box is malformed. The join
    /// never prunes a region
    /// within reach of a particle, and integer sums commute, so the
    /// histograms are bit for bit those of a region index queried per
    /// particle. It runs on the calling thread; the replay drivers run
    /// samples in parallel.
    pub fn ghost_counts(
        &self,
        positions: &[Vec3],
        owners: &[Rank],
        radii: &[f64],
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let ranks = self.nodes.first().map_or(0, |n| n.hi as usize);
        let mut out = vec![(vec![0u32; ranks], vec![0u32; ranks]); radii.len()];
        let rr: Vec<f64> = (radii.iter())
            .map(|&r| if r < 0.0 { f64::NAN } else { r * r })
            .collect();
        // The largest squared radius; `-∞` when no radius counts.
        let reach = (rr.iter()).fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        if ranks == 0 || reach < 0.0 {
            return out;
        }
        // Counting sort of the finite particles by owner: rank `t`'s
        // records are `start[t]..start[t + 1]`.
        let finite = || (positions.iter().zip(owners)).filter(|(p, _)| p.is_finite());
        let mut start = vec![0u32; ranks + 1];
        for (_, o) in finite() {
            start[o.index() + 1] += 1;
        }
        for t in 0..ranks {
            start[t + 1] += start[t];
        }
        let mut next = start.clone();
        let mut records = vec![[0.0f64; 3]; start[ranks] as usize];
        for (p, o) in finite() {
            let at = &mut next[o.index()];
            records[*at as usize] = p.to_array();
            *at += 1;
        }
        let of_rank = |t: u32| &records[start[t as usize] as usize..start[t as usize + 1] as usize];
        // P, bottom-up: a leaf's tight box, a parent's the union of its
        // children's.
        let mut particles = vec![Aabb::empty(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate().rev() {
            particles[i] = match n.left {
                0 => tight_box(of_rank(n.lo)),
                l => particles[l as usize].union(&particles[l as usize + 1]),
            };
        }
        let split = |n: u32| match self.nodes[n as usize].left {
            0 => None,
            l => Some([l, l + 1]),
        };
        // Where every node's particle box is its region box bit for bit (a
        // Hilbert rank's region is the hull of its particles), `near` below
        // is symmetric, so the symmetric join reaches each unordered pair
        // of leaves once and counts both directions.
        let symmetric =
            (particles.iter().zip(&self.regions)).all(|(p, q)| box_bits(p) == box_bits(q));
        // A node whose ranks have no live region is pruned on its own: at
        // an infinite radius its infinite gap is within reach. A symmetric
        // pair counts towards either node, so both must be live.
        let live = |n: u32| !self.regions[n as usize].is_empty();
        let near = |a: u32, b: u32| {
            box_gap_sq(&particles[a as usize], &self.regions[b as usize]) <= reach
                && live(b)
                && (!symmetric || live(a))
        };
        // The squared radii in blocks of four, padded with NaN, which no
        // `d²` meets: a block's hit counts stay in registers.
        let blocks: Vec<[f64; 4]> = (rr.chunks(4))
            .map(|c| std::array::from_fn(|i| c.get(i).copied().unwrap_or(f64::NAN)))
            .collect();
        let mut count = |a: u32, b: u32| {
            let (h, t) = (self.nodes[a as usize].lo, self.nodes[b as usize].lo);
            let (records, region) = (of_rank(h), &self.regions[b as usize]);
            for (block, out) in blocks.iter().zip(out.chunks_mut(4)) {
                let mut hits = [0u32; 4];
                for &p in records {
                    let d = dist_sq(p, region);
                    for (n, &r) in hits.iter_mut().zip(block) {
                        *n += u32::from(d <= r);
                    }
                }
                for ((recv, sent), n) in out.iter_mut().zip(hits) {
                    recv[t as usize] += n;
                    sent[h as usize] += n;
                }
            }
        };
        if symmetric {
            near_leaf_pairs::<true>(split, near, |a, b| {
                count(a, b);
                count(b, a);
            });
        } else {
            near_leaf_pairs::<false>(split, near, count);
        }
        out
    }
}

/// A box's six coordinates as bits: `-0.0` and `0.0` differ, and a NaN
/// equals itself.
fn box_bits(b: &Aabb) -> [u64; 6] {
    let (lo, hi) = (b.min.to_array(), b.max.to_array());
    [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]].map(f64::to_bits)
}

/// Tight box of `records` by a compare-select fold; `Aabb::empty()` for
/// none.
fn tight_box(records: &[[f64; 3]]) -> Aabb {
    let (mut min, mut max) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
    for r in records {
        for axis in 0..3 {
            let c = r[axis];
            min[axis] = if c < min[axis] { c } else { min[axis] };
            max[axis] = if c > max[axis] { c } else { max[axis] };
        }
    }
    Aabb {
        min: Vec3::from_array(min),
        max: Vec3::from_array(max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_grid::{ElementMesh, MeshDims, RcbDecomposition};
    use pic_types::rng::SplitMix64;
    use proptest::prelude::*;

    /// The RCB recursion's nodes as `(rank0, r)` rank ranges: the root
    /// `(0, R)`, and below a node of two or more ranks `(rank0, r/2)` and
    /// `(rank0 + r/2, r − r/2)`, as `RcbDecomposition::bisect` splits them.
    fn rcb_nodes(ranks: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut stack = vec![(0, ranks)];
        while let Some((rank0, r)) = stack.pop() {
            out.push((rank0, r));
            if r >= 2 {
                stack.push((rank0, r / 2));
                stack.push((rank0 + r / 2, r - r / 2));
            }
        }
        out.sort_unstable();
        out
    }

    /// Each node of the tree over `decomp`'s regions is one of the RCB
    /// recursion's rank ranges, a leaf exactly when it is one rank; the
    /// elements its ranks own form one index brick (or none), and its Q is
    /// bit for bit the union of their element boxes, the RCB brick's box.
    fn check_against_rcb(mesh: &ElementMesh, decomp: &RcbDecomposition) {
        let ranks = decomp.ranks();
        let regions: Vec<Aabb> = Rank::all(ranks).map(|r| decomp.rank_region(r)).collect();
        let tree = RankTree::new(&regions);
        let mut got: Vec<(usize, usize)> = (tree.nodes.iter())
            .map(|n| (n.lo as usize, (n.hi - n.lo) as usize))
            .collect();
        got.sort_unstable();
        assert_eq!(got, rcb_nodes(ranks));
        for (n, q) in tree.nodes.iter().zip(&tree.regions) {
            assert_eq!(n.left == 0, n.hi - n.lo == 1);
            let elements: Vec<_> = (n.lo..n.hi)
                .flat_map(|r| decomp.elements_of_rank(Rank::new(r)))
                .collect();
            let union =
                (elements.iter()).fold(Aabb::empty(), |u, &e| u.union(&mesh.element_aabb(e)));
            assert_eq!(box_bits(q), box_bits(&union), "ranks {}..{}", n.lo, n.hi);
            let (mut lo, mut hi) = ([usize::MAX; 3], [0usize; 3]);
            for &e in &elements {
                let (x, y, z) = mesh.element_indices(e);
                for (a, i) in [x, y, z].into_iter().enumerate() {
                    lo[a] = lo[a].min(i);
                    hi[a] = hi[a].max(i + 1);
                }
            }
            let brick: usize = (0..3).map(|a| hi[a].saturating_sub(lo[a])).product();
            assert_eq!(
                brick,
                elements.len(),
                "ranks {}..{} own no brick",
                n.lo,
                n.hi
            );
        }
    }

    #[test]
    fn nodes_and_region_boxes_are_the_rcb_recursions() {
        let mut rng = SplitMix64::new(3);
        for (dims, ranks) in [
            (MeshDims::cube(4), 8),
            (MeshDims::new(5, 3, 2), 7),
            (MeshDims::new(6, 4, 3), 13),
            // More ranks than elements: RCB stops at one-element bricks and
            // leaves ranks with empty regions.
            (MeshDims::new(3, 2, 1), 11),
            (MeshDims::cube(2), 1),
        ] {
            let mesh = ElementMesh::new(Aabb::unit(), dims, 3).unwrap();
            check_against_rcb(&mesh, &RcbDecomposition::decompose(&mesh, ranks).unwrap());
            let weights: Vec<f64> = (0..mesh.element_count())
                .map(|_| (rng.next_below(4) * rng.next_below(30)) as f64)
                .collect();
            let weighted = RcbDecomposition::decompose_weighted(&mesh, ranks, &weights).unwrap();
            check_against_rcb(&mesh, &weighted);
        }
    }

    /// Every particle against every live region but its owner's; a
    /// negative radius reaches nothing, as in the region index.
    fn brute(
        positions: &[Vec3],
        owners: &[Rank],
        regions: &[Aabb],
        radii: &[f64],
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let ranks = regions.len();
        (radii.iter())
            .map(|&r| {
                let (mut recv, mut sent) = (vec![0u32; ranks], vec![0u32; ranks]);
                for (&p, h) in positions.iter().zip(owners) {
                    for (t, b) in regions.iter().enumerate() {
                        if t != h.index() && r >= 0.0 && b.intersects_sphere(p, r) {
                            recv[t] += 1;
                            sent[h.index()] += 1;
                        }
                    }
                }
                (recv, sent)
            })
            .collect()
    }

    /// A lattice coordinate (faces and particles coincide), or any.
    fn coord() -> impl Strategy<Value = f64> {
        prop_oneof![(0u32..9).prop_map(|q| f64::from(q) / 8.0), -0.2..1.2f64]
    }

    fn point() -> impl Strategy<Value = Vec3> {
        (coord(), coord(), coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn ghost_counts_are_every_particle_against_every_other_region(
            regions in proptest::collection::vec(
                (point(), point(), 0u8..4).prop_map(|(a, b, k)| match k {
                    0 => Aabb::empty(),
                    _ => Aabb::new(a.min(b), a.max(b)),
                }),
                1..40,
            ),
            particles in proptest::collection::vec((point(), any::<u32>()), 0..200),
            // Up to two blocks of four radii, repeats and a negative one
            // (which counts nothing) included.
            radii in proptest::collection::vec(
                prop_oneof![0.0..0.3f64, Just(0.0), Just(0.125), Just(0.25), Just(5.0), Just(-0.5)],
                1..9,
            ),
        ) {
            // Owners are arbitrary: particles lie inside, beside or far
            // from their own rank's region, as clamped ones do.
            let ranks = regions.len();
            let positions: Vec<Vec3> = particles.iter().map(|&(p, _)| p).collect();
            let owners: Vec<Rank> = (particles.iter())
                .map(|&(_, o)| Rank::from_index(o as usize % ranks))
                .collect();
            let tree = RankTree::new(&regions);
            prop_assert_eq!(
                tree.ghost_counts(&positions, &owners, &radii),
                brute(&positions, &owners, &regions, &radii)
            );
        }
    }

    proptest! {
        /// Every rank's region is the hull of its own particles, as under
        /// Hilbert mapping, so the join runs symmetric; ranks without a
        /// particle have no region, which an infinite radius reaches.
        #[test]
        fn ghost_counts_over_particle_hulls_are_brute_force(
            ranks in 1usize..40,
            particles in proptest::collection::vec((point(), any::<u32>()), 0..200),
            radii in proptest::collection::vec(
                prop_oneof![
                    0.0..0.3f64,
                    Just(0.0),
                    Just(0.125),
                    Just(f64::INFINITY),
                    Just(-0.5)
                ],
                1..9,
            ),
        ) {
            let positions: Vec<Vec3> = particles.iter().map(|&(p, _)| p).collect();
            let owners: Vec<Rank> = (particles.iter())
                .map(|&(_, o)| Rank::from_index(o as usize % ranks))
                .collect();
            let regions: Vec<Aabb> = Rank::all(ranks)
                .map(|r| {
                    let own: Vec<[f64; 3]> = (positions.iter().zip(&owners))
                        .filter(|(_, o)| **o == r)
                        .map(|(p, _)| p.to_array())
                        .collect();
                    tight_box(&own)
                })
                .collect();
            let tree = RankTree::new(&regions);
            prop_assert_eq!(
                tree.ghost_counts(&positions, &owners, &radii),
                brute(&positions, &owners, &regions, &radii)
            );
        }
    }

    /// Four x-slabs of the unit cube with round-robin owners: faces at
    /// `0.0`, where a compare-select clamp may return the other zero than
    /// `f64::max` (which `dx·dx` erases), and particles no mapper would
    /// place: on signed zeros, far outside, and non-finite (never a ghost,
    /// and never widening a box the join prunes with).
    #[test]
    fn signed_zero_and_non_finite_particles_count_as_brute_force() {
        let regions: Vec<Aabb> = (0..4)
            .map(|r| {
                let lo = f64::from(r) / 4.0;
                Aabb::new(Vec3::new(lo, 0.0, 0.0), Vec3::new(lo + 0.25, 1.0, 1.0))
            })
            .collect();
        let zeros = [-0.0, 0.0, 0.3];
        let mut positions: Vec<Vec3> = (zeros.iter())
            .flat_map(|&a| {
                zeros
                    .iter()
                    .flat_map(move |&b| zeros.map(|c| Vec3::new(a, b, c)))
            })
            .collect();
        positions.extend([
            Vec3::new(1e300, 0.5, 0.5),
            Vec3::new(-1e300, 0.1, 0.9),
            Vec3::new(0.2, -40.0, 0.3),
            Vec3::new(f64::NAN, 0.5, 0.5),
            Vec3::new(f64::INFINITY, 0.1, 0.9),
            Vec3::new(0.2, f64::NEG_INFINITY, 0.3),
            Vec3::new(0.6, 0.5, f64::NAN),
        ]);
        let owners: Vec<Rank> = (0..positions.len())
            .map(|i| Rank::from_index(i % 4))
            .collect();
        let tree = RankTree::new(&regions);
        for radii in [
            &[0.0, 0.1, 0.3][..],
            &[0.3, 0.0],
            &[0.1],
            &[5.0, 0.25, 0.0, 0.1, 0.2],
        ] {
            assert_eq!(
                tree.ghost_counts(&positions, &owners, radii),
                brute(&positions, &owners, &regions, radii),
                "{radii:?}"
            );
        }
        // A rank whose every particle is NaN has an empty particle box.
        let nan = [Vec3::splat(f64::NAN); 3];
        let owners = [Rank::new(1); 3];
        assert_eq!(
            tree.ghost_counts(&nan, &owners, &[5.0]),
            [(vec![0; 4], vec![0; 4])]
        );
    }

    #[test]
    fn a_radius_that_counts_nothing_is_zeros() {
        let regions = [Aabb::unit(), Aabb::new(Vec3::splat(1.0), Vec3::splat(2.0))];
        let tree = RankTree::new(&regions);
        let positions = [Vec3::splat(1.0), Vec3::splat(0.5)];
        let owners = [Rank::new(0), Rank::new(1)];
        let got = tree.ghost_counts(&positions, &owners, &[-1.0, f64::NAN, 0.0]);
        let zeros = (vec![0, 0], vec![0, 0]);
        assert_eq!(got[..2], [zeros.clone(), zeros]);
        // At radius 0 the particle on the shared corner is a ghost of rank
        // 1, and the one inside rank 0's box, owned by rank 1, of rank 0.
        assert_eq!(got[2], (vec![1, 1], vec![1, 1]));
        assert_eq!(
            tree.ghost_counts(&[], &[], &[0.1]),
            [(vec![0, 0], vec![0, 0])]
        );
        assert!(RankTree::new(&[]).ghost_counts(&[], &[], &[0.1])[0]
            .0
            .is_empty());
    }
}
