//! Bin-based particle mapping (paper §III-C, ref \[12\]).
//!
//! The *particle domain* — the tight bounding box of all particles — is
//! recursively cut by axis-aligned planes (each cut at the median particle
//! coordinate along the bin's longest axis) into **bins**. Recursion stops
//! for a bin when either
//!
//! * its size drops to the **bin-size threshold** (CMT-nek reuses the
//!   projection filter size here — paper §IV-D), or
//! * the total number of bins reaches the processor count.
//!
//! Bin `i` is assigned to processor `i`, so when the threshold caps the bin
//! count below the processor count, the surplus processors receive no
//! particle workload at all — the effect behind the flat region of the
//! paper's Fig 5 and the "optimal processor count" analysis of Fig 6.
//!
//! Because particles move every iteration, CMT-nek rebuilds the partition
//! each iteration; accordingly [`BinMapper::assign`] rebuilds it per trace
//! sample.
//!
//! **One tree per sample.** A cut depends only on its bin's particle set,
//! never on the processor count or the threshold: those decide only which
//! bins may split and in what order. So a sample's [`BinTree`] cuts each
//! node at most once, on first demand, and every (processor count,
//! threshold) partition of that sample is a [`BinTree::walk`] over it that
//! touches no particle until it writes owners. The cost model: one tree
//! costs the cuts of the union of its walks (`O(N_p)` per tree level of
//! median selection), and each walk adds `O(bins log bins)` for its heap
//! plus `O(N_p)` to write owners. [`BinMapper::partition`] is a tree plus
//! one walk.
//!
//! **Ghosts over the tree.** A walk marks its frontier: each bin is a tree
//! node whose records are a contiguous range of the buffer. Each node's box
//! is the tight box of its records, so a parent's box contains its
//! children's. [`BinTree::ghost_counts`] joins the frontier with itself by
//! the pruned dual traversal the mesh mappings' [`crate::RankTree`] runs
//! too (`join.rs`), here symmetric, one box per node: a pair of nodes is
//! dropped as soon as their box-to-box `d²` exceeds `r²`, and what remains
//! are the pairs of bins that a particle of one could reach within `r` of
//! the other's box. Each such pair tests one bin's records against the
//! other's box, both ways.

use crate::join::{box_gap_sq, dist_sq, near_leaf_pairs};
use crate::mapper::{MappingOutcome, ParticleMapper};
use pic_types::{Aabb, PicError, Rank, Result, Vec3};

/// Bin-based mapper configuration: processor count and bin-size threshold.
#[derive(Debug, Clone)]
pub struct BinMapper {
    ranks: usize,
    threshold: f64,
}

/// The result of one recursive planar-cut partition.
#[derive(Debug, Clone)]
pub struct BinPartition {
    /// Tight bounding box of each bin's particles.
    pub boxes: Vec<Aabb>,
    /// Number of particles in each bin.
    pub counts: Vec<u32>,
    /// Bin index of each input particle.
    pub assignment: Vec<u32>,
}

impl BinPartition {
    /// Number of bins generated.
    pub fn bin_count(&self) -> usize {
        self.boxes.len()
    }

    /// The mapping outcome of a partition into at most `ranks` bins: bin
    /// `i` is rank `i`'s region, and the ranks past the last bin idle.
    pub fn into_outcome(self, ranks: usize) -> MappingOutcome<'static> {
        let bin_count = self.bin_count();
        let mut rank_regions = self.boxes;
        rank_regions.resize(ranks, Aabb::empty());
        MappingOutcome {
            ranks: self.assignment.iter().map(|&b| Rank::new(b)).collect(),
            rank_regions: rank_regions.into(),
            bin_count: Some(bin_count),
        }
    }
}

/// One particle of the partition buffer: its coordinates travel with its
/// trace index, so cutting a node never gathers through `positions`.
struct Record {
    coords: [f64; 3],
    particle: u32,
}

/// What a node's one cut attempt made of it.
#[derive(Clone, Copy)]
enum Cut {
    /// Not attempted yet.
    Pending,
    /// Split into the nodes `left` and `left + 1`.
    Split(u32),
    /// No axis separates its particles: a final bin under every walk.
    Unsplittable,
}

/// A tree node: the records `lo..hi` of the buffer. Indices are `u32`,
/// as particle ids are, which keeps a node at 64 bytes.
struct Node {
    lo: u32,
    hi: u32,
    bbox: Aabb,
    cut: Cut,
}

impl Node {
    fn new(lo: usize, records: &[Record]) -> Node {
        Node {
            lo: lo as u32,
            hi: (lo + records.len()) as u32,
            bbox: tight_box(records),
            cut: Cut::Pending,
        }
    }

    fn range(&self) -> std::ops::Range<usize> {
        self.lo as usize..self.hi as usize
    }

    fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// One sample's bin tree: a node arena over an in-place record buffer,
/// where a node is cut on first demand and the outcome is kept. A cut
/// permutes only its node's range, and a range is untouched from its
/// creation to its cut, so every node is cut exactly as a lone partition
/// would cut it, whichever walks came first.
pub struct BinTree {
    records: Vec<Record>,
    /// Node 0 is the root (absent for an empty sample); a split node's
    /// children are adjacent.
    nodes: Vec<Node>,
    cuts: usize,
    /// The last walk's bins as nodes: bin `i` is node `frontier[i]`.
    frontier: Vec<u32>,
}

/// The mark of a node that is no bin of the last walk.
const NOT_A_BIN: u32 = u32::MAX;

impl BinTree {
    /// The uncut tree of one sample.
    pub fn new(positions: &[Vec3]) -> BinTree {
        let records: Vec<Record> = (positions.iter().zip(0u32..))
            .map(|(p, particle)| Record {
                coords: p.to_array(),
                particle,
            })
            .collect();
        let nodes = (!records.is_empty())
            .then(|| Node::new(0, &records))
            .into_iter()
            .collect();
        BinTree {
            records,
            nodes,
            cuts: 0,
            frontier: Vec::new(),
        }
    }

    /// Cut attempts made so far, failed ones included: at most one per
    /// node.
    pub fn cuts(&self) -> usize {
        self.cuts
    }

    /// The partition into at most `max_bins` bins at bin-size `threshold`.
    ///
    /// The splitting order is largest-particle-count-first (a max-heap of
    /// `(count, Reverse(slot))`), which both matches the load-balancing
    /// intent and makes the result deterministic: ties break toward the
    /// earlier-created bin. Slots number the bins in this walk's own
    /// creation order, and bin `i` is the `i`-th live slot.
    pub fn walk(&mut self, max_bins: usize, threshold: f64) -> BinPartition {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // A node known to be unsplittable is not pushed: a lone partition
        // pops it, fails to cut it and changes nothing else.
        let splittable = |n: &Node| {
            !matches!(n.cut, Cut::Unsplittable)
                && n.len() >= 2
                && n.bbox.longest_extent() > threshold
        };
        // Slot `i` holds a tree node until it splits; children get new
        // slots, so every heap entry's slot is live and unique. A walk makes
        // at most two slots per bin, so the vector is sized once rather
        // than grown beside the tree's own (growing both fragmented the
        // allocator's heap measurably).
        let bins_cap = max_bins.min(self.records.len());
        let mut slots: Vec<Option<u32>> = Vec::with_capacity(bins_cap.saturating_mul(2));
        let mut heap: BinaryHeap<(usize, Reverse<usize>)> = BinaryHeap::new();
        if let Some(root) = self.nodes.first() {
            slots.push(Some(0));
            if splittable(root) {
                heap.push((root.len(), Reverse(0)));
            }
        }
        let mut bins = slots.len();
        while bins < max_bins {
            let Some((_, Reverse(i))) = heap.pop() else {
                break;
            };
            let node = slots[i].expect("heap entries reference live slots");
            // An unsplittable node stays a final bin and is never retried.
            let Some(left) = self.cut(node) else {
                continue;
            };
            bins += 1;
            slots[i] = None;
            for child in [left, left + 1] {
                let slot = slots.len();
                slots.push(Some(child));
                let child = &self.nodes[child as usize];
                if splittable(child) {
                    heap.push((child.len(), Reverse(slot)));
                }
            }
        }

        self.frontier.clear();
        self.frontier.extend(slots.into_iter().flatten());
        let mut assignment = vec![0u32; self.records.len()];
        let mut boxes = Vec::with_capacity(bins);
        let mut counts = Vec::with_capacity(bins);
        for node in self.frontier.iter().map(|&n| &self.nodes[n as usize]) {
            let b = boxes.len() as u32;
            for r in &self.records[node.range()] {
                assignment[r.particle as usize] = b;
            }
            boxes.push(node.bbox);
            counts.push(node.len() as u32);
        }
        BinPartition {
            boxes,
            counts,
            assignment,
        }
    }

    /// Ghost counting for the last walk's bins at `radius`: adds each
    /// bin's ghost receives and sends to `recv` and `sent`, indexed by rank
    /// (bin `i` is rank `i`; both rows are at least as long as the bin
    /// count).
    ///
    /// For each pair of bins whose boxes lie within `radius`, both ways,
    /// the particles of `h` are tested against `t`'s box, and the hits add
    /// to `recv[t]` and `sent[h]`. Every particle of `h` is owned by `h` and
    /// `t ≠ h`, so no home mask is needed. Bin boxes are the only live
    /// regions (the ranks past the last bin hold none), the join never
    /// prunes a box within `d² ≤ r²` of a particle, and integer sums
    /// commute, so the histograms are bit for bit those of a region index
    /// over the partition's rank regions. Nothing is materialized: no
    /// neighbour lists, no key sort, no copy of the positions. The count
    /// runs on the calling thread; the replay drivers run samples in
    /// parallel.
    pub fn ghost_counts(&self, radius: f64, recv: &mut [u32], sent: &mut [u32]) {
        let rr = radius * radius;
        self.for_each_near_bin_pair(rr, |h, t| {
            let (ht, th) = (self.bin_hits(h, t, rr), self.bin_hits(t, h, rr));
            recv[t] += ht;
            sent[h] += ht;
            recv[h] += th;
            sent[t] += th;
        });
    }

    /// How many of bin `h`'s particles lie within `d² ≤ rr` of bin `t`'s
    /// box, by the join's compare-select `d²` (bit for bit
    /// `Aabb::distance_sq_to_point`), over the bin's contiguous records.
    #[inline]
    fn bin_hits(&self, h: usize, t: usize, rr: f64) -> u32 {
        let b = &self.nodes[self.frontier[t] as usize].bbox;
        let home = &self.nodes[self.frontier[h] as usize];
        let mut hits = 0u32;
        for r in &self.records[home.range()] {
            hits += u32::from(dist_sq(r.coords, b) <= rr);
        }
        hits
    }

    /// Call `visit(h, t)` once for each unordered pair of distinct bins of
    /// the last walk whose boxes lie within `box_gap_sq ≤ rr` of each
    /// other: the symmetric pruned join of the node boxes (`join.rs`), whose
    /// leaves are the walk's bins. An empty sample, or a walk of one bin,
    /// has no pair.
    fn for_each_near_bin_pair(&self, rr: f64, mut visit: impl FnMut(usize, usize)) {
        if self.frontier.is_empty() {
            return;
        }
        let mut bin_of = vec![NOT_A_BIN; self.nodes.len()];
        for (b, &n) in (0u32..).zip(&self.frontier) {
            bin_of[n as usize] = b;
        }
        // A node above the frontier was split by the walk.
        let split = |n: u32| {
            (bin_of[n as usize] == NOT_A_BIN).then(|| match self.nodes[n as usize].cut {
                Cut::Split(left) => [left, left + 1],
                _ => unreachable!("a node above the frontier was split"),
            })
        };
        let near = |a: u32, b: u32| {
            box_gap_sq(&self.nodes[a as usize].bbox, &self.nodes[b as usize].bbox) <= rr
        };
        near_leaf_pairs::<true>(split, near, |a, b| {
            visit(bin_of[a as usize] as usize, bin_of[b as usize] as usize)
        });
    }

    /// Node `id`'s left child, cutting the node on first demand; `None`
    /// when it is unsplittable.
    fn cut(&mut self, id: u32) -> Option<u32> {
        let node = &self.nodes[id as usize];
        match node.cut {
            Cut::Split(left) => return Some(left),
            Cut::Unsplittable => return None,
            Cut::Pending => {}
        }
        self.cuts += 1;
        let range = node.range();
        let left = split(&node.bbox, &mut self.records[range.clone()]).map(|cut| {
            let (l, r) = self.records[range.clone()].split_at(cut);
            let children = [Node::new(range.start, l), Node::new(range.start + cut, r)];
            self.nodes.extend(children);
            (self.nodes.len() - 2) as u32
        });
        self.nodes[id as usize].cut = left.map_or(Cut::Unsplittable, Cut::Split);
        left
    }
}

/// Tight bounding box of `records`, bit for bit the box a fold in ascending
/// particle order gives (the order the trace stores, and the one the
/// partitioner used before the buffer was permuted in place).
///
/// The fold is compare-select (`if c < m { c } else { m }`), which compiles
/// to a bare `minpd`/`maxpd`; `f64::min`/`max` must drop a NaN operand and
/// cannot. The accumulator is never NaN, so both pick the same value for
/// every coordinate, a NaN one included (it is skipped). Either is
/// order-independent except between `-0.0` and `0.0`, which compare equal,
/// so which zero a fold ends on depends on the order it met them in. A
/// face that lands on zero is therefore folded again over just the
/// particles on zero, in particle order, with the oracle's `f64::min`/`max`.
fn tight_box(records: &[Record]) -> Aabb {
    let (mut min, mut max) = ([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]);
    for r in records {
        for axis in 0..3 {
            let c = r.coords[axis];
            min[axis] = if c < min[axis] { c } else { min[axis] };
            max[axis] = if c > max[axis] { c } else { max[axis] };
        }
    }
    for axis in 0..3 {
        if min[axis] == 0.0 || max[axis] == 0.0 {
            let mut zeros: Vec<(u32, f64)> = (records.iter())
                .map(|r| (r.particle, r.coords[axis]))
                .filter(|&(_, c)| c == 0.0)
                .collect();
            zeros.sort_unstable_by_key(|&(particle, _)| particle);
            let zeros = zeros.iter().map(|&(_, c)| c);
            if min[axis] == 0.0 {
                min[axis] = zeros.clone().fold(f64::INFINITY, f64::min);
            }
            if max[axis] == 0.0 {
                max[axis] = zeros.fold(f64::NEG_INFINITY, f64::max);
            }
        }
    }
    Aabb {
        min: Vec3::from_array(min),
        max: Vec3::from_array(max),
    }
}

/// Try to cut a node (`range`, box `bbox`) at the median coordinate of its
/// longest axis; fall back to shorter axes when all particles share a
/// coordinate. Returns how many records, first in the permuted range, go
/// left, or `None` when no axis separates the particles.
fn split(bbox: &Aabb, range: &mut [Record]) -> Option<usize> {
    let e = bbox.extent().to_array();
    let mut axes = [0usize, 1, 2];
    axes.sort_by(|&a, &b| e[b].partial_cmp(&e[a]).expect("finite extents"));
    axes.into_iter().find_map(|axis| {
        // One instance per axis: the selection's comparator is the hot
        // loop, and a constant field offset is worth ~5-10 % of `assign`.
        let cut = match axis {
            0 => cut_below_median::<0>(range),
            1 => cut_below_median::<1>(range),
            _ => cut_below_median::<2>(range),
        };
        (cut > 0).then_some(cut)
    })
}

impl BinMapper {
    /// Create a bin mapper for `ranks` processors with the given bin-size
    /// threshold (must be positive and finite).
    pub fn new(ranks: usize, threshold: f64) -> Result<BinMapper> {
        if ranks == 0 {
            return Err(PicError::config("bin mapper needs at least one rank"));
        }
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(PicError::config(format!(
                "bin-size threshold must be positive and finite, got {threshold}"
            )));
        }
        Ok(BinMapper { ranks, threshold })
    }

    /// The bin-size threshold (projection filter size).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The recursive planar-cut partition of one sample into at most
    /// `max_bins` bins: a fresh [`BinTree`] and one walk over it, so each
    /// node is cut once. Callers partitioning one sample several ways walk
    /// one tree instead.
    pub fn partition(&self, positions: &[Vec3], max_bins: usize) -> BinPartition {
        BinTree::new(positions).walk(max_bins, self.threshold)
    }
}

/// Permute `range` so that the records strictly below its median
/// coordinate along `AXIS` come first; returns how many there are. The
/// rest — the median record and everything `>=` it — is never empty.
fn cut_below_median<const AXIS: usize>(range: &mut [Record]) -> usize {
    let mid = range.len() / 2;
    range.select_nth_unstable_by(mid, |a, b| {
        a.coords[AXIS]
            .partial_cmp(&b.coords[AXIS])
            .expect("finite coords")
    });
    let pivot = range[mid].coords[AXIS];
    // Selection leaves `range[..mid] <= pivot <= range[mid..]`. The cut is
    // "left `< pivot`, right `>= pivot`", so duplicates of the pivot that
    // selection left in front are swapped to the back of that part.
    let (mut i, mut cut) = (0, mid);
    while i < cut {
        if range[i].coords[AXIS] < pivot {
            i += 1;
        } else {
            cut -= 1;
            range.swap(i, cut);
        }
    }
    cut
}

impl ParticleMapper for BinMapper {
    fn name(&self) -> &'static str {
        "bin-based"
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn assign(&self, positions: &[Vec3]) -> MappingOutcome<'_> {
        self.partition(positions, self.ranks)
            .into_outcome(self.ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_types::rng::SplitMix64;
    use proptest::prelude::*;

    fn uniform_cloud(n: usize, half: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-half, half),
                    rng.next_range(-half, half),
                    rng.next_range(-half, half),
                )
            })
            .collect()
    }

    /// The partitioner this module shipped before the in-place one, kept
    /// verbatim as its oracle: per-node index vectors, a stable two-way
    /// scatter per cut, boxes folded in ascending particle order.
    mod reference {
        use crate::bin::BinPartition;
        use pic_types::{Aabb, Vec3};

        pub struct Reference {
            pub threshold: f64,
        }

        /// Working node during partitioning.
        struct Node {
            indices: Vec<u32>,
            bbox: Aabb,
            /// Set once every cut attempt on this node failed (degenerate particle
            /// distribution), so we never retry it.
            unsplittable: bool,
        }

        impl Node {
            fn new(indices: Vec<u32>, positions: &[Vec3]) -> Node {
                let bbox = Aabb::from_points(indices.iter().map(|&i| positions[i as usize]));
                Node {
                    indices,
                    bbox,
                    unsplittable: false,
                }
            }
        }

        impl Reference {
            pub fn partition(&self, positions: &[Vec3], max_bins: usize) -> BinPartition {
                use std::cmp::Reverse;
                use std::collections::BinaryHeap;

                if positions.is_empty() {
                    return BinPartition {
                        boxes: vec![],
                        counts: vec![],
                        assignment: vec![],
                    };
                }
                let all: Vec<u32> = (0..positions.len() as u32).collect();
                // Slots: split nodes are tombstoned (None); children get new slots,
                // so every heap entry's slot index is unique — no stale entries.
                let mut slots: Vec<Option<Node>> = vec![Some(Node::new(all, positions))];
                let mut heap: BinaryHeap<(usize, Reverse<usize>)> = BinaryHeap::new();
                if self.splittable(slots[0].as_ref().expect("root just created")) {
                    heap.push((positions.len(), Reverse(0)));
                }
                let mut bins = 1usize;
                let mut scratch: Vec<f64> = Vec::new();

                while bins < max_bins {
                    let Some((_, Reverse(i))) = heap.pop() else {
                        break;
                    };
                    let node = slots[i]
                        .take()
                        .expect("heap entries reference live slots once");
                    match self.split(&node, positions, &mut scratch) {
                        Some((left, right)) => {
                            bins += 1;
                            for child in [left, right] {
                                let idx = slots.len();
                                let count = child.indices.len();
                                let push = self.splittable(&child);
                                slots.push(Some(child));
                                if push {
                                    heap.push((count, Reverse(idx)));
                                }
                            }
                        }
                        None => {
                            // No axis separates this node's particles: keep it as a
                            // final bin and never retry.
                            let mut node = node;
                            node.unsplittable = true;
                            slots[i] = Some(node);
                        }
                    }
                }

                let mut assignment = vec![0u32; positions.len()];
                let mut boxes = Vec::with_capacity(bins);
                let mut counts = Vec::with_capacity(bins);
                for node in slots.into_iter().flatten() {
                    let b = boxes.len() as u32;
                    for &idx in &node.indices {
                        assignment[idx as usize] = b;
                    }
                    boxes.push(node.bbox);
                    counts.push(node.indices.len() as u32);
                }
                BinPartition {
                    boxes,
                    counts,
                    assignment,
                }
            }

            fn splittable(&self, node: &Node) -> bool {
                !node.unsplittable
                    && node.indices.len() >= 2
                    && node.bbox.longest_extent() > self.threshold
            }

            /// Try to cut `node` at the median coordinate of its longest axis;
            /// fall back to shorter axes when all particles share a coordinate.
            /// Returns `None` when no axis separates the particles.
            fn split(
                &self,
                node: &Node,
                positions: &[Vec3],
                scratch: &mut Vec<f64>,
            ) -> Option<(Node, Node)> {
                let e = node.bbox.extent();
                let mut axes = [0usize, 1, 2];
                axes.sort_by(|&a, &b| {
                    e.to_array()[b]
                        .partial_cmp(&e.to_array()[a])
                        .expect("finite extents")
                });
                for axis in axes {
                    scratch.clear();
                    scratch.extend(node.indices.iter().map(|&i| positions[i as usize][axis]));
                    let mid = scratch.len() / 2;
                    scratch.select_nth_unstable_by(mid, |a, b| {
                        a.partial_cmp(b).expect("finite coords")
                    });
                    let pivot = scratch[mid];
                    let (mut left, mut right) = (Vec::new(), Vec::new());
                    for &i in &node.indices {
                        if positions[i as usize][axis] < pivot {
                            left.push(i);
                        } else {
                            right.push(i);
                        }
                    }
                    if !left.is_empty() && !right.is_empty() {
                        return Some((Node::new(left, positions), Node::new(right, positions)));
                    }
                }
                None
            }
        }
    }

    /// Today's `partition` as it was before the in-place rewrite.
    fn partition_reference(m: &BinMapper, positions: &[Vec3], max_bins: usize) -> BinPartition {
        reference::Reference {
            threshold: m.threshold,
        }
        .partition(positions, max_bins)
    }

    fn box_bits(b: &Aabb) -> [u64; 6] {
        let (lo, hi) = (b.min.to_array(), b.max.to_array());
        [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]].map(f64::to_bits)
    }

    /// New ≡ reference — assignment, counts and box bits — at every
    /// `max_bins` the callers use and at the prefixes `np ∈ {0, 1, 2}`.
    fn check_against_reference(
        positions: &[Vec3],
        ranks: usize,
        threshold: f64,
    ) -> std::result::Result<(), TestCaseError> {
        let m = BinMapper::new(ranks, threshold).unwrap();
        let prefixes = [0, 1, 2, positions.len()].map(|np| &positions[..np.min(positions.len())]);
        for cloud in prefixes {
            for max_bins in [1, 2, ranks, usize::MAX] {
                let new = m.partition(cloud, max_bins);
                let old = partition_reference(&m, cloud, max_bins);
                prop_assert_eq!(&new.assignment, &old.assignment, "max_bins={}", max_bins);
                prop_assert_eq!(&new.counts, &old.counts, "max_bins={}", max_bins);
                prop_assert_eq!(
                    new.boxes.iter().map(box_bits).collect::<Vec<_>>(),
                    old.boxes.iter().map(box_bits).collect::<Vec<_>>(),
                    "max_bins={}",
                    max_bins
                );
            }
        }
        Ok(())
    }

    /// One tree per cloud (and per prefix `np ∈ {0, 1, 2}`), walked over
    /// `walks` in order, then again at the first walk's threshold with no
    /// bin cap, then the first walk repeated: every walk ≡ a lone reference
    /// partition in assignment, counts, box bits and bin count.
    fn check_walks_against_reference(
        positions: &[Vec3],
        walks: &[(usize, f64)],
    ) -> std::result::Result<(), TestCaseError> {
        let mut seq = walks.to_vec();
        seq.push((usize::MAX, walks[0].1));
        seq.push(walks[0]);
        let prefixes = [0, 1, 2, positions.len()].map(|np| &positions[..np.min(positions.len())]);
        for cloud in prefixes {
            let mut tree = BinTree::new(cloud);
            for &(max_bins, threshold) in &seq {
                let new = tree.walk(max_bins, threshold);
                let old = reference::Reference { threshold }.partition(cloud, max_bins);
                let at = format!("max_bins={max_bins} threshold={threshold}");
                prop_assert_eq!(new.bin_count(), old.bin_count(), "{}", &at);
                prop_assert_eq!(&new.assignment, &old.assignment, "{}", &at);
                prop_assert_eq!(&new.counts, &old.counts, "{}", &at);
                prop_assert_eq!(
                    new.boxes.iter().map(box_bits).collect::<Vec<_>>(),
                    old.boxes.iter().map(box_bits).collect::<Vec<_>>(),
                    "{}",
                    &at
                );
            }
        }
        Ok(())
    }

    /// Random `(max_bins, threshold)` walks, `usize::MAX` among the caps.
    fn walks_of(threshold: impl Strategy<Value = f64>) -> impl Strategy<Value = Vec<(usize, f64)>> {
        proptest::collection::vec((prop_oneof![1usize..64, Just(usize::MAX)], threshold), 1..6)
    }

    fn cloud_of(coord: impl Strategy<Value = f64>, max: usize) -> impl Strategy<Value = Vec<Vec3>> {
        proptest::collection::vec(
            (coord.clone(), coord.clone(), coord).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            0..max,
        )
    }

    proptest! {
        #[test]
        fn in_place_partition_matches_reference_on_uniform_clouds(
            positions in cloud_of(-1.0..1.0f64, 400),
            ranks in 1usize..64,
            threshold in 0.001..0.8f64,
            walks in walks_of(0.001..0.8f64),
        ) {
            check_against_reference(&positions, ranks, threshold)?;
            check_walks_against_reference(&positions, &walks)?;
        }

        #[test]
        fn in_place_partition_matches_reference_on_quantised_coordinates(
            // What a compact f32 trace decodes to: few distinct values per
            // axis, so most cuts meet duplicates of their pivot.
            positions in cloud_of((0u32..12).prop_map(|q| f64::from(q as f32 / 11.0)), 400),
            ranks in 1usize..64,
            threshold in 0.001..0.5f64,
            walks in walks_of(0.001..0.5f64),
        ) {
            check_against_reference(&positions, ranks, threshold)?;
            check_walks_against_reference(&positions, &walks)?;
        }

        #[test]
        fn in_place_partition_matches_reference_on_degenerate_clouds(
            line in proptest::collection::vec(0u32..40, 0..200),
            axis in 0usize..3,
            copies in 0usize..100,
            ranks in 1usize..32,
            walks in walks_of(prop_oneof![Just(1e-9), 1e-6..0.5f64]),
        ) {
            let collinear: Vec<Vec3> = line
                .iter()
                .map(|&q| {
                    let mut c = [0.25; 3];
                    c[axis] = f64::from(q) / 40.0;
                    Vec3::from_array(c)
                })
                .collect();
            check_against_reference(&collinear, ranks, 1e-6)?;
            check_against_reference(&vec![Vec3::splat(0.25); copies], ranks, 1e-9)?;
            check_walks_against_reference(&collinear, &walks)?;
            check_walks_against_reference(&vec![Vec3::splat(0.25); copies], &walks)?;
        }

        #[test]
        fn in_place_partition_matches_reference_on_signed_zeros(
            // `-0.0 == 0.0`, so neither a cut nor a min/max tells them
            // apart; only the fold order does. Box bits must still agree.
            positions in cloud_of(
                prop_oneof![Just(-0.0f64), Just(0.0f64), Just(-0.5f64), Just(0.5f64), -1.0..1.0f64],
                120,
            ),
            ranks in 1usize..32,
            threshold in 0.001..0.8f64,
            walks in walks_of(0.001..0.8f64),
        ) {
            check_against_reference(&positions, ranks, threshold)?;
            check_walks_against_reference(&positions, &walks)?;
        }
    }

    /// The self-join of a walk's bins visits exactly the pairs of bins
    /// whose boxes lie within `radius`, each once — after a finer walk has
    /// cut the tree below this walk's frontier, too — and the ghost counts
    /// over it are those of every particle against every other bin's box.
    fn check_join(
        positions: &[Vec3],
        (max_bins, threshold): (usize, f64),
        radius: f64,
    ) -> std::result::Result<(), TestCaseError> {
        let mut tree = BinTree::new(positions);
        tree.walk(usize::MAX, threshold / 4.0);
        let partition = tree.walk(max_bins, threshold);
        let boxes = &partition.boxes;
        prop_assert_eq!(tree.frontier.len(), boxes.len());
        // Per axis, the gap is the overlap interval's length when it is
        // empty: the same value `box_gap_sq` forms, found another way.
        let gap_sq = |a: &Aabb, b: &Aabb| -> f64 {
            let (lo, hi) = (a.min.max(b.min), a.max.min(b.max));
            let g = (lo - hi).max(Vec3::ZERO);
            g.x * g.x + g.y * g.y + g.z * g.z
        };
        let mut expect = Vec::new();
        for i in 0..boxes.len() {
            for j in i + 1..boxes.len() {
                if gap_sq(&boxes[i], &boxes[j]) <= radius * radius {
                    expect.push((i, j));
                }
            }
        }
        let mut got = Vec::new();
        tree.for_each_near_bin_pair(radius * radius, |h, t| got.push((h.min(t), h.max(t))));
        got.sort_unstable();
        prop_assert_eq!(&got, &expect);

        let bins = boxes.len();
        let (mut recv, mut sent) = (vec![0u32; bins], vec![0u32; bins]);
        for (p, &h) in positions.iter().zip(&partition.assignment) {
            for (t, b) in boxes.iter().enumerate() {
                if t != h as usize && b.distance_sq_to_point(*p) <= radius * radius {
                    recv[t] += 1;
                    sent[h as usize] += 1;
                }
            }
        }
        let (mut got_recv, mut got_sent) = (vec![0u32; bins], vec![0u32; bins]);
        tree.ghost_counts(radius, &mut got_recv, &mut got_sent);
        prop_assert_eq!((got_recv, got_sent), (recv, sent));
        Ok(())
    }

    proptest! {
        #[test]
        fn bin_join_visits_exactly_the_near_pairs(
            // Lattice coordinates and radii put box gaps exactly at `r`.
            positions in prop_oneof![
                cloud_of(-1.0..1.0f64, 300),
                cloud_of((0u32..6).prop_map(|q| f64::from(q) / 4.0), 300),
            ],
            max_bins in prop_oneof![1usize..80, Just(usize::MAX)],
            threshold in 0.01..0.5f64,
            radius in prop_oneof![0.0..0.3f64, Just(0.0), Just(0.25), Just(0.5), Just(5.0)],
        ) {
            check_join(&positions, (max_bins, threshold), radius)?;
        }
    }

    #[test]
    fn box_gap_never_exceeds_a_contained_points_distance() {
        // Points on the faces of `a`, against boxes `b` just past `a`'s
        // upper corner, over seven magnitudes.
        let mut rng = SplitMix64::new(12);
        for _ in 0..20_000 {
            let s = 10f64.powi(rng.next_below(7) as i32 - 3);
            let lo = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * s;
            let a = Aabb::new(lo, lo + Vec3::splat(rng.next_f64() * s));
            let p = Vec3::new(
                a.min.x + (a.max.x - a.min.x) * rng.next_f64(),
                if rng.next_below(2) == 0 {
                    a.max.y
                } else {
                    a.min.y
                },
                a.max.z,
            );
            let off = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * s * 0.3;
            let b = Aabb::new(a.max + off, a.max + off + Vec3::splat(s));
            assert!(
                box_gap_sq(&a, &b) <= b.distance_sq_to_point(p),
                "{a} {b} {p}"
            );
        }
    }

    #[test]
    fn each_node_is_cut_once_across_walks() {
        // The unbounded walk at 0.05 cuts every node wider than 0.05, so
        // no walk at that threshold or a coarser one cuts anything new.
        let pos = uniform_cloud(2000, 1.0, 11);
        let mut tree = BinTree::new(&pos);
        let bins = tree.walk(usize::MAX, 0.05).bin_count();
        let cuts = tree.cuts();
        assert!(bins > 64 && cuts >= bins - 1, "{bins} bins, {cuts} cuts");
        for (max_bins, threshold) in [(16, 0.05), (64, 0.05), (64, 0.2), (8, 0.4)] {
            tree.walk(max_bins, threshold);
        }
        assert_eq!(tree.cuts(), cuts);
        tree.walk(usize::MAX, 0.01);
        assert!(tree.cuts() > cuts);
        assert_eq!(BinTree::new(&[]).walk(8, 0.1).bin_count(), 0);
    }

    #[test]
    fn construction_validation() {
        assert!(BinMapper::new(0, 0.1).is_err());
        assert!(BinMapper::new(4, 0.0).is_err());
        assert!(BinMapper::new(4, -1.0).is_err());
        assert!(BinMapper::new(4, f64::NAN).is_err());
        assert!(BinMapper::new(4, 0.1).is_ok());
    }

    #[test]
    fn bins_equal_ranks_for_small_threshold() {
        let m = BinMapper::new(8, 1e-6).unwrap();
        let pos = uniform_cloud(1000, 1.0, 1);
        let out = m.assign(&pos);
        assert_eq!(out.bin_count, Some(8));
        let counts = out.counts(8);
        assert_eq!(counts.iter().sum::<u32>(), 1000);
        // largest-first median splitting keeps bins within 2x of each other
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(min > 0 && max <= 2 * min, "{counts:?}");
    }

    #[test]
    fn huge_threshold_yields_single_bin() {
        let m = BinMapper::new(8, 100.0).unwrap();
        let pos = uniform_cloud(100, 1.0, 2);
        let out = m.assign(&pos);
        assert_eq!(out.bin_count, Some(1));
        assert!(out.ranks.iter().all(|r| r.index() == 0));
        // surplus ranks have empty regions
        for r in 1..8 {
            assert!(out.rank_regions[r].is_empty());
        }
    }

    #[test]
    fn threshold_caps_bin_count_below_ranks() {
        // Cloud of extent 2, threshold 0.9: at most a handful of cuts are
        // possible before every bin is below threshold, regardless of R.
        let m = BinMapper::new(1024, 0.9).unwrap();
        let pos = uniform_cloud(2000, 1.0, 3);
        let out = m.assign(&pos);
        let bins = out.bin_count.unwrap();
        assert!(bins < 1024, "bins={bins}");
        assert_eq!(bins, m.partition(&pos, usize::MAX).bin_count());
    }

    #[test]
    fn particles_lie_in_their_bin_box() {
        let m = BinMapper::new(16, 1e-6).unwrap();
        let pos = uniform_cloud(500, 1.0, 4);
        let part = m.partition(&pos, 16);
        for (i, &b) in part.assignment.iter().enumerate() {
            assert!(part.boxes[b as usize].contains_closed(pos[i]));
        }
        let total: u32 = part.counts.iter().sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn bin_interiors_are_disjoint() {
        let m = BinMapper::new(8, 1e-6).unwrap();
        let pos = uniform_cloud(400, 1.0, 5);
        let part = m.partition(&pos, 8);
        // every particle is inside exactly one bin's box interior-or-boundary
        // and bins separate along cut planes: check pairwise volume overlap
        for a in 0..part.boxes.len() {
            for b in (a + 1)..part.boxes.len() {
                let ba = part.boxes[a];
                let bb = part.boxes[b];
                let lo = ba.min.max(bb.min);
                let hi = ba.max.min(bb.max);
                let overlap =
                    (hi.x - lo.x).max(0.0) * (hi.y - lo.y).max(0.0) * (hi.z - lo.z).max(0.0);
                assert!(overlap < 1e-12, "bins {a},{b} overlap by {overlap}");
            }
        }
    }

    #[test]
    fn expanding_cloud_generates_more_bins() {
        // The Fig 6 mechanism: same threshold, growing particle boundary →
        // monotonically more bins available.
        let m = BinMapper::new(usize::MAX - 1, 0.25).unwrap();
        let mut prev = 0;
        for &half in &[0.1, 0.3, 0.6, 1.2] {
            let pos = uniform_cloud(2000, half, 6);
            let bins = m.partition(&pos, usize::MAX).bin_count();
            assert!(bins >= prev, "half={half} bins={bins} prev={prev}");
            prev = bins;
        }
        assert!(prev > 8);
    }

    #[test]
    fn smaller_threshold_generates_more_bins() {
        // The Fig 10a mechanism.
        let pos = uniform_cloud(3000, 1.0, 7);
        let mut prev = 0usize;
        for &t in &[1.0, 0.5, 0.25, 0.125] {
            let m = BinMapper::new(8, t).unwrap();
            let bins = m.partition(&pos, usize::MAX).bin_count();
            assert!(bins >= prev, "t={t} bins={bins} prev={prev}");
            prev = bins;
        }
        let coarse = BinMapper::new(8, 1.0)
            .unwrap()
            .partition(&pos, usize::MAX)
            .bin_count();
        let fine = BinMapper::new(8, 0.125)
            .unwrap()
            .partition(&pos, usize::MAX)
            .bin_count();
        assert!(fine > coarse);
    }

    #[test]
    fn unbounded_bins_respect_threshold() {
        let m = BinMapper::new(8, 0.3).unwrap();
        let pos = uniform_cloud(1000, 1.0, 8);
        let part = m.partition(&pos, usize::MAX);
        for (b, bx) in part.boxes.iter().enumerate() {
            assert!(
                bx.longest_extent() <= 0.3 || part.counts[b] == 1,
                "bin {b} extent {} count {}",
                bx.longest_extent(),
                part.counts[b]
            );
        }
    }

    #[test]
    fn identical_particles_never_loop() {
        // All particles at one point: no plane separates them; must
        // terminate with a single bin.
        let m = BinMapper::new(8, 1e-9).unwrap();
        let pos = vec![Vec3::splat(0.25); 64];
        let out = m.assign(&pos);
        assert_eq!(out.bin_count, Some(1));
    }

    #[test]
    fn collinear_particles_split_along_their_axis() {
        // Particles on a line along z: x/y cuts impossible, z cuts fine.
        let m = BinMapper::new(4, 1e-6).unwrap();
        let pos: Vec<Vec3> = (0..64)
            .map(|i| Vec3::new(0.5, 0.5, i as f64 / 64.0))
            .collect();
        let out = m.assign(&pos);
        assert_eq!(out.bin_count, Some(4));
        let counts = out.counts(4);
        assert!(counts.iter().all(|&c| c == 16), "{counts:?}");
    }

    #[test]
    fn empty_positions_produce_no_bins() {
        let m = BinMapper::new(4, 0.1).unwrap();
        let out = m.assign(&[]);
        assert_eq!(out.bin_count, Some(0));
        assert!(out.ranks.is_empty());
    }

    #[test]
    fn partition_is_deterministic() {
        let m = BinMapper::new(16, 0.05).unwrap();
        let pos = uniform_cloud(1000, 1.0, 9);
        let a = m.partition(&pos, 16);
        let b = m.partition(&pos, 16);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.boxes, b.boxes);
    }

    #[test]
    fn concentrated_cloud_still_balances() {
        // The headline contrast with element mapping: a tightly packed bed
        // still spreads across all ranks.
        let m = BinMapper::new(8, 1e-9).unwrap();
        let pos = uniform_cloud(800, 0.01, 10); // tiny region
        let out = m.assign(&pos);
        let counts = out.counts(8);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }
}
