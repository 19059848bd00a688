//! Uniform-grid spatial index over per-rank regions (CSR layout).
//!
//! Ghost-particle generation must answer, for every particle, "which rank
//! regions does this projection-filter sphere touch?". A linear scan over
//! `R` regions per particle is `O(N_p · R)` — hopeless at the paper's scale
//! (600 k particles × 8352 ranks). [`RegionIndex`] hashes the regions into a
//! uniform cell grid once per sample (`O(R)`), making each sphere query
//! `O(cells touched × occupancy)`.
//!
//! The index stores its cell buckets in compressed-sparse-row form: one flat
//! `cell_offsets` array (length `cells + 1`) and one flat `cell_data` array
//! of live-region slots, built in two counting passes with no per-cell
//! `Vec`s. Only non-empty regions are stored — a back-map from live slot to
//! [`Rank`] keeps rank identities — so samples where most ranks are idle pay
//! memory proportional to the live set, not the communicator size.
//!
//! A query is the scratch-driven visitor
//! [`for_each_rank_touching_sphere`](RegionIndex::for_each_rank_touching_sphere),
//! which deduplicates multi-cell regions with an epoch-stamped visited
//! array instead of sort + dedup and performs no heap allocation in steady
//! state.
//!
//! Membership is decided by `d² ≤ r²` alone: a query walks the cells of
//! its centre's box widened by `query_reach`, a rounding margin that
//! keeps the walk a superset of the regions the distance test accepts
//! (computing `c ± r` in `f64` can otherwise round the box to the inside
//! of a face, or off the index bounds).
//!
//! The index is mapper-agnostic: it only sees the `rank_regions` field of a
//! [`MappingOutcome`](crate::MappingOutcome). It is `pic-sim`'s ground
//! truth: the mini-app asks it which ranks each particle's filter reaches.
//! The replay engine does not use it: it counts ghosts with a pruned join
//! over the sample's [`BinTree`](crate::BinTree) or a
//! [`RankTree`](crate::RankTree), which `pic-sim`'s counts and the
//! sequential oracle check independently.

use pic_types::{Aabb, Rank, Vec3};

/// Half-width of the box a sphere query of `radius` walks: `radius`
/// widened by a rounding margin, so that every region whose computed
/// squared distance `d²` to the centre satisfies `d² ≤ r·r` meets the box
/// `c ± reach` on every axis, as computed in `f64`.
///
/// Why the margin suffices, for finite centres and faces and a radius whose
/// square does not overflow (`u = 2⁻⁵³`, one rounding `fl(x) = x(1 + δ)`,
/// `|δ| ≤ u`, or `x ± 2⁻¹⁰⁷⁵` below the normal range): take the axis where
/// the centre `c` lies above the face `f`. Its term `e = fl(c − f)` has
/// `fl(e·e) ≤ d²`, because the sum of non-negative terms rounds
/// monotonically, so `fl(e·e) ≤ fl(r·r)`. Without underflow that gives
/// `e ≤ r(1 + 1.01u)`, and `c − f ≤ e(1 + 2u) < r(1 + 4u)`. With underflow
/// the two squares are off by at most `2⁻¹⁰⁷⁴` together, so
/// `c − f < r(1 + 4u) + 2⁻⁵³⁶`. The reach is at least
/// `r(1 + 2⁻⁴⁹)(1 − u)² + 2⁻⁵⁰⁰(1 − u) ≥ r(1 + 13u) + 2⁻⁵⁰¹`, so the real
/// `c − reach` lies below `f`, and `fl(c − reach) ≤ f` because rounding is
/// monotone and `f` is a float. The face below the centre is symmetric, a
/// centre inside the face's span needs nothing, and the cell lookup is
/// monotone, so the walk covers the region's cells too.
///
/// The margin moves a face by 2⁻⁴⁹ of the radius, which can add a cell to a
/// walk but never a region to an answer. A NaN or negative radius is an
/// empty query and stays one (`-0.0` is zero).
#[inline]
fn query_reach(radius: f64) -> f64 {
    const WIDEN: f64 = 1.0 + 1.0 / (1u64 << 49) as f64;
    // 2⁻⁵⁰⁰, above the 2⁻⁵³⁶ an underflowing square can hide.
    const FLOOR: f64 = f64::from_bits((1023 - 500) << 52);
    if radius >= 0.0 {
        radius * WIDEN + FLOOR
    } else {
        radius
    }
}

/// Spatial index over `(region, rank)` pairs in CSR form.
#[derive(Debug, Clone)]
pub struct RegionIndex {
    bounds: Aabb,
    dims: [usize; 3],
    inv_cell: Vec3,
    /// CSR row offsets into `cell_data`; length `cells + 1`.
    cell_offsets: Vec<u32>,
    /// Flat live-region slots, grouped by cell.
    cell_data: Vec<u32>,
    /// Bounding boxes of live (non-empty) regions only.
    live_boxes: Vec<Aabb>,
    /// Back-map: live slot → owning rank.
    live_ranks: Vec<Rank>,
    /// Communicator size the index was built from (including idle ranks).
    total_ranks: usize,
}

/// Reusable per-thread query state for
/// [`RegionIndex::for_each_rank_touching_sphere`].
///
/// Holds an epoch-stamped visited array sized to the index's live set, so a
/// region spanning several grid cells is intersection-tested once per query
/// without sorting and without clearing the array between queries.
#[derive(Debug, Default, Clone)]
pub struct RegionQueryScratch {
    stamps: Vec<u32>,
    epoch: u32,
}

impl RegionQueryScratch {
    /// Fresh scratch; sized lazily on first use.
    pub fn new() -> RegionQueryScratch {
        RegionQueryScratch::default()
    }

    /// Size the visited array for `index` and open a new epoch. Called by
    /// the query itself; only resizes (allocates) when the live set grew.
    #[inline]
    fn begin(&mut self, index: &RegionIndex) {
        if self.stamps.len() < index.live_boxes.len() {
            self.stamps.resize(index.live_boxes.len(), 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: stamp values from the previous cycle
            // could collide, so reset them once every 2^32 queries.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }
}

impl RegionIndex {
    /// Build an index over `regions`; `regions[i]` belongs to rank `i`.
    /// Empty regions (ranks with no workload) are skipped and not stored.
    pub fn build(regions: &[Aabb]) -> RegionIndex {
        let mut bounds = Aabb::empty();
        let mut live_boxes = Vec::new();
        let mut live_ranks = Vec::new();
        for (i, r) in regions.iter().enumerate() {
            if !r.is_empty() {
                bounds = bounds.union(r);
                live_boxes.push(*r);
                live_ranks.push(Rank::from_index(i));
            }
        }
        if bounds.is_empty() {
            return RegionIndex {
                bounds,
                dims: [1, 1, 1],
                inv_cell: Vec3::ZERO,
                cell_offsets: vec![0, 0],
                cell_data: Vec::new(),
                live_boxes,
                live_ranks,
                total_ranks: regions.len(),
            };
        }
        // ~1 region per cell on average; cube-root split per axis. Finer
        // than the classic 2-per-cell heuristic: sphere queries walk fewer
        // candidate regions per cell, and the stamp-based dedup makes the
        // extra multi-cell duplicates nearly free to skip.
        let per_axis = ((live_boxes.len() as f64).cbrt().ceil() as usize).clamp(1, 96);
        let dims = [per_axis, per_axis, per_axis];
        let ext = bounds.extent();
        let safe = |e: f64| if e > 0.0 { e } else { 1.0 };
        let inv_cell = Vec3::new(
            dims[0] as f64 / safe(ext.x),
            dims[1] as f64 / safe(ext.y),
            dims[2] as f64 / safe(ext.z),
        );
        let mut index = RegionIndex {
            bounds,
            dims,
            inv_cell,
            cell_offsets: vec![0u32; dims[0] * dims[1] * dims[2] + 1],
            cell_data: Vec::new(),
            live_boxes,
            live_ranks,
            total_ranks: regions.len(),
        };
        // Pass 1: count entries per cell into offsets[cell + 1].
        for slot in 0..index.live_boxes.len() {
            let (lo, hi) = index.cell_range(&index.live_boxes[slot]);
            for cz in lo[2]..=hi[2] {
                for cy in lo[1]..=hi[1] {
                    for cx in lo[0]..=hi[0] {
                        let c = index.cell_id(cx, cy, cz);
                        index.cell_offsets[c + 1] += 1;
                    }
                }
            }
        }
        // Prefix-sum counts into row offsets.
        for c in 1..index.cell_offsets.len() {
            index.cell_offsets[c] += index.cell_offsets[c - 1];
        }
        // Pass 2: scatter slots; `cursors` tracks each cell's write head.
        let mut cursors = index.cell_offsets.clone();
        index.cell_data = vec![0u32; *index.cell_offsets.last().unwrap() as usize];
        for slot in 0..index.live_boxes.len() {
            let (lo, hi) = index.cell_range(&index.live_boxes[slot]);
            for cz in lo[2]..=hi[2] {
                for cy in lo[1]..=hi[1] {
                    for cx in lo[0]..=hi[0] {
                        let c = index.cell_id(cx, cy, cz);
                        index.cell_data[cursors[c] as usize] = slot as u32;
                        cursors[c] += 1;
                    }
                }
            }
        }
        index
    }

    #[inline]
    fn cell_id(&self, cx: usize, cy: usize, cz: usize) -> usize {
        cx + self.dims[0] * (cy + self.dims[1] * cz)
    }

    /// Slots hashed into one cell.
    #[inline]
    fn cell_slots(&self, cell: usize) -> &[u32] {
        &self.cell_data[self.cell_offsets[cell] as usize..self.cell_offsets[cell + 1] as usize]
    }

    /// The cell holding coordinate `q` on axis `a`, clamped to the grid:
    /// `((q − bmin)·inv).max(0).min(dim − 1)`, truncated. Clamping in `f64`
    /// first lands on the cell `floor() as isize` + `clamp(0, dim − 1)`
    /// gives for every input: below zero and NaN go to 0 (`f64::max` drops
    /// a NaN operand), past the grid and `+∞` go to `dim − 1`, and in
    /// between truncating a non-negative number is its floor.
    #[inline]
    fn cell(&self, a: usize, q: f64) -> usize {
        let last = (self.dims[a] - 1) as f64;
        ((q - self.bounds.min.to_array()[a]) * self.inv_cell.to_array()[a])
            .max(0.0)
            .min(last) as usize
    }

    /// Cell index ranges covered by a box (clamped to the index bounds).
    fn cell_range(&self, b: &Aabb) -> ([usize; 3], [usize; 3]) {
        let (bmin, bmax) = (b.min.to_array(), b.max.to_array());
        (
            [0, 1, 2].map(|a| self.cell(a, bmin[a])),
            [0, 1, 2].map(|a| self.cell(a, bmax[a])),
        )
    }

    /// Visit each rank whose region touches the sphere at `center` with
    /// radius `radius`, exactly once, in deterministic (cell-major,
    /// first-encounter) order. Regions spanning several cells are
    /// deduplicated through `scratch`'s stamp array, so the call performs
    /// no sorting and — once `scratch` is warm — no heap allocation.
    #[inline]
    pub fn for_each_rank_touching_sphere(
        &self,
        center: Vec3,
        radius: f64,
        scratch: &mut RegionQueryScratch,
        mut visit: impl FnMut(Rank),
    ) {
        self.for_each_candidate_in_sphere(center, radius, scratch, |rank, _d2| visit(rank));
    }

    /// The query [`for_each_rank_touching_sphere`](Self::for_each_rank_touching_sphere)
    /// runs, passing each rank with the exact squared distance from
    /// `center` to its region's box (zero when the center lies inside it):
    /// the region touches a sphere of radius `r ≤ radius` exactly when
    /// `d² ≤ r²`, the same closed comparison [`Aabb::intersects_sphere`]
    /// performs.
    #[inline]
    fn for_each_candidate_in_sphere(
        &self,
        center: Vec3,
        radius: f64,
        scratch: &mut RegionQueryScratch,
        mut visit: impl FnMut(Rank, f64),
    ) {
        if self.bounds.is_empty() {
            return;
        }
        let query = Aabb::new(center, center).inflate(query_reach(radius));
        if !self.bounds.intersects(&query) {
            return;
        }
        scratch.begin(self);
        let rr = radius * radius;
        let (lo, hi) = self.cell_range(&query);
        for cz in lo[2]..=hi[2] {
            for cy in lo[1]..=hi[1] {
                for cx in lo[0]..=hi[0] {
                    for &slot in self.cell_slots(self.cell_id(cx, cy, cz)) {
                        let stamp = &mut scratch.stamps[slot as usize];
                        if *stamp == scratch.epoch {
                            continue; // already tested this query
                        }
                        *stamp = scratch.epoch;
                        // Live boxes are never empty, so this distance test
                        // is exactly `Aabb::intersects_sphere`.
                        let d2 = self.live_boxes[slot as usize].distance_sq_to_point(center);
                        if d2 <= rr {
                            visit(self.live_ranks[slot as usize], d2);
                        }
                    }
                }
            }
        }
    }

    /// Number of ranks the index covers (including empty-region ranks).
    pub fn rank_count(&self) -> usize {
        self.total_ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_types::rng::SplitMix64;
    use proptest::prelude::*;

    impl RegionIndex {
        /// `cell_range` as it was before it clamped in `f64`
        /// ([`RegionIndex::cell`]), kept verbatim as its oracle.
        fn cell_range_floor(&self, b: &Aabb) -> ([usize; 3], [usize; 3]) {
            let rel_lo = b.min - self.bounds.min;
            let rel_hi = b.max - self.bounds.min;
            let mut lo = [0usize; 3];
            let mut hi = [0usize; 3];
            let inv = self.inv_cell.to_array();
            for a in 0..3 {
                let max_i = self.dims[a] as isize - 1;
                lo[a] = ((rel_lo.to_array()[a] * inv[a]).floor() as isize).clamp(0, max_i) as usize;
                hi[a] = ((rel_hi.to_array()[a] * inv[a]).floor() as isize).clamp(0, max_i) as usize;
            }
            (lo, hi)
        }
    }

    /// A coordinate on the lattice region faces sit on (negative origin
    /// included), or one of the values a floor could disagree with a
    /// truncation on: NaN, ±∞, ±0, huge and just-off-lattice values.
    fn adversarial_coord() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-8i32..24).prop_map(|q| f64::from(q) / 4.0 - 1.0),
            (-8i32..24).prop_map(|q| (f64::from(q) / 4.0 - 1.0) * (1.0 + f64::EPSILON)),
            -6.0..6.0f64,
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(0.0),
                Just(-0.0),
                Just(1e300),
                Just(-1e300),
            ],
        ]
    }

    fn lattice_box() -> impl Strategy<Value = Aabb> {
        (
            (-4i32..12, -4i32..12, -4i32..12),
            (0i32..6, 0i32..6, 0i32..6),
        )
            .prop_map(|(lo, ext)| {
                let at = |q: i32| f64::from(q) / 4.0 - 1.0;
                let min = Vec3::new(at(lo.0), at(lo.1), at(lo.2));
                Aabb::new(
                    min,
                    Vec3::new(at(lo.0 + ext.0), at(lo.1 + ext.1), at(lo.2 + ext.2)),
                )
            })
    }

    proptest! {
        #[test]
        fn cell_range_matches_floor_oracle(
            regions in proptest::collection::vec(lattice_box(), 1..80),
            queries in proptest::collection::vec(
                (adversarial_coord(), adversarial_coord(), adversarial_coord(),
                 adversarial_coord(), adversarial_coord(), adversarial_coord()),
                1..60,
            ),
        ) {
            let idx = RegionIndex::build(&regions);
            for (x0, y0, z0, x1, y1, z1) in queries {
                // Corners in any order: `cell_range` clamps each face on
                // its own, so an inverted or NaN box is still a valid input.
                let b = Aabb { min: Vec3::new(x0, y0, z0), max: Vec3::new(x1, y1, z1) };
                prop_assert_eq!(idx.cell_range(&b), idx.cell_range_floor(&b), "box {}", b);
            }
        }
    }

    /// `x` moved by `k` units in the last place (`k` in -4..=4).
    fn ulps(x: f64, k: i32) -> f64 {
        let up = |v: f64| match v {
            0.0 => f64::from_bits(1),
            v if v > 0.0 => f64::from_bits(v.to_bits() + 1),
            v => f64::from_bits(v.to_bits() - 1),
        };
        (0..k.unsigned_abs()).fold(x, |v, _| if k > 0 { up(v) } else { -up(-v) })
    }

    /// Lattice boxes scaled by `scale`, and queries placed a radius off one
    /// face of one of them, give or take a few ulps, with the other two
    /// coordinates inside that box: the centres where computing `c ± r`
    /// rounds the query box to the inside of the face.
    fn near_face_case() -> impl Strategy<Value = (Vec<Aabb>, Vec<(Vec3, f64)>)> {
        let scaled = |boxes: Vec<Aabb>, s: f64| -> Vec<Aabb> {
            (boxes.into_iter())
                .map(|b| Aabb::new(b.min * s, b.max * s))
                .collect()
        };
        let regions = (
            proptest::collection::vec(lattice_box(), 1..40),
            1e-3..3.0f64,
        )
            .prop_map(move |(boxes, s)| scaled(boxes, s));
        regions.prop_flat_map(|regions| {
            let n = regions.len();
            let query = (
                (0..n, 0usize..3, any::<bool>(), -4i32..=4),
                (0.0..=1.0f64, 0.0..=1.0f64),
                prop_oneof![1e-4..0.5f64, Just(0.25), Just(0.1)],
            );
            let queries = proptest::collection::vec(query, 1..60);
            (Just(regions.clone()), queries).prop_map(|(regions, queries)| {
                let cases = (queries.into_iter())
                    .map(|((i, axis, upper, k), (u, v), r)| {
                        let b = regions[i];
                        let lerp = |a: usize, t: f64| {
                            let (lo, hi) = (b.min.to_array()[a], b.max.to_array()[a]);
                            lo + (hi - lo) * t
                        };
                        let mut c = [lerp(0, u), lerp(1, v), lerp(2, u)];
                        c[(axis + 1) % 3] = lerp((axis + 1) % 3, v);
                        c[axis] = if upper {
                            b.max.to_array()[axis] + r
                        } else {
                            b.min.to_array()[axis] - r
                        };
                        c[axis] = ulps(c[axis], k);
                        (Vec3::from_array(c), r)
                    })
                    .collect();
                (regions, cases)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A query visits exactly the regions `d² ≤ r²` accepts,
        /// where rounding `c ± r` would shrink the query box past a face.
        #[test]
        fn near_face_queries_match_brute_force((regions, cases) in near_face_case()) {
            let idx = RegionIndex::build(&regions);
            let mut out = Vec::new();
            for (c, r) in cases {
                ranks_touching_sphere(&idx, c, r, &mut out);
                prop_assert_eq!(&out, &brute(&regions, c, r), "c={} r={}", c, r);
            }
        }
    }

    /// The sorted ranks whose region touches the sphere, into `out`.
    fn ranks_touching_sphere(idx: &RegionIndex, center: Vec3, radius: f64, out: &mut Vec<Rank>) {
        out.clear();
        let mut scratch = RegionQueryScratch::new();
        idx.for_each_rank_touching_sphere(center, radius, &mut scratch, |r| out.push(r));
        out.sort_unstable();
    }

    /// Brute-force reference: scan every region.
    fn brute(regions: &[Aabb], c: Vec3, r: f64) -> Vec<Rank> {
        let mut out: Vec<Rank> = regions
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects_sphere(c, r))
            .map(|(i, _)| Rank::from_index(i))
            .collect();
        out.sort_unstable();
        out
    }

    fn octant_regions() -> Vec<Aabb> {
        // 8 octants of the unit cube.
        let mut v = Vec::new();
        for iz in 0..2 {
            for iy in 0..2 {
                for ix in 0..2 {
                    let min = Vec3::new(ix as f64 * 0.5, iy as f64 * 0.5, iz as f64 * 0.5);
                    v.push(Aabb::new(min, min + Vec3::splat(0.5)));
                }
            }
        }
        v
    }

    #[test]
    fn octants_center_query_touches_all() {
        let idx = RegionIndex::build(&octant_regions());
        let mut out = Vec::new();
        ranks_touching_sphere(&idx, Vec3::splat(0.5), 0.1, &mut out);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn small_sphere_touches_only_home() {
        let idx = RegionIndex::build(&octant_regions());
        let mut out = Vec::new();
        ranks_touching_sphere(&idx, Vec3::splat(0.25), 0.05, &mut out);
        assert_eq!(out, vec![Rank::new(0)]);
    }

    #[test]
    fn far_away_query_is_empty() {
        let idx = RegionIndex::build(&octant_regions());
        let mut out = vec![Rank::new(9)];
        ranks_touching_sphere(&idx, Vec3::splat(10.0), 0.5, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_regions_are_skipped() {
        let mut regions = octant_regions();
        regions.push(Aabb::empty());
        regions.push(Aabb::empty());
        let idx = RegionIndex::build(&regions);
        assert_eq!(idx.rank_count(), 10);
        let mut out = Vec::new();
        ranks_touching_sphere(&idx, Vec3::splat(0.5), 1.0, &mut out);
        assert_eq!(out.len(), 8); // the empty ones never match
    }

    #[test]
    fn live_storage_excludes_empty_regions() {
        // Regression for the old layout, which cloned the full regions
        // slice: memory must scale with live regions, not communicator
        // size. 8 live octants among 4096 ranks → 8 stored boxes.
        let mut regions = vec![Aabb::empty(); 4096];
        for (i, oct) in octant_regions().into_iter().enumerate() {
            regions[i * 512] = oct;
        }
        let idx = RegionIndex::build(&regions);
        assert_eq!(idx.rank_count(), 4096);
        assert_eq!(idx.live_boxes.len(), 8);
        // 8 unit-cube octants over a 1³..2³ grid never exceed 8 entries
        // per cell; the CSR payload must stay proportional to live count.
        assert!(idx.cell_data.len() <= 8 * 8, "{}", idx.cell_data.len());
        // Rank identities survive the live-slot compaction.
        let mut out = Vec::new();
        ranks_touching_sphere(&idx, Vec3::splat(0.5), 0.1, &mut out);
        let expect: Vec<Rank> = (0..8).map(|i| Rank::from_index(i * 512)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn all_empty_regions() {
        let idx = RegionIndex::build(&[Aabb::empty(), Aabb::empty()]);
        let mut out = Vec::new();
        ranks_touching_sphere(&idx, Vec3::ZERO, 1.0, &mut out);
        assert!(out.is_empty());
        assert_eq!(idx.live_boxes.len(), 0);
        assert_eq!(idx.cell_data.len(), 0);
    }

    #[test]
    fn matches_brute_force_on_random_boxes() {
        let mut rng = SplitMix64::new(42);
        let mut regions = Vec::new();
        for _ in 0..60 {
            let min = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * 4.0;
            let ext = Vec3::new(
                rng.next_range(0.05, 0.8),
                rng.next_range(0.05, 0.8),
                rng.next_range(0.05, 0.8),
            );
            regions.push(Aabb::new(min, min + ext));
        }
        let idx = RegionIndex::build(&regions);
        let mut out = Vec::new();
        for _ in 0..500 {
            let c = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * 5.0;
            let r = rng.next_range(0.01, 0.5);
            ranks_touching_sphere(&idx, c, r, &mut out);
            assert_eq!(out, brute(&regions, c, r), "c={c} r={r}");
        }
    }

    #[test]
    fn visitor_reports_each_rank_once_with_reused_scratch() {
        let mut rng = SplitMix64::new(7);
        let mut regions = Vec::new();
        for _ in 0..40 {
            let min = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * 2.0;
            regions.push(Aabb::new(min, min + Vec3::splat(rng.next_range(0.2, 1.0))));
        }
        let idx = RegionIndex::build(&regions);
        // One scratch across many queries: stamps must isolate queries.
        let mut scratch = RegionQueryScratch::new();
        for _ in 0..200 {
            let c = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * 3.0;
            let r = rng.next_range(0.05, 0.8);
            let mut seen = Vec::new();
            idx.for_each_rank_touching_sphere(c, r, &mut scratch, |rank| seen.push(rank));
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), seen.len(), "visitor emitted a duplicate rank");
            seen.sort_unstable();
            assert_eq!(seen, brute(&regions, c, r), "c={c} r={r}");
        }
    }

    #[test]
    fn degenerate_flat_regions_work() {
        // zero-thickness region (plane) — must still be findable
        let plane = Aabb::new(Vec3::new(0.0, 0.0, 0.5), Vec3::new(1.0, 1.0, 0.5));
        let idx = RegionIndex::build(&[plane]);
        let mut out = Vec::new();
        ranks_touching_sphere(&idx, Vec3::new(0.5, 0.5, 0.45), 0.1, &mut out);
        assert_eq!(out, vec![Rank::new(0)]);
        ranks_touching_sphere(&idx, Vec3::new(0.5, 0.5, 0.3), 0.1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn candidate_distances_are_exact_box_distances() {
        let regions = octant_regions();
        let idx = RegionIndex::build(&regions);
        let mut scratch = RegionQueryScratch::new();
        let mut rng = SplitMix64::new(99);
        for _ in 0..200 {
            let c = Vec3::new(
                rng.next_range(-0.2, 1.2),
                rng.next_range(-0.2, 1.2),
                rng.next_range(-0.2, 1.2),
            );
            let r = rng.next_range(0.0, 0.6);
            let mut seen = Vec::new();
            idx.for_each_candidate_in_sphere(c, r, &mut scratch, |rank, d2| {
                assert_eq!(
                    d2,
                    regions[rank.index()].distance_sq_to_point(c),
                    "reported distance must be the exact box distance"
                );
                assert!(d2 <= r * r);
                seen.push(rank);
            });
            seen.sort_unstable();
            assert_eq!(seen, brute(&regions, c, r), "c={c} r={r}");
        }
    }

    #[test]
    fn candidate_filtering_is_monotone_in_radius() {
        // One query at r_max, filtered down by retained d², must equal a
        // dedicated query at every smaller radius: membership is monotone
        // in the radius, which is also why one ghost join serves a list.
        let regions = octant_regions();
        let idx = RegionIndex::build(&regions);
        let mut scratch = RegionQueryScratch::new();
        let radii = [0.0, 0.05, 0.11, 0.27, 0.6];
        let r_max = 0.6;
        let mut rng = SplitMix64::new(7);
        for _ in 0..200 {
            let c = Vec3::new(
                rng.next_range(-0.3, 1.3),
                rng.next_range(-0.3, 1.3),
                rng.next_range(-0.3, 1.3),
            );
            let mut candidates = Vec::new();
            idx.for_each_candidate_in_sphere(c, r_max, &mut scratch, |rank, d2| {
                candidates.push((rank, d2));
            });
            for &r in &radii {
                let mut filtered: Vec<Rank> = candidates
                    .iter()
                    .filter(|&&(_, d2)| d2 <= r * r)
                    .map(|&(rank, _)| rank)
                    .collect();
                filtered.sort_unstable();
                let mut direct = Vec::new();
                idx.for_each_candidate_in_sphere(c, r, &mut scratch, |rank, _| {
                    direct.push(rank);
                });
                direct.sort_unstable();
                assert_eq!(filtered, direct, "c={c} r={r}");
            }
        }
    }
}
