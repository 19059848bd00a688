//! Structure-of-arrays particle storage and the matrixized ghost kernel of
//! mesh groups (the POLAR-PIC / Matrix-PIC recipe applied to this repo's
//! hot path).
//!
//! Bin groups do not come here. A bin group's regions are its bins, and
//! the sample's [`BinTree`] has already grouped the particles by bin and
//! bounded every subtree with a box, so it counts its ghosts over that
//! tree ([`BinTree::ghost_counts`]): no cell grid, key sort or SoA copy.
//!
//! [`BinTree`]: pic_mapping::BinTree
//! [`BinTree::ghost_counts`]: pic_mapping::BinTree::ghost_counts
//!
//! The scalar ghost kernel walks particles one at a time: per particle it
//! enumerates candidate regions through the cell grid, dedups them with an
//! epoch stamp, and runs one sphere–box distance test per candidate — a
//! pointer-chasing loop the compiler cannot vectorize. This module
//! restructures the same computation into blocked matrix form:
//!
//! 1. **SoA layout.** [`SoAPositions`] stores x/y/z in separate lane-padded
//!    arrays; conversion from the AoS `Vec3` trace sample is a bit copy.
//! 2. **Signature grouping.** Particles are keyed by the packed cell range
//!    of their query box at the largest radius, computed over the SoA
//!    lanes ([`pic_mapping::RegionIndex::query_cell_keys`]). Equal keys
//!    walk identical grid cells, so a radix sort of a span by key turns it
//!    into runs that share one candidate enumeration.
//! 3. **Matrix sweep.** Per run, candidate slots are gathered once and the
//!    group's coordinates are gathered into contiguous blocks; the kernel
//!    then loops *candidate-major* over fixed-width `[f64; LANE]` lanes,
//!    computing `d²` once per lane and adding one branch-free
//!    `(d² ≤ r²) & (home ≠ target)` mask per radius to that radius's copy
//!    row and hit sum. Amortization is multiplicative: the candidate walk
//!    is paid once per group and radius list instead of once per particle
//!    and radius, and the distance test vectorizes.
//! 4. **Padded merge.** Parallel spans accumulate into cache-line-padded
//!    per-worker histograms ([`pic_types::CachePadded`], capacities rounded
//!    to line multiples), one pair per radius, merged by commutative `u32`
//!    addition.
//!
//! Outputs are **bit-identical** to the scalar kernels and to the
//! sequential `generate_reference` oracle: every particle sees exactly the
//! candidate set, the same `d²` (the compare-select clamp returns the
//! scalar clamp's value, see `SpanScratch::candidate_hits`), and integer
//! counts are order-independent. Particles whose query key is `None`
//! (empty index, NaN/out-of-bounds query boxes) are skipped exactly where
//! the scalar kernel's early returns fire. Lane padding uses NaN
//! coordinates, whose distance is NaN and therefore never satisfies
//! `d² ≤ r²`, plus a home id of `u32::MAX` that belongs to no rank.

use crate::generator::GHOST_CHUNK;
use pic_mapping::{RegionIndex, RegionQueryScratch};
use pic_types::radix::radix_sort_by_key;
use pic_types::{Aabb, CachePadded, Rank, Vec3};
use rayon::prelude::*;

/// Fixed lane width of the matrix kernels. Eight `f64`s span two AVX2 or
/// one AVX-512 register; on NEON the compiler splits each lane op into
/// four 2-wide µops, which still pipelines cleanly.
pub const LANE: usize = 8;

/// Histogram capacities are rounded up to this many `u32`s (one 64-byte
/// cache line) so per-worker buffers never end mid-line.
const LINE_U32: usize = 16;

/// Per-rank `(recv, sent)` accumulators for one worker span.
type RecvSent = (Vec<u32>, Vec<u32>);

/// Structure-of-arrays particle positions: separate x/y/z coordinate
/// arrays, each padded to a [`LANE`] multiple with NaN so kernels can read
/// full lanes without bounds branches (NaN lanes can never produce a hit).
///
/// Conversion from and to the AoS `Vec3` form is a pure bit copy — NaNs
/// (payloads included), signed zeros, and subnormals round-trip exactly;
/// the property tests pin this down.
#[derive(Debug, Clone, Default)]
pub struct SoAPositions {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    len: usize,
}

impl SoAPositions {
    /// Transpose an AoS position slice into lane-padded SoA storage.
    pub fn from_positions(positions: &[Vec3]) -> SoAPositions {
        let len = positions.len();
        let padded = len.next_multiple_of(LANE);
        let mut xs = Vec::with_capacity(padded);
        let mut ys = Vec::with_capacity(padded);
        let mut zs = Vec::with_capacity(padded);
        for p in positions {
            xs.push(p.x);
            ys.push(p.y);
            zs.push(p.z);
        }
        xs.resize(padded, f64::NAN);
        ys.resize(padded, f64::NAN);
        zs.resize(padded, f64::NAN);
        SoAPositions { xs, ys, zs, len }
    }

    /// Number of real (unpadded) particles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no particles are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// X coordinates of the real particles (padding excluded).
    pub fn xs(&self) -> &[f64] {
        &self.xs[..self.len]
    }

    /// Y coordinates of the real particles (padding excluded).
    pub fn ys(&self) -> &[f64] {
        &self.ys[..self.len]
    }

    /// Z coordinates of the real particles (padding excluded).
    pub fn zs(&self) -> &[f64] {
        &self.zs[..self.len]
    }

    /// Reconstitute particle `i` (panics past [`len`](Self::len)).
    #[inline]
    pub fn get(&self, i: usize) -> Vec3 {
        assert!(i < self.len);
        Vec3::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Transpose back to the AoS form; bit-exact inverse of
    /// [`from_positions`](Self::from_positions).
    pub fn to_positions(&self) -> Vec<Vec3> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Reusable per-span working state: the key list, the gathered candidate
/// slots, and the group's coordinate/home/count blocks. Everything is
/// amortized across groups; steady state performs no heap allocation.
#[derive(Default)]
struct SpanScratch {
    keys: Vec<(u64, u32)>,
    /// The radix sort's other buffer.
    keys_tmp: Vec<(u64, u32)>,
    slots: Vec<u32>,
    query: RegionQueryScratch,
    gx: Vec<f64>,
    gy: Vec<f64>,
    gz: Vec<f64>,
    ghome: Vec<u32>,
    /// Ghost copies per radius and particle: `radii × padded`, row-major.
    gcopies: Vec<u32>,
    /// Squared distances of the group to the current candidate.
    gd2: Vec<f64>,
}

impl SpanScratch {
    /// Gather one group's coordinates and home ranks into lane-padded
    /// blocks and zero its `radii` copy rows; returns the padded length.
    fn gather_group(
        &mut self,
        soa: &SoAPositions,
        owners: &[Rank],
        group: &[(u64, u32)],
        radii: usize,
    ) -> usize {
        let padded = group.len().next_multiple_of(LANE);
        self.gx.clear();
        self.gx.resize(padded, f64::NAN);
        self.gy.clear();
        self.gy.resize(padded, f64::NAN);
        self.gz.clear();
        self.gz.resize(padded, f64::NAN);
        self.ghome.clear();
        self.ghome.resize(padded, u32::MAX);
        self.gcopies.clear();
        self.gcopies.resize(radii * padded, 0);
        self.gd2.resize(padded, 0.0);
        for (j, &(_, i)) in group.iter().enumerate() {
            let i = i as usize;
            self.gx[j] = soa.xs[i];
            self.gy[j] = soa.ys[i];
            self.gz[j] = soa.zs[i];
            self.ghome[j] = owners[i].index() as u32;
        }
        padded
    }

    /// Key every particle of `lo..hi` by its query's cell-range signature
    /// and sort so equal signatures become contiguous runs. Keyless
    /// particles (the scalar kernel's early-return cases) are dropped.
    fn build_keys(
        &mut self,
        soa: &SoAPositions,
        lo: usize,
        hi: usize,
        index: &RegionIndex,
        radius: f64,
    ) {
        self.keys.clear();
        index.query_cell_keys(
            &soa.xs[lo..hi],
            &soa.ys[lo..hi],
            &soa.zs[lo..hi],
            radius,
            lo as u32,
            &mut self.keys,
        );
        radix_sort_by_key(&mut self.keys, &mut self.keys_tmp, RegionIndex::KEY_BITS);
    }

    /// The lane kernel: test one candidate box (owned by rank `target`)
    /// against the gathered group at every squared radius of `rr`, adding
    /// each particle's hits to its copy rows and each radius's hit count to
    /// `out[k].0[target]`.
    ///
    /// `d²` is computed once per lane, with a home lane's set to NaN, which
    /// fails every `≤`; each radius then adds one branch-free `d² ≤ r²`
    /// `u32` mask. Both loops are straight-line chains over the padded
    /// group arrays, the shape the compiler autovectorizes. The clamp is
    /// two compare-selects per axis, which compile to bare `maxpd`/`minpd`;
    /// `f64::max`/`min` must drop a NaN operand and cannot. Both return the
    /// same value for every coordinate, NaN and ±∞ included, when the faces
    /// are finite (live regions are bin boxes folded over finite trace
    /// positions, or mesh bricks), up to the sign of a zero that `dx·dx`
    /// erases — so `d²` is bit for bit `Aabb::distance_sq_to_point`'s.
    fn candidate_hits(&mut self, b: &Aabb, target: usize, rr: &[f64], out: &mut [RecvSent]) {
        let sel_max = |u: f64, v: f64| if u > v { u } else { v };
        let sel_min = |u: f64, v: f64| if u < v { u } else { v };
        let t = target as u32;
        for ((d2, (&x, &y)), (&z, &home)) in (self.gd2.iter_mut())
            .zip(self.gx.iter().zip(&self.gy))
            .zip(self.gz.iter().zip(&self.ghome))
        {
            let dx = x - sel_min(sel_max(x, b.min.x), b.max.x);
            let dy = y - sel_min(sel_max(y, b.min.y), b.max.y);
            let dz = z - sel_min(sel_max(z, b.min.z), b.max.z);
            let d = dx * dx + dy * dy + dz * dz;
            *d2 = if home != t { d } else { f64::NAN };
        }
        let padded = self.gd2.len();
        for ((&r, row), acc) in (rr.iter().zip(self.gcopies.chunks_exact_mut(padded))).zip(out) {
            let mut hits = 0u32;
            for (copies, &d2) in row.iter_mut().zip(&self.gd2) {
                let hit = u32::from(d2 <= r);
                *copies += hit;
                hits += hit;
            }
            acc.0[target] += hits;
        }
    }
}

/// The grouped kernel over one span: keys at `r_max`, one candidate
/// enumeration per key run, then [`SpanScratch::candidate_hits`] per
/// candidate. Accumulates into `out[k]` (recv / sent by rank, length ≥
/// rank count) for squared radius `rr[k]`.
#[allow(clippy::too_many_arguments)] // span bounds + kernel inputs + accumulators
fn ghost_span_soa(
    soa: &SoAPositions,
    owners: &[Rank],
    lo: usize,
    hi: usize,
    index: &RegionIndex,
    r_max: f64,
    rr: &[f64],
    scratch: &mut SpanScratch,
    out: &mut [RecvSent],
) {
    scratch.build_keys(soa, lo, hi, index, r_max);
    let keys = std::mem::take(&mut scratch.keys);
    let mut g0 = 0usize;
    while g0 < keys.len() {
        let key = keys[g0].0;
        let g1 = keys[g0..]
            .iter()
            .position(|&(k, _)| k != key)
            .map_or(keys.len(), |off| g0 + off);
        let group = &keys[g0..g1];
        index.gather_candidate_slots(key, &mut scratch.query, &mut scratch.slots);
        if !scratch.slots.is_empty() {
            let padded = scratch.gather_group(soa, owners, group, rr.len());
            let slots = std::mem::take(&mut scratch.slots);
            for &slot in &slots {
                let target = index.slot_rank(slot).index();
                scratch.candidate_hits(index.slot_box(slot), target, rr, out);
            }
            scratch.slots = slots;
            for (acc, row) in out.iter_mut().zip(scratch.gcopies.chunks_exact(padded)) {
                for (&(_, i), &copies) in group.iter().zip(row) {
                    acc.1[owners[i as usize].index()] += copies;
                }
            }
        }
        g0 = g1;
    }
    scratch.keys = keys;
}

/// Split `len` items into `workers` near-equal contiguous spans.
#[inline]
fn span_bounds(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = len / workers;
    let rem = len % workers;
    let lo = w * base + w.min(rem);
    (lo, lo + base + usize::from(w < rem))
}

/// Worker count for a sample: the ambient thread budget, capped so spans
/// never shrink below the scalar kernel's chunk granularity.
fn workers_for(len: usize) -> usize {
    rayon::current_num_threads()
        .max(1)
        .min(len.div_ceil(GHOST_CHUNK).max(1))
}

/// SoA ghost counting at every radius of `radii` (any order, duplicates
/// allowed): per-rank `(recv, sent)` histograms in `radii` order, from one
/// candidate enumeration at the largest radius, across parallel spans with
/// cache-line-padded per-worker histograms.
///
/// Bit-identical to the scalar kernels — `radii = [r]` to
/// [`ghost_counts_chunked`](crate::reference::ghost_counts_chunked), a list
/// to [`multi_ghost_chunked`](crate::reference::multi_ghost_chunked) — and
/// hence to the sequential reference: a region touches the radius-`r`
/// sphere iff `d² ≤ r²`, and both the cell range a query walks and that
/// predicate are monotone in `r`, so filtering the same `d²` at each
/// radius equals querying each radius alone. Integer merges commute.
/// Radii are the validated projection filters (finite, positive); at
/// kernel level `0.0` and `+∞` are exact too, and a NaN or negative radius
/// counts nothing, as the scalar query does.
pub fn ghost_counts_soa(
    soa: &SoAPositions,
    owners: &[Rank],
    index: &RegionIndex,
    radii: &[f64],
    ranks: usize,
) -> Vec<RecvSent> {
    let r_max = radii
        .iter()
        .fold(f64::NEG_INFINITY, |m, &r| if r > m { r } else { m });
    let rr: Vec<f64> = (radii.iter())
        .map(|&r| if r < 0.0 { f64::NAN } else { r * r })
        .collect();
    let cap = ranks.next_multiple_of(LINE_U32);
    let workers = workers_for(soa.len());
    let run_span = |w: usize, workers: usize| -> CachePadded<Vec<RecvSent>> {
        let (lo, hi) = span_bounds(soa.len(), workers, w);
        let mut out = vec![(vec![0u32; cap], vec![0u32; cap]); radii.len()];
        let mut scratch = SpanScratch::default();
        ghost_span_soa(
            soa,
            owners,
            lo,
            hi,
            index,
            r_max,
            &rr,
            &mut scratch,
            &mut out,
        );
        CachePadded::new(out)
    };
    let partials: Vec<CachePadded<Vec<RecvSent>>> = if workers <= 1 {
        vec![run_span(0, 1)]
    } else {
        (0..workers)
            .into_par_iter()
            .map(|w| run_span(w, workers))
            .collect()
    };
    // Elementwise-sum the per-worker histograms and trim the line padding.
    let mut merged = vec![(vec![0u32; ranks], vec![0u32; ranks]); radii.len()];
    for p in &partials {
        for (acc, part) in merged.iter_mut().zip(p.iter()) {
            for (a, v) in acc.0.iter_mut().zip(&part.0) {
                *a += v;
            }
            for (a, v) in acc.1.iter_mut().zip(&part.1) {
                *a += v;
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_roundtrip_is_bit_exact_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            1.5e-308,
            -7.25,
        ];
        let mut positions = Vec::new();
        for (k, &v) in specials.iter().enumerate() {
            positions.push(Vec3::new(v, specials[(k + 1) % specials.len()], -v));
        }
        let soa = SoAPositions::from_positions(&positions);
        assert_eq!(soa.len(), positions.len());
        let back = soa.to_positions();
        for (a, b) in positions.iter().zip(&back) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn padding_is_nan_up_to_lane_multiple() {
        let soa = SoAPositions::from_positions(&[Vec3::ZERO; LANE + 3]);
        assert_eq!(soa.xs.len(), 2 * LANE);
        assert!(soa.xs[LANE + 3..].iter().all(|v| v.is_nan()));
        assert_eq!(soa.xs().len(), LANE + 3);
    }

    #[test]
    fn empty_input_yields_empty_soa() {
        let soa = SoAPositions::from_positions(&[]);
        assert!(soa.is_empty());
        assert!(soa.to_positions().is_empty());
        assert_eq!(soa.xs.len(), 0);
    }
}
