//! Hilbert-ordered particle mapping (related work, paper ref \[10\]).
//!
//! Liao et al. assign every particle a global number derived from the
//! space-filling-curve order of its residing spectral element, then hand
//! out particles to processors in contiguous, equally-sized chunks of that
//! order. Locality is approximate (curve-adjacent elements are spatially
//! adjacent) while the count per processor is exactly balanced.
//!
//! The 3-D Hilbert index is computed with Skilling's transpose algorithm
//! (public-domain, AIP Conf. Proc. 707, 2004), once per element: the mesh
//! is static, so [`HilbertMapper::new`] stores each element's position
//! along the curve (its *curve rank*, one `u32` per element). Assigning a
//! sample is then integer work only — locate each particle's element, look
//! up its curve rank, stable radix sort the particle ids by it, and cut the
//! order into chunks.

use crate::mapper::{locate_clamped, MappingOutcome, ParticleMapper};
use pic_grid::ElementMesh;
use pic_types::radix::radix_sort_by_key;
use pic_types::{Aabb, PicError, Rank, Result, Vec3};

/// Convert axis coordinates (each `< 2^bits`) into their Hilbert transpose
/// representation, in place (Skilling's `AxestoTranspose`).
fn axes_to_transpose(x: &mut [u32; 3], bits: u32) {
    let n = 3;
    let m = 1u32 << (bits - 1);
    // Inverse undo
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0;
    q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Hilbert index of the cell `(ix, iy, iz)` on a `2^bits` cube grid.
///
/// Cells that are consecutive in the returned index are face-adjacent in
/// space — the locality property the mapping relies on.
pub fn hilbert_index(ix: u32, iy: u32, iz: u32, bits: u32) -> u64 {
    debug_assert!((1..=21).contains(&bits), "bits out of range");
    debug_assert!(ix < (1 << bits) && iy < (1 << bits) && iz < (1 << bits));
    let mut x = [ix, iy, iz];
    axes_to_transpose(&mut x, bits);
    // Interleave the transposed bits, axis 0 first, MSB first.
    let mut h: u64 = 0;
    for b in (0..bits).rev() {
        for xi in &x {
            h = (h << 1) | ((xi >> b) & 1) as u64;
        }
    }
    h
}

/// Longest mesh axis [`HilbertMapper`] accepts: `2^21` elements, so that
/// the three interleaved `bits`-bit coordinates fill at most the 63 bits
/// [`hilbert_index`] returns.
const MAX_AXIS: usize = 1 << 21;

/// Hilbert-ordered mapper: particles sorted by the Hilbert index of their
/// containing element, then split into `ranks` equal contiguous chunks.
#[derive(Debug, Clone)]
pub struct HilbertMapper {
    mesh: ElementMesh,
    ranks: usize,
    /// Position of each element along the curve, indexed by element id.
    curve_rank: Vec<u32>,
    /// Width of the widest curve position, the radix sort's key width.
    rank_bits: u32,
}

impl HilbertMapper {
    /// Build a mapper for `ranks` processors over `mesh`, ranking every
    /// element along the curve once. Refuses a mesh axis longer than `2^21`
    /// elements, past which the curve index would not fit 64 bits.
    pub fn new(mesh: &ElementMesh, ranks: usize) -> Result<HilbertMapper> {
        if ranks == 0 {
            return Err(PicError::config("hilbert mapper needs at least one rank"));
        }
        let dims = mesh.dims();
        let max_dim = dims.nx.max(dims.ny).max(dims.nz);
        if max_dim > MAX_AXIS {
            return Err(PicError::config(format!(
                "hilbert mapping supports at most {MAX_AXIS} elements per axis, mesh {dims} has {max_dim}"
            )));
        }
        let bits = max_dim.next_power_of_two().trailing_zeros().max(1);
        // Curve index of every element, in element-id (x-fastest) order,
        // sorted; an element's curve rank is its position in that order.
        let mut keyed = Vec::with_capacity(mesh.element_count());
        for iz in 0..dims.nz as u32 {
            for iy in 0..dims.ny as u32 {
                for ix in 0..dims.nx as u32 {
                    keyed.push((hilbert_index(ix, iy, iz, bits), keyed.len() as u32));
                }
            }
        }
        radix_sort_by_key(&mut keyed, &mut Vec::new(), 3 * bits);
        let mut curve_rank = vec![0u32; keyed.len()];
        for (position, &(_, element)) in (0u32..).zip(&keyed) {
            curve_rank[element as usize] = position;
        }
        Ok(HilbertMapper {
            mesh: mesh.clone(),
            ranks,
            curve_rank,
            rank_bits: u32::BITS - (keyed.len() as u32 - 1).leading_zeros(),
        })
    }
}

impl ParticleMapper for HilbertMapper {
    fn name(&self) -> &'static str {
        "hilbert-ordered"
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    /// Locate each particle's element, look up its curve rank, stable
    /// radix sort the particle ids by it, and hand out equal contiguous
    /// chunks of that order. Distinct elements have distinct curve
    /// indices, so sorting by rank with ids ascending within an element is
    /// the `(curve index, id)` order.
    fn assign(&self, positions: &[Vec3]) -> MappingOutcome {
        let eidx = locate_clamped(&self.mesh, positions);
        let mut order: Vec<(u64, u32)> = (eidx.iter().zip(0u32..))
            .map(|(&e, i)| (u64::from(self.curve_rank[e as usize]), i))
            .collect();
        radix_sort_by_key(&mut order, &mut Vec::new(), self.rank_bits);

        let n = order.len();
        let mut ranks = vec![Rank::new(0); n];
        let mut rank_regions = vec![Aabb::empty(); self.ranks];
        // Equal contiguous chunks: first (n % R) ranks get one extra.
        let base = n / self.ranks;
        let extra = n % self.ranks;
        let mut cursor = 0usize;
        #[allow(clippy::needless_range_loop)] // r is the rank id across parallel arrays
        for r in 0..self.ranks {
            let take = base + usize::from(r < extra);
            for &(_, idx) in &order[cursor..cursor + take] {
                let i = idx as usize;
                ranks[i] = Rank::from_index(r);
                rank_regions[r].expand(positions[i]);
            }
            cursor += take;
        }
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
    use proptest::prelude::*;

    #[test]
    fn hilbert_is_a_bijection() {
        let bits = 3; // 8x8x8 = 512 cells
        let mut seen = vec![false; 512];
        for ix in 0..8 {
            for iy in 0..8 {
                for iz in 0..8 {
                    let h = hilbert_index(ix, iy, iz, bits) as usize;
                    assert!(h < 512);
                    assert!(!seen[h], "duplicate index {h}");
                    seen[h] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hilbert_consecutive_cells_are_adjacent() {
        // The defining property of a Hilbert curve: consecutive indices map
        // to cells at Manhattan distance exactly 1.
        let bits = 3;
        let mut cells = vec![(0u32, 0u32, 0u32); 512];
        for ix in 0..8 {
            for iy in 0..8 {
                for iz in 0..8 {
                    cells[hilbert_index(ix, iy, iz, bits) as usize] = (ix, iy, iz);
                }
            }
        }
        for w in cells.windows(2) {
            let (a, b) = (w[0], w[1]);
            let d = a.0.abs_diff(b.0) + a.1.abs_diff(b.1) + a.2.abs_diff(b.2);
            assert_eq!(d, 1, "cells {a:?} -> {b:?} not adjacent");
        }
    }

    #[test]
    fn hilbert_bits_one() {
        let mut seen = [false; 8];
        for ix in 0..2 {
            for iy in 0..2 {
                for iz in 0..2 {
                    seen[hilbert_index(ix, iy, iz, 1) as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(8), 5).unwrap()
    }

    /// The mapper as it was before the curve-rank table, kept verbatim as
    /// its oracle: a Hilbert key per particle through `element_of_point`,
    /// then a comparison sort of `(key, id)`.
    struct Reference {
        mesh: ElementMesh,
        ranks: usize,
        bits: u32,
    }

    impl Reference {
        fn new(mesh: &ElementMesh, ranks: usize) -> Reference {
            let dims = mesh.dims();
            let max_dim = dims.nx.max(dims.ny).max(dims.nz) as u32;
            let bits = 32 - max_dim.next_power_of_two().leading_zeros() - 1;
            let bits = bits.max(1);
            Reference {
                mesh: mesh.clone(),
                ranks,
                bits,
            }
        }

        fn key_of(&self, p: Vec3) -> u64 {
            let domain = self.mesh.domain();
            let q = p.clamp(domain.min, domain.max);
            let e = self
                .mesh
                .element_of_point(q)
                .expect("clamped point inside domain");
            let (ix, iy, iz) = self.mesh.element_indices(e);
            hilbert_index(ix as u32, iy as u32, iz as u32, self.bits)
        }

        fn assign(&self, positions: &[Vec3]) -> MappingOutcome {
            let keys: Vec<u64> = positions.iter().map(|&p| self.key_of(p)).collect();
            self.chunk_by_keys(&keys, |i| positions[i])
        }

        fn chunk_by_keys(
            &self,
            keys: &[u64],
            position_of: impl Fn(usize) -> Vec3,
        ) -> MappingOutcome {
            let n = keys.len();
            let mut order: Vec<u32> = (0..n as u32).collect();
            // Stable tie-break on the particle id keeps the mapping deterministic.
            order.sort_by_key(|&i| (keys[i as usize], i));

            let mut ranks = vec![Rank::new(0); n];
            let mut rank_regions = vec![Aabb::empty(); self.ranks];
            // Equal contiguous chunks: first (n % R) ranks get one extra.
            let base = n / self.ranks;
            let extra = n % self.ranks;
            let mut cursor = 0usize;
            #[allow(clippy::needless_range_loop)] // r is the rank id across parallel arrays
            for r in 0..self.ranks {
                let take = base + usize::from(r < extra);
                for &idx in &order[cursor..cursor + take] {
                    ranks[idx as usize] = Rank::from_index(r);
                    rank_regions[r].expand(position_of(idx as usize));
                }
                cursor += take;
            }
            MappingOutcome {
                ranks,
                rank_regions,
                bin_count: None,
            }
        }
    }

    fn box_bits(b: &Aabb) -> [u64; 6] {
        let (lo, hi) = (b.min.to_array(), b.max.to_array());
        [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]].map(f64::to_bits)
    }

    /// Table order ≡ comparison-sorted order: ranks, and region box bits.
    fn check_against_reference(
        mesh: &ElementMesh,
        ranks: usize,
        positions: &[Vec3],
    ) -> std::result::Result<(), TestCaseError> {
        let new = HilbertMapper::new(mesh, ranks).unwrap().assign(positions);
        let old = Reference::new(mesh, ranks).assign(positions);
        prop_assert_eq!(&new.ranks, &old.ranks);
        prop_assert_eq!(
            new.rank_regions.iter().map(box_bits).collect::<Vec<_>>(),
            old.rank_regions.iter().map(box_bits).collect::<Vec<_>>()
        );
        prop_assert_eq!(new.bin_count, old.bin_count);
        Ok(())
    }

    /// A mesh with a negative, positive or zero-straddling origin and a
    /// non-cubic shape (one axis of 1, powers of two and odd sizes).
    fn skewed_mesh() -> impl Strategy<Value = ElementMesh> {
        (
            (-3.0..3.0f64, -3.0..3.0f64, -3.0..3.0f64),
            (0.01..5.0f64, 0.01..5.0f64, 0.01..5.0f64),
            (1usize..20, 1usize..20, 1usize..20),
        )
            .prop_map(|(lo, ext, (nx, ny, nz))| {
                let min = Vec3::new(lo.0, lo.1, lo.2);
                let domain = Aabb::new(min, min + Vec3::new(ext.0, ext.1, ext.2));
                ElementMesh::new(domain, MeshDims::new(nx, ny, nz), 3).unwrap()
            })
    }

    /// A coordinate as a fraction of the domain: inside, on an element
    /// face of a 12-element axis (the domain's own faces included),
    /// outside, or NaN, ±∞ and ±0 taken as-is.
    fn fraction() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0..1.0f64,
            (0u32..=12).prop_map(|k| f64::from(k) / 12.0),
            -1.0..2.0f64,
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(0.0),
                Just(-0.0),
            ],
        ]
    }

    fn place(mesh: &ElementMesh, f: (f64, f64, f64)) -> Vec3 {
        let (lo, e) = (mesh.domain().min, mesh.domain().extent());
        let at = |lo: f64, e: f64, f: f64| {
            if f.is_finite() && f != 0.0 {
                lo + e * f
            } else {
                f
            }
        };
        Vec3::new(at(lo.x, e.x, f.0), at(lo.y, e.y, f.1), at(lo.z, e.z, f.2))
    }

    proptest! {
        #[test]
        fn table_order_matches_comparison_sort_oracle(
            mesh in skewed_mesh(),
            fractions in proptest::collection::vec((fraction(), fraction(), fraction()), 0..300),
            // up to more ranks than particles
            ranks in prop_oneof![1usize..40, 200usize..400],
        ) {
            let positions: Vec<Vec3> = fractions.into_iter().map(|f| place(&mesh, f)).collect();
            check_against_reference(&mesh, ranks, &positions)?;
        }

        #[test]
        fn table_order_matches_comparison_sort_oracle_with_every_particle_in_one_element(
            mesh in skewed_mesh(),
            at in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
            n in 0usize..200,
            ranks in 1usize..300,
        ) {
            check_against_reference(&mesh, ranks, &vec![place(&mesh, at); n])?;
        }
    }

    #[test]
    fn axes_past_two_to_the_21_are_refused() {
        let dims = MeshDims::new((1 << 21) + 1, 1, 1);
        let long = ElementMesh::new(Aabb::unit(), dims, 3).unwrap();
        let err = HilbertMapper::new(&long, 4).unwrap_err().to_string();
        assert!(err.contains("2097153x1x1"), "{err}");
    }

    #[test]
    fn chunks_are_exactly_balanced() {
        let m = HilbertMapper::new(&mesh(), 7).unwrap();
        let mut rng = SplitMix64::new(3);
        let pos: Vec<Vec3> = (0..100)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let out = m.assign(&pos);
        let counts = out.counts(7);
        // 100 = 7*14 + 2: first two ranks get 15, rest 14
        assert_eq!(counts.iter().sum::<u32>(), 100);
        assert_eq!(*counts.iter().max().unwrap(), 15);
        assert_eq!(*counts.iter().min().unwrap(), 14);
    }

    #[test]
    fn concentrated_cloud_is_still_balanced() {
        let m = HilbertMapper::new(&mesh(), 4).unwrap();
        let pos: Vec<Vec3> = (0..80)
            .map(|i| Vec3::splat(0.01 + i as f64 * 1e-4))
            .collect();
        let counts = m.assign(&pos).counts(4);
        assert!(counts.iter().all(|&c| c == 20), "{counts:?}");
    }

    #[test]
    fn regions_cover_their_particles() {
        let m = HilbertMapper::new(&mesh(), 5).unwrap();
        let mut rng = SplitMix64::new(9);
        let pos: Vec<Vec3> = (0..64)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let out = m.assign(&pos);
        for (i, r) in out.ranks.iter().enumerate() {
            assert!(out.rank_regions[r.index()].contains_closed(pos[i]));
        }
    }

    #[test]
    fn locality_beats_random_assignment() {
        // Particles in one small element cluster should land on few ranks.
        let m = HilbertMapper::new(&mesh(), 16).unwrap();
        let pos: Vec<Vec3> = (0..32)
            .map(|i| Vec3::splat(0.05 + i as f64 * 1e-5))
            .collect();
        let out = m.assign(&pos);
        // all 32 particles share one element → their keys tie → split into
        // exactly 16 chunks of 2 (balance), consecutive in id order.
        assert_eq!(out.counts(16).iter().filter(|&&c| c > 0).count(), 16);
    }

    #[test]
    fn zero_ranks_rejected() {
        assert!(HilbertMapper::new(&mesh(), 0).is_err());
    }

    #[test]
    fn more_ranks_than_particles() {
        let m = HilbertMapper::new(&mesh(), 10).unwrap();
        let pos = vec![Vec3::splat(0.5); 3];
        let out = m.assign(&pos);
        let counts = out.counts(10);
        assert_eq!(counts.iter().sum::<u32>(), 3);
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 3);
    }
}
