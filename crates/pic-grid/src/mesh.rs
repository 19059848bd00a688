//! Structured spectral-element mesh.
//!
//! CMT-nek decomposes its computational domain into hexahedral *spectral
//! elements*, each carrying an `N × N × N` grid of Gauss–Lobatto–Legendre
//! points. For the workload generator only the element geometry matters:
//! which element a particle position falls in, what the element's bounding
//! box is, and which rank stores it. [`ElementMesh`] provides those queries
//! in O(1) for a structured brick of elements.

use pic_types::{Aabb, ElementId, PicError, Result, Vec3};
use serde::{Deserialize, Serialize};

/// Number of elements along each axis of the structured mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MeshDims {
    /// Elements along x.
    pub nx: usize,
    /// Elements along y.
    pub ny: usize,
    /// Elements along z.
    pub nz: usize,
}

impl MeshDims {
    /// Construct dims; all axes must be non-zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> MeshDims {
        MeshDims { nx, ny, nz }
    }

    /// A cube of `n` elements per side.
    pub fn cube(n: usize) -> MeshDims {
        MeshDims::new(n, n, n)
    }

    /// Total element count `nx * ny * nz`.
    pub fn count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Dims as an array `[nx, ny, nz]`.
    pub fn to_array(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }
}

/// `AxBxC`, the way flags and requests spell a mesh.
impl std::fmt::Display for MeshDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

/// The inverse of `Display`. Whether every axis is non-zero and the element
/// count fits is [`ElementMesh::new`]'s check.
impl std::str::FromStr for MeshDims {
    type Err = PicError;

    fn from_str(spec: &str) -> Result<MeshDims> {
        let axes: Vec<usize> = spec
            .split('x')
            .map(|axis| axis.parse())
            .collect::<std::result::Result<_, _>>()
            .map_err(|_| PicError::config(format!("bad mesh spec '{spec}' (want AxBxC)")))?;
        match axes[..] {
            [nx, ny, nz] => Ok(MeshDims::new(nx, ny, nz)),
            _ => Err(PicError::config(format!(
                "mesh spec '{spec}' must have three axes"
            ))),
        }
    }
}

/// A structured mesh of hexahedral spectral elements filling a box domain.
///
/// Elements are indexed in x-fastest (lexicographic) order:
/// `id = ix + nx * (iy + ny * iz)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElementMesh {
    domain: Aabb,
    dims: MeshDims,
    /// Edge length of one element on each axis.
    h: Vec3,
    /// Grid resolution within an element (GLL points per direction), the
    /// paper's parameter `N`.
    order: usize,
}

impl ElementMesh {
    /// Build a mesh of `dims` elements tiling `domain`, each element carrying
    /// `order`³ grid points (`order ≥ 2`). The domain must be finite, and
    /// the element count must fit the `u32` element ids
    /// [`locate_clamped_soa`](Self::locate_clamped_soa) writes.
    pub fn new(domain: Aabb, dims: MeshDims, order: usize) -> Result<ElementMesh> {
        if domain.is_empty() || domain.volume() <= 0.0 {
            return Err(PicError::geometry("mesh domain must have positive volume"));
        }
        if !(domain.min.is_finite() && domain.max.is_finite()) {
            return Err(PicError::geometry(format!(
                "mesh domain must be finite, got {domain}"
            )));
        }
        if dims.nx == 0 || dims.ny == 0 || dims.nz == 0 {
            return Err(PicError::config("mesh dims must be non-zero on every axis"));
        }
        let count = dims
            .nx
            .checked_mul(dims.ny)
            .and_then(|n| n.checked_mul(dims.nz));
        if count.is_none_or(|n| n > u32::MAX as usize) {
            return Err(PicError::config(format!(
                "mesh {dims} has more than {} elements",
                u32::MAX
            )));
        }
        if order < 2 {
            return Err(PicError::config("element order (N) must be at least 2"));
        }
        let e = domain.extent();
        let h = Vec3::new(
            e.x / dims.nx as f64,
            e.y / dims.ny as f64,
            e.z / dims.nz as f64,
        );
        Ok(ElementMesh {
            domain,
            dims,
            h,
            order,
        })
    }

    /// The full mesh domain.
    pub fn domain(&self) -> Aabb {
        self.domain
    }

    /// Element counts per axis.
    pub fn dims(&self) -> MeshDims {
        self.dims
    }

    /// Total number of spectral elements (the paper's `N_el` at full scale).
    pub fn element_count(&self) -> usize {
        self.dims.count()
    }

    /// Grid resolution within an element (the paper's `N`).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Element edge lengths.
    pub fn element_size(&self) -> Vec3 {
        self.h
    }

    /// Lexicographic element id from per-axis indices.
    ///
    /// Panics in debug builds if an index is out of range.
    #[inline]
    pub fn element_id(&self, ix: usize, iy: usize, iz: usize) -> ElementId {
        debug_assert!(ix < self.dims.nx && iy < self.dims.ny && iz < self.dims.nz);
        ElementId::from_index(ix + self.dims.nx * (iy + self.dims.ny * iz))
    }

    /// Per-axis indices of an element id.
    #[inline]
    pub fn element_indices(&self, id: ElementId) -> (usize, usize, usize) {
        let i = id.index();
        let ix = i % self.dims.nx;
        let iy = (i / self.dims.nx) % self.dims.ny;
        let iz = i / (self.dims.nx * self.dims.ny);
        (ix, iy, iz)
    }

    /// The element containing point `p`, or `None` if `p` lies outside the
    /// domain. Points exactly on the domain's max face are clamped into the
    /// last element so that closed-domain particles always map somewhere.
    #[inline]
    pub fn element_of_point(&self, p: Vec3) -> Option<ElementId> {
        if !self.domain.contains_closed(p) {
            return None;
        }
        let rel = p - self.domain.min;
        let clamp_idx = |v: f64, h: f64, n: usize| -> usize {
            let i = (v / h).floor() as isize;
            i.clamp(0, n as isize - 1) as usize
        };
        let ix = clamp_idx(rel.x, self.h.x, self.dims.nx);
        let iy = clamp_idx(rel.y, self.h.y, self.dims.ny);
        let iz = clamp_idx(rel.z, self.h.z, self.dims.nz);
        Some(self.element_id(ix, iy, iz))
    }

    /// Blocked structure-of-arrays element location: for each position
    /// `(xs[i], ys[i], zs[i])`, clamp it onto the domain and write the
    /// containing element's lexicographic index to `out[i]` (`out` is
    /// resized to the input length).
    ///
    /// The same element as `clamp` +
    /// [`element_of_point`](Self::element_of_point) for every input, but
    /// computed without a `floor` call, as three per-axis passes of
    /// straight-line arithmetic:
    ///
    /// * the clamp is two compare-selects (`if v > lo { v } else { lo }`,
    ///   then against `hi`), which compile to bare `maxsd`/`minsd`. A NaN
    ///   fails both comparisons and lands on `lo`, where `f64::max` drops
    ///   it too. The two forms can differ only in the sign of a zero, and
    ///   `q − lo` is then zero either way.
    /// * after the clamp `t = (q − lo) / h` is non-negative, so truncating
    ///   it is its floor. `h` divides, as in `element_of_point`; `· (1/h)`
    ///   would round differently.
    /// * the index clamp is one more compare-select, `if t > n − 1 { n − 1
    ///   } else { t }`, before the saturating `as u32`. Past the last
    ///   element and `+∞` go to `n − 1`, and a NaN `t` (a zero `h`) goes to
    ///   0, as `floor(NaN) as isize` did.
    pub fn locate_clamped_soa(&self, xs: &[f64], ys: &[f64], zs: &[f64], out: &mut Vec<u32>) {
        assert_eq!(xs.len(), ys.len());
        assert_eq!(xs.len(), zs.len());
        let n = xs.len();
        out.clear();
        out.resize(n, 0);
        let (dmin, dmax) = (self.domain.min, self.domain.max);
        // Per-axis pass: out accumulates ix + nx*(iy + ny*iz) incrementally.
        let axis = |coords: &[f64],
                    lo: f64,
                    hi: f64,
                    h: f64,
                    n_ax: usize,
                    stride: u32,
                    out: &mut [u32]| {
            let last = (n_ax - 1) as f64;
            for (o, &v) in out.iter_mut().zip(coords) {
                let q = if v > lo { v } else { lo };
                let q = if q < hi { q } else { hi };
                let t = (q - lo) / h;
                let i = if t > last { last } else { t };
                *o += stride * i as u32;
            }
        };
        axis(xs, dmin.x, dmax.x, self.h.x, self.dims.nx, 1, out);
        axis(
            ys,
            dmin.y,
            dmax.y,
            self.h.y,
            self.dims.ny,
            self.dims.nx as u32,
            out,
        );
        axis(
            zs,
            dmin.z,
            dmax.z,
            self.h.z,
            self.dims.nz,
            (self.dims.nx * self.dims.ny) as u32,
            out,
        );
    }

    /// Bounding box of element `id`.
    pub fn element_aabb(&self, id: ElementId) -> Aabb {
        let (ix, iy, iz) = self.element_indices(id);
        let min = self.domain.min
            + Vec3::new(
                ix as f64 * self.h.x,
                iy as f64 * self.h.y,
                iz as f64 * self.h.z,
            );
        Aabb::new(min, min + self.h)
    }

    /// Face-adjacent neighbour elements of `id` (up to 6).
    pub fn neighbors(&self, id: ElementId) -> Vec<ElementId> {
        let (ix, iy, iz) = self.element_indices(id);
        let mut out = Vec::with_capacity(6);
        let dims = [self.dims.nx, self.dims.ny, self.dims.nz];
        let idx = [ix, iy, iz];
        for axis in 0..3 {
            for delta in [-1isize, 1] {
                let v = idx[axis] as isize + delta;
                if v >= 0 && (v as usize) < dims[axis] {
                    let mut n = idx;
                    n[axis] = v as usize;
                    out.push(self.element_id(n[0], n[1], n[2]));
                }
            }
        }
        out
    }

    /// All element ids whose boxes intersect `query` (closed comparison).
    ///
    /// Runs in O(k) where k is the number of overlapped elements, by
    /// intersecting index ranges rather than scanning all elements. Used to
    /// find the processor domains a particle's projection-filter sphere
    /// touches.
    pub fn elements_in_aabb(&self, query: &Aabb) -> Vec<ElementId> {
        let mut out = Vec::new();
        if !self.domain.intersects(query) {
            return out;
        }
        let lo = (query.min - self.domain.min).max(Vec3::ZERO);
        let hi = (query.max - self.domain.min).min(self.domain.extent());
        let range = |v_lo: f64, v_hi: f64, h: f64, n: usize| -> (usize, usize) {
            let a = ((v_lo / h).floor() as isize).clamp(0, n as isize - 1) as usize;
            let b = ((v_hi / h).floor() as isize).clamp(0, n as isize - 1) as usize;
            (a, b)
        };
        let (x0, x1) = range(lo.x, hi.x, self.h.x, self.dims.nx);
        let (y0, y1) = range(lo.y, hi.y, self.h.y, self.dims.ny);
        let (z0, z1) = range(lo.z, hi.z, self.h.z, self.dims.nz);
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    out.push(self.element_id(ix, iy, iz));
                }
            }
        }
        out
    }

    /// Iterate over all element ids in lexicographic order.
    pub fn element_ids(&self) -> impl Iterator<Item = ElementId> + '_ {
        (0..self.element_count()).map(ElementId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mesh4() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap()
    }

    #[test]
    fn dims_parse_from_axbxc_only() {
        assert_eq!("4x6x8".parse::<MeshDims>().unwrap(), MeshDims::new(4, 6, 8));
        for bad in ["4x4", "4x4x4x4", "4xax4", "", "4x-1x4", "4 x 4 x 4"] {
            let err = bad.parse::<MeshDims>().unwrap_err().to_string();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }

    #[test]
    fn construction_validation() {
        assert!(ElementMesh::new(Aabb::unit(), MeshDims::new(0, 1, 1), 5).is_err());
        assert!(ElementMesh::new(Aabb::unit(), MeshDims::cube(2), 1).is_err());
        assert!(ElementMesh::new(Aabb::empty(), MeshDims::cube(2), 5).is_err());
        let unbounded = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, f64::INFINITY));
        let err = ElementMesh::new(unbounded, MeshDims::cube(2), 5).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        let m = mesh4();
        assert_eq!(m.element_count(), 64);
        assert_eq!(m.order(), 5);
    }

    #[test]
    fn element_counts_past_u32_ids_are_refused_naming_the_dims() {
        // 2^66 elements wraps `usize`; 4.9e9 fits `usize` but not the
        // `u32` element ids; 2^32 − 1 is the largest count that fits.
        for spec in ["4194304x4194304x4194304", "70000x70000x1"] {
            let dims: MeshDims = spec.parse().unwrap();
            assert_eq!(dims.to_string(), spec);
            let err = ElementMesh::new(Aabb::unit(), dims, 3).unwrap_err();
            assert!(
                matches!(err, PicError::Config(_)) && err.to_string().contains(spec),
                "{err}"
            );
        }
        let widest = MeshDims::new(u32::MAX as usize, 1, 1);
        assert_eq!(
            ElementMesh::new(Aabb::unit(), widest, 3)
                .unwrap()
                .element_count(),
            u32::MAX as usize
        );
    }

    /// `locate_clamped_soa` as it was before it dropped `floor`, kept
    /// verbatim as its oracle.
    fn locate_clamped_soa_floor(
        mesh: &ElementMesh,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        out: &mut Vec<u32>,
    ) {
        assert_eq!(xs.len(), ys.len());
        assert_eq!(xs.len(), zs.len());
        let n = xs.len();
        out.clear();
        out.resize(n, 0);
        let (dmin, dmax) = (mesh.domain.min, mesh.domain.max);
        // Per-axis pass: out accumulates ix + nx*(iy + ny*iz) incrementally.
        let axis = |coords: &[f64],
                    lo: f64,
                    hi: f64,
                    h: f64,
                    n_ax: usize,
                    stride: u32,
                    out: &mut [u32]| {
            let max_i = n_ax as isize - 1;
            for (o, &v) in out.iter_mut().zip(coords) {
                let q = v.max(lo).min(hi);
                let i = ((q - lo) / h).floor() as isize;
                *o += stride * i.clamp(0, max_i) as u32;
            }
        };
        axis(xs, dmin.x, dmax.x, mesh.h.x, mesh.dims.nx, 1, out);
        axis(
            ys,
            dmin.y,
            dmax.y,
            mesh.h.y,
            mesh.dims.ny,
            mesh.dims.nx as u32,
            out,
        );
        axis(
            zs,
            dmin.z,
            dmax.z,
            mesh.h.z,
            mesh.dims.nz,
            (mesh.dims.nx * mesh.dims.ny) as u32,
            out,
        );
    }

    /// A mesh with a negative, positive or zero-straddling origin, a
    /// non-cubic shape and thin or thick elements.
    fn skewed_mesh() -> impl Strategy<Value = ElementMesh> {
        (
            (-3.0..3.0f64, -3.0..3.0f64, -3.0..3.0f64),
            (0.01..5.0f64, 0.01..5.0f64, 0.01..5.0f64),
            (1usize..9, 1usize..9, 1usize..9),
        )
            .prop_map(|(lo, ext, (nx, ny, nz))| {
                let min = Vec3::new(lo.0, lo.1, lo.2);
                let domain = Aabb::new(min, min + Vec3::new(ext.0, ext.1, ext.2));
                ElementMesh::new(domain, MeshDims::new(nx, ny, nz), 3).unwrap()
            })
    }

    /// One coordinate of a point near `mesh` on axis `a`: inside, exactly
    /// on an element face (the domain's included), just off a face,
    /// outside, or NaN, ±∞ and ±0.
    fn coord(kind: u8, u: f64, mesh: &ElementMesh, a: usize) -> f64 {
        let (lo, hi) = (mesh.domain.min.to_array()[a], mesh.domain.max.to_array()[a]);
        let (h, n) = (mesh.h.to_array()[a], mesh.dims.to_array()[a]);
        let face = lo + (u * (n + 1) as f64).floor() * h;
        match kind {
            0 => lo + u * (hi - lo),
            1 => face,
            2 => [face.next_down(), face.next_up()][usize::from(u < 0.5)],
            3 => lo + (u * 3.0 - 1.0) * (hi - lo),
            4 => [lo, hi][usize::from(u < 0.5)],
            5 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(u * 3.0) as usize],
            _ => [0.0, -0.0][usize::from(u < 0.5)],
        }
    }

    proptest! {
        #[test]
        fn locate_clamped_soa_matches_floor_oracle(
            mesh in skewed_mesh(),
            draws in proptest::collection::vec(
                (0u8..7, 0.0..1.0f64, 0u8..7, 0.0..1.0f64, 0u8..7, 0.0..1.0f64),
                0..300,
            ),
        ) {
            let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
            for (kx, ux, ky, uy, kz, uz) in draws {
                xs.push(coord(kx, ux, &mesh, 0));
                ys.push(coord(ky, uy, &mesh, 1));
                zs.push(coord(kz, uz, &mesh, 2));
            }
            let (mut got, mut want) = (vec![7], vec![9]);
            mesh.locate_clamped_soa(&xs, &ys, &zs, &mut got);
            locate_clamped_soa_floor(&mesh, &xs, &ys, &zs, &mut want);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn locate_clamped_soa_matches_floor_oracle_with_every_particle_in_one_element(
            mesh in skewed_mesh(),
            at in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
            n in 0usize..200,
        ) {
            let (lo, e) = (mesh.domain.min, mesh.domain.extent());
            let p = Vec3::new(lo.x + e.x * at.0, lo.y + e.y * at.1, lo.z + e.z * at.2);
            let (xs, ys, zs) = (vec![p.x; n], vec![p.y; n], vec![p.z; n]);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            mesh.locate_clamped_soa(&xs, &ys, &zs, &mut got);
            locate_clamped_soa_floor(&mesh, &xs, &ys, &zs, &mut want);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn id_index_roundtrip() {
        let m = mesh4();
        for id in m.element_ids() {
            let (ix, iy, iz) = m.element_indices(id);
            assert_eq!(m.element_id(ix, iy, iz), id);
        }
    }

    #[test]
    fn point_lookup_matches_aabb() {
        let m = mesh4();
        for id in m.element_ids() {
            let c = m.element_aabb(id).center();
            assert_eq!(m.element_of_point(c), Some(id));
            assert!(m.element_aabb(id).contains(c));
        }
    }

    #[test]
    fn outside_points_return_none() {
        let m = mesh4();
        assert_eq!(m.element_of_point(Vec3::new(1.5, 0.5, 0.5)), None);
        assert_eq!(m.element_of_point(Vec3::new(-0.1, 0.5, 0.5)), None);
    }

    #[test]
    fn max_face_points_are_owned() {
        let m = mesh4();
        // Point exactly on the domain max corner maps into the last element.
        let last = m.element_id(3, 3, 3);
        assert_eq!(m.element_of_point(Vec3::ONE), Some(last));
    }

    #[test]
    fn soa_locate_matches_scalar_clamped_lookup() {
        let m = ElementMesh::new(
            Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(3.0, 2.0, 5.0)),
            MeshDims::new(5, 3, 7),
            4,
        )
        .unwrap();
        let mut pts = Vec::new();
        // Interior lattice + out-of-domain + NaN + exact max-face points.
        for i in 0..200 {
            let t = i as f64 * 0.0137;
            pts.push(Vec3::new(-2.0 + t * 4.0, -1.0 + t * 2.5, 1.0 + t * 3.0));
        }
        pts.push(Vec3::new(f64::NAN, 1.0, 3.0));
        pts.push(Vec3::new(3.0, 2.0, 5.0)); // domain max corner
        pts.push(Vec3::splat(f64::INFINITY));
        pts.push(Vec3::splat(f64::NEG_INFINITY));
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let zs: Vec<f64> = pts.iter().map(|p| p.z).collect();
        let mut out = Vec::new();
        m.locate_clamped_soa(&xs, &ys, &zs, &mut out);
        assert_eq!(out.len(), pts.len());
        for (p, &e) in pts.iter().zip(&out) {
            let q = p.clamp(m.domain().min, m.domain().max);
            let want = m.element_of_point(q).unwrap();
            assert_eq!(e as usize, want.index(), "p={p}");
        }
    }

    #[test]
    fn element_boxes_tile_domain() {
        let m = mesh4();
        let total: f64 = m.element_ids().map(|id| m.element_aabb(id).volume()).sum();
        assert!((total - m.domain().volume()).abs() < 1e-12);
    }

    #[test]
    fn neighbors_counts() {
        let m = mesh4();
        // corner element: 3 neighbours
        assert_eq!(m.neighbors(m.element_id(0, 0, 0)).len(), 3);
        // face-center element: 5 neighbours
        assert_eq!(m.neighbors(m.element_id(1, 1, 0)).len(), 5);
        // interior element: 6 neighbours
        assert_eq!(m.neighbors(m.element_id(1, 1, 1)).len(), 6);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let m = mesh4();
        for id in m.element_ids() {
            for n in m.neighbors(id) {
                assert!(m.neighbors(n).contains(&id), "{id} <-> {n}");
            }
        }
    }

    #[test]
    fn elements_in_aabb_exact() {
        let m = mesh4();
        // a box covering exactly the first octant (2x2x2 elements)
        let q = Aabb::new(Vec3::ZERO, Vec3::splat(0.49));
        let hits = m.elements_in_aabb(&q);
        assert_eq!(hits.len(), 8);
        // sphere-sized query around a single centroid
        let c = m.element_aabb(m.element_id(2, 2, 2)).center();
        let q = Aabb::new(c - Vec3::splat(0.01), c + Vec3::splat(0.01));
        assert_eq!(m.elements_in_aabb(&q), vec![m.element_id(2, 2, 2)]);
        // disjoint query
        let q = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(m.elements_in_aabb(&q).is_empty());
    }

    #[test]
    fn elements_in_aabb_is_consistent_with_intersects() {
        let m = mesh4();
        let q = Aabb::new(Vec3::new(0.2, 0.3, 0.4), Vec3::new(0.8, 0.6, 0.9));
        let brute: Vec<_> = m
            .element_ids()
            .filter(|&id| m.element_aabb(id).intersects(&q))
            .collect();
        let fast = m.elements_in_aabb(&q);
        assert_eq!(brute, fast);
    }
}
