//! Axis-aligned bounding boxes.
//!
//! [`Aabb`] describes processor domains, spectral-element extents, particle
//! bins, and the overall particle boundary used by the bin-based mapper. The
//! bin partitioner's *recursive planar cut* is expressed as [`Aabb::split_at`].

use crate::vec3::{Axis, Vec3};
use serde::{Deserialize, Serialize};

/// An axis-aligned box, described by its minimum and maximum corners.
///
/// An `Aabb` is considered *valid* when `min` is component-wise `<= max`.
/// The degenerate box returned by [`Aabb::empty`] intentionally violates this
/// so that union-accumulation starts from an identity value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Construct a box from corners. Panics in debug builds if `min > max`
    /// on any axis.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Aabb {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "invalid Aabb: min {min} > max {max}"
        );
        Aabb { min, max }
    }

    /// The *empty* box: the identity of [`Aabb::union`]. Contains no point.
    #[inline]
    pub fn empty() -> Aabb {
        Aabb {
            min: Vec3::splat(f64::INFINITY),
            max: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    /// A unit cube `[0,1]^3`.
    #[inline]
    pub fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    /// Smallest box containing all `points`; [`Aabb::empty`] for an empty
    /// iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Aabb {
        let mut b = Aabb::empty();
        for p in points {
            b.expand(p);
        }
        b
    }

    /// True if this box contains no points (any `min > max` component).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Edge lengths, or zero vector for an empty box.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        if self.is_empty() {
            Vec3::ZERO
        } else {
            self.max - self.min
        }
    }

    /// Geometric center. Meaningless for empty boxes.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Volume (product of edge lengths); zero for empty boxes.
    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Length of the longest edge.
    #[inline]
    pub fn longest_extent(&self) -> f64 {
        let e = self.extent();
        e.x.max(e.y).max(e.z)
    }

    /// Half-open containment test: `min <= p < max` on every axis.
    ///
    /// Half-open boxes tile space without double-counting boundary particles,
    /// which keeps processor ownership unambiguous.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x < self.max.x
            && p.y >= self.min.y
            && p.y < self.max.y
            && p.z >= self.min.z
            && p.z < self.max.z
    }

    /// Closed containment test: `min <= p <= max` on every axis.
    #[inline]
    pub fn contains_closed(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Grow the box (in place) to include point `p`.
    #[inline]
    pub fn expand(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// The box inflated by `r` on every side. Used for projection-filter
    /// ghost-particle overlap queries.
    #[inline]
    pub fn inflate(&self, r: f64) -> Aabb {
        Aabb {
            min: self.min - Vec3::splat(r),
            max: self.max + Vec3::splat(r),
        }
    }

    /// Smallest box containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// True if the two boxes overlap (closed comparison on every axis).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// Squared distance from point `p` to the box (zero if inside).
    #[inline]
    pub fn distance_sq_to_point(&self, p: Vec3) -> f64 {
        let q = p.clamp(self.min, self.max);
        p.distance_sq(q)
    }

    /// True if the sphere at `center` with radius `r` touches the box.
    ///
    /// This is the exact test used to decide whether a particle's projection
    /// filter spills onto a remote processor domain (making it a ghost there).
    ///
    /// ```
    /// use pic_types::{Aabb, Vec3};
    /// let b = Aabb::unit();
    /// assert!(b.intersects_sphere(Vec3::new(1.2, 0.5, 0.5), 0.3));
    /// assert!(!b.intersects_sphere(Vec3::new(1.2, 0.5, 0.5), 0.1));
    /// ```
    #[inline]
    pub fn intersects_sphere(&self, center: Vec3, r: f64) -> bool {
        !self.is_empty() && self.distance_sq_to_point(center) <= r * r
    }

    /// Split the box by a plane at coordinate `at` perpendicular to `axis`,
    /// returning `(low, high)`. The cut coordinate must lie within the box.
    ///
    /// This is a single *planar cut* of the bin-based mapping algorithm's
    /// recursive partition.
    pub fn split_at(&self, axis: Axis, at: f64) -> (Aabb, Aabb) {
        debug_assert!(
            at >= self.min.get(axis) && at <= self.max.get(axis),
            "cut {at} outside box on {axis:?}"
        );
        let mut lo = *self;
        let mut hi = *self;
        lo.max = lo.max.with(axis, at);
        hi.min = hi.min.with(axis, at);
        (lo, hi)
    }
}

impl std::fmt::Display for Aabb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        assert_eq!(e.extent(), Vec3::ZERO);
        assert!(!e.contains(Vec3::ZERO));
        let u = Aabb::unit();
        assert_eq!(e.union(&u), u);
        assert!(!e.intersects(&u));
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [
            Vec3::new(0.0, 5.0, -1.0),
            Vec3::new(2.0, -1.0, 4.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let b = Aabb::from_points(pts);
        assert_eq!(b.min, Vec3::new(0.0, -1.0, -1.0));
        assert_eq!(b.max, Vec3::new(2.0, 5.0, 4.0));
        for p in pts {
            assert!(b.contains_closed(p));
        }
    }

    #[test]
    fn half_open_containment_tiles() {
        let (lo, hi) = Aabb::unit().split_at(Axis::X, 0.5);
        let boundary = Vec3::new(0.5, 0.2, 0.2);
        assert!(!lo.contains(boundary));
        assert!(hi.contains(boundary));
        // no point owned by both halves
        assert!(!(lo.contains(boundary) && hi.contains(boundary)));
    }

    #[test]
    fn split_preserves_volume() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        let (lo, hi) = b.split_at(Axis::Z, 2.0);
        assert!((lo.volume() + hi.volume() - b.volume()).abs() < 1e-12);
        assert_eq!(lo.union(&hi), b);
    }

    #[test]
    fn sphere_intersection() {
        let b = Aabb::unit();
        assert!(b.intersects_sphere(Vec3::splat(0.5), 0.01)); // inside
        assert!(b.intersects_sphere(Vec3::new(1.5, 0.5, 0.5), 0.6)); // touches face
        assert!(!b.intersects_sphere(Vec3::new(1.5, 0.5, 0.5), 0.4)); // misses
                                                                      // corner distance is sqrt(3*0.25) ≈ 0.866 from (1.5,1.5,1.5)
        assert!(b.intersects_sphere(Vec3::splat(1.5), 0.87));
        assert!(!b.intersects_sphere(Vec3::splat(1.5), 0.85));
    }

    #[test]
    fn inflate_grows_symmetrically() {
        let b = Aabb::unit().inflate(0.25);
        assert_eq!(b.min, Vec3::splat(-0.25));
        assert_eq!(b.max, Vec3::splat(1.25));
    }

    #[test]
    fn distance_sq_inside_is_zero() {
        let b = Aabb::unit();
        assert_eq!(b.distance_sq_to_point(Vec3::splat(0.5)), 0.0);
        assert_eq!(b.distance_sq_to_point(Vec3::new(2.0, 0.5, 0.5)), 1.0);
    }

    #[test]
    fn expand_is_monotone() {
        let mut b = Aabb::empty();
        b.expand(Vec3::ZERO);
        assert!(!b.is_empty());
        assert!(b.contains_closed(Vec3::ZERO));
        b.expand(Vec3::ONE);
        assert_eq!(b, Aabb::unit());
    }
}
