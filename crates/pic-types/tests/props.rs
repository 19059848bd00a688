//! Property-based tests for the geometric and statistical foundations.

use pic_types::stats;
use pic_types::{Aabb, Axis, Vec3};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e6..1e6f64
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (finite_f64(), finite_f64(), finite_f64()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn aabb() -> impl Strategy<Value = Aabb> {
    (vec3(), vec3()).prop_map(|(a, b)| Aabb::new(a.min(b), a.max(b)))
}

proptest! {
    #[test]
    fn vec3_add_commutes(a in vec3(), b in vec3()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn vec3_norm_triangle_inequality(a in vec3(), b in vec3()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-6);
    }

    #[test]
    fn vec3_dot_cauchy_schwarz(a in vec3(), b in vec3()) {
        prop_assert!(a.dot(b).abs() <= a.norm() * b.norm() * (1.0 + 1e-12) + 1e-9);
    }

    #[test]
    fn vec3_cross_is_orthogonal(a in vec3(), b in vec3()) {
        let c = a.cross(b);
        let scale = (a.norm() * b.norm()).max(1.0);
        prop_assert!(c.dot(a).abs() / (scale * scale.max(c.norm())) < 1e-9);
    }

    #[test]
    fn vec3_clamp_is_inside(v in vec3(), b in aabb()) {
        let q = v.clamp(b.min, b.max);
        prop_assert!(b.contains_closed(q), "{} not in {}", q, b);
    }

    #[test]
    fn aabb_union_contains_both(a in aabb(), b in aabb()) {
        let u = a.union(&b);
        prop_assert!(u.contains_closed(a.min) && u.contains_closed(a.max));
        prop_assert!(u.contains_closed(b.min) && u.contains_closed(b.max));
    }

    #[test]
    fn aabb_split_partitions_points(b in aabb(), p in vec3(), t in 0.0..1.0f64) {
        prop_assume!(!b.is_empty() && b.volume() > 0.0);
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let at = b.min.get(axis) + t * (b.max.get(axis) - b.min.get(axis));
            let (lo, hi) = b.split_at(axis, at);
            // every point of the parent box is in exactly one half (half-open)
            if b.contains(p) {
                prop_assert!(lo.contains(p) ^ hi.contains(p));
            }
            // volumes add up
            prop_assert!(
                (lo.volume() + hi.volume() - b.volume()).abs() <= 1e-9 * b.volume().max(1.0)
            );
        }
    }

    #[test]
    fn aabb_sphere_test_matches_distance(b in aabb(), c in vec3(), r in 0.0..1e3f64) {
        let hit = b.intersects_sphere(c, r);
        let d2 = b.distance_sq_to_point(c);
        prop_assert_eq!(hit, d2 <= r * r);
    }

    #[test]
    fn aabb_from_points_is_tight(pts in proptest::collection::vec(vec3(), 1..20)) {
        let b = Aabb::from_points(pts.iter().copied());
        for p in &pts {
            prop_assert!(b.contains_closed(*p));
        }
        // tight: every face touches some point
        let eps = 1e-9;
        for axis in 0..3 {
            prop_assert!(pts.iter().any(|p| (p[axis] - b.min[axis]).abs() <= eps));
            prop_assert!(pts.iter().any(|p| (p[axis] - b.max[axis]).abs() <= eps));
        }
    }

    #[test]
    fn inflate_preserves_containment(b in aabb(), r in 0.0..100.0f64, p in vec3()) {
        if b.contains_closed(p) {
            prop_assert!(b.inflate(r).contains_closed(p));
        }
    }

    #[test]
    fn mape_is_scale_invariant(
        ys in proptest::collection::vec(1.0..1e4f64, 1..20),
        errs in proptest::collection::vec(-0.5..0.5f64, 1..20),
        scale in 0.1..100.0f64,
    ) {
        let n = ys.len().min(errs.len());
        let actual: Vec<f64> = ys[..n].to_vec();
        let pred: Vec<f64> = actual.iter().zip(&errs[..n]).map(|(y, e)| y * (1.0 + e)).collect();
        let m1 = stats::mape(&pred, &actual);
        let scaled_a: Vec<f64> = actual.iter().map(|y| y * scale).collect();
        let scaled_p: Vec<f64> = pred.iter().map(|y| y * scale).collect();
        let m2 = stats::mape(&scaled_p, &scaled_a);
        prop_assert!((m1 - m2).abs() < 1e-6, "{m1} vs {m2}");
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        xs in proptest::collection::vec(finite_f64(), 1..50),
        q1 in 0.0..100.0f64,
        q2 in 0.0..100.0f64,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = stats::percentile(&xs, lo);
        let p_hi = stats::percentile(&xs, hi);
        prop_assert!(p_lo <= p_hi + 1e-9);
        prop_assert!(p_lo >= stats::min(&xs) - 1e-9);
        prop_assert!(p_hi <= stats::max(&xs) + 1e-9);
    }

    #[test]
    fn imbalance_factor_at_least_one_for_nonzero_load(
        xs in proptest::collection::vec(0.0..1e6f64, 1..50),
    ) {
        let f = stats::imbalance_factor(&xs);
        if xs.iter().any(|&x| x > 0.0) {
            prop_assert!(f >= 1.0 - 1e-12);
        } else {
            prop_assert_eq!(f, 0.0);
        }
    }

    #[test]
    fn splitmix_streams_do_not_collide(seed in any::<u64>()) {
        let a = pic_types::rng::derive_seed(seed, 0);
        let b = pic_types::rng::derive_seed(seed, 1);
        let c = pic_types::rng::derive_seed(seed, 2);
        prop_assert!(a != b && b != c && a != c);
    }
}
