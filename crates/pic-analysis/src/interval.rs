//! Closed interval arithmetic over `f64`, the abstract domain for the
//! expression analyzer.
//!
//! Intervals are conservative: every concrete value an expression can take
//! on inputs drawn from the feature space lies inside the computed interval
//! (up to one ulp of outward rounding slack in the bound arithmetic, which
//! callers absorb with a tolerance). Bounds may be infinite; an interval
//! whose computation would produce NaN bounds widens to [`Interval::FULL`]
//! and the analyzer reports the node as numerically undecidable.

use serde::{Deserialize, Serialize};

/// The protected-division guard band used by `pic_models::Expr::eval`:
/// denominators with `|d| < PROTECT_EPS` make the division return its
/// numerator unchanged.
pub const PROTECT_EPS: f64 = 1e-9;

/// A closed interval `[lo, hi]` with `lo <= hi`; bounds may be infinite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

/// Result of abstractly evaluating a protected division: the value interval
/// plus which branches of the guard are reachable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivOutcome {
    /// Interval covering every value the division can produce.
    pub value: Interval,
    /// The guard `|d| < 1e-9` can fire (numerator passes through).
    pub may_protect: bool,
    /// The guard always fires: the division is the identity on its
    /// numerator for every reachable denominator.
    pub always_protects: bool,
}

impl Interval {
    /// The interval covering every finite and infinite `f64`.
    pub const FULL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Degenerate interval containing exactly `v`. NaN widens to
    /// [`Interval::FULL`] so the domain stays NaN-free.
    pub fn point(v: f64) -> Interval {
        if v.is_nan() {
            Interval::FULL
        } else {
            Interval { lo: v, hi: v }
        }
    }

    /// Interval from two bounds in either order; NaN in either bound
    /// widens to [`Interval::FULL`].
    pub fn new(a: f64, b: f64) -> Interval {
        if a.is_nan() || b.is_nan() {
            Interval::FULL
        } else if a <= b {
            Interval { lo: a, hi: b }
        } else {
            Interval { lo: b, hi: a }
        }
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Is the interval a single point?
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Are both bounds finite?
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection, or `None` when the intervals are disjoint.
    fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Protected interval division, mirroring `Expr::eval` semantics:
    /// denominators inside the guard band `(-1e-9, 1e-9)` pass the
    /// numerator through; the rest divide normally. The result hulls every
    /// reachable branch and reports guard reachability.
    pub fn div_protected(self, denom: Interval) -> DivOutcome {
        let guard = Interval {
            lo: -PROTECT_EPS,
            hi: PROTECT_EPS,
        };
        let may_protect = denom.intersect(guard).is_some();
        // `|d| < eps` strictly, so a denominator pinned at exactly ±eps
        // never protects; anything strictly inside the closed band can.
        let always_protects = denom.lo > -PROTECT_EPS && denom.hi < PROTECT_EPS;

        let mut value: Option<Interval> = None;
        let mut join = |iv: Interval| {
            value = Some(match value {
                Some(v) => v.hull(iv),
                None => iv,
            });
        };

        if may_protect {
            join(self); // numerator passes through unchanged
        }
        for part in [
            denom.intersect(Interval::new(PROTECT_EPS, f64::INFINITY)),
            denom.intersect(Interval::new(f64::NEG_INFINITY, -PROTECT_EPS)),
        ]
        .into_iter()
        .flatten()
        {
            join(self.div_exact(part));
        }
        DivOutcome {
            value: value.unwrap_or(Interval::FULL),
            may_protect,
            always_protects,
        }
    }

    /// Ordinary interval division for a denominator interval that excludes
    /// the guard band (single sign, bounded away from zero).
    fn div_exact(self, denom: Interval) -> Interval {
        fn corner(a: f64, b: f64) -> f64 {
            // ±0 / b and 0 / ±∞ have exact limit 0. The ∞/∞ corner also
            // resolves to 0: finite quotients near it stay bounded only
            // through other corners, and 0 is a safe member since the hull
            // with finite corners covers the true range.
            if a == 0.0 || (a.is_infinite() && b.is_infinite()) {
                0.0
            } else {
                a / b
            }
        }
        let c = [
            corner(self.lo, denom.lo),
            corner(self.lo, denom.hi),
            corner(self.hi, denom.lo),
            corner(self.hi, denom.hi),
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        // An infinite-width denominator with an infinite numerator can
        // realize arbitrarily large quotients: widen.
        if (self.lo.is_infinite() || self.hi.is_infinite())
            && (denom.lo.is_infinite() || denom.hi.is_infinite())
        {
            return Interval::FULL;
        }
        Interval::new(lo, hi)
    }
}

/// Interval sum. `∞ + (-∞)` corners widen to [`Interval::FULL`].
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }
}

/// Interval difference.
impl std::ops::Sub for Interval {
    type Output = Interval;

    fn sub(self, other: Interval) -> Interval {
        Interval::new(self.lo - other.hi, self.hi - other.lo)
    }
}

/// Interval product: min/max over the four corner products, with the
/// IEEE `0 × ∞ = NaN` corners resolved to `0` (the exact limit of the
/// underlying finite products).
impl std::ops::Mul for Interval {
    type Output = Interval;

    fn mul(self, other: Interval) -> Interval {
        fn corner(a: f64, b: f64) -> f64 {
            if a == 0.0 || b == 0.0 {
                0.0
            } else {
                a * b
            }
        }
        let c = [
            corner(self.lo, other.lo),
            corner(self.lo, other.hi),
            corner(self.hi, other.lo),
            corner(self.hi, other.hi),
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::new(lo, hi)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_containment() {
        let p = Interval::point(3.5);
        assert!(p.is_point());
        assert!(p.contains(3.5));
        assert!(!p.contains(0.0));
        assert!(Interval::new(-1.0, 2.0).contains(0.0));
    }

    #[test]
    fn nan_widens_to_full() {
        assert_eq!(Interval::point(f64::NAN), Interval::FULL);
        assert_eq!(Interval::new(f64::NAN, 1.0), Interval::FULL);
    }

    #[test]
    fn add_sub_mul_corners() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(3.0, 5.0);
        assert_eq!(a + b, Interval::new(2.0, 7.0));
        assert_eq!(a - b, Interval::new(-6.0, -1.0));
        assert_eq!(a * b, Interval::new(-5.0, 10.0));
    }

    #[test]
    fn mul_zero_times_infinity_is_sound() {
        let z = Interval::point(0.0);
        let inf = Interval::new(1.0, f64::INFINITY);
        let r = z * inf;
        assert!(r.contains(0.0));
        assert!(r.is_finite());
    }

    #[test]
    fn division_away_from_zero_is_exact() {
        let a = Interval::new(1.0, 4.0);
        let b = Interval::new(2.0, 8.0);
        let out = a.div_protected(b);
        assert!(!out.may_protect);
        assert!(!out.always_protects);
        assert_eq!(out.value, Interval::new(0.125, 2.0));
    }

    #[test]
    fn division_through_zero_includes_numerator_branch() {
        let a = Interval::new(6.0, 6.0);
        let b = Interval::new(-1.0, 1.0);
        let out = a.div_protected(b);
        assert!(out.may_protect);
        assert!(!out.always_protects);
        // protected branch yields 6; divide branches reach ±6e9
        assert!(out.value.contains(6.0));
        assert!(out.value.contains(6.0e9));
        assert!(out.value.contains(-6.0e9));
    }

    #[test]
    fn division_by_tiny_denominator_always_protects() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-1e-12, 1e-12);
        let out = a.div_protected(b);
        assert!(out.always_protects);
        assert_eq!(out.value, a);
    }

    #[test]
    fn protected_division_matches_eval_on_samples() {
        // brute-force soundness on a grid
        let num = Interval::new(-3.0, 5.0);
        let den = Interval::new(-2.0, 4.0);
        let out = num.div_protected(den);
        let steps = 40;
        for i in 0..=steps {
            for j in 0..=steps {
                let n = num.lo + (num.hi - num.lo) * i as f64 / steps as f64;
                let d = den.lo + (den.hi - den.lo) * j as f64 / steps as f64;
                let v = if d.abs() < PROTECT_EPS { n } else { n / d };
                assert!(
                    out.value.contains(v),
                    "{v} from {n}/{d} outside {}",
                    out.value
                );
            }
        }
    }

    #[test]
    fn hull_and_intersect() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 5.0);
        assert_eq!(a.hull(b), Interval::new(0.0, 5.0));
        assert_eq!(a.intersect(b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.intersect(Interval::new(3.0, 4.0)), None);
    }
}
