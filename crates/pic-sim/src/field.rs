//! Eulerian fluid fields.
//!
//! CMT-nek's fluid solver advances the Euler equations of gas dynamics on
//! the spectral-element grid; the particle solver only ever *samples* the
//! resulting fluid state at grid points. For the prediction framework the
//! fluid state itself is irrelevant — what matters is that particles are
//! driven through the domain with realistic, problem-shaped motion. We
//! therefore model the fluid with analytic time-dependent fields evaluated
//! at grid points, which the interpolation kernel then interpolates to the
//! particles exactly as the real code would.

use pic_types::Vec3;

/// An analytic fluid field: velocity as a function of position and time.
pub trait FluidField: Send + Sync {
    /// Fluid velocity at position `p` and time `t`.
    fn velocity(&self, p: Vec3, t: f64) -> Vec3;

    /// Fluid pressure at position `p` and time `t` (used only as an extra
    /// interpolated scalar; default constant).
    fn pressure(&self, _p: Vec3, _t: f64) -> f64 {
        1.0
    }
}

/// Constant uniform flow.
#[derive(Debug, Clone)]
pub struct UniformFlow {
    /// The constant velocity everywhere.
    pub velocity: Vec3,
}

impl FluidField for UniformFlow {
    fn velocity(&self, _p: Vec3, _t: f64) -> Vec3 {
        self.velocity
    }
}

/// A blast wave expanding from an origin — the Hele-Shaw driver.
///
/// At `t = 0` the diaphragm bursts: a radial velocity field switches on,
/// strongest near the (moving) shock front and decaying behind and ahead of
/// it. Particles caught by the front are flung outward, so the particle
/// boundary expands over time and the expansion *rate* decays — exactly the
/// behaviour behind the paper's Figs 5 and 6.
#[derive(Debug, Clone)]
pub struct BlastField {
    /// Burst origin (bottom of the cylinder in Hele-Shaw).
    pub origin: Vec3,
    /// Peak gas speed at the shock front at t=0.
    pub peak_speed: f64,
    /// Shock front speed.
    pub shock_speed: f64,
    /// Gaussian width of the front.
    pub front_width: f64,
    /// Exponential decay time of the blast strength.
    pub decay_time: f64,
}

impl BlastField {
    /// A blast configured for a unit-cube Hele-Shaw cell: origin at the
    /// bottom face centre.
    pub fn hele_shaw_default() -> BlastField {
        BlastField {
            origin: Vec3::new(0.5, 0.5, 0.0),
            peak_speed: 3.0,
            shock_speed: 0.6,
            front_width: 0.15,
            decay_time: 0.8,
        }
    }

    /// Radius of the shock front at time `t`.
    fn front_radius(&self, t: f64) -> f64 {
        self.shock_speed * t
    }
}

impl FluidField for BlastField {
    fn velocity(&self, p: Vec3, t: f64) -> Vec3 {
        if t <= 0.0 {
            return Vec3::ZERO;
        }
        let rvec = p - self.origin;
        let r = rvec.norm();
        let front = self.front_radius(t);
        // Gaussian bump around the front, exponential temporal decay.
        let envelope = (-((r - front) / self.front_width).powi(2)).exp();
        let strength = self.peak_speed * (-t / self.decay_time).exp();
        let dir = if r > 1e-12 {
            rvec / r
        } else {
            Vec3::new(0.0, 0.0, 1.0)
        };
        dir * (strength * envelope)
    }

    fn pressure(&self, p: Vec3, t: f64) -> f64 {
        let r = (p - self.origin).norm();
        1.0 + 5.0 * (-t / self.decay_time).exp() / (1.0 + (r / self.front_width).powi(2))
    }
}

/// A steady vortex around an axis — used by the vortex example scenario to
/// exercise sustained cross-rank migration without boundary expansion.
#[derive(Debug, Clone)]
pub struct VortexField {
    /// A point on the rotation axis.
    pub center: Vec3,
    /// Angular speed (radians per unit time).
    pub angular_speed: f64,
}

impl FluidField for VortexField {
    fn velocity(&self, p: Vec3, _t: f64) -> Vec3 {
        // Rotation about the z-axis through `center`.
        let rel = p - self.center;
        Vec3::new(-rel.y, rel.x, 0.0) * self.angular_speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_flow_is_uniform() {
        let f = UniformFlow {
            velocity: Vec3::new(1.0, 2.0, 3.0),
        };
        assert_eq!(f.velocity(Vec3::ZERO, 0.0), f.velocity(Vec3::ONE, 5.0));
        assert_eq!(f.pressure(Vec3::ZERO, 0.0), 1.0);
    }

    #[test]
    fn blast_is_zero_before_burst() {
        let f = BlastField::hele_shaw_default();
        assert_eq!(f.velocity(Vec3::splat(0.3), 0.0), Vec3::ZERO);
        assert_eq!(f.velocity(Vec3::splat(0.3), -1.0), Vec3::ZERO);
    }

    #[test]
    fn blast_points_radially_outward() {
        let f = BlastField::hele_shaw_default();
        let p = Vec3::new(0.5, 0.5, 0.2);
        let v = f.velocity(p, 0.3);
        // above the origin → velocity should point up
        assert!(v.z > 0.0);
        assert!(v.x.abs() < 1e-12 && v.y.abs() < 1e-12);
        let q = Vec3::new(0.8, 0.5, 0.0);
        let v = f.velocity(q, 0.3);
        assert!(v.x > 0.0);
    }

    #[test]
    fn blast_strength_decays_in_time() {
        let f = BlastField::hele_shaw_default();
        // sample on the front at two times so the envelope is 1 both times
        let p1 = f.origin + Vec3::new(0.0, 0.0, f.front_radius(0.2));
        let p2 = f.origin + Vec3::new(0.0, 0.0, f.front_radius(1.0));
        let v1 = f.velocity(p1, 0.2).norm();
        let v2 = f.velocity(p2, 1.0).norm();
        assert!(v1 > v2, "v1={v1} v2={v2}");
    }

    #[test]
    fn blast_front_is_strongest() {
        let f = BlastField::hele_shaw_default();
        let t = 0.5;
        let front = f.front_radius(t);
        let at_front = f.velocity(f.origin + Vec3::new(front, 0.0, 0.0), t).norm();
        let behind = f
            .velocity(f.origin + Vec3::new(front * 0.3, 0.0, 0.0), t)
            .norm();
        let ahead = f
            .velocity(f.origin + Vec3::new(front * 2.5, 0.0, 0.0), t)
            .norm();
        assert!(at_front > behind && at_front > ahead);
    }

    #[test]
    fn blast_pressure_peaks_at_origin() {
        let f = BlastField::hele_shaw_default();
        assert!(f.pressure(f.origin, 0.1) > f.pressure(f.origin + Vec3::splat(0.4), 0.1));
    }

    #[test]
    fn vortex_is_tangential() {
        let f = VortexField {
            center: Vec3::splat(0.5),
            angular_speed: 2.0,
        };
        let p = Vec3::new(0.9, 0.5, 0.5);
        let v = f.velocity(p, 0.0);
        // tangential: perpendicular to the radial direction, no z component
        assert!(v.dot(p - f.center).abs() < 1e-12);
        assert_eq!(v.z, 0.0);
        assert!((v.norm() - 0.8).abs() < 1e-12); // |v| = ω r = 2 * 0.4
    }
}
