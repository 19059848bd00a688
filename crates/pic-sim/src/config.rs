//! Simulation configuration — the "configuration file" of the paper's
//! framework (Fig 3): system configuration (processor count), application
//! configuration (particles, elements, grid dimensions, mapping algorithm,
//! problem parameters).

use crate::oracle::CostOracle;
use crate::scenario::ScenarioKind;
use pic_des::MachineSpec;
use pic_grid::MeshDims;
use pic_mapping::MappingAlgorithm;
use pic_types::{Aabb, PicError, Result, Vec3};
use serde::{Deserialize, Serialize};

/// How kernel execution times are observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "mode")]
pub enum TimingMode {
    /// Measure wall-clock time of the real kernels (machine-dependent).
    WallClock,
    /// Query the deterministic cost oracle (reproducible; see
    /// [`CostOracle`] and DESIGN.md for the substitution rationale).
    Oracle {
        /// Oracle noise level.
        noise_sigma: f64,
        /// Oracle noise seed.
        seed: u64,
    },
}

impl TimingMode {
    /// The default reproducible oracle.
    pub fn default_oracle() -> TimingMode {
        let o = CostOracle::default();
        TimingMode::Oracle {
            noise_sigma: o.noise_sigma,
            seed: o.seed,
        }
    }

    /// Materialize the oracle, if this mode uses one.
    pub fn oracle(&self) -> Option<CostOracle> {
        match *self {
            TimingMode::WallClock => None,
            TimingMode::Oracle { noise_sigma, seed } => Some(CostOracle { noise_sigma, seed }),
        }
    }
}

/// Full configuration of a mini-app run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Processor (simulated rank) count — the paper's `R`.
    pub ranks: usize,
    /// Elements per axis — `N_el = nx·ny·nz`.
    pub mesh_dims: MeshDims,
    /// GLL points per direction within an element — the paper's `N`.
    pub order: usize,
    /// The computational domain.
    pub domain: Aabb,
    /// Number of particles — `N_p`.
    pub particles: usize,
    /// Problem scenario (initial distribution + fluid field).
    pub scenario: ScenarioKind,
    /// Particle mapping algorithm.
    pub mapping: MappingAlgorithm,
    /// Projection filter radius (also the bin-size threshold).
    pub projection_filter: f64,
    /// Time-step size.
    pub dt: f64,
    /// Number of solver steps to run.
    pub steps: usize,
    /// Steps between trace samples (the paper used 100 iterations).
    pub sample_interval: usize,
    /// Drag relaxation time.
    pub drag_tau: f64,
    /// Soft-sphere collision radius (0 disables collisions).
    pub collision_radius: f64,
    /// Collision stiffness.
    pub collision_stiffness: f64,
    /// Gravity vector.
    pub gravity: Vec3,
    /// Master seed for initialization.
    pub seed: u64,
    /// Timing observation mode.
    pub timing: TimingMode,
    /// The machine the application clock prices every iteration on;
    /// `None` (the default) leaves it off. It prices kernels with the
    /// oracle, so it needs oracle timing (see [`crate::clock`]).
    #[serde(default)]
    pub clock: Option<MachineSpec>,
}

impl Default for SimConfig {
    /// A laptop-scale Hele-Shaw run: 8³ elements, 4 000 particles, 64 ranks,
    /// bin-based mapping — small enough for tests, structured like the
    /// paper's case study.
    fn default() -> SimConfig {
        SimConfig {
            ranks: 64,
            mesh_dims: MeshDims::cube(8),
            order: 5,
            domain: Aabb::unit(),
            particles: 4000,
            scenario: ScenarioKind::HeleShaw,
            mapping: MappingAlgorithm::BinBased,
            projection_filter: 0.04,
            dt: 0.01,
            steps: 100,
            sample_interval: 10,
            drag_tau: 0.05,
            collision_radius: 0.0,
            collision_stiffness: 50.0,
            gravity: Vec3::new(0.0, 0.0, -0.2),
            seed: 20210517,
            timing: TimingMode::default_oracle(),
            clock: None,
        }
    }
}

impl SimConfig {
    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.ranks == 0 {
            return Err(PicError::config("ranks must be positive"));
        }
        if self.particles == 0 {
            return Err(PicError::config("particle count must be positive"));
        }
        if self.order < 2 {
            return Err(PicError::config("element order must be at least 2"));
        }
        if !(self.projection_filter.is_finite() && self.projection_filter > 0.0) {
            return Err(PicError::config("projection filter must be positive"));
        }
        for (name, value) in [("dt", self.dt), ("drag_tau", self.drag_tau)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(PicError::config(format!(
                    "{name} must be positive and finite, got {value}"
                )));
            }
        }
        if !(self.collision_radius.is_finite() && self.collision_radius >= 0.0) {
            return Err(PicError::config(format!(
                "collision_radius must be non-negative and finite, got {}",
                self.collision_radius
            )));
        }
        if !self.collision_stiffness.is_finite() {
            return Err(PicError::config(format!(
                "collision_stiffness must be finite, got {}",
                self.collision_stiffness
            )));
        }
        if !self.gravity.is_finite() {
            return Err(PicError::config(format!(
                "gravity must be finite, got {}",
                self.gravity
            )));
        }
        if let Some(machine) = &self.clock {
            machine.validate()?;
            if matches!(self.timing, TimingMode::WallClock) {
                return Err(PicError::config(
                    "the application clock prices kernels with the cost oracle; \
                     it needs oracle timing",
                ));
            }
        }
        if self.sample_interval == 0 {
            return Err(PicError::config("sample interval must be positive"));
        }
        if self.domain.is_empty() || self.domain.volume() <= 0.0 {
            return Err(PicError::config("domain must have positive volume"));
        }
        // Every simulated rank owns at least one element, as in Nek5000. A
        // count that overflows is left to `ElementMesh::new` to refuse.
        let d = self.mesh_dims;
        let elements = d.nx.saturating_mul(d.ny).saturating_mul(d.nz);
        if self.ranks > elements {
            return Err(PicError::config(format!(
                "ranks ({}) exceed the mesh's {elements} elements; every rank owns at least one element",
                self.ranks
            )));
        }
        Ok(())
    }

    /// Total element count.
    pub fn element_count(&self) -> usize {
        self.mesh_dims.count()
    }

    /// Serialize to pretty JSON (the on-disk configuration-file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SimConfig serializes")
    }

    /// Parse from JSON, then validate.
    pub fn from_json(s: &str) -> Result<SimConfig> {
        let cfg: SimConfig = serde_json::from_str(s)
            .map_err(|e| PicError::config(format!("bad config JSON: {e}")))?;
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let base = SimConfig::default();
        let mut c = base.clone();
        c.ranks = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.particles = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.order = 1;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.projection_filter = -0.1;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.dt = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.sample_interval = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_names_each_ill_posed_field() {
        let refused = |edit: &dyn Fn(&mut SimConfig), expect: &str| {
            let mut c = SimConfig::default();
            edit(&mut c);
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains(expect), "{err:?} should contain {expect:?}");
        };
        refused(&|c| c.dt = 0.0, "dt must be positive and finite, got 0");
        refused(&|c| c.dt = -1.0, "dt must be positive and finite, got -1");
        refused(
            &|c| c.dt = f64::INFINITY,
            "dt must be positive and finite, got inf",
        );
        refused(
            &|c| c.dt = f64::NAN,
            "dt must be positive and finite, got NaN",
        );
        refused(
            &|c| c.drag_tau = 0.0,
            "drag_tau must be positive and finite, got 0",
        );
        refused(
            &|c| c.drag_tau = -1.0,
            "drag_tau must be positive and finite, got -1",
        );
        refused(
            &|c| c.drag_tau = f64::NAN,
            "drag_tau must be positive and finite, got NaN",
        );
        refused(
            &|c| c.collision_radius = -0.1,
            "collision_radius must be non-negative and finite, got -0.1",
        );
        refused(
            &|c| c.collision_radius = f64::INFINITY,
            "collision_radius must be non-negative and finite, got inf",
        );
        refused(
            &|c| c.collision_stiffness = f64::NAN,
            "collision_stiffness must be finite, got NaN",
        );
        refused(
            &|c| c.gravity = Vec3::new(0.0, 0.0, f64::NEG_INFINITY),
            "gravity must be finite",
        );
        // 8³ = 512 elements: 512 ranks are admitted, 513 and 2^40 are not.
        refused(
            &|c| c.ranks = 513,
            "ranks (513) exceed the mesh's 512 elements",
        );
        refused(
            &|c| c.ranks = 1 << 40,
            "ranks (1099511627776) exceed the mesh's 512 elements",
        );
        let mut c = SimConfig {
            ranks: 512,
            ..SimConfig::default()
        };
        c.validate().unwrap();
        // A huge `dt` is finite and positive, so it is admitted here;
        // `MiniPic::run` refuses the motion it produces.
        c.dt = 1e300;
        c.validate().unwrap();
    }

    #[test]
    fn the_clock_needs_oracle_timing_and_finite_numbers() {
        let on = SimConfig {
            clock: Some(MachineSpec::quartz_like()),
            ..SimConfig::default()
        };
        on.validate().unwrap();
        let wall = SimConfig {
            timing: TimingMode::WallClock,
            ..on.clone()
        };
        let err = wall.validate().unwrap_err().to_string();
        assert!(err.contains("needs oracle timing"), "{err}");
        let nan = SimConfig {
            clock: Some(MachineSpec {
                link_bandwidth: f64::NAN,
                ..MachineSpec::quartz_like()
            }),
            ..SimConfig::default()
        };
        let err = nan.validate().unwrap_err().to_string();
        assert!(err.contains("link_bandwidth is NaN"), "{err}");
        // A configuration file without the key reads the clock off.
        let json = SimConfig::default()
            .to_json()
            .replace(",\n  \"clock\": null", "");
        assert!(!json.contains("clock"), "{json}");
        assert_eq!(SimConfig::from_json(&json).unwrap(), SimConfig::default());
        assert_eq!(SimConfig::from_json(&on.to_json()).unwrap(), on);
    }

    #[test]
    fn json_roundtrip() {
        let cfg = SimConfig::default();
        let json = cfg.to_json();
        let back = SimConfig::from_json(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn bad_json_is_config_error() {
        assert!(SimConfig::from_json("{").is_err());
        assert!(SimConfig::from_json("{\"ranks\": 4}").is_err());
    }

    #[test]
    fn timing_mode_oracle_materializes() {
        assert!(TimingMode::WallClock.oracle().is_none());
        let m = TimingMode::Oracle {
            noise_sigma: 0.2,
            seed: 9,
        };
        let o = m.oracle().unwrap();
        assert_eq!(o.noise_sigma, 0.2);
        assert_eq!(o.seed, 9);
    }
}
