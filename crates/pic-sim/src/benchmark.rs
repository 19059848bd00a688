//! Standalone kernel benchmarking across parameter combinations —
//! the paper's model-training procedure (§II-B: "we instrument the source
//! code and benchmark key computation kernels of PIC application for
//! various input parameter combinations").
//!
//! Training models from a single application run is a trap: a well-balanced
//! mapping gives every rank nearly the same `N_p`, so the fitted model
//! never sees the parameter vary and cannot extrapolate to other rank
//! counts. The sweep here executes each kernel on synthetic workloads over
//! a grid of `(N_p, N_gp, N_el)` values — in wall-clock mode by actually
//! running the kernels, in oracle mode by querying the cost oracle — and
//! emits the same [`Recorder`] the instrumented app produces.

use crate::config::TimingMode;
use crate::field::UniformFlow;
use crate::instrument::{KernelKind, Recorder, WorkloadParams};
use crate::kernels::{self, KernelContext};
use crate::particles::CellList;
use pic_grid::gll::GllRule;
use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::{ElementMapper, ParticleMapper, RegionIndex};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, PicError, Result, Vec3};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameter grid for the kernel benchmarking sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Real-particle counts to benchmark.
    pub np_values: Vec<usize>,
    /// Ghost-particle counts to benchmark.
    pub ngp_values: Vec<usize>,
    /// Element counts to benchmark (≤ the sweep mesh's element count).
    pub nel_values: Vec<usize>,
    /// Grid order `N`.
    pub order: usize,
    /// Projection filter radius.
    pub projection_filter: f64,
    /// Observations per parameter combination (more = better noise
    /// averaging for the regression).
    pub repetitions: usize,
    /// Wall-clock or oracle observation.
    pub timing: TimingMode,
    /// Seed for the synthetic workloads.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            np_values: vec![0, 50, 200, 500, 1000, 2000],
            ngp_values: vec![0, 25, 100, 400],
            nel_values: vec![1, 8, 27, 64],
            order: 5,
            projection_filter: 0.03,
            repetitions: 2,
            timing: TimingMode::default_oracle(),
            seed: 0xBEEF,
        }
    }
}

impl SweepConfig {
    /// Number of records the sweep will produce.
    pub fn record_count(&self) -> usize {
        self.np_values.len()
            * self.ngp_values.len()
            * self.nel_values.len()
            * self.repetitions
            * KernelKind::ALL.len()
    }
}

/// Run the sweep and collect one [`Recorder`] of training records.
pub fn benchmark_kernels(cfg: &SweepConfig) -> Result<Recorder> {
    if cfg.order < 2 {
        return Err(PicError::config("sweep order must be at least 2"));
    }
    let filter = cfg.projection_filter;
    if !(filter.is_finite() && filter > 0.0) {
        return Err(PicError::config(format!(
            "projection filter must be positive and finite, got {filter}"
        )));
    }
    if cfg.np_values.is_empty() || cfg.nel_values.is_empty() {
        return Err(PicError::config(
            "sweep needs at least one np and nel value",
        ));
    }
    let max_nel = cfg.nel_values.iter().copied().max().unwrap_or(1);
    // The sweep mesh is just large enough to hold the largest nel request.
    let side = (max_nel as f64).cbrt().ceil() as usize + 1;
    let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(side.max(2)), cfg.order)?;
    let gll = GllRule::new(cfg.order);
    let field = UniformFlow {
        velocity: Vec3::new(0.4, 0.2, 0.1),
    };
    let ctx = KernelContext {
        mesh: &mesh,
        gll: &gll,
        field: &field,
        filter: cfg.projection_filter,
        dt: 0.01,
        gravity: Vec3::new(0.0, 0.0, -0.2),
        drag_tau: 0.05,
        collision_radius: 0.0,
        collision_stiffness: 0.0,
    };
    let oracle = cfg.timing.oracle();
    // A modest rank decomposition so ghost queries have real remote regions.
    let mapper = ElementMapper::new(&mesh, 8)?;
    let all_elements: Vec<_> = mesh.element_ids().collect();

    let mut recorder = Recorder::new();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut key = 0u64;
    let max_np = cfg.np_values.iter().copied().max().unwrap_or(0);
    let max_ngp = cfg.ngp_values.iter().copied().max().unwrap_or(0);

    for _ in 0..cfg.repetitions.max(1) {
        // Fresh positions per repetition.
        let positions: Vec<Vec3> = (0..max_np + max_ngp)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let velocities = vec![Vec3::ZERO; positions.len()];
        let outcome = mapper.assign(&positions);
        let index = RegionIndex::build(&outcome.rank_regions);
        let cell = CellList::build(&positions, 0.05);

        for &np in &cfg.np_values {
            let subset: Vec<u32> = (0..np as u32).collect();
            for &ngp in &cfg.ngp_values {
                // Ghost stand-ins: extra particles beyond the real subset.
                let mut proj_set = subset.clone();
                proj_set.extend((max_np as u32)..(max_np + ngp) as u32);
                for &nel in &cfg.nel_values {
                    let elements = &all_elements[..nel.min(all_elements.len())];
                    let params = WorkloadParams {
                        np: np as f64,
                        ngp: ngp as f64,
                        nel: nel as f64,
                        n_order: cfg.order as f64,
                        filter: cfg.projection_filter,
                    };
                    for kernel in KernelKind::ALL {
                        let seconds = match &oracle {
                            Some(o) => {
                                key += 1;
                                o.observed_cost(kernel, &params, key)
                            }
                            None => time_kernel(
                                &ctx,
                                kernel,
                                &positions,
                                &velocities,
                                &subset,
                                &proj_set,
                                elements,
                                &outcome.ranks,
                                &index,
                                &cell,
                            ),
                        };
                        recorder.record(kernel, params, seconds);
                    }
                }
            }
        }
    }
    Ok(recorder)
}

/// Execute one kernel on the synthetic workload and return wall seconds.
#[allow(clippy::too_many_arguments)]
fn time_kernel(
    ctx: &KernelContext<'_>,
    kernel: KernelKind,
    positions: &[Vec3],
    velocities: &[Vec3],
    subset: &[u32],
    proj_set: &[u32],
    elements: &[pic_types::ElementId],
    owners: &[pic_types::Rank],
    index: &RegionIndex,
    cell: &CellList,
) -> f64 {
    match kernel {
        KernelKind::Interpolation => {
            let mut out = Vec::new();
            let t0 = Instant::now();
            kernels::interpolate(ctx, positions, subset, 0.1, &mut out);
            t0.elapsed().as_secs_f64()
        }
        KernelKind::EquationSolver => {
            let fluid = vec![Vec3::new(0.4, 0.2, 0.1); subset.len()];
            let mut out = Vec::new();
            let t0 = Instant::now();
            kernels::equation_solver(ctx, positions, velocities, subset, &fluid, cell, &mut out);
            t0.elapsed().as_secs_f64()
        }
        KernelKind::ParticlePusher => {
            // operate on a scratch copy so the sweep stays position-stable
            let mut pos = positions.to_vec();
            let mut vel = velocities.to_vec();
            let accel = vec![Vec3::new(0.0, 0.0, -0.2); subset.len()];
            let t0 = Instant::now();
            kernels::particle_pusher(ctx, &mut pos, &mut vel, subset, &accel);
            t0.elapsed().as_secs_f64()
        }
        KernelKind::Projection => {
            let t0 = Instant::now();
            let v = kernels::projection(ctx, positions, proj_set);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(v);
            dt
        }
        KernelKind::CreateGhostParticles => {
            let t0 = Instant::now();
            let g = kernels::create_ghost_particles(
                ctx,
                &positions[..subset.len()],
                &owners[..subset.len()],
                index,
            );
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(g.len());
            dt
        }
        KernelKind::FluidSolver => {
            let t0 = Instant::now();
            let v = kernels::fluid_solver(ctx, elements, 0.1);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(v);
            dt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep(timing: TimingMode) -> SweepConfig {
        SweepConfig {
            np_values: vec![0, 100, 400],
            ngp_values: vec![0, 50],
            nel_values: vec![1, 8],
            order: 3,
            projection_filter: 0.03,
            repetitions: 1,
            timing,
            seed: 7,
        }
    }

    #[test]
    fn oracle_sweep_produces_expected_record_count() {
        let cfg = small_sweep(TimingMode::default_oracle());
        let rec = benchmark_kernels(&cfg).unwrap();
        assert_eq!(rec.len(), cfg.record_count());
        // every kernel is covered
        for k in KernelKind::ALL {
            assert!(!rec.for_kernel(k).is_empty());
        }
    }

    #[test]
    fn oracle_sweep_is_deterministic() {
        let cfg = small_sweep(TimingMode::default_oracle());
        let a = benchmark_kernels(&cfg).unwrap();
        let b = benchmark_kernels(&cfg).unwrap();
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn sweep_varies_all_features() {
        // the sweep must produce variation in np, ngp, and nel — the very
        // property single-run training lacks for balanced mappings
        let cfg = small_sweep(TimingMode::default_oracle());
        let rec = benchmark_kernels(&cfg).unwrap();
        let nps: std::collections::BTreeSet<u64> =
            rec.records().iter().map(|r| r.params.np as u64).collect();
        let ngps: std::collections::BTreeSet<u64> =
            rec.records().iter().map(|r| r.params.ngp as u64).collect();
        let nels: std::collections::BTreeSet<u64> =
            rec.records().iter().map(|r| r.params.nel as u64).collect();
        assert!(nps.len() >= 3 && ngps.len() >= 2 && nels.len() >= 2);
    }

    #[test]
    fn wall_clock_sweep_times_are_positive_for_loaded_kernels() {
        let cfg = small_sweep(TimingMode::WallClock);
        let rec = benchmark_kernels(&cfg).unwrap();
        // interpolation at np=400 must take measurable time
        let slow: Vec<_> = rec
            .for_kernel(KernelKind::Interpolation)
            .into_iter()
            .filter(|r| r.params.np == 400.0)
            .collect();
        assert!(!slow.is_empty());
        assert!(slow.iter().all(|r| r.seconds > 0.0));
    }

    #[test]
    fn sweep_validates_inputs() {
        let mut cfg = small_sweep(TimingMode::default_oracle());
        cfg.order = 1;
        assert!(benchmark_kernels(&cfg).is_err());
        let mut cfg = small_sweep(TimingMode::default_oracle());
        cfg.np_values.clear();
        assert!(benchmark_kernels(&cfg).is_err());
    }

    /// A filter the records could not carry (NaN is written as `null`) or
    /// that no kernel can use is refused before any kernel runs.
    #[test]
    fn sweep_refuses_filters_that_are_not_finite_and_positive() {
        for (filter, shown) in [
            (f64::NAN, "NaN"),
            (-1.0, "-1"),
            (0.0, "0"),
            (f64::INFINITY, "inf"),
        ] {
            let mut cfg = small_sweep(TimingMode::default_oracle());
            cfg.projection_filter = filter;
            let err = benchmark_kernels(&cfg).unwrap_err().to_string();
            assert_eq!(
                err,
                format!(
                    "configuration error: projection filter must be positive and finite, got {shown}"
                )
            );
        }
    }
}
