//! The paper's three framework use cases (§II-D, §IV):
//! scalability prediction, mapping-algorithm evaluation, and the
//! projection-filter parameter study.

use crate::kernel_models::KernelModels;
use crate::pipeline::predict_kernel_seconds;
use pic_grid::ElementMesh;
use pic_mapping::MappingAlgorithm;
use pic_sim::KernelKind;
use pic_trace::ParticleTrace;
use pic_types::Result;
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::metrics::{self, WorkloadSummary};
use pic_workload::sweep::{self, SweepPoint};

/// One rank-count point of a scalability study.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Target processor count.
    pub ranks: usize,
    /// Peak particles-per-rank at each sample (the Fig 5 series).
    pub peak_series: Vec<u32>,
    /// Workload summary (utilization, imbalance, migrations, bins).
    pub summary: WorkloadSummary,
}

/// Strong-scaling workload prediction from a single trace (paper §IV-B):
/// generate the workload at each target rank count and report the peak
/// series. The trace is never re-collected — that is the framework's
/// central economy. All rank counts replay through one sweep-engine pass
/// (mesh validated and mapper built once per rank count, decode shared),
/// bit-identical to per-configuration generation.
pub fn scalability_study(
    trace: &ParticleTrace,
    mesh: Option<&ElementMesh>,
    mapping: MappingAlgorithm,
    projection_filter: f64,
    rank_counts: &[usize],
) -> Result<Vec<ScalabilityPoint>> {
    let points: Vec<SweepPoint> = rank_counts
        .iter()
        .map(|&ranks| {
            let mut cfg = WorkloadConfig::new(ranks, mapping, projection_filter);
            // Peak-workload scaling only needs real-particle counts.
            cfg.compute_ghosts = false;
            SweepPoint::new(cfg)
        })
        .collect();
    let (workloads, _) = sweep::sweep_with_stats(trace, &points, mesh)?;
    Ok(rank_counts
        .iter()
        .zip(workloads)
        .map(|(&ranks, w)| ScalabilityPoint {
            ranks,
            peak_series: w.real.peak_series(),
            summary: metrics::summarize(&w),
        })
        .collect())
}

/// The Fig 6 analysis: unbounded bin counts per sample and the optimal
/// processor count they imply.
#[derive(Debug, Clone)]
pub struct BinCountStudy {
    /// Sample iterations.
    pub iterations: Vec<u64>,
    /// Maximum bins the threshold permits at each sample.
    pub bin_series: Vec<usize>,
}

impl BinCountStudy {
    /// The optimal processor count: the maximum bin count ever generated
    /// (more processors than this can never receive particle workload).
    pub fn optimal_rank_count(&self) -> usize {
        self.bin_series.iter().copied().max().unwrap_or(0)
    }
}

/// Compute the unbounded bin-count series for a trace (paper Fig 6: "we
/// have relaxed the processor count limitation").
pub fn optimal_rank_study(trace: &ParticleTrace, threshold: f64) -> Result<BinCountStudy> {
    Ok(BinCountStudy {
        iterations: trace.iterations(),
        bin_series: generator::unbounded_bin_series(trace, threshold)?,
    })
}

/// One mapping algorithm's result at one rank count (Figs 8/9).
#[derive(Debug, Clone)]
pub struct MappingEvaluation {
    /// The algorithm evaluated.
    pub mapping: MappingAlgorithm,
    /// Target processor count.
    pub ranks: usize,
    /// Peak particles-per-rank over the run.
    pub peak_workload: u32,
    /// Resource utilization in `[0, 1]`.
    pub resource_utilization: f64,
    /// Number of ranks that ever held a particle.
    pub active_ranks: usize,
}

/// Evaluate mapping algorithms across rank counts from one trace
/// (paper §IV-C): who has the lower peak workload, and at what utilization.
/// The whole mapping × ranks grid replays through one sweep-engine pass;
/// results stay in mapping-major, then rank-count order.
pub fn mapping_comparison(
    trace: &ParticleTrace,
    mesh: Option<&ElementMesh>,
    projection_filter: f64,
    rank_counts: &[usize],
    algorithms: &[MappingAlgorithm],
) -> Result<Vec<MappingEvaluation>> {
    let mut points = Vec::with_capacity(algorithms.len() * rank_counts.len());
    for &mapping in algorithms {
        for &ranks in rank_counts {
            let mut cfg = WorkloadConfig::new(ranks, mapping, projection_filter);
            cfg.compute_ghosts = false;
            points.push(SweepPoint::new(cfg));
        }
    }
    let (workloads, _) = sweep::sweep_with_stats(trace, &points, mesh)?;
    Ok(points
        .iter()
        .zip(workloads)
        .map(|(p, w)| MappingEvaluation {
            mapping: p.config.mapping,
            ranks: p.config.ranks,
            peak_workload: w.peak_workload(),
            resource_utilization: metrics::resource_utilization(&w.real),
            active_ranks: metrics::active_rank_count(&w.real),
        })
        .collect())
}

/// One projection-filter value's result (Fig 10).
#[derive(Debug, Clone)]
pub struct FilterStudyPoint {
    /// Projection filter size (= bin-size threshold).
    pub filter: f64,
    /// Maximum bins the threshold permits over the trace (Fig 10a).
    pub max_bins: usize,
    /// Total ghost particles generated over the run.
    pub total_ghosts: u64,
    /// Predicted `create_ghost_particles` time on the busiest rank,
    /// averaged over samples (Fig 10b).
    pub ghost_kernel_seconds: f64,
}

/// The projection-filter parameter study (paper §IV-D): smaller filters
/// allow more bins (better distribution); larger filters multiply ghosts
/// and the `create_ghost_particles` kernel time.
pub fn filter_study(
    trace: &ParticleTrace,
    ranks: usize,
    filters: &[f64],
    models: &KernelModels,
    elements_per_rank: &[u32],
    order: usize,
) -> Result<Vec<FilterStudyPoint>> {
    let ghost_slot = KernelKind::ALL
        .iter()
        .position(|&k| k == KernelKind::CreateGhostParticles)
        .expect("kernel list contains create_ghost_particles");
    // One sweep across all filters. Bin-based assignment depends on the
    // threshold, so the points don't collapse into one assignment group —
    // but the decode pass, mapper hoisting, and outer parallelism across
    // grid points are still shared, and the outputs are bit-identical to
    // per-configuration generation.
    let points: Vec<SweepPoint> = filters
        .iter()
        .map(|&filter| {
            SweepPoint::new(WorkloadConfig::new(
                ranks,
                MappingAlgorithm::BinBased,
                filter,
            ))
        })
        .collect();
    let (workloads, _) = sweep::sweep_with_stats(trace, &points, None)?;
    let mut out = Vec::with_capacity(filters.len());
    for (&filter, w) in filters.iter().zip(&workloads) {
        let max_bins = generator::unbounded_bin_series(trace, filter)?
            .into_iter()
            .max()
            .unwrap_or(0);
        let total_ghosts: u64 = (0..w.samples()).map(|t| w.ghost_recv.sample_total(t)).sum();
        let predicted = predict_kernel_seconds(w, models, elements_per_rank, order, filter);
        // critical-path ghost kernel time: max over ranks, mean over samples
        let mut per_sample_max = Vec::with_capacity(predicted.len());
        for sample in &predicted {
            let m = sample.iter().map(|row| row[ghost_slot]).fold(0.0, f64::max);
            per_sample_max.push(m);
        }
        out.push(FilterStudyPoint {
            filter,
            max_bins,
            total_ghosts,
            ghost_kernel_seconds: pic_types::stats::mean(&per_sample_max),
        });
    }
    Ok(out)
}

/// One sampling-interval point of the trace-fidelity study (paper §II-D:
/// "A low sampling frequency would reduce the file size, but would not
/// accurately capture particle movement").
#[derive(Debug, Clone)]
pub struct SamplingStudyPoint {
    /// Subsampling stride applied to the reference trace.
    pub stride: usize,
    /// Estimated on-disk trace size at this stride (f32 storage), bytes.
    pub trace_bytes: u64,
    /// MAPE (percent) of the subsampled trace's peak-workload series
    /// against the full trace's series at the matching samples.
    pub peak_workload_mape: f64,
    /// Relative error (percent) of total migration counts per retained
    /// interval versus the full trace's migrations aggregated over the
    /// same interval. Coarser sampling *undercounts* migrations (back-and-
    /// forth movement inside an interval cancels out).
    pub migration_undercount_pct: f64,
}

/// Quantify the sampling-frequency trade-off: how much workload fidelity
/// is lost (and trace bytes saved) as the sampling interval grows.
///
/// The full-trace reference and every stride share one sweep-engine group:
/// the trace is decoded and every sample assigned exactly once, and each
/// stride's workload is assembled from the shared per-sample outcomes —
/// bit-identical to generating over `trace.subsample(stride)` separately.
pub fn sampling_frequency_study(
    trace: &ParticleTrace,
    ranks: usize,
    mapping: MappingAlgorithm,
    mesh: Option<&pic_grid::ElementMesh>,
    projection_filter: f64,
    strides: &[usize],
) -> Result<Vec<SamplingStudyPoint>> {
    let mut cfg = pic_workload::WorkloadConfig::new(ranks, mapping, projection_filter);
    cfg.compute_ghosts = false;
    // Point 0 is the stride-1 reference; the rest are the requested strides.
    let mut points = vec![SweepPoint::new(cfg.clone())];
    points.extend(
        strides
            .iter()
            .map(|&stride| SweepPoint::with_stride(cfg.clone(), stride.max(1))),
    );
    let (workloads, _) = sweep::sweep_with_stats(trace, &points, mesh)?;
    let full = &workloads[0];
    let full_peaks = full.real.peak_series();
    let mut out = Vec::with_capacity(strides.len());
    for (&stride, w) in strides.iter().zip(&workloads[1..]) {
        let s = stride.max(1);
        let peaks: Vec<f64> = w.real.peak_series().iter().map(|&v| v as f64).collect();
        let reference: Vec<f64> = (0..trace.sample_count())
            .step_by(s)
            .map(|t| full_peaks[t] as f64)
            .collect();
        let peak_workload_mape = pic_types::stats::mape(&peaks, &reference);
        // migrations: full trace, aggregated over each retained interval,
        // versus the subsampled trace's per-interval diff
        let full_migrations: u64 = full.comm.total();
        let sub_migrations: u64 = w.comm.total();
        let undercount = if full_migrations == 0 {
            0.0
        } else {
            100.0 * (full_migrations.saturating_sub(sub_migrations)) as f64 / full_migrations as f64
        };
        out.push(SamplingStudyPoint {
            stride,
            trace_bytes: pic_trace::stats::estimated_file_size(
                trace.particle_count(),
                w.samples(),
                pic_trace::Precision::F32,
            ),
            peak_workload_mape,
            migration_undercount_pct: undercount,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_models::FitStrategy;
    use pic_grid::MeshDims;
    use pic_sim::instrument::WorkloadParams;
    use pic_sim::{CostOracle, Recorder};
    use pic_trace::TraceMeta;
    use pic_types::rng::SplitMix64;
    use pic_types::{Aabb, Vec3};

    /// A Hele-Shaw-shaped synthetic trace: concentrated cloud that expands.
    fn expanding_trace(np: usize, t: usize, seed: u64) -> ParticleTrace {
        let mut rng = SplitMix64::new(seed);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(0.0, 1.0),
                )
            })
            .collect();
        let meta = TraceMeta::new(np, 10, Aabb::unit(), "study-test");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let scale = 0.02 + 0.06 * k as f64;
            let positions: Vec<Vec3> = dirs
                .iter()
                .map(|d| (Vec3::new(0.5, 0.5, 0.05) + *d * scale).clamp(Vec3::ZERO, Vec3::ONE))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 3).unwrap()
    }

    fn trained_models(seed: u64) -> KernelModels {
        let oracle = CostOracle::noiseless();
        let mut rec = Recorder::new();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..120 {
            let p = WorkloadParams {
                np: rng.next_range(0.0, 500.0).round(),
                ngp: rng.next_range(0.0, 200.0).round(),
                nel: rng.next_range(4.0, 16.0).round(),
                n_order: 3.0,
                filter: 0.05,
            };
            for k in KernelKind::ALL {
                rec.record(k, p, oracle.true_cost(k, &p));
            }
        }
        KernelModels::fit(&rec, &FitStrategy::Linear, seed).unwrap()
    }

    #[test]
    fn scalability_peak_is_monotone_nonincreasing_in_ranks() {
        let tr = expanding_trace(800, 4, 1);
        let pts =
            scalability_study(&tr, None, MappingAlgorithm::BinBased, 1e-4, &[4, 16, 64]).unwrap();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(
                w[1].summary.peak_workload <= w[0].summary.peak_workload,
                "{} ranks peak {} vs {} ranks peak {}",
                w[0].ranks,
                w[0].summary.peak_workload,
                w[1].ranks,
                w[1].summary.peak_workload
            );
        }
    }

    #[test]
    fn coarse_threshold_freezes_scaling() {
        // Fig 5's flat region reproduced on the synthetic trace.
        let tr = expanding_trace(600, 3, 2);
        let pts =
            scalability_study(&tr, None, MappingAlgorithm::BinBased, 0.3, &[16, 64, 256]).unwrap();
        assert_eq!(pts[0].peak_series, pts[1].peak_series);
        assert_eq!(pts[1].peak_series, pts[2].peak_series);
    }

    #[test]
    fn optimal_rank_study_grows_with_boundary() {
        let tr = expanding_trace(2000, 5, 3);
        let study = optimal_rank_study(&tr, 0.08).unwrap();
        assert_eq!(study.bin_series.len(), 5);
        assert!(study.bin_series.last().unwrap() > study.bin_series.first().unwrap());
        assert_eq!(
            study.optimal_rank_count(),
            *study.bin_series.iter().max().unwrap()
        );
    }

    #[test]
    fn mapping_comparison_prefers_bins_for_concentrated_particles() {
        let tr = expanding_trace(1000, 3, 4);
        let m = mesh();
        let evals = mapping_comparison(
            &tr,
            Some(&m),
            1e-4,
            &[16],
            &[MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased],
        )
        .unwrap();
        let el = &evals[0];
        let bin = &evals[1];
        assert_eq!(el.mapping, MappingAlgorithm::ElementBased);
        assert!(
            bin.peak_workload < el.peak_workload,
            "bin {} vs element {}",
            bin.peak_workload,
            el.peak_workload
        );
        assert!(bin.resource_utilization > el.resource_utilization);
        assert_eq!(
            bin.active_ranks,
            (bin.resource_utilization * 16.0).round() as usize
        );
    }

    #[test]
    fn filter_study_reproduces_fig10_shapes() {
        let tr = expanding_trace(800, 3, 5);
        let models = trained_models(6);
        // Filters chosen so the bounded partition stays at 16 bins for all of
        // them (the bin threshold is far below the bin sizes); the ghost
        // radius is then the only thing varying.
        let pts = filter_study(&tr, 16, &[0.01, 0.02, 0.04], &models, &[4; 16], 3).unwrap();
        assert_eq!(pts.len(), 3);
        // Fig 10a: bins shrink as the filter grows
        assert!(pts[0].max_bins >= pts[1].max_bins && pts[1].max_bins >= pts[2].max_bins);
        assert!(pts[0].max_bins > pts[2].max_bins);
        // Fig 10b: ghost totals and ghost kernel time grow with the filter
        assert!(pts[2].total_ghosts > pts[0].total_ghosts);
        assert!(pts[2].ghost_kernel_seconds > pts[0].ghost_kernel_seconds);
    }

    #[test]
    fn sampling_study_quantifies_fidelity_loss() {
        let tr = expanding_trace(800, 12, 11);
        let pts =
            sampling_frequency_study(&tr, 16, MappingAlgorithm::BinBased, None, 0.05, &[1, 2, 4])
                .unwrap();
        assert_eq!(pts.len(), 3);
        // stride 1 is the reference: zero error, full size
        assert_eq!(pts[0].peak_workload_mape, 0.0);
        assert_eq!(pts[0].migration_undercount_pct, 0.0);
        // coarser traces are smaller on disk
        assert!(pts[1].trace_bytes < pts[0].trace_bytes);
        assert!(pts[2].trace_bytes < pts[1].trace_bytes);
        // and undercount migrations (never overcount)
        assert!(pts[2].migration_undercount_pct >= 0.0);
        assert!(pts[2].migration_undercount_pct <= 100.0);
        // the peak-workload series at retained samples stays consistent
        // (same positions -> same mapping), so its MAPE is exactly zero
        for p in &pts {
            assert_eq!(p.peak_workload_mape, 0.0, "stride {}", p.stride);
        }
    }

    #[test]
    fn sweep_backed_drivers_match_per_config_generation() {
        let tr = expanding_trace(500, 4, 12);
        let m = mesh();
        // scalability: each point must equal a dedicated generator run
        let pts = scalability_study(&tr, Some(&m), MappingAlgorithm::ElementBased, 0.02, &[4, 8])
            .unwrap();
        for p in &pts {
            let mut cfg = WorkloadConfig::new(p.ranks, MappingAlgorithm::ElementBased, 0.02);
            cfg.compute_ghosts = false;
            let w = generator::generate_with_mesh(&tr, &cfg, Some(&m)).unwrap();
            assert_eq!(p.peak_series, w.real.peak_series());
            assert_eq!(p.summary, metrics::summarize(&w));
        }
        // mapping comparison: grid order and values must match the naive loop
        let evals = mapping_comparison(
            &tr,
            Some(&m),
            0.05,
            &[4, 8],
            &[MappingAlgorithm::HilbertOrdered, MappingAlgorithm::BinBased],
        )
        .unwrap();
        let mut i = 0;
        for &mapping in &[MappingAlgorithm::HilbertOrdered, MappingAlgorithm::BinBased] {
            for &ranks in &[4usize, 8] {
                let mut cfg = WorkloadConfig::new(ranks, mapping, 0.05);
                cfg.compute_ghosts = false;
                let w = generator::generate_with_mesh(&tr, &cfg, Some(&m)).unwrap();
                assert_eq!(evals[i].mapping, mapping);
                assert_eq!(evals[i].ranks, ranks);
                assert_eq!(evals[i].peak_workload, w.peak_workload());
                i += 1;
            }
        }
    }
}
