//! Load-balance metrics derived from workload matrices.
//!
//! These back the paper's utilization / idle-processor analyses:
//! Fig 1b (processors with non-zero particles, ~81 % idle on average),
//! Fig 9 (bin 56.13 % vs element 0.68 % utilization).

use crate::generator::DynamicWorkload;
use crate::matrices::CompMatrix;
use pic_types::stats;

/// Fraction of ranks with at least one particle at a given sample.
fn active_fraction_at(m: &CompMatrix, sample: usize) -> f64 {
    let row = m.sample_row(sample);
    if row.is_empty() {
        return 0.0;
    }
    row.iter().filter(|&&c| c > 0).count() as f64 / row.len() as f64
}

/// Per sample, the fraction of ranks holding at least one particle —
/// Fig 1b's data.
pub fn active_fraction_series(m: &CompMatrix) -> Vec<f64> {
    (0..m.samples()).map(|t| active_fraction_at(m, t)).collect()
}

/// Resource Utilization as the paper defines it (§II-A / Fig 9): "the
/// number of processors having at least one or more particles **on
/// average** during the simulation", normalized by the rank count — i.e.
/// the time-averaged active fraction. (The paper's Fig 9 values — 584 of
/// 1044 ranks = 56.13 % for a bin count that eventually exceeds 1044 —
/// only make sense under the time-averaged reading.)
pub fn resource_utilization(m: &CompMatrix) -> f64 {
    let series = active_fraction_series(m);
    if series.is_empty() {
        return 0.0;
    }
    stats::mean(&series)
}

/// Average number of active ranks (Fig 9's absolute count, e.g. "584
/// processors out of 1044").
pub fn active_rank_count(m: &CompMatrix) -> usize {
    (resource_utilization(m) * m.ranks() as f64).round() as usize
}

/// Average fraction of ranks idle (zero particles) over the run — the
/// paper's "81 % of processors remained idle" statistic.
pub fn mean_idle_fraction(m: &CompMatrix) -> f64 {
    let series = active_fraction_series(m);
    if series.is_empty() {
        return 0.0;
    }
    1.0 - stats::mean(&series)
}

/// Load-imbalance factor (max / mean over ranks) per sample.
fn imbalance_series(m: &CompMatrix) -> Vec<f64> {
    (0..m.samples())
        .map(|t| {
            let row: Vec<f64> = m.sample_row(t).iter().map(|&c| c as f64).collect();
            stats::imbalance_factor(&row)
        })
        .collect()
}

/// Summary of a generated workload for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Processor count.
    pub ranks: usize,
    /// Samples analysed.
    pub samples: usize,
    /// Peak real particles on any rank at any sample.
    pub peak_workload: u32,
    /// Resource utilization in `[0, 1]`.
    pub resource_utilization: f64,
    /// Mean idle fraction in `[0, 1]`.
    pub mean_idle_fraction: f64,
    /// Mean imbalance factor over samples.
    pub mean_imbalance: f64,
    /// Total migrated particles.
    pub total_migrations: u64,
    /// Total ghost particles received over the run (Fig 10b).
    pub total_ghosts: u64,
    /// Maximum bin count (bin-based only).
    pub max_bins: Option<usize>,
}

/// Compute the full summary of a workload.
pub fn summarize(w: &DynamicWorkload) -> WorkloadSummary {
    WorkloadSummary {
        ranks: w.ranks,
        samples: w.samples(),
        peak_workload: w.peak_workload(),
        resource_utilization: resource_utilization(&w.real),
        mean_idle_fraction: mean_idle_fraction(&w.real),
        mean_imbalance: stats::mean(&imbalance_series(&w.real)),
        total_migrations: w.comm.total(),
        total_ghosts: (0..w.samples()).map(|t| w.ghost_recv.sample_total(t)).sum(),
        max_bins: w.max_bin_count(),
    }
}

/// The sampling-frequency trade-off (paper §II-D: "A low sampling
/// frequency would reduce the file size, but would not accurately capture
/// particle movement") of `sub`, one configuration replayed at `stride`,
/// against `full`, the same at stride 1: the MAPE (percent) of `sub`'s peak
/// series against `full`'s at the retained samples, and the share (percent)
/// of `full`'s migrations `sub` misses. Movement back and forth inside an
/// interval cancels out, so coarser sampling never overcounts migrations.
pub fn sampling_fidelity(
    full: &DynamicWorkload,
    sub: &DynamicWorkload,
    stride: usize,
) -> (f64, f64) {
    let peaks = |w: &DynamicWorkload| -> Vec<f64> {
        w.real.peak_series().into_iter().map(f64::from).collect()
    };
    let retained: Vec<f64> = peaks(full).into_iter().step_by(stride).collect();
    let missed = full.comm.total().saturating_sub(sub.comm.total());
    let undercount = 100.0 * missed as f64 / full.comm.total().max(1) as f64;
    (stats::mape(&peaks(sub), &retained), undercount)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CompMatrix {
        // 4 ranks, 3 samples.
        CompMatrix::from_rows(
            4,
            vec![
                vec![10, 0, 0, 0], // only rank 0 active
                vec![5, 5, 0, 0],  // ranks 0, 1 active
                vec![0, 4, 0, 6],  // ranks 1, 3 active
            ],
        )
    }

    #[test]
    fn active_fractions() {
        let m = matrix();
        assert_eq!(active_fraction_at(&m, 0), 0.25);
        assert_eq!(active_fraction_at(&m, 1), 0.5);
        assert_eq!(active_fraction_series(&m), vec![0.25, 0.5, 0.5]);
    }

    #[test]
    fn utilization_is_time_averaged() {
        let m = matrix();
        // active fractions per sample: 0.25, 0.5, 0.5
        let expect = (0.25 + 0.5 + 0.5) / 3.0;
        assert!((resource_utilization(&m) - expect).abs() < 1e-12);
        // 4 ranks x ~0.4167 -> rounds to 2 average-active ranks
        assert_eq!(active_rank_count(&m), 2);
    }

    #[test]
    fn idle_fraction_is_one_minus_mean_active() {
        let m = matrix();
        let expect = 1.0 - (0.25 + 0.5 + 0.5) / 3.0;
        assert!((mean_idle_fraction(&m) - expect).abs() < 1e-12);
    }

    #[test]
    fn imbalance_series_values() {
        let m = matrix();
        let s = imbalance_series(&m);
        // sample 0: max 10, mean 2.5 → 4.0
        assert!((s[0] - 4.0).abs() < 1e-12);
        // sample 1: max 5, mean 2.5 → 2.0
        assert!((s[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_metrics() {
        let m = CompMatrix::new(4);
        assert_eq!(resource_utilization(&m), 0.0);
        assert_eq!(mean_idle_fraction(&m), 0.0);
        assert!(imbalance_series(&m).is_empty());
    }

    #[test]
    fn perfectly_balanced_matrix() {
        let m = CompMatrix::from_rows(2, vec![vec![5, 5]]);
        assert_eq!(resource_utilization(&m), 1.0);
        assert_eq!(mean_idle_fraction(&m), 0.0);
        assert_eq!(imbalance_series(&m), vec![1.0]);
    }

    /// A workload over `real` with `moved[t]` particles migrating from rank
    /// 0 to rank 1 into sample `t`.
    fn workload(real: Vec<Vec<u32>>, moved: &[u32]) -> DynamicWorkload {
        let samples = real.len();
        let mut comm = crate::CommMatrix::with_samples(samples);
        for (entries, &n) in comm.entries.iter_mut().zip(moved).filter(|(_, &n)| n > 0) {
            entries.push((0, 1, n));
        }
        DynamicWorkload {
            ranks: 2,
            iterations: (0..samples as u64).collect(),
            real: CompMatrix::from_rows(2, real),
            ghost_recv: CompMatrix::from_rows(2, vec![vec![1, 2]; samples]),
            ghost_sent: CompMatrix::from_rows(2, vec![vec![2, 1]; samples]),
            comm,
            bin_counts: vec![None; samples],
        }
    }

    #[test]
    fn summary_totals_ghosts_and_migrations() {
        let w = workload(vec![vec![4, 0], vec![2, 2], vec![1, 3]], &[0, 2, 1]);
        let s = summarize(&w);
        assert_eq!((s.total_ghosts, s.total_migrations), (9, 3));
        assert_eq!(s.peak_workload, 4);
    }

    #[test]
    fn sampling_fidelity_scores_retained_peaks_and_lost_migrations() {
        let full = workload(vec![vec![4, 0], vec![2, 2], vec![1, 3]], &[0, 2, 1]);
        assert_eq!(sampling_fidelity(&full, &full, 1), (0.0, 0.0));
        // stride 2 keeps samples 0 and 2; its one diff sees 1 of the full
        // run's 3 migrations
        let same_peaks = workload(vec![vec![4, 0], vec![1, 3]], &[0, 1]);
        let (mape, lost) = sampling_fidelity(&full, &same_peaks, 2);
        assert_eq!(mape, 0.0);
        assert!((lost - 200.0 / 3.0).abs() < 1e-12, "{lost}");
        // a retained peak of 2 against the full series' 4: 50 % on one of
        // two samples
        let off = workload(vec![vec![2, 0], vec![1, 3]], &[0, 3]);
        assert_eq!(sampling_fidelity(&full, &off, 2), (25.0, 0.0));
    }

    /// The replayed form: the stride-1 point is its own reference, and at
    /// every stride the retained samples bin exactly as in the full replay
    /// (zero MAPE) while migrations are only ever undercounted.
    #[test]
    fn sampling_fidelity_of_a_replayed_stride_grid() {
        use crate::{replay, ReplayOptions, SweepPoint, WorkloadConfig};
        use pic_mapping::MappingAlgorithm;
        use pic_types::{rng::SplitMix64, Aabb, Vec3};
        let mut rng = SplitMix64::new(11);
        let dirs: Vec<Vec3> = (0..800)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(0.0, 1.0),
                )
            })
            .collect();
        let meta = pic_trace::TraceMeta::new(dirs.len(), 10, Aabb::unit(), "fidelity");
        let mut trace = pic_trace::ParticleTrace::new(meta);
        for k in 0..12 {
            let scale = 0.02 + 0.06 * k as f64;
            let at =
                |d: &Vec3| (Vec3::new(0.5, 0.5, 0.05) + *d * scale).clamp(Vec3::ZERO, Vec3::ONE);
            trace.push_positions(dirs.iter().map(at).collect()).unwrap();
        }
        let mut cfg = WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.05);
        cfg.compute_ghosts = false;
        let points: Vec<SweepPoint> = [1, 1, 2, 4]
            .into_iter()
            .map(|stride| SweepPoint::with_stride(cfg.clone(), stride))
            .collect();
        let (w, _) = replay(&trace, &points, &ReplayOptions::default()).unwrap();
        assert_eq!(sampling_fidelity(&w[0], &w[1], 1), (0.0, 0.0));
        assert!(w[0].comm.total() > 0);
        for (sub, stride) in w[2..].iter().zip([2, 4]) {
            let (mape, lost) = sampling_fidelity(&w[0], sub, stride);
            assert_eq!(mape, 0.0, "stride {stride}");
            assert!((0.0..=100.0).contains(&lost), "stride {stride}: {lost}");
        }
    }
}
