//! SimPoint-style reduced replay: weighted representative reconstruction.
//!
//! A long trace's samples cluster into a handful of *phases* (feature
//! vectors from `pic-trace::features`, clustered by
//! `pic-models::kmeans`). Replaying one representative per phase through
//! the Dynamic Workload Generator and broadcasting its outcome to every
//! member of its cluster reconstructs the full-trace workload series at a
//! fraction of the replay cost — the paper-scale regime where a trace has
//! thousands of samples but only a few distinct spatial regimes.
//!
//! A reduced replay is [`crate::sweep::replay`] with a plan: the resident
//! driver told to run the kernel on fewer samples. The contract, enforced
//! by proptests: with `K = T` (every sample its own representative) the
//! reconstruction is **bit-identical** to
//! [`crate::reference::generate_reference`], so the only error a real
//! reduction introduces is the phase approximation itself, which the
//! `pic-analysis` error-budget gate measures on holdout samples.
//!
//! Communication is reconstructed per representative from its *immediate
//! predecessor* in the trace: `comm[r] = migration_pairs(owners[s_r − 1],
//! owners[s_r])` (empty when the representative is sample 0). For strided
//! sweep members the same one-step migration stands in for the strided
//! interval — a documented approximation, exact at stride 1 and `K = T`.

use crate::generator::{DynamicWorkload, WorkloadConfig};
use crate::sweep::{self, ReplayOptions, SweepPoint};
use pic_grid::ElementMesh;
use pic_trace::ParticleTrace;
use pic_types::{PicError, Result};
use serde::{Deserialize, Serialize};

/// A validated reduction: which samples to replay and how to broadcast
/// their outcomes back over the full trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionPlan {
    /// Sample count `T` of the trace the plan was built for.
    pub total_samples: usize,
    /// Trace sample index of each representative (distinct; one per
    /// cluster).
    pub representatives: Vec<usize>,
    /// For every trace sample, the representative slot standing in for it
    /// (`assignment[t] < representatives.len()`).
    pub assignment: Vec<usize>,
    /// Cluster population per representative slot (`weights[r]` counts the
    /// samples assigned to slot `r`; sums to `total_samples`).
    pub weights: Vec<usize>,
}

impl ReductionPlan {
    /// Build a plan from representatives and a per-sample assignment,
    /// deriving the weights. Fails on any inconsistency (see
    /// [`ReductionPlan::validate`]).
    pub fn new(
        total_samples: usize,
        representatives: Vec<usize>,
        assignment: Vec<usize>,
    ) -> Result<ReductionPlan> {
        let mut weights = vec![0usize; representatives.len()];
        for &r in &assignment {
            if r < weights.len() {
                weights[r] += 1;
            }
        }
        let plan = ReductionPlan {
            total_samples,
            representatives,
            assignment,
            weights,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// The identity plan: every sample its own representative, weight 1.
    /// Reduced replay under this plan is bit-identical to the full replay.
    pub fn identity(total_samples: usize) -> ReductionPlan {
        ReductionPlan {
            total_samples,
            representatives: (0..total_samples).collect(),
            assignment: (0..total_samples).collect(),
            weights: vec![1; total_samples],
        }
    }

    /// Number of representatives `K`.
    pub fn k(&self) -> usize {
        self.representatives.len()
    }

    /// Full-kernel samples avoided relative to a complete replay, `T / K`
    /// (the arithmetic speedup bound, ignoring the cheaper owner-only
    /// passes).
    pub fn reduction_factor(&self) -> f64 {
        self.total_samples as f64 / self.k().max(1) as f64
    }

    /// Check internal consistency: arities match, representative indices
    /// are distinct and in range, every assignment points at a live slot,
    /// each representative is assigned to its own slot, and the weights
    /// are the assignment's slot populations.
    pub fn validate(&self) -> Result<()> {
        let k = self.representatives.len();
        if self.assignment.len() != self.total_samples {
            return Err(PicError::config(format!(
                "reduction assignment covers {} samples, trace has {}",
                self.assignment.len(),
                self.total_samples
            )));
        }
        if self.weights.len() != k {
            return Err(PicError::config(format!(
                "reduction has {} weights for {k} representatives",
                self.weights.len()
            )));
        }
        if self.total_samples > 0 && k == 0 {
            return Err(PicError::config(
                "reduction of a nonempty trace needs at least one representative",
            ));
        }
        let mut seen = vec![false; self.total_samples];
        for (slot, &s) in self.representatives.iter().enumerate() {
            if s >= self.total_samples {
                return Err(PicError::config(format!(
                    "representative {slot} is sample {s}, trace has {} samples",
                    self.total_samples
                )));
            }
            if std::mem::replace(&mut seen[s], true) {
                return Err(PicError::config(format!(
                    "sample {s} appears as more than one representative"
                )));
            }
            if self.assignment[s] != slot {
                return Err(PicError::config(format!(
                    "representative sample {s} is assigned to slot {} instead of its own slot {slot}",
                    self.assignment[s]
                )));
            }
        }
        let mut counts = vec![0usize; k];
        for (t, &r) in self.assignment.iter().enumerate() {
            if r >= k {
                return Err(PicError::config(format!(
                    "sample {t} assigned to slot {r}, plan has {k} representatives"
                )));
            }
            counts[r] += 1;
        }
        if counts != self.weights {
            return Err(PicError::config(format!(
                "reduction weights {:?} disagree with assignment populations {:?}",
                self.weights, counts
            )));
        }
        Ok(())
    }

    /// Approximate resident bytes, for registry budget accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.representatives.capacity()
                + self.assignment.capacity()
                + self.weights.capacity())
                * std::mem::size_of::<usize>()
    }

    /// Predecessor samples (`s_r − 1`) that are not representatives
    /// themselves: these need an assignment-only pass for the migration
    /// diff. Sorted ascending.
    pub(crate) fn owner_only_predecessors(&self) -> Vec<usize> {
        let mut is_rep = vec![false; self.total_samples];
        for &s in &self.representatives {
            is_rep[s] = true;
        }
        let mut preds: Vec<usize> = self
            .representatives
            .iter()
            .filter_map(|&s| s.checked_sub(1))
            .filter(|&p| !is_rep[p])
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }
}

/// Replay accounting from one reduced run of
/// [`generate_reduced_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReduceStats {
    /// Trace sample count `T`.
    pub total_samples: usize,
    /// Representatives replayed through the full kernel.
    pub representatives: usize,
    /// Additional assignment-only passes for predecessor ownership.
    pub owner_only_samples: usize,
}

/// [`sweep::replay`] of one configuration under `plan`, without a cache.
/// Kept because the end-to-end benchmark pins this name and its
/// [`ReduceStats`] (`benchmark/src/calls.rs`) until ROADMAP item 1 unpins
/// it.
pub fn generate_reduced_with_stats(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
    plan: &ReductionPlan,
) -> Result<(DynamicWorkload, ReduceStats)> {
    let opts = ReplayOptions::new(mesh, None, Some(plan));
    sweep::replay(trace, &[SweepPoint::new(cfg.clone())], &opts).map(|(mut w, s)| {
        let stats = ReduceStats {
            total_samples: plan.total_samples,
            representatives: s.assign_passes,
            owner_only_samples: s.owner_only_passes,
        };
        (w.remove(0), stats)
    })
}

/// Per-sample peak load: the maximum over ranks of real + received-ghost
/// particles — the quantity the paper's critical-path predictions rest
/// on, and the metric the reduction error gate budgets.
pub fn peak_load_series(w: &DynamicWorkload) -> Vec<u64> {
    (0..w.samples())
        .map(|t| {
            w.real
                .sample_row(t)
                .iter()
                .zip(w.ghost_recv.sample_row(t))
                .map(|(&r, &g)| r as u64 + g as u64)
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// Relative error of the *global* peak load between a predicted
/// (reduced-replay) workload and the exact one — the headline
/// reduced-replay error metric. Zero when both series are empty.
pub fn peak_rel_error(predicted: &DynamicWorkload, actual: &DynamicWorkload) -> f64 {
    let p = peak_load_series(predicted).into_iter().max().unwrap_or(0);
    let a = peak_load_series(actual).into_iter().max().unwrap_or(0);
    if a == 0 {
        return if p == 0 { 0.0 } else { f64::INFINITY };
    }
    (p as f64 - a as f64).abs() / a as f64
}

/// Exact per-rank loads (real + received ghosts) of selected samples,
/// replayed through the full per-sample kernel. The holdout side of the
/// `pic-analysis` error-budget gate: compare these against the reduced
/// prediction without paying for a full-trace replay.
pub fn exact_sample_loads(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
    samples: &[usize],
) -> Result<Vec<Vec<u64>>> {
    for &s in samples {
        if s >= trace.sample_count() {
            return Err(PicError::config(format!(
                "holdout sample {s} out of range, trace has {} samples",
                trace.sample_count()
            )));
        }
    }
    let plan = sweep::build_plan(&[SweepPoint::new(cfg.clone())], mesh, Some(samples.len()))?;
    let group = sweep::replay_groups(trace, &plan, samples, &[], None, &[]).remove(0);
    let slot = plan.members[0].ghost_slot;
    Ok((0..samples.len())
        .map(|r| {
            let a = group.assignment(r, samples);
            let mut load: Vec<u64> = a.real.iter().map(|&r| r as u64).collect();
            if let Some(k) = slot {
                for (l, &g) in load.iter_mut().zip(&group.ghost_row(k, r, samples).0) {
                    *l += g as u64;
                }
            }
            load
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_mapping::MappingAlgorithm;
    use pic_trace::TraceMeta;
    use pic_types::rng::SplitMix64;
    use pic_types::{Aabb, Vec3};

    fn make_trace(np: usize, t: usize, seed: u64) -> ParticleTrace {
        let mut rng = SplitMix64::new(seed);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "reduce");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let scale = 0.05 + 0.04 * k as f64;
            let drift = Vec3::new(0.02 * k as f64, 0.0, 0.0);
            let positions: Vec<Vec3> = dirs
                .iter()
                .map(|d| (Vec3::splat(0.5) + *d * scale + drift).clamp(Vec3::ZERO, Vec3::ONE))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    #[test]
    fn identity_plan_matches_full_replay() {
        let tr = make_trace(300, 6, 1);
        let cfg = WorkloadConfig::new(12, MappingAlgorithm::BinBased, 0.05);
        let plan = ReductionPlan::identity(tr.sample_count());
        let (reduced, stats) = generate_reduced_with_stats(&tr, &cfg, None, &plan).unwrap();
        let full = crate::reference::generate_reference(&tr, &cfg, None).unwrap();
        assert_eq!(reduced, full);
        assert_eq!(stats.representatives, 6);
        assert_eq!(stats.owner_only_samples, 0);
    }

    #[test]
    fn two_cluster_plan_broadcasts_outcomes() {
        // Samples 0..3 are near-identical, 3..6 near-identical: a 2-rep
        // plan reconstructs each half from its representative.
        let tr = make_trace(200, 6, 2);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
        let plan = ReductionPlan::new(6, vec![1, 4], vec![0, 0, 0, 1, 1, 1]).unwrap();
        assert_eq!(plan.weights, vec![3, 3]);
        let (reduced, stats) = generate_reduced_with_stats(&tr, &cfg, None, &plan).unwrap();
        assert_eq!(reduced.samples(), 6);
        // every sample of a cluster shows its representative's counts
        let full = crate::reference::generate_reference(&tr, &cfg, None).unwrap();
        for t in [0usize, 1, 2] {
            assert_eq!(reduced.real.sample_row(t), full.real.sample_row(1));
        }
        for t in [3usize, 4, 5] {
            assert_eq!(reduced.real.sample_row(t), full.real.sample_row(4));
        }
        // comm: rep 1's diff is against sample 0 (owner-only pass)
        assert_eq!(stats.owner_only_samples, 2);
        assert!(reduced.comm.entries[0].is_empty());
        assert_eq!(reduced.comm.entries[1], full.comm.entries[1]);
    }

    #[test]
    fn plan_validation_rejects_inconsistencies() {
        // assignment arity
        assert!(ReductionPlan::new(3, vec![0], vec![0, 0]).is_err());
        // representative out of range
        assert!(ReductionPlan::new(2, vec![5], vec![0, 0]).is_err());
        // duplicate representative
        assert!(ReductionPlan::new(2, vec![0, 0], vec![0, 1]).is_err());
        // representative not self-assigned
        assert!(ReductionPlan::new(2, vec![0, 1], vec![1, 0]).is_err());
        // assignment points at a dead slot
        assert!(ReductionPlan::new(2, vec![0], vec![0, 7]).is_err());
        // tampered weights
        let mut plan = ReductionPlan::identity(3);
        plan.weights[0] = 2;
        assert!(plan.validate().is_err());
        // empty trace: the empty plan is fine
        assert!(ReductionPlan::identity(0).validate().is_ok());
    }

    #[test]
    fn plan_size_mismatch_with_trace_fails() {
        let tr = make_trace(50, 4, 3);
        let cfg = WorkloadConfig::new(4, MappingAlgorithm::BinBased, 0.05);
        let plan = ReductionPlan::identity(3);
        assert!(generate_reduced_with_stats(&tr, &cfg, None, &plan).is_err());
    }

    #[test]
    fn peak_series_and_error_metrics() {
        let tr = make_trace(400, 5, 5);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
        let full = crate::reference::generate_reference(&tr, &cfg, None).unwrap();
        let series = peak_load_series(&full);
        assert_eq!(series.len(), 5);
        assert!(series.iter().all(|&p| p > 0));
        assert_eq!(peak_rel_error(&full, &full), 0.0);
        // exact loads match the full replay at every holdout sample
        let holdout = [0usize, 2, 4];
        let loads = exact_sample_loads(&tr, &cfg, None, &holdout).unwrap();
        for (h, &t) in holdout.iter().enumerate() {
            let expect: Vec<u64> = full
                .real
                .sample_row(t)
                .iter()
                .zip(full.ghost_recv.sample_row(t))
                .map(|(&r, &g)| r as u64 + g as u64)
                .collect();
            assert_eq!(loads[h], expect);
            assert_eq!(*loads[h].iter().max().unwrap(), series[t]);
        }
        // out-of-range holdout is a config error
        assert!(exact_sample_loads(&tr, &cfg, None, &[99]).is_err());
    }
}
