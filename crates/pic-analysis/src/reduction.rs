//! Error-budget gate for SimPoint-style trace reduction.
//!
//! A [`pic_workload::ReductionPlan`] is an approximation: every
//! non-representative sample's workload is stood in for by its cluster
//! representative. Before a reduced replay is trusted — committed as a
//! replay artifact, served from the resident registry, used for a
//! scalability sweep — this gate measures the approximation on a
//! deterministic *holdout*: non-representative samples replayed exactly
//! through the full per-sample kernel and compared against the reduced
//! reconstruction's claim for them.
//!
//! The gated metric is the per-sample **peak load** (max over ranks of
//! real + received-ghost particles) — the quantity the paper's
//! critical-path predictions rest on. A reduction whose worst holdout
//! relative error exceeds the budget is rejected with a positioned error
//! naming the breaching sample, mirroring the
//! [`workload`](crate::workload) gate idiom.

use pic_trace::ParticleTrace;
use pic_types::rng::SplitMix64;
use pic_types::{PicError, Result};
use pic_workload::reduce::{exact_sample_loads, peak_load_series};
use pic_workload::{DynamicWorkload, ReductionPlan, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// How much reduction error is tolerable, and how hard to look for it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReductionBudget {
    /// Maximum tolerated relative error of any holdout sample's peak load
    /// (and of the global peak). The paper-scale target is 2%.
    pub max_peak_rel_error: f64,
    /// Number of holdout samples to replay exactly. Drawn without
    /// replacement from the non-representative samples; capped at their
    /// count.
    pub holdout: usize,
    /// Seed of the deterministic holdout draw.
    pub seed: u64,
}

impl Default for ReductionBudget {
    fn default() -> ReductionBudget {
        ReductionBudget {
            max_peak_rel_error: 0.02,
            holdout: 8,
            seed: 0x5eed_0bed,
        }
    }
}

/// One holdout comparison: the reduced reconstruction's claim for a
/// sample vs its exact replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoldoutPoint {
    /// Trace sample index (never a representative).
    pub sample: usize,
    /// Peak load the reduced workload claims at this sample.
    pub predicted_peak: u64,
    /// Peak load of the exact single-sample replay.
    pub exact_peak: u64,
    /// `|predicted − exact| / exact` (infinite if exact is 0 and
    /// predicted is not; 0 when both are 0).
    pub rel_error: f64,
}

/// The gate's full evidence: every holdout point plus the worst error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReductionReport {
    /// Budget the reduction was checked against.
    pub budget: ReductionBudget,
    /// Representatives in the plan (`K`).
    pub k: usize,
    /// Trace samples (`T`).
    pub total_samples: usize,
    /// Every holdout comparison, ascending by sample index.
    pub points: Vec<HoldoutPoint>,
    /// Worst holdout relative error (0 when the holdout is empty).
    pub max_rel_error: f64,
    /// Whether the reduction stays within budget.
    pub within_budget: bool,
}

fn rel_error(predicted: u64, exact: u64) -> f64 {
    if exact == 0 {
        return if predicted == 0 { 0.0 } else { f64::INFINITY };
    }
    (predicted as f64 - exact as f64).abs() / exact as f64
}

/// Deterministic holdout draw: up to `budget.holdout` distinct
/// non-representative samples, seeded Fisher–Yates prefix, returned
/// sorted ascending.
pub fn holdout_samples(plan: &ReductionPlan, budget: &ReductionBudget) -> Vec<usize> {
    let mut is_rep = vec![false; plan.total_samples];
    for &s in &plan.representatives {
        is_rep[s] = true;
    }
    let mut pool: Vec<usize> = (0..plan.total_samples).filter(|&s| !is_rep[s]).collect();
    let n = budget.holdout.min(pool.len());
    let mut rng = SplitMix64::new(budget.seed);
    for i in 0..n {
        let j = i + rng.next_below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut chosen = pool[..n].to_vec();
    chosen.sort_unstable();
    chosen
}

/// Measure a reduction against its budget.
///
/// `reduced` must be the reduced replay of `trace` under `plan` with
/// configuration `cfg` (arity mismatches are config errors). Holdout
/// samples are replayed exactly — cost `O(holdout)` full-kernel samples,
/// not `O(T)` — and compared on peak load. Representatives themselves
/// are never drawn: the reduced path replays them through the identical
/// kernel, so their error is zero by construction.
pub fn check_reduction(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&pic_grid::ElementMesh>,
    plan: &ReductionPlan,
    reduced: &DynamicWorkload,
    budget: &ReductionBudget,
) -> Result<ReductionReport> {
    plan.validate()?;
    if plan.total_samples != trace.sample_count() {
        return Err(PicError::config(format!(
            "reduction plan covers {} samples, trace has {}",
            plan.total_samples,
            trace.sample_count()
        )));
    }
    if reduced.samples() != plan.total_samples {
        return Err(PicError::config(format!(
            "reduced workload has {} samples, plan reconstructs {}",
            reduced.samples(),
            plan.total_samples
        )));
    }
    // NaN budgets are as invalid as negative ones.
    if budget.max_peak_rel_error.is_nan() || budget.max_peak_rel_error < 0.0 {
        return Err(PicError::config(format!(
            "reduction budget must be a non-negative error bound, got {}",
            budget.max_peak_rel_error
        )));
    }
    // A gate that holds out no sample checks nothing; only an exact plan
    // (one representative per sample) has nothing to hold out.
    if budget.holdout == 0 && plan.k() < plan.total_samples {
        return Err(PicError::config(
            "reduction holdout must be at least one sample, got 0",
        ));
    }
    let samples = holdout_samples(plan, budget);
    let predicted = peak_load_series(reduced);
    let exact = exact_sample_loads(trace, cfg, mesh, &samples)?;
    let points: Vec<HoldoutPoint> = samples
        .iter()
        .zip(&exact)
        .map(|(&s, loads)| {
            let exact_peak = loads.iter().copied().max().unwrap_or(0);
            let predicted_peak = predicted[s];
            HoldoutPoint {
                sample: s,
                predicted_peak,
                exact_peak,
                rel_error: rel_error(predicted_peak, exact_peak),
            }
        })
        .collect();
    let max_rel_error = points.iter().map(|p| p.rel_error).fold(0.0, f64::max);
    Ok(ReductionReport {
        budget: *budget,
        k: plan.k(),
        total_samples: plan.total_samples,
        within_budget: max_rel_error <= budget.max_peak_rel_error,
        points,
        max_rel_error,
    })
}

/// [`check_reduction`] as a hard gate: a budget breach becomes one
/// [`PicError`] naming the worst holdout sample and its error.
pub fn assert_reduction_valid(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&pic_grid::ElementMesh>,
    plan: &ReductionPlan,
    reduced: &DynamicWorkload,
    budget: &ReductionBudget,
) -> Result<ReductionReport> {
    let report = check_reduction(trace, cfg, mesh, plan, reduced, budget)?;
    if report.within_budget {
        return Ok(report);
    }
    let worst = report
        .points
        .iter()
        .max_by(|a, b| a.rel_error.total_cmp(&b.rel_error))
        .expect("breach implies a nonempty holdout");
    Err(PicError::model(format!(
        "reduction exceeds error budget: peak-load error {:.4} > {:.4} at sample {} \
         (predicted {}, exact {}; K={} of T={})",
        worst.rel_error,
        budget.max_peak_rel_error,
        worst.sample,
        worst.predicted_peak,
        worst.exact_peak,
        report.k,
        report.total_samples
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_mapping::MappingAlgorithm;
    use pic_trace::TraceMeta;
    use pic_types::{Aabb, Vec3};
    use pic_workload::{replay, ReplayOptions, SweepPoint};

    /// `cfg` replayed under `plan`.
    fn replay_plan(
        tr: &ParticleTrace,
        cfg: &WorkloadConfig,
        plan: &ReductionPlan,
    ) -> DynamicWorkload {
        let opts = ReplayOptions::new(None, None, Some(plan));
        replay(tr, &[SweepPoint::new(cfg.clone())], &opts)
            .unwrap()
            .0
            .remove(0)
    }

    fn phased_trace(np: usize, t: usize) -> ParticleTrace {
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "gate");
        let mut tr = ParticleTrace::new(meta);
        let mut rng = SplitMix64::new(7);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        for k in 0..t {
            // two plateaus: tight cloud, then spread cloud
            let scale = if k < t / 2 { 0.05 } else { 0.25 };
            let positions: Vec<Vec3> = dirs
                .iter()
                .map(|d| (Vec3::splat(0.5) + *d * scale).clamp(Vec3::ZERO, Vec3::ONE))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    #[test]
    fn identity_reduction_passes_any_budget() {
        let tr = phased_trace(200, 8);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
        let plan = ReductionPlan::identity(tr.sample_count());
        let reduced = replay_plan(&tr, &cfg, &plan);
        let budget = ReductionBudget {
            max_peak_rel_error: 0.0,
            ..Default::default()
        };
        let report = assert_reduction_valid(&tr, &cfg, None, &plan, &reduced, &budget).unwrap();
        // identity plan has no non-representative samples to hold out
        assert!(report.points.is_empty());
        assert_eq!(report.max_rel_error, 0.0);
        assert!(report.within_budget);
    }

    #[test]
    fn good_two_phase_reduction_passes_and_bad_one_breaches() {
        let tr = phased_trace(300, 10);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
        let budget = ReductionBudget {
            holdout: 8,
            ..Default::default()
        };
        // aligned with the phase boundary: reps 0 and 5 stand in exactly
        let good = ReductionPlan::new(10, vec![0, 5], vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]).unwrap();
        let reduced = replay_plan(&tr, &cfg, &good);
        let report = assert_reduction_valid(&tr, &cfg, None, &good, &reduced, &budget).unwrap();
        assert!(report.within_budget);
        assert_eq!(report.points.len(), 8);

        // one representative for both phases cannot describe the spread half
        let bad = ReductionPlan::new(10, vec![0], vec![0; 10]).unwrap();
        let reduced = replay_plan(&tr, &cfg, &bad);
        let err = assert_reduction_valid(&tr, &cfg, None, &bad, &reduced, &budget).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("error budget"), "{msg}");
        assert!(msg.contains("K=1 of T=10"), "{msg}");
    }

    #[test]
    fn holdout_draw_is_deterministic_and_avoids_representatives() {
        let plan =
            ReductionPlan::new(12, vec![0, 6], vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]).unwrap();
        let budget = ReductionBudget {
            holdout: 5,
            seed: 42,
            ..Default::default()
        };
        let a = holdout_samples(&plan, &budget);
        let b = holdout_samples(&plan, &budget);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|&s| s != 0 && s != 6));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // asking for more holdout than exists caps at the pool
        let big = ReductionBudget {
            holdout: 100,
            ..budget
        };
        assert_eq!(holdout_samples(&plan, &big).len(), 10);
    }

    #[test]
    fn arity_and_budget_mismatches_are_config_errors() {
        let tr = phased_trace(50, 4);
        let cfg = WorkloadConfig::new(4, MappingAlgorithm::BinBased, 0.05);
        let plan = ReductionPlan::identity(4);
        let reduced = replay_plan(&tr, &cfg, &plan);
        // wrong trace
        let short = phased_trace(50, 3);
        assert!(check_reduction(&short, &cfg, None, &plan, &reduced, &Default::default()).is_err());
        // negative budget
        let bad = ReductionBudget {
            max_peak_rel_error: -0.5,
            ..Default::default()
        };
        assert!(check_reduction(&tr, &cfg, None, &plan, &reduced, &bad).is_err());
    }

    /// A zero holdout would pass any reduction unchecked: it is a
    /// configuration error, unless the plan is exact and has no sample to
    /// hold out.
    #[test]
    fn zero_holdout_is_refused_unless_the_plan_is_exact() {
        let tr = phased_trace(300, 10);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
        let none = ReductionBudget {
            holdout: 0,
            ..Default::default()
        };
        let bad = ReductionPlan::new(10, vec![0], vec![0; 10]).unwrap();
        let reduced = replay_plan(&tr, &cfg, &bad);
        let err = assert_reduction_valid(&tr, &cfg, None, &bad, &reduced, &none).unwrap_err();
        assert_eq!(
            err.to_string(),
            "configuration error: reduction holdout must be at least one sample, got 0"
        );
        let exact = ReductionPlan::identity(10);
        let reduced = replay_plan(&tr, &cfg, &exact);
        let report = assert_reduction_valid(&tr, &cfg, None, &exact, &reduced, &none).unwrap();
        assert!(report.within_budget && report.points.is_empty());
    }
}
