//! SimPoint-style reduction-plan construction: trace → per-sample feature
//! vectors → seeded k-means → [`ReductionPlan`].
//!
//! This is the orchestration layer tying `pic_trace::features` (what a
//! sample *looks like*), `pic_models::kmeans` (which samples look alike),
//! `pic_workload::reduce` (replay one per phase) and the `pic-analysis`
//! holdout gate together for the CLI and the resident service. The
//! clustering is deterministic for a fixed seed regardless of thread
//! count, so a committed plan is reproducible.

use pic_analysis::{ReductionBudget, ReductionReport};
use pic_grid::ElementMesh;
use pic_models::kmeans::{self, KMeansConfig};
use pic_trace::features::{feature_vectors, FeatureConfig};
use pic_trace::ParticleTrace;
use pic_types::error::check_reservable;
use pic_types::{PicError, Result};
use pic_workload::{
    AssignmentCache, DynamicWorkload, ReductionPlan, ReplayOptions, SweepPoint, SweepStats,
};

/// Knobs for [`build_plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpointOptions {
    /// Fixed cluster count. `None` selects `K` automatically with the
    /// BIC-knee criterion over `1..=k_max`.
    pub k: Option<usize>,
    /// Upper bound of the automatic `K` search.
    pub k_max: usize,
    /// Clustering seed (drives k-means++ and the per-`k` seed streams).
    pub seed: u64,
    /// Feature extraction configuration (density histogram resolution).
    pub features: FeatureConfig,
    /// Cluster on the density histogram alone, dropping the three dynamic
    /// scalars (migration rate, occupancy spread, boundary-volume delta).
    ///
    /// The error-budget gate scores peak load, which is a pure function
    /// of particle positions — and the migration scalar spikes to ~1 at
    /// every phase transition, so with it included the transition samples
    /// of *unlike* phases cluster together by their shared spike and each
    /// inherits a representative whose load profile is wildly wrong. On
    /// by default; switch off to recover full-vector clustering when the
    /// dynamic signature is the thing being studied.
    pub spatial_only: bool,
    /// k-means iteration cap.
    pub max_iters: usize,
}

impl Default for SimpointOptions {
    fn default() -> SimpointOptions {
        SimpointOptions {
            k: None,
            k_max: 16,
            seed: 0x51a9_0b17,
            features: FeatureConfig::default(),
            spatial_only: true,
            max_iters: 64,
        }
    }
}

/// Cluster a trace's samples into phases and emit the reduction plan:
/// one representative per nonempty cluster (the member closest to its
/// centroid), every sample assigned to its representative's slot.
///
/// Fails on an empty trace (there is nothing to represent) and on a
/// feature table the host cannot hold (zero bins per axis, more cells than
/// 32-bit ids, or a table that cannot be reserved), and surfaces
/// plan-consistency violations as config errors — though by construction
/// the emitted plan always validates.
pub fn build_plan(trace: &ParticleTrace, opts: &SimpointOptions) -> Result<ReductionPlan> {
    let t = trace.sample_count();
    if t == 0 {
        return Err(PicError::config(
            "cannot build a reduction plan for an empty trace",
        ));
    }
    if let Some(k) = opts.k {
        if k == 0 {
            return Err(PicError::config("reduction needs at least one cluster"));
        }
    }
    check_feature_table(opts.features.bins_per_axis, t)?;
    let mut points = feature_vectors(trace, &opts.features);
    if opts.spatial_only {
        let cells = opts.features.bins_per_axis.pow(3);
        for v in &mut points {
            v.truncate(cells);
        }
    }
    let fitted = match opts.k {
        Some(k) => kmeans::fit(
            &points,
            &KMeansConfig {
                k: k.min(t),
                seed: opts.seed,
                max_iters: opts.max_iters,
                ..KMeansConfig::default()
            },
        ),
        None => kmeans::select_k(&points, opts.k_max.max(1), opts.seed, opts.max_iters),
    };
    // Dense slot numbering: empty clusters have no representative, so
    // cluster ids are compacted into consecutive plan slots.
    let reps = fitted.representatives(&points);
    let mut slot_of = vec![usize::MAX; fitted.k()];
    let mut representatives = Vec::with_capacity(reps.len());
    for (slot, &(cluster, sample)) in reps.iter().enumerate() {
        slot_of[cluster] = slot;
        representatives.push(sample);
    }
    let assignment: Vec<usize> = fitted.assignment.iter().map(|&c| slot_of[c]).collect();
    ReductionPlan::new(t, representatives, assignment)
}

/// Refuse a feature table before anything is sized by it: `bins`³
/// reference cells (cell ids are 32-bit, and there is at least one) plus
/// three scalars per sample, as `f64`s, must pass [`check_reservable`],
/// whose probe is best effort; the cell bound is the hard guarantee.
fn check_feature_table(bins: usize, samples: usize) -> Result<()> {
    let cells = bins
        .checked_pow(3)
        .filter(|&c| c > 0 && c <= u32::MAX as usize);
    let Some(cells) = cells else {
        return Err(PicError::config(format!(
            "feature bins per axis must be 1 to 1625 (cell ids are 32-bit), got {bins}"
        )));
    };
    let bytes = (cells + 3)
        .checked_mul(samples)
        .and_then(|n| n.checked_mul(std::mem::size_of::<f64>()));
    check_reservable(bytes, |size| {
        format!(
            "feature bins per axis {bins} need {size} bytes of features for {samples} samples, \
             which cannot be allocated"
        )
    })
}

/// Replay `plan`'s representatives for every grid point, through `cache`
/// if given, then hold every point to the holdout `budget` (exact replay
/// of held-out samples, compared on peak load). The broadcast cannot
/// satisfy the invariant catalog's `comm-flow`, so this gate is a reduced
/// workload's acceptance check; a breach names its grid point, and a budget
/// the gate refuses is the gate's configuration error. Returns the
/// workloads, the replay accounting and one gate report per point.
pub(crate) fn replay_reduced_gated(
    trace: &ParticleTrace,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
    cache: Option<&AssignmentCache>,
    plan: &ReductionPlan,
    budget: &ReductionBudget,
) -> Result<(Vec<DynamicWorkload>, SweepStats, Vec<ReductionReport>)> {
    let opts = ReplayOptions::new(mesh, cache, Some(plan));
    let (workloads, stats) = pic_workload::replay(trace, points, &opts)?;
    let reports = points
        .iter()
        .zip(&workloads)
        .map(|(point, w)| {
            pic_analysis::assert_reduction_valid(trace, &point.config, mesh, plan, w, budget)
                .map_err(|e| match e {
                    PicError::ModelFit(breach) => PicError::model(format!(
                        "reduced replay failed the error-budget gate at ranks={} mapping={}: \
                         {breach}",
                        point.config.ranks, point.config.mapping
                    )),
                    e => e,
                })
        })
        .collect::<Result<_>>()?;
    Ok((workloads, stats, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_trace::TraceMeta;
    use pic_types::rng::SplitMix64;
    use pic_types::{Aabb, Vec3};

    /// Low-resolution features for the small test traces: the BIC penalty
    /// charges `dim` parameters per centroid, so the default 67-dim
    /// histogram needs far more samples than a unit test wants.
    fn test_opts() -> SimpointOptions {
        SimpointOptions {
            features: FeatureConfig { bins_per_axis: 2 },
            ..Default::default()
        }
    }

    /// Phases are clouds parked in different corners of the domain, with
    /// per-sample jitter so within-phase inertia is small but nonzero
    /// (a perfect zero would cliff the BIC likelihood term).
    fn phased_trace(np: usize, samples_per_phase: usize, phases: usize) -> ParticleTrace {
        let centers = [
            Vec3::new(0.3, 0.3, 0.3),
            Vec3::new(0.7, 0.3, 0.3),
            Vec3::new(0.3, 0.7, 0.3),
            Vec3::new(0.7, 0.7, 0.7),
        ];
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "simpoint");
        let mut tr = ParticleTrace::new(meta);
        let mut rng = SplitMix64::new(11);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        for phase in 0..phases {
            let c = centers[phase % centers.len()];
            for _ in 0..samples_per_phase {
                let positions: Vec<Vec3> = dirs
                    .iter()
                    .map(|d| {
                        let jitter = Vec3::new(
                            rng.next_range(-0.01, 0.01),
                            rng.next_range(-0.01, 0.01),
                            rng.next_range(-0.01, 0.01),
                        );
                        (c + *d * 0.05 + jitter).clamp(Vec3::ZERO, Vec3::ONE)
                    })
                    .collect();
                tr.push_positions(positions).unwrap();
            }
        }
        tr
    }

    #[test]
    fn plan_is_valid_and_groups_phases() {
        let per = 20;
        let tr = phased_trace(120, per, 3);
        let plan = build_plan(
            &tr,
            &SimpointOptions {
                k: Some(3),
                ..test_opts()
            },
        )
        .unwrap();
        assert_eq!(plan.total_samples, 3 * per);
        assert_eq!(plan.k(), 3);
        plan.validate().unwrap();
        // Steady samples of one phase share a slot, and the phases get
        // distinct slots. The first sample of a phase is skipped: under
        // full-vector clustering its migration spike makes it an outlier
        // the clustering may park anywhere (spatial-only, the default,
        // groups it with its own phase — but the test holds either way).
        let mut slots = Vec::new();
        for phase in 0..3 {
            let span = &plan.assignment[phase * per + 1..(phase + 1) * per];
            assert!(
                span.iter().all(|&s| s == span[0]),
                "phase {phase}: {span:?}"
            );
            slots.push(span[0]);
        }
        slots.dedup();
        assert_eq!(slots.len(), 3, "phases share slots: {slots:?}");
    }

    #[test]
    fn automatic_k_finds_the_phase_count() {
        let tr = phased_trace(120, 20, 3);
        let plan = build_plan(&tr, &test_opts()).unwrap();
        assert_eq!(plan.k(), 3, "plan: {plan:?}");
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let tr = phased_trace(100, 4, 2);
        let opts = test_opts();
        assert_eq!(
            build_plan(&tr, &opts).unwrap(),
            build_plan(&tr, &opts).unwrap()
        );
    }

    #[test]
    fn plan_is_identical_across_thread_counts() {
        let tr = phased_trace(120, 20, 3);
        let plans: Vec<ReductionPlan> = [1usize, 2]
            .iter()
            .map(|&threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| build_plan(&tr, &test_opts()).unwrap())
            })
            .collect();
        assert_eq!(plans[0], plans[1]);
        assert_eq!(plans[0].k(), 3);
    }

    #[test]
    fn degenerate_requests_fail_cleanly() {
        let empty = ParticleTrace::new(TraceMeta::new(3, 1, Aabb::unit(), "empty"));
        assert!(build_plan(&empty, &SimpointOptions::default()).is_err());
        let tr = phased_trace(20, 2, 1);
        assert!(build_plan(
            &tr,
            &SimpointOptions {
                k: Some(0),
                ..test_opts()
            }
        )
        .is_err());
        // k larger than T clamps; empty clusters (if any) are compacted,
        // so the plan stays valid with 1 <= K <= T.
        let plan = build_plan(
            &tr,
            &SimpointOptions {
                k: Some(99),
                ..test_opts()
            },
        )
        .unwrap();
        assert!(plan.k() >= 1 && plan.k() <= 2, "plan: {plan:?}");
        plan.validate().unwrap();
    }

    /// Bin counts the feature table cannot be built for are configuration
    /// errors naming the value: zero (an assertion deep in the feature
    /// pass), more cells than 32-bit ids (a capacity overflow, or a 32 GB
    /// allocation abort at 2000), or a table no host can reserve.
    #[test]
    fn feature_bins_the_host_cannot_hold_are_refused() {
        let tr = phased_trace(20, 2, 1);
        for bins in [0, 1626, 2000, 3_000_000, usize::MAX] {
            let mut opts = test_opts();
            opts.features.bins_per_axis = bins;
            let err = build_plan(&tr, &opts).unwrap_err().to_string();
            assert!(
                err.starts_with("configuration error: feature bins"),
                "{err}"
            );
            assert!(err.ends_with(&format!("got {bins}")), "{err}");
        }
        let err = check_feature_table(1625, 1 << 26).unwrap_err().to_string();
        assert!(err.contains("1625 need") && err.contains("cannot be allocated"));
        let err = check_feature_table(1625, 1 << 40).unwrap_err().to_string();
        assert!(err.contains("more than usize::MAX"), "{err}");
        check_feature_table(1, 1 << 20).unwrap();
        check_feature_table(1625, 0).unwrap();
        // the largest table under the probe floor passes unprobed
        check_feature_table(4, (pic_types::error::RESERVE_PROBE_FLOOR >> 3) / 67 - 1).unwrap();
    }
}
