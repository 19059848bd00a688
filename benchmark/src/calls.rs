//! The one adapter between the benchmark and the repo's crates.
//!
//! Every public function of `crates/*` that the benchmark calls is called
//! from this file and nowhere else, each inside the span that carries its
//! layer's name. An API-collapsing change therefore knows exactly which
//! names the benchmark pins: the `use` lines below.

use crate::spans::Recorder;
use pic_analysis::{assert_reduction_valid, assert_sweep_valid, ReductionBudget};
use pic_des::{MachineSpec, SyncMode};
use pic_grid::{ElementMesh, MeshDims, RcbDecomposition};
use pic_mapping::MappingAlgorithm;
use pic_predict::pipeline::bytes_per_particle;
use pic_predict::simpoint::{build_plan, SimpointOptions};
use pic_predict::validate::{kernel_mape_vs_ground_truth, workload_matches_ground_truth};
use pic_predict::{
    build_schedule, predict_application, predict_kernel_seconds, FitStrategy, KernelModels,
    ServeConfig, Server,
};
use pic_sim::app::build_mapper;
use pic_sim::instrument::WorkloadParams;
use pic_sim::{CostOracle, GroundTruth, KernelKind, MiniPic, SimConfig, SimOutput};
use pic_trace::features::{feature_vectors, FeatureConfig};
use pic_trace::{codec, compact, ParticleTrace, Precision};
use pic_types::hash::Fnv128;
use pic_types::Result;
use pic_workload::reduce::{generate_reduced_with_stats, peak_rel_error};
use pic_workload::sweep::sweep_with_stats;
use pic_workload::{generator, DynamicWorkload, ReductionPlan, SweepPoint, WorkloadConfig};
use std::path::Path;

// ------------------------------------------------------------ pic-sim

/// `MiniPic::new` + `MiniPic::run`.
pub fn run_sim(rec: &mut Recorder, cfg: &SimConfig) -> Result<SimOutput> {
    rec.span("sim.run", |_| MiniPic::new(cfg.clone())?.run())
}

// ---------------------------------------------------------- pic-trace

pub fn save_raw(trace: &ParticleTrace, path: &Path) -> Result<()> {
    codec::save_file(trace, path, Precision::F64)
}

pub fn save_compact(trace: &ParticleTrace, path: &Path) -> Result<()> {
    compact::save_file(trace, path, Precision::F32).map(|_bytes| ())
}

/// `codec::load_file` on a raw `PICTRC01` file.
pub fn load_raw(rec: &mut Recorder, path: &Path) -> Result<ParticleTrace> {
    let trace = rec.span("trace.decode", |_| codec::load_file(path))?;
    rec.add("trace.decode_bytes", file_len(path));
    Ok(trace)
}

/// `compact::load_file_any` on a compact `PICTRC02` file.
pub fn load_compact(rec: &mut Recorder, path: &Path) -> Result<ParticleTrace> {
    let trace = rec.span("trace.compact_decode", |_| compact::load_file_any(path))?;
    rec.add("trace.decode_bytes", file_len(path));
    Ok(trace)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Isolated `features::feature_vectors` call (traced run only).
pub fn features(rec: &mut Recorder, trace: &ParticleTrace) -> usize {
    rec.span("trace.features", |_| {
        feature_vectors(trace, &FeatureConfig::default()).len()
    })
}

// ----------------------------------------------------------- pic-grid

pub fn mesh(
    rec: &mut Recorder,
    trace: &ParticleTrace,
    cube: usize,
    order: usize,
) -> Result<ElementMesh> {
    rec.span("grid.decompose", |_| {
        ElementMesh::new(trace.meta().domain, MeshDims::cube(cube), order)
    })
}

/// `RcbDecomposition::decompose(..).element_counts()` as the static fluid
/// workload per rank.
pub fn elements_per_rank(rec: &mut Recorder, mesh: &ElementMesh, ranks: usize) -> Result<Vec<u32>> {
    rec.span("grid.decompose", |_| {
        let d = RcbDecomposition::decompose(mesh, ranks)?;
        Ok(d.element_counts().iter().map(|&c| c as u32).collect())
    })
}

// -------------------------------------------------------- pic-mapping

/// Span suffix of a mapper, as in `mapping.assign_s.<suffix>`.
fn assign_span(mapping: MappingAlgorithm) -> &'static str {
    match mapping {
        MappingAlgorithm::ElementBased => "mapping.assign.element",
        MappingAlgorithm::BinBased => "mapping.assign.bin",
        MappingAlgorithm::HilbertOrdered => "mapping.assign.hilbert",
        MappingAlgorithm::LoadBalanced => "mapping.assign.load-balanced",
    }
}

/// Isolated `build_mapper` + `ParticleMapper::assign` over every sample
/// (traced run only): the assignment half of the DWG on its own.
pub fn assign_all(
    rec: &mut Recorder,
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: &ElementMesh,
) -> Result<()> {
    rec.add(
        "mapping.assign_psamples",
        (trace.particle_count() * trace.sample_count()) as u64,
    );
    rec.span(assign_span(cfg.mapping), |_| {
        let mapper = build_mapper(cfg.mapping, mesh, cfg.ranks, cfg.projection_filter)?;
        for s in trace.samples() {
            std::hint::black_box(mapper.assign(&s.positions));
        }
        Ok(())
    })
}

// ------------------------------------------------------- pic-workload

pub fn workload_config(ranks: usize, mapping: MappingAlgorithm, filter: f64) -> WorkloadConfig {
    WorkloadConfig::new(ranks, mapping, filter)
}

/// `generator::generate_with_mesh`.
pub fn generate(
    rec: &mut Recorder,
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<DynamicWorkload> {
    let w = rec.span("workload.generate", |_| {
        generator::generate_with_mesh(trace, cfg, mesh)
    })?;
    count_workload(rec, &w);
    Ok(w)
}

/// Isolated `generate_with_mesh` with `compute_ghosts = false` (traced
/// run only): the DWG without its ghost kernel.
pub fn generate_noghost(
    rec: &mut Recorder,
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<()> {
    let cfg = WorkloadConfig {
        compute_ghosts: false,
        ..cfg.clone()
    };
    rec.span("workload.generate_noghost", |_| {
        generator::generate_with_mesh(trace, &cfg, mesh).map(|w| {
            std::hint::black_box(w);
        })
    })
}

/// `sweep::sweep_with_stats` (what `sweep::sweep` wraps), then
/// `pic_analysis::assert_sweep_valid` as the response gate.
pub fn sweep(
    rec: &mut Recorder,
    trace: &ParticleTrace,
    points: &[SweepPoint],
    mesh: &ElementMesh,
) -> Result<Vec<DynamicWorkload>> {
    let (workloads, stats) = rec.span("workload.sweep", |_| {
        sweep_with_stats(trace, points, Some(mesh))
    })?;
    rec.add("workload.sweep_groups", stats.groups as u64);
    rec.add("workload.sweep_assign_passes", stats.assign_passes as u64);
    for w in &workloads {
        count_workload(rec, w);
    }
    rec.span("analysis.gate", |_| {
        assert_sweep_valid(&workloads, Some(trace.particle_count() as u64))
    })?;
    Ok(workloads)
}

pub fn sweep_point(cfg: WorkloadConfig) -> SweepPoint {
    SweepPoint::new(cfg)
}

/// `reduce::generate_reduced_with_stats` (what `generate_reduced` wraps),
/// then `pic_analysis::assert_reduction_valid` at the default 2 % budget.
pub fn generate_reduced(
    rec: &mut Recorder,
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    plan: &ReductionPlan,
) -> Result<DynamicWorkload> {
    let (w, stats) = rec.span("workload.reduce_replay", |_| {
        generate_reduced_with_stats(trace, cfg, None, plan)
    })?;
    rec.add(
        "workload.replayed_samples",
        (stats.representatives + stats.owner_only_samples) as u64,
    );
    count_workload(rec, &w);
    let report = rec.span("analysis.gate", |_| {
        assert_reduction_valid(trace, cfg, None, plan, &w, &ReductionBudget::default())
    })?;
    rec.add("analysis.holdout_samples", report.points.len() as u64);
    Ok(w)
}

fn count_workload(rec: &mut Recorder, w: &DynamicWorkload) {
    if !rec.enabled() {
        return;
    }
    let ghosts: u64 = (0..w.samples()).map(|t| w.ghost_recv.sample_total(t)).sum();
    let comm: usize = w.comm.entries.iter().map(Vec::len).sum();
    rec.add("workload.ghost_pairs", ghosts);
    rec.add("workload.comm_entries", comm as u64);
}

/// `reduce::peak_rel_error` of a reduced workload against the full replay.
pub fn reduction_error(reduced: &DynamicWorkload, full: &DynamicWorkload) -> f64 {
    peak_rel_error(reduced, full)
}

/// FNV-1a-128 (`pic_types::hash`) over every matrix of the workloads.
pub fn workload_digest(workloads: &[DynamicWorkload]) -> String {
    let mut h = Fnv128::new();
    let mut words: Vec<u8> = Vec::new();
    for w in workloads {
        words.clear();
        words.extend_from_slice(&(w.ranks as u64).to_le_bytes());
        for t in 0..w.samples() {
            words.extend_from_slice(&w.iterations[t].to_le_bytes());
            for m in [&w.real, &w.ghost_recv, &w.ghost_sent] {
                for v in m.sample_row(t) {
                    words.extend_from_slice(&v.to_le_bytes());
                }
            }
            for &(from, to, n) in &w.comm.entries[t] {
                for v in [from, to, n] {
                    words.extend_from_slice(&v.to_le_bytes());
                }
            }
            words
                .extend_from_slice(&(w.bin_counts[t].map_or(u64::MAX, |b| b as u64)).to_le_bytes());
        }
        h.update(&words);
    }
    h.hex()
}

// ----------------------------------------- pic-models and pic-predict

pub fn fit_models(rec: &mut Recorder, sim: &SimOutput, seed: u64) -> Result<KernelModels> {
    rec.span("models.fit", |_| {
        KernelModels::fit(&sim.recorder, &FitStrategy::fast(seed), seed)
    })
}

/// Linear models from a noiseless `CostOracle` sweep, for the synthetic
/// trace that has no `pic-sim` run behind it.
pub fn fit_oracle_models(rec: &mut Recorder, seed: u64) -> Result<KernelModels> {
    rec.span("models.fit", |_| {
        let oracle = CostOracle::noiseless();
        let mut recorder = pic_sim::Recorder::new();
        let mut rng = pic_types::rng::SplitMix64::new(seed);
        for _ in 0..200 {
            let p = WorkloadParams {
                np: rng.next_range(0.0, 5000.0).round(),
                ngp: rng.next_range(0.0, 1000.0).round(),
                nel: rng.next_range(1.0, 256.0).round(),
                n_order: 3.0,
                filter: 0.03,
            };
            for k in KernelKind::ALL {
                recorder.record(k, p, oracle.true_cost(k, &p));
            }
        }
        KernelModels::fit(&recorder, &FitStrategy::Linear, seed)
    })
}

pub fn models_to_json(models: &KernelModels) -> String {
    models.to_json()
}

pub fn models_from_json(text: &str) -> Result<KernelModels> {
    KernelModels::from_json(text)
}

/// `simpoint::build_plan` with default options and the given seed.
pub fn simpoint_plan(
    rec: &mut Recorder,
    trace: &ParticleTrace,
    seed: u64,
) -> Result<ReductionPlan> {
    let opts = SimpointOptions {
        seed,
        ..SimpointOptions::default()
    };
    let plan = rec.span("predict.simpoint_plan", |_| build_plan(trace, &opts))?;
    rec.add("predict.plan_k", plan.k() as u64);
    Ok(plan)
}

/// `predict_kernel_seconds` → `build_schedule` → `predict_application`
/// once per sync mode; returns the predicted application seconds.
#[allow(clippy::too_many_arguments)]
pub fn predict_tail(
    rec: &mut Recorder,
    workload: &DynamicWorkload,
    models: &KernelModels,
    elements: &[u32],
    order: usize,
    filter: f64,
    iterations_per_sample: u32,
    modes: &[SyncMode],
) -> Result<Vec<f64>> {
    let predicted = rec.span("models.eval", |_| {
        predict_kernel_seconds(workload, models, elements, order, filter)
    });
    rec.add(
        "models.evals",
        (workload.samples() * workload.ranks * KernelKind::ALL.len()) as u64,
    );
    let schedule = rec.span("predict.schedule", |_| {
        build_schedule(
            workload,
            &predicted,
            iterations_per_sample,
            bytes_per_particle(),
        )
    });
    let msgs: usize = schedule.iter().map(|s| s.messages.len()).sum();
    rec.add("predict.schedule_msgs", msgs as u64);
    let machine = MachineSpec::quartz_like();
    let mut seconds = Vec::with_capacity(modes.len());
    for &mode in modes {
        let (span, events) = match mode {
            SyncMode::BulkSynchronous => ("des.bs", "des.bs_events"),
            SyncMode::NeighborSync => ("des.ns", "des.ns_events"),
        };
        let timeline = rec.span(span, |_| predict_application(&schedule, &machine, mode))?;
        rec.add(events, timeline.events_processed);
        seconds.push(timeline.total_seconds);
    }
    Ok(seconds)
}

/// Predicted kernel seconds alone, for the ground-truth MAPE check.
pub fn kernel_seconds(
    workload: &DynamicWorkload,
    models: &KernelModels,
    elements: &[u32],
    order: usize,
    filter: f64,
) -> Vec<Vec<[f64; 6]>> {
    predict_kernel_seconds(workload, models, elements, order, filter)
}

/// `validate::workload_matches_ground_truth` (exact) and the mean of
/// `validate::kernel_mape_vs_ground_truth`, in percent.
pub fn check_against_ground_truth(
    workload: &DynamicWorkload,
    predicted: &[Vec<[f64; 6]>],
    gt: &GroundTruth,
) -> Result<f64> {
    workload_matches_ground_truth(workload, gt)?;
    let mape = kernel_mape_vs_ground_truth(predicted, gt)?;
    Ok(mape.iter().map(|&(_, m)| m).sum::<f64>() / mape.len() as f64)
}

// -------------------------------------------------- pic-predict::serve

/// `Server::start` on an ephemeral localhost port with default limits.
pub fn start_server() -> Result<Server> {
    Server::start(ServeConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Tally;
    use pic_sim::app::GroundTruthSample;
    use pic_workload::{CommMatrix, CompMatrix};

    fn workload(real: Vec<u32>) -> DynamicWorkload {
        DynamicWorkload {
            ranks: 2,
            iterations: vec![0],
            real: CompMatrix::from_rows(2, vec![real]),
            ghost_recv: CompMatrix::from_rows(2, vec![vec![0, 1]]),
            ghost_sent: CompMatrix::from_rows(2, vec![vec![1, 0]]),
            comm: CommMatrix::with_samples(1),
            bin_counts: vec![Some(2)],
        }
    }

    /// The verify step's validator: a workload that differs from ground
    /// truth is an `Err`, and that `Err` is a failed operation.
    #[test]
    fn a_validator_error_is_a_failed_op() {
        let gt = GroundTruth {
            ranks: 2,
            elements_per_rank: vec![4, 4],
            samples: vec![GroundTruthSample {
                iteration: 0,
                real_counts: vec![3, 1],
                ghost_recv_counts: vec![0, 1],
                ghost_sent_counts: vec![1, 0],
                bin_count: Some(2),
                migrations: vec![],
                kernel_seconds: vec![[1.0; 6], [2.0; 6]],
            }],
        };
        let predicted = vec![vec![[1.0; 6], [2.0; 6]]];
        let mut tally = Tally::default();
        let verify = |w: &DynamicWorkload| {
            check_against_ground_truth(w, &predicted, &gt)
                .map(|mape| format!("{mape}"))
                .map_err(|e| e.to_string())
        };
        assert!(tally.record("verify", verify(&workload(vec![3, 1]))));
        assert!(!tally.record("verify", verify(&workload(vec![2, 2]))));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(
            tally.errors[0].contains("real counts differ"),
            "{:?}",
            tally.errors
        );
    }

    #[test]
    fn the_digest_covers_every_matrix() {
        let a = workload_digest(&[workload(vec![3, 1])]);
        assert_eq!(a, workload_digest(&[workload(vec![3, 1])]));
        assert_ne!(a, workload_digest(&[workload(vec![2, 2])]));
        let mut moved = workload(vec![3, 1]);
        moved.comm.entries[0] = vec![(0, 1, 1)];
        assert_ne!(a, workload_digest(&[moved]));
    }
}
