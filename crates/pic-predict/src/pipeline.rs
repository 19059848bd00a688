//! The end-to-end prediction pipeline.
//!
//! The paper's Fig 2 workflow — particle trace + configuration + kernel
//! models + machine → predicted seconds — is [`predict`], and the CLI, the
//! resident service and the case study all answer through it. It is the
//! one-point case of [`predict_grid`], design-space exploration: many
//! configurations from one replay. [`predict_workload`] is the tail over a
//! workload already in hand: the
//! paper's "python script which takes the generated performance models
//! and the output of workload generator as inputs, and predicts the kernel
//! performance across all processors during the entire execution" (§IV-B)
//! is [`predict_kernel_seconds`], continued through [`build_schedule`] and
//! [`predict_application`] on the `pic-des` simulation platform.

use crate::kernel_models::{FitStrategy, KernelModels};
use crate::request::{element_mesh, Request};
use crate::serve::http::json_escape;
use crate::validate;
use pic_des::{simulate, MachineSpec, SimTimeline, StepWorkload, SyncMode};
use pic_grid::{MeshDims, RcbDecomposition};
use pic_mapping::MappingAlgorithm;
use pic_models::EvalScratch;
use pic_sim::{KernelKind, MiniPic, SimConfig, SimOutput};
use pic_trace::ParticleTrace;
use pic_types::{pool, PicError, Result};
use pic_workload::metrics::{self, WorkloadSummary};
use pic_workload::{AssignmentCache, DynamicWorkload, ReplayOptions, SweepPoint, WorkloadConfig};
use rayon::prelude::*;

/// What a prediction is a function of besides the trace and the models:
/// the flags of `picpredict predict`, the fields of the service's `/predict`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictSpec {
    /// Target processor count `R`.
    pub ranks: usize,
    /// Mapping algorithm to mimic.
    pub mapping: MappingAlgorithm,
    /// Projection filter: ghost radius, bin-size threshold and model feature.
    pub filter: f64,
    /// Element mesh over the trace's domain: the fluid workload per rank,
    /// and what every mapping but bin-based partitions.
    pub mesh: Option<MeshDims>,
    /// Element order `N` (grid resolution of the mesh, and a model feature).
    pub order: usize,
    /// Target machine.
    pub machine: MachineSpec,
    /// Synchronization semantics between steps.
    pub sync: SyncMode,
}

impl PredictSpec {
    /// `ranks` processors and every other parameter at its default
    /// ([`Request::default`]).
    pub fn new(ranks: usize) -> PredictSpec {
        let mut request = Request::default();
        request.grid.ranks = vec![ranks];
        request.specs().remove(0)
    }
}

/// A prediction: the workload summary, the Fig 7 kernel table and the
/// application timeline. `Display` is the one-line JSON summary every front
/// end prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Name of the target machine.
    pub machine: String,
    /// Synchronization semantics simulated.
    pub sync: SyncMode,
    /// The predicted workload in numbers, from the processor count on: the
    /// columns of the scalability, mapping and filter studies.
    pub summary: WorkloadSummary,
    /// Predicted kernel seconds `[sample][rank][k]`, `k` in
    /// [`KernelKind::ALL`] order.
    pub kernel_seconds: Vec<Vec<[f64; 6]>>,
    /// Predicted application timeline on the target machine.
    pub timeline: SimTimeline,
}

impl Prediction {
    /// Critical-path seconds of `kernel`: the busiest rank's prediction,
    /// averaged over samples (Fig 10b for `create_ghost_particles`).
    pub fn critical_kernel_seconds(&self, kernel: KernelKind) -> f64 {
        let slot = KernelKind::ALL.iter().position(|&k| k == kernel);
        let slot = slot.expect("KernelKind::ALL lists every kernel");
        let busiest: Vec<f64> = (self.kernel_seconds.iter())
            .map(|per_rank| per_rank.iter().map(|row| row[slot]).fold(0.0, f64::max))
            .collect();
        pic_types::stats::mean(&busiest)
    }
}

impl std::fmt::Display for Prediction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{{\"machine\":{},\"sync\":\"{}\",\"predicted_seconds\":{},\"mean_idle_fraction\":{},\
             \"events_processed\":{},\"samples\":{},\"ranks\":{}}}",
            json_escape(&self.machine),
            self.sync,
            self.timeline.total_seconds,
            self.timeline.mean_idle_fraction(),
            self.timeline.events_processed,
            self.kernel_seconds.len(),
            self.summary.ranks,
        )
    }
}

/// The product: predicted application time of `trace` under `spec`, the
/// one-point case of [`predict_grid`].
pub fn predict(
    trace: &ParticleTrace,
    models: &KernelModels,
    spec: &PredictSpec,
    cache: Option<&AssignmentCache>,
) -> Result<Prediction> {
    Ok(predict_grid(trace, models, std::slice::from_ref(spec), cache)?.remove(0))
}

/// Design-space exploration: one prediction per spec, in input order, each
/// the bits [`predict`] returns for that spec alone. Every point's workload
/// comes from one pass of the replay engine — through `cache` when one is
/// given — so mesh mappers share assignment across filters and one ghost
/// query serves every radius of a group; each then goes through
/// [`predict_workload`]. The points share that one mesh, so specs that
/// differ in `mesh` or `order` are a configuration error; `machine` and
/// `sync` may differ per point.
pub fn predict_grid(
    trace: &ParticleTrace,
    models: &KernelModels,
    specs: &[PredictSpec],
    cache: Option<&AssignmentCache>,
) -> Result<Vec<Prediction>> {
    let Some(first) = specs.first() else {
        return Ok(Vec::new());
    };
    if let Some(other) = (specs.iter()).find(|s| (s.mesh, s.order) != (first.mesh, first.order)) {
        let mesh = |s: &PredictSpec| s.mesh.map_or("none".to_string(), |d| d.to_string());
        let (a, b) = ((mesh(first), first.order), (mesh(other), other.order));
        return Err(PicError::config(format!(
            "grid points share one mesh and order, got mesh {} order {} and mesh {} order {}",
            a.0, a.1, b.0, b.1
        )));
    }
    let points: Vec<SweepPoint> = (specs.iter())
        .map(|s| SweepPoint::new(WorkloadConfig::new(s.ranks, s.mapping, s.filter)))
        .collect();
    let mesh = element_mesh(trace.meta().domain, first.mesh, first.order)?;
    let opts = ReplayOptions::new(mesh.as_ref(), cache, None);
    let (workloads, _) = pic_workload::replay(trace, &points, &opts)?;
    (specs.iter().zip(&workloads))
        .map(|(spec, workload)| predict_workload(trace, workload, models, spec))
        .collect()
}

/// The tail of [`predict`] over a `workload` generated from `trace` under
/// `spec`: invariant gate → fluid elements per rank (RCB over the mesh,
/// zeros without one) → kernel table → response gate → schedule →
/// simulation. Both gates run whichever front end asks. The rank count is
/// the workload's.
pub fn predict_workload(
    trace: &ParticleTrace,
    workload: &DynamicWorkload,
    models: &KernelModels,
    spec: &PredictSpec,
) -> Result<Prediction> {
    pic_analysis::assert_workload_valid(workload, Some(trace.particle_count() as u64))?;
    let elements: Vec<u32> = match element_mesh(trace.meta().domain, spec.mesh, spec.order)? {
        Some(mesh) => RcbDecomposition::decompose(&mesh, workload.ranks)?
            .element_counts()
            .iter()
            .map(|&c| c as u32)
            .collect(),
        None => vec![0; workload.ranks],
    };
    let kernel_seconds =
        predict_kernel_seconds(workload, models, &elements, spec.order, spec.filter);
    pic_analysis::assert_prediction_valid(&kernel_seconds)?;
    let schedule = build_schedule(
        workload,
        &kernel_seconds,
        trace.meta().sample_interval,
        bytes_per_particle(),
    );
    let timeline = predict_application(&schedule, &spec.machine, spec.sync)?;
    Ok(Prediction {
        machine: spec.machine.name.clone(),
        sync: spec.sync,
        summary: metrics::summarize(workload),
        kernel_seconds,
        timeline,
    })
}

/// Ranks evaluated at a time: each feature column, the output column and
/// every tape register of a block is 8 KiB, so a block lives in cache
/// from the widening pass to the last kernel's scatter.
const RANK_BLOCK: usize = 1024;

/// `(sample, rank)` cells one parallel task covers, rounded to whole
/// samples: a 16k-rank workload gets a task per sample, a 32-rank one a
/// task per few hundred samples, and neither pays a task per sample.
const CELLS_PER_TASK: usize = 16 * 1024;

/// Run `task(first_sample, slots)` over blocks of consecutive per-sample
/// slots of `out`, in parallel under the shared pool (`ranks` sizes the
/// blocks, see [`CELLS_PER_TASK`]). The caller allocates the slots and the
/// tasks only write into them, so the result is freed by the thread that
/// allocated it.
fn par_sample_blocks<T: Send>(out: &mut [T], ranks: usize, task: impl Fn(usize, &mut [T]) + Sync) {
    let per_task = (CELLS_PER_TASK / ranks.max(1)).max(1);
    pool::install(|| {
        out.par_chunks_mut(per_task)
            .enumerate()
            .for_each(|(b, slots)| task(b * per_task, slots))
    });
}

/// Predict per-rank, per-kernel execution seconds for every sample of a
/// generated workload. Output is indexed `[sample][rank][k]` with `k` in
/// [`KernelKind::ALL`] order.
///
/// `elements_per_rank` is the static fluid workload (from the element
/// decomposition); `order` and `filter` are the problem parameters the
/// models were trained with.
///
/// Every cell holds the bits [`KernelModels::predict`] returns for it.
/// The evaluation is columnar: each kernel is resolved once, samples are
/// split into parallel tasks, and within a sample each block of ranks has
/// its counts widened into feature columns that every kernel's model
/// streams over.
pub fn predict_kernel_seconds(
    workload: &DynamicWorkload,
    models: &KernelModels,
    elements_per_rank: &[u32],
    order: usize,
    filter: f64,
) -> Vec<Vec<[f64; 6]>> {
    fn widen(col: &mut Vec<f64>, counts: &[u32]) {
        col.clear();
        col.extend(counts.iter().map(|&c| c as f64));
    }
    let ranks = workload.ranks;
    let plans = KernelKind::ALL.map(|kernel| models.plan(kernel));
    let nel: Vec<f64> = (0..ranks)
        .map(|r| elements_per_rank.get(r).copied().unwrap_or(0) as f64)
        .collect();
    let n_order = vec![order as f64; RANK_BLOCK.min(ranks)];
    let filter = vec![filter; RANK_BLOCK.min(ranks)];
    let mut out: Vec<Vec<[f64; 6]>> = (0..workload.samples())
        .map(|_| Vec::with_capacity(ranks))
        .collect();
    par_sample_blocks(&mut out, ranks, |first, slots| {
        // per-task scratch: the widened count columns, one kernel's output
        // column and the tape registers
        let (mut np, mut recv, mut sent) = (Vec::new(), Vec::new(), Vec::new());
        let mut seconds = Vec::new();
        let mut tape = EvalScratch::new();
        for (t, per_rank) in (first..).zip(slots) {
            per_rank.resize(ranks, [0.0; 6]);
            for lo in (0..ranks).step_by(RANK_BLOCK) {
                let hi = ranks.min(lo + RANK_BLOCK);
                let n = hi - lo;
                widen(&mut np, &workload.real.sample_row(t)[lo..hi]);
                widen(&mut recv, &workload.ghost_recv.sample_row(t)[lo..hi]);
                widen(&mut sent, &workload.ghost_sent.sample_row(t)[lo..hi]);
                seconds.resize(n, 0.0);
                for (slot, (plan, &kernel)) in plans.iter().zip(&KernelKind::ALL).enumerate() {
                    let Some(plan) = plan else { continue };
                    let ngp = match kernel {
                        KernelKind::CreateGhostParticles => &sent,
                        _ => &recv,
                    };
                    // WorkloadParams::features order
                    let features = [&np[..], ngp, &nel[lo..hi], &n_order[..n], &filter[..n]];
                    plan.predict_block(&features, &mut seconds, &mut tape);
                    for (row, &s) in per_rank[lo..hi].iter_mut().zip(&seconds) {
                        row[slot] = s;
                    }
                }
            }
        }
    });
    out
}

/// Build the DES schedule from predicted kernel times and the
/// communication matrix.
///
/// Each trace-sample interval becomes one super-step whose per-rank compute
/// time is the summed kernel prediction multiplied by
/// `iterations_per_sample` (the kernels run every application iteration,
/// the trace samples every K-th). Migration counts become point-to-point
/// messages of `count × bytes_per_particle` bytes.
pub fn build_schedule(
    workload: &DynamicWorkload,
    predicted: &[Vec<[f64; 6]>],
    iterations_per_sample: u32,
    bytes_per_particle: u64,
) -> Vec<StepWorkload> {
    let mut steps: Vec<StepWorkload> = predicted
        .iter()
        .enumerate()
        .map(|(t, per_rank)| StepWorkload {
            compute_seconds: Vec::with_capacity(per_rank.len()),
            messages: Vec::with_capacity(workload.comm.entries[t].len()),
        })
        .collect();
    par_sample_blocks(&mut steps, workload.ranks, |first, slots| {
        for (t, step) in (first..).zip(slots) {
            step.compute_seconds.extend(
                predicted[t]
                    .iter()
                    .map(|row| row.iter().sum::<f64>() * iterations_per_sample as f64),
            );
            step.messages.extend(
                workload.comm.entries[t]
                    .iter()
                    .map(|&(from, to, count)| (from, to, count as u64 * bytes_per_particle)),
            );
        }
    });
    steps
}

/// Run the system-level simulation and return the predicted timeline.
pub fn predict_application(
    schedule: &[StepWorkload],
    machine: &MachineSpec,
    mode: SyncMode,
) -> Result<SimTimeline> {
    simulate(schedule, machine, mode)
}

/// Everything the end-to-end case study produces.
#[derive(Debug)]
pub struct CaseStudyOutput {
    /// The mini-app run (trace + ground truth + timing records).
    pub sim: SimOutput,
    /// The DWG-generated workload at the app's own rank count.
    pub workload: DynamicWorkload,
    /// Fitted per-kernel models.
    pub models: KernelModels,
    /// Per-kernel MAPE of model predictions against the mini-app's
    /// observed kernel times (the Fig 7 data).
    pub kernel_mape: Vec<(KernelKind, f64)>,
    /// Predicted kernel times `[sample][rank][k]`.
    pub predicted_kernel_seconds: Vec<Vec<[f64; 6]>>,
    /// Predicted application timeline on the target machine.
    pub timeline: SimTimeline,
}

impl CaseStudyOutput {
    /// Average kernel MAPE (the paper's 8.42 % headline).
    pub fn mean_kernel_mape(&self) -> f64 {
        let v: Vec<f64> = self.kernel_mape.iter().map(|&(_, m)| m).collect();
        pic_types::stats::mean(&v)
    }

    /// Peak kernel MAPE (the paper's 17.7 %).
    pub fn peak_kernel_mape(&self) -> f64 {
        self.kernel_mape.iter().map(|&(_, m)| m).fold(0.0, f64::max)
    }
}

/// Run the complete pipeline for one configuration:
///
/// 1. run the mini PIC application (trace, ground truth, timing records);
/// 2. generate the dynamic workload from the trace alone;
/// 3. verify the workload against ground truth (exact);
/// 4. fit kernel models from the timing records;
/// 5. predict kernel and application time on `machine`
///    ([`predict_workload`]) and score the kernel table against the
///    application's own measurements (Fig 7).
pub fn run_case_study(
    cfg: &SimConfig,
    machine: &MachineSpec,
    strategy: &FitStrategy,
) -> Result<CaseStudyOutput> {
    let sim = MiniPic::new(cfg.clone())?.run()?;
    let spec = PredictSpec {
        ranks: cfg.ranks,
        mapping: cfg.mapping,
        filter: cfg.projection_filter,
        mesh: Some(cfg.mesh_dims),
        order: cfg.order,
        machine: machine.clone(),
        sync: SyncMode::BulkSynchronous,
    };
    let wcfg = WorkloadConfig::new(spec.ranks, spec.mapping, spec.filter);
    let mesh = element_mesh(sim.trace.meta().domain, spec.mesh, spec.order)?;
    let opts = ReplayOptions::new(mesh.as_ref(), None, None);
    let workload = pic_workload::replay(&sim.trace, &[SweepPoint::new(wcfg)], &opts)?
        .0
        .remove(0);
    validate::workload_matches_ground_truth(&workload, &sim.ground_truth)?;

    let models = KernelModels::fit(&sim.recorder, strategy, cfg.seed)?;
    let prediction = predict_workload(&sim.trace, &workload, &models, &spec)?;
    let kernel_mape =
        validate::kernel_mape_vs_ground_truth(&prediction.kernel_seconds, &sim.ground_truth)?;

    Ok(CaseStudyOutput {
        sim,
        workload,
        models,
        kernel_mape,
        predicted_kernel_seconds: prediction.kernel_seconds,
        timeline: prediction.timeline,
    })
}

/// Payload a migrating particle carries, the one the application clock
/// prices too ([`pic_sim::clock::BYTES_PER_PARTICLE`]).
pub fn bytes_per_particle() -> u64 {
    pic_sim::clock::BYTES_PER_PARTICLE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_models::KernelModel;
    use pic_grid::MeshDims;
    use pic_models::gp::SymbolicModel;
    use pic_models::{Expr, FittedModel, LinearModel, PolynomialModel};
    use pic_sim::instrument::WorkloadParams;
    use pic_types::rng::SplitMix64;
    use pic_types::Rank;
    use pic_workload::{CommMatrix, CompMatrix};
    use proptest::prelude::*;

    fn small_cfg() -> SimConfig {
        SimConfig {
            ranks: 8,
            mesh_dims: MeshDims::cube(4),
            order: 3,
            particles: 300,
            steps: 30,
            sample_interval: 10,
            ..SimConfig::default()
        }
    }

    fn fake_workload() -> DynamicWorkload {
        DynamicWorkload {
            ranks: 2,
            iterations: vec![0, 10],
            real: CompMatrix::from_rows(2, vec![vec![10, 0], vec![5, 5]]),
            ghost_recv: CompMatrix::from_rows(2, vec![vec![0, 2], vec![1, 1]]),
            ghost_sent: CompMatrix::from_rows(2, vec![vec![2, 0], vec![1, 1]]),
            comm: {
                let mut c = CommMatrix::with_samples(2);
                c.entries[1] = vec![(0, 1, 5)];
                c
            },
            bin_counts: vec![Some(1), Some(2)],
        }
    }

    #[test]
    fn schedule_shape_and_scaling() {
        let w = fake_workload();
        // constant predicted times: 1 ms per kernel per rank
        let predicted = vec![vec![[0.001; 6]; 2]; 2];
        let steps = build_schedule(&w, &predicted, 10, 80);
        assert_eq!(steps.len(), 2);
        // 6 kernels × 1 ms × 10 iterations = 60 ms
        assert!((steps[0].compute_seconds[0] - 0.06).abs() < 1e-12);
        assert!(steps[0].messages.is_empty());
        assert_eq!(steps[1].messages, vec![(0, 1, 400)]);
    }

    #[test]
    fn end_to_end_case_study() {
        let cfg = small_cfg();
        let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
        // the DWG matched ground truth (run_case_study would have errored)
        assert_eq!(out.workload.samples(), 3);
        // Fig 7 regime: single-digit average MAPE with the default 10 % noise
        let avg = out.mean_kernel_mape();
        assert!(avg < 15.0, "avg MAPE {avg}");
        assert!(
            out.peak_kernel_mape() < 40.0,
            "peak {}",
            out.peak_kernel_mape()
        );
        // a positive predicted application time
        assert!(out.timeline.total_seconds > 0.0);
        assert_eq!(out.timeline.rank_finish.len(), 8);
    }

    #[test]
    fn case_study_is_deterministic() {
        let cfg = small_cfg();
        let a = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
        let b = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.kernel_mape, b.kernel_mape);
    }

    #[test]
    fn faster_machine_predicts_shorter_time() {
        let cfg = small_cfg();
        let quartz =
            run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
        let vulcan =
            run_case_study(&cfg, &MachineSpec::vulcan_like(), &FitStrategy::Linear).unwrap();
        assert!(
            vulcan.timeline.total_seconds > quartz.timeline.total_seconds,
            "BG/Q-like cores are slower: {} vs {}",
            vulcan.timeline.total_seconds,
            quartz.timeline.total_seconds
        );
    }

    #[test]
    fn predicted_kernel_seconds_shape() {
        let w = fake_workload();
        // fit trivial models from a synthetic recorder
        let mut rec = pic_sim::Recorder::new();
        let oracle = pic_sim::CostOracle::noiseless();
        for np in [0.0, 10.0, 100.0, 500.0] {
            for k in KernelKind::ALL {
                let p = WorkloadParams {
                    np,
                    ngp: np / 10.0,
                    nel: 8.0,
                    n_order: 3.0,
                    filter: 0.04,
                };
                rec.record(k, p, oracle.true_cost(k, &p));
            }
        }
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 1).unwrap();
        let pred = predict_kernel_seconds(&w, &models, &[8, 8], 3, 0.04);
        assert_eq!(pred.len(), 2);
        assert_eq!(pred[0].len(), 2);
        // idle rank 1 at sample 0 still gets fluid-solver time (nel > 0)
        let fluid_slot = 0; // KernelKind::ALL[0] == FluidSolver
        assert!(pred[0][1][fluid_slot] > 0.0);
    }

    /// The scalar definition of the prediction tail's first half: one
    /// [`KernelModels::predict`] per `(sample, rank, kernel)` cell.
    fn scalar_kernel_seconds(
        workload: &DynamicWorkload,
        models: &KernelModels,
        elements_per_rank: &[u32],
        order: usize,
        filter: f64,
    ) -> Vec<Vec<[f64; 6]>> {
        (0..workload.samples())
            .map(|t| {
                (0..workload.ranks)
                    .map(|r| {
                        let rank = Rank::from_index(r);
                        KernelKind::ALL.map(|kernel| {
                            let ngp = match kernel {
                                KernelKind::CreateGhostParticles => &workload.ghost_sent,
                                _ => &workload.ghost_recv,
                            };
                            let params = WorkloadParams {
                                np: workload.real.get(rank, t) as f64,
                                ngp: ngp.get(rank, t) as f64,
                                nel: elements_per_rank.get(r).copied().unwrap_or(0) as f64,
                                n_order: order as f64,
                                filter,
                            };
                            models.predict(kernel, &params)
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// And of its second half: the sequential schedule build.
    fn scalar_schedule(
        workload: &DynamicWorkload,
        predicted: &[Vec<[f64; 6]>],
        iterations_per_sample: u32,
        bytes_per_particle: u64,
    ) -> Vec<StepWorkload> {
        predicted
            .iter()
            .enumerate()
            .map(|(t, per_rank)| StepWorkload {
                compute_seconds: per_rank
                    .iter()
                    .map(|row| row.iter().sum::<f64>() * iterations_per_sample as f64)
                    .collect(),
                messages: workload.comm.entries[t]
                    .iter()
                    .map(|&(from, to, count)| (from, to, count as u64 * bytes_per_particle))
                    .collect(),
            })
            .collect()
    }

    fn bits(predicted: &[Vec<[f64; 6]>]) -> Vec<Vec<[u64; 6]>> {
        predicted
            .iter()
            .map(|per_rank| per_rank.iter().map(|row| row.map(f64::to_bits)).collect())
            .collect()
    }

    /// A seeded workload in the rank-heavy shape: three ranks in four hold
    /// no particles, the rest small counts that often coincide (so
    /// `np - ngp` denominators hit zero).
    fn seeded_workload(seed: u64, ranks: usize, samples: usize) -> DynamicWorkload {
        let mut rng = SplitMix64::new(seed);
        let mut matrix = |busy: u64| {
            let rows = (0..samples)
                .map(|_| {
                    (0..ranks)
                        .map(|r| match r % 4 {
                            0 => rng.next_below(busy) as u32,
                            _ => 0,
                        })
                        .collect()
                })
                .collect();
            CompMatrix::from_rows(ranks, rows)
        };
        let (real, ghost_recv, ghost_sent) = (matrix(6), matrix(6), matrix(4));
        let mut comm = CommMatrix::with_samples(samples);
        for entries in comm.entries.iter_mut().skip(1) {
            for from in (0..ranks as u32).step_by(4) {
                entries.push((from, (from + 4) % ranks as u32, 1 + from % 3));
            }
        }
        DynamicWorkload {
            ranks,
            iterations: (0..samples as u64).map(|t| 10 * t).collect(),
            real,
            ghost_recv,
            ghost_sent,
            comm,
            bin_counts: vec![None; samples],
        }
    }

    /// Expressions a symbolic model draws from: protected divisions whose
    /// denominators are zero on idle ranks or when two counts coincide, a
    /// product that goes negative, and a variable past any arity.
    fn expr_menu(i: usize) -> Expr {
        let (v, c) = (|i| Box::new(Expr::Var(i)), |x| Box::new(Expr::Const(x)));
        match i % 5 {
            0 => Expr::Div(v(0), Box::new(Expr::Sub(v(1), v(0)))),
            1 => Expr::Div(c(1.0), v(0)),
            2 => Expr::Sub(c(1.0), Box::new(Expr::Mul(v(0), v(2)))),
            3 => Expr::Mul(Box::new(Expr::Div(v(1), v(0))), v(3)),
            _ => Expr::Add(Box::new(Expr::Mul(v(0), c(1e-3))), v(9)),
        }
    }

    /// `family`: 0 = no model for the kernel, 1 = linear, 2 = polynomial,
    /// 3 = symbolic.
    fn model_for(
        kernel: KernelKind,
        family: usize,
        feature_columns: Vec<usize>,
        coefs: &[f64],
        pick: usize,
    ) -> Option<KernelModel> {
        let arity = feature_columns.len();
        let names = || (0..arity).map(|i| format!("f{i}")).collect::<Vec<_>>();
        let model = match family {
            0 => return None,
            1 => FittedModel::Linear(LinearModel {
                feature_names: names(),
                intercept: coefs[7],
                coefficients: coefs[..arity].to_vec(),
            }),
            2 => FittedModel::Polynomial(PolynomialModel {
                feature_name: "f".into(),
                feature_index: pick % arity,
                coefficients: coefs[..4].to_vec(),
            }),
            _ => FittedModel::Symbolic(SymbolicModel {
                expr: expr_menu(pick),
                scale: coefs[0],
                offset: coefs[1],
                feature_names: names(),
            }),
        };
        Some(KernelModel {
            kernel,
            model,
            feature_columns,
            validation_mape: 1.0,
        })
    }

    proptest! {
        #[test]
        fn columnar_eval_equals_scalar_predict_cell_for_cell(
            // zero ranks, a handful, and just past one and two rank blocks
            ranks in prop_oneof![0usize..40, 1020usize..1030, 2040usize..2060],
            samples in 0usize..40,
            seed in 0u64..1_000_000,
            // shorter than `ranks`, equal, or longer
            elements_len in 0usize..2100,
            specs in proptest::collection::vec(
                (
                    0usize..4,
                    // up to 7 columns: past the 5 features, with repeats
                    proptest::collection::vec(0usize..5, 1..8),
                    proptest::collection::vec(-2.0..2.0f64, 8..=8),
                    0usize..20,
                ),
                6..=6,
            ),
        ) {
            let workload = seeded_workload(seed, ranks, samples);
            let elements: Vec<u32> = (0..elements_len as u32).map(|e| e % 9).collect();
            let models = KernelModels::from_models(
                KernelKind::ALL
                    .iter()
                    .zip(specs)
                    .filter_map(|(&kernel, (family, columns, coefs, pick))| {
                        model_for(kernel, family, columns, &coefs, pick)
                    })
                    .collect(),
            );
            let got = predict_kernel_seconds(&workload, &models, &elements, 5, 0.03);
            let want = scalar_kernel_seconds(&workload, &models, &elements, 5, 0.03);
            prop_assert_eq!(got.len(), samples);
            prop_assert_eq!(bits(&got), bits(&want));
            let schedule = build_schedule(&workload, &got, 10, 80);
            prop_assert_eq!(schedule, scalar_schedule(&workload, &want, 10, 80));
        }
    }

    /// One kernel of each family twice over and one without a model.
    fn mixed_models() -> KernelModels {
        // (family, feature columns, pick, coefficients; [7] = intercept)
        let specs = [
            (
                1,
                vec![0, 2],
                0,
                [1e-3, 2e-3, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-2],
            ),
            (2, vec![1, 0], 0, [0.5, 0.1, 0.01, 1e-4, 0.0, 0.0, 0.0, 0.0]),
            // np / (ngp - np)
            (
                3,
                vec![0, 1, 2, 3],
                0,
                [0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ),
            (0, vec![0], 0, [0.0; 8]),
            // -0.4 · (1 / np) + 0.1
            (3, vec![0], 1, [-0.4, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            (
                1,
                vec![4, 1, 0],
                0,
                [-0.1, -0.7, 1e-3, 0.0, 0.0, 0.0, 0.0, 1e-2],
            ),
        ];
        KernelModels::from_models(
            KernelKind::ALL
                .iter()
                .zip(specs)
                .filter_map(|(&kernel, (family, columns, pick, coefs))| {
                    model_for(kernel, family, columns, &coefs, pick)
                })
                .collect(),
        )
    }

    #[test]
    fn columnar_eval_covers_the_scalar_edge_cases() {
        let workload = seeded_workload(7, 37, 3);
        let models = mixed_models();
        let elements = vec![4u32; 20]; // shorter than `ranks`
        let got = predict_kernel_seconds(&workload, &models, &elements, 5, 0.03);
        assert_eq!(
            bits(&got),
            bits(&scalar_kernel_seconds(
                &workload, &models, &elements, 5, 0.03
            ))
        );
        // rank 1 is idle: `1 / np` takes the protected branch and the cell
        // is `-0.4 · 1 + 0.1`, clamped
        assert_eq!(workload.real.get(Rank::from_index(1), 0), 0);
        assert_eq!(got[0][1][4], 0.0);
        // ...as is the last kernel wherever ghosts arrive
        assert!(got.iter().flatten().any(|row| row[5] == 0.0));
        assert!(got.iter().flatten().any(|row| row[5] > 0.0));
        // the polynomial kernel is positive there, the unmodelled one zero
        assert!(got[0][1][1] > 0.0);
        assert!(got.iter().flatten().all(|row| row[3] == 0.0));
        // past the element list the fluid workload reads as zero
        assert_eq!(got[0][19][0], 1e-2 + 2e-3 * 4.0);
        assert_eq!(got[0][21][0], 1e-2);
    }

    /// `from_models` skips the admission pass `from_json` runs, and the
    /// clamp `raw.max(0.0)` lets +∞ through: the response gate inside
    /// [`predict`] is what keeps it out of the simulator, on every front end.
    #[test]
    fn predict_refuses_a_model_set_with_an_infinite_intercept() {
        let mut trace = ParticleTrace::new(pic_trace::TraceMeta::new(
            4,
            10,
            pic_types::Aabb::unit(),
            "gate",
        ));
        for k in 0..2 {
            let at = |i: usize| pic_types::Vec3::new(0.2 * i as f64, 0.5, 0.3 + 0.1 * k as f64);
            trace.push_positions((0..4).map(at).collect()).unwrap();
        }
        let intercept = |value: f64| {
            let mut coefs = [0.0; 8];
            coefs[7] = value;
            KernelModels::from_models(
                model_for(KernelKind::FluidSolver, 1, vec![0], &coefs, 0)
                    .into_iter()
                    .collect(),
            )
        };
        let spec = PredictSpec::new(2);
        let fine = predict(&trace, &intercept(1e-3), &spec, None).unwrap();
        assert!(fine.timeline.total_seconds > 0.0);
        let err = predict(&trace, &intercept(f64::INFINITY), &spec, None).unwrap_err();
        assert!(err.to_string().contains("response gate"), "{err}");
    }

    /// 96 particles drifting and spreading over five samples.
    fn grid_trace() -> ParticleTrace {
        let mut rng = SplitMix64::new(5);
        let dirs: Vec<pic_types::Vec3> = (0..96)
            .map(|_| {
                pic_types::Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(0.0, 1.0),
                )
            })
            .collect();
        let meta = pic_trace::TraceMeta::new(dirs.len(), 10, pic_types::Aabb::unit(), "grid");
        let mut trace = ParticleTrace::new(meta);
        for k in 0..5 {
            let scale = 0.05 + 0.08 * k as f64;
            let centre = pic_types::Vec3::new(0.4 + 0.02 * k as f64, 0.5, 0.1);
            let at = |d: &pic_types::Vec3| {
                (centre + *d * scale).clamp(pic_types::Vec3::ZERO, pic_types::Vec3::ONE)
            };
            trace.push_positions(dirs.iter().map(at).collect()).unwrap();
        }
        trace
    }

    const MAPPERS: [MappingAlgorithm; 4] = [
        MappingAlgorithm::BinBased,
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Every point of a grid is the prediction of its spec alone, by
        /// value and by the bytes every front end prints; a grid fails only
        /// where one of its points fails alone.
        #[test]
        fn each_grid_point_is_predict_of_that_spec_alone(
            ranks in proptest::collection::vec(0usize..4, 1..=3),
            mappings in proptest::collection::vec(0usize..4, 1..=3),
            filters in proptest::collection::vec(0usize..3, 1..=3),
            sync_bits in 0u64..1 << 27,
            meshed in 0usize..2,
            cached in 0usize..2,
        ) {
            let trace = grid_trace();
            let models = mixed_models();
            let grid = crate::SweepGridSpec {
                mappings: mappings.iter().map(|&i| MAPPERS[i]).collect(),
                ranks: ranks.iter().map(|&i| [2, 3, 5, 8][i]).collect(),
                filters: filters.iter().map(|&i| [0.02, 0.05, 0.1][i]).collect(),
                strides: vec![1],
                compute_ghosts: true,
            };
            let specs: Vec<PredictSpec> = (grid.points().iter().enumerate())
                .map(|(i, p)| PredictSpec {
                    mapping: p.config.mapping,
                    filter: p.config.projection_filter,
                    mesh: (meshed == 1).then(|| MeshDims::cube(3)),
                    sync: [SyncMode::BulkSynchronous, SyncMode::NeighborSync][(sync_bits >> i) as usize & 1],
                    ..PredictSpec::new(p.config.ranks)
                })
                .collect();
            let cache = (cached == 1).then(|| AssignmentCache::new(1 << 24));
            let alone: Vec<Result<Prediction>> =
                specs.iter().map(|s| predict(&trace, &models, s, None)).collect();
            match predict_grid(&trace, &models, &specs, cache.as_ref()) {
                Ok(got) => {
                    prop_assert_eq!(got.len(), specs.len());
                    for (i, (g, a)) in got.iter().zip(alone).enumerate() {
                        let a = a.unwrap();
                        prop_assert_eq!(g, &a, "point {}", i);
                        prop_assert_eq!(g.to_string(), a.to_string(), "point {}", i);
                    }
                }
                // only the mesh mappers without a mesh fail here
                Err(e) => {
                    prop_assert!(meshed == 0, "{e}");
                    prop_assert!(alone.iter().any(Result::is_err), "{e}");
                }
            }
        }
    }

    #[test]
    fn a_grid_shares_one_mesh_and_order() {
        let trace = grid_trace();
        let models = mixed_models();
        assert!(predict_grid(&trace, &models, &[], None).unwrap().is_empty());
        let meshed = PredictSpec {
            mesh: Some(MeshDims::cube(3)),
            ..PredictSpec::new(4)
        };
        let bare = PredictSpec::new(8);
        let err = predict_grid(&trace, &models, &[meshed.clone(), bare], None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "configuration error: grid points share one mesh and order, \
             got mesh 3x3x3 order 3 and mesh none order 3"
        );
        let finer = PredictSpec {
            order: 5,
            ..meshed.clone()
        };
        let err = predict_grid(&trace, &models, &[meshed.clone(), finer], None).unwrap_err();
        assert!(err
            .to_string()
            .ends_with("got mesh 3x3x3 order 3 and mesh 3x3x3 order 5"));
        // machine and sync may differ per point
        let other = PredictSpec {
            machine: MachineSpec::vulcan_like(),
            sync: SyncMode::NeighborSync,
            ..meshed.clone()
        };
        let got = predict_grid(&trace, &models, &[meshed, other], None).unwrap();
        assert_eq!(
            (got[0].sync, got[1].machine.as_str()),
            (SyncMode::BulkSynchronous, "vulcan-like")
        );
        // the summary and the Fig 10b number are projections of the rows
        let p = &got[0];
        assert_eq!(p.summary.ranks, 4);
        assert_eq!(p.summary.samples, p.kernel_seconds.len());
        let slot = 1;
        assert_eq!(KernelKind::ALL[slot], KernelKind::CreateGhostParticles);
        let busiest: Vec<f64> = (p.kernel_seconds.iter())
            .map(|per_rank| per_rank.iter().map(|row| row[slot]).fold(0.0, f64::max))
            .collect();
        assert_eq!(
            p.critical_kernel_seconds(KernelKind::CreateGhostParticles),
            busiest.iter().sum::<f64>() / busiest.len() as f64
        );
    }

    #[test]
    fn predict_tail_is_bit_equal_across_thread_counts() {
        let workload = seeded_workload(11, 1030, 120);
        let models = mixed_models();
        let elements: Vec<u32> = (0..1000).map(|e| 1 + e % 7).collect();
        let want = scalar_kernel_seconds(&workload, &models, &elements, 5, 0.03);
        let want_schedule = scalar_schedule(&workload, &want, 10, 80);
        for threads in [1usize, 2, 3, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (got, schedule) = pool.install(|| {
                let got = predict_kernel_seconds(&workload, &models, &elements, 5, 0.03);
                let schedule = build_schedule(&workload, &got, 10, 80);
                (got, schedule)
            });
            assert_eq!(bits(&got), bits(&want), "{threads} thread(s)");
            assert_eq!(schedule, want_schedule, "{threads} thread(s)");
        }
    }
}
