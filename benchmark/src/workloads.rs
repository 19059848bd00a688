//! The four library workloads. One operation is one full pass from the
//! trace file to the answer(s); `calls.rs` makes every call into the repo.

use crate::calls;
use crate::inputs::{self, Files};
use crate::spans::Recorder;
use pic_des::SyncMode;
use pic_mapping::MappingAlgorithm::{self, BinBased, ElementBased, HilbertOrdered, LoadBalanced};
use pic_predict::KernelModels;
use pic_types::Result;
use pic_workload::DynamicWorkload;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Batch {
    Predict4k,
    ExploreGrid,
    Machine16k,
    PhasedReduced,
}

/// What one pass answers.
pub struct Answer {
    /// The workload matrices behind the answer(s); hashed into the digest.
    pub workloads: Vec<DynamicWorkload>,
    /// Predicted application seconds, one per answer.
    pub predicted_seconds: Vec<f64>,
    /// Particles x trace samples the answers cover, summed over answers.
    pub psamples: u64,
}

impl Answer {
    /// Digest of everything answered: matrices and predicted seconds.
    pub fn digest(&self) -> String {
        let bits: Vec<String> = self
            .predicted_seconds
            .iter()
            .map(|s| format!("{:016x}", s.to_bits()))
            .collect();
        format!(
            "{}:{}",
            calls::workload_digest(&self.workloads),
            bits.join(",")
        )
    }
}

/// What the measuring process holds across passes: file locations and the
/// kernel models. Traces are decoded inside each pass.
pub struct Ctx {
    pub files: Files,
    pub models: KernelModels,
    pub seed: u64,
}

const ORDER: usize = inputs::SIM_ORDER;
const GRID_MESH_CUBE: usize = 24;
const GRID_RANKS: [usize; 2] = [512, 2048];
const GRID_FILTERS: [f64; 3] = [0.01, 0.02, 0.04];
const GRID_MAPPINGS: [MappingAlgorithm; 4] = [ElementBased, BinBased, HilbertOrdered, LoadBalanced];

impl Batch {
    pub fn from_name(name: &str) -> Option<Batch> {
        Some(match name {
            "predict-4k" => Batch::Predict4k,
            "explore-grid" => Batch::ExploreGrid,
            "machine-16k" => Batch::Machine16k,
            "phased-reduced" => Batch::PhasedReduced,
            _ => return None,
        })
    }

    /// Sampling stride of the `heleshaw` copy the workload reads. Passes
    /// are sized by the stride, never by the ranks or the grid.
    pub fn stride(self) -> usize {
        match self {
            Batch::Predict4k | Batch::Machine16k | Batch::PhasedReduced => 1,
            Batch::ExploreGrid => 3,
        }
    }

    /// One full pass: file -> workload -> models -> schedule -> DES.
    pub fn pass(self, rec: &mut Recorder, ctx: &Ctx) -> Result<Answer> {
        match self {
            Batch::Predict4k => single(rec, ctx, self.stride(), 4176, &[SyncMode::BulkSynchronous]),
            Batch::Machine16k => single(
                rec,
                ctx,
                self.stride(),
                16384,
                &[SyncMode::BulkSynchronous, SyncMode::NeighborSync],
            ),
            Batch::ExploreGrid => explore_grid(rec, ctx, self.stride()),
            Batch::PhasedReduced => phased_reduced(rec, ctx).map(|(answer, _)| answer),
        }
    }

    /// The untimed verify step: the error, in percent, of the answer
    /// against the workload's reference, through the workload's own entry
    /// path. `Err` when the exact ground-truth comparison does not hold.
    pub fn verify(self, ctx: &Ctx) -> Result<f64> {
        let rec = &mut Recorder::default();
        if self == Batch::PhasedReduced {
            // 100 x peak-load error of the reduced replay against the
            // full replay of all 600 samples.
            let (answer, trace) = phased_reduced(rec, ctx)?;
            let cfg = calls::workload_config(32, BinBased, 0.03);
            let full = calls::generate(rec, &trace, &cfg, None)?;
            return Ok(100.0 * calls::reduction_error(&answer.workloads[0], &full));
        }
        // The path at the `pic-sim` configuration: the generated workload
        // must equal ground truth exactly; report the mean kernel MAPE.
        let trace = calls::load_raw(rec, &ctx.files.heleshaw(1))?;
        let gt = inputs::load_ground_truth(&ctx.files.ground_truth())?;
        let mesh = calls::mesh(rec, &trace, inputs::SIM_MESH_CUBE, ORDER)?;
        let cfg = calls::workload_config(inputs::SIM_RANKS, BinBased, inputs::SIM_FILTER);
        let workload = if self == Batch::ExploreGrid {
            calls::sweep(rec, &trace, &[calls::sweep_point(cfg)], &mesh)?.remove(0)
        } else {
            calls::generate(rec, &trace, &cfg, Some(&mesh))?
        };
        let predicted = calls::kernel_seconds(
            &workload,
            &ctx.models,
            &gt.elements_per_rank,
            ORDER,
            inputs::SIM_FILTER,
        );
        calls::check_against_ground_truth(&workload, &predicted, &gt)
    }

    /// Sub-layer splits the public API does not expose, taken by extra
    /// isolated calls on the pass's inputs (traced run only).
    pub fn isolated(self, rec: &mut Recorder, ctx: &Ctx) -> Result<()> {
        if self == Batch::PhasedReduced {
            let trace = calls::load_compact(rec, &ctx.files.phased())?;
            calls::features(rec, &trace);
            return Ok(());
        }
        let trace = calls::load_raw(rec, &ctx.files.heleshaw(self.stride()))?;
        let mesh = calls::mesh(rec, &trace, GRID_MESH_CUBE, ORDER)?;
        match self {
            Batch::ExploreGrid => {
                // one assignment pass per group the sweep forms: bin-based
                // groups carry the filter, mesh-based ones do not
                for mapping in GRID_MAPPINGS {
                    let filters = if mapping == BinBased {
                        &GRID_FILTERS[..]
                    } else {
                        &GRID_FILTERS[..1]
                    };
                    for ranks in GRID_RANKS {
                        for &filter in filters {
                            let cfg = calls::workload_config(ranks, mapping, filter);
                            calls::assign_all(rec, &trace, &cfg, &mesh)?;
                        }
                    }
                }
            }
            _ => {
                let ranks = if self == Batch::Predict4k {
                    4176
                } else {
                    16384
                };
                let cfg = calls::workload_config(ranks, BinBased, 0.02);
                calls::assign_all(rec, &trace, &cfg, &mesh)?;
                calls::generate_noghost(rec, &trace, &cfg, None)?;
            }
        }
        Ok(())
    }
}

/// `predict-4k` and `machine-16k`: one bin-based workload at filter 0.02
/// without a mesh (so the static fluid share is zero, as in `picpredict
/// predict`), predicted under each of `modes`.
fn single(
    rec: &mut Recorder,
    ctx: &Ctx,
    stride: usize,
    ranks: usize,
    modes: &[SyncMode],
) -> Result<Answer> {
    const FILTER: f64 = 0.02;
    let trace = calls::load_raw(rec, &ctx.files.heleshaw(stride))?;
    let cfg = calls::workload_config(ranks, BinBased, FILTER);
    let workload = calls::generate(rec, &trace, &cfg, None)?;
    let predicted_seconds = calls::predict_tail(
        rec,
        &workload,
        &ctx.models,
        &vec![0; ranks],
        ORDER,
        FILTER,
        trace.meta().sample_interval,
        modes,
    )?;
    Ok(Answer {
        psamples: (modes.len() * trace.particle_count() * trace.sample_count()) as u64,
        workloads: vec![workload],
        predicted_seconds,
    })
}

/// `explore-grid`: one 24-point sweep, then the prediction tail per point
/// under NeighborSync.
fn explore_grid(rec: &mut Recorder, ctx: &Ctx, stride: usize) -> Result<Answer> {
    let trace = calls::load_raw(rec, &ctx.files.heleshaw(stride))?;
    let mesh = calls::mesh(rec, &trace, GRID_MESH_CUBE, ORDER)?;
    let mut points = Vec::new();
    for mapping in GRID_MAPPINGS {
        for ranks in GRID_RANKS {
            for filter in GRID_FILTERS {
                points.push(calls::sweep_point(calls::workload_config(
                    ranks, mapping, filter,
                )));
            }
        }
    }
    let workloads = calls::sweep(rec, &trace, &points, &mesh)?;
    let mut elements = Vec::new();
    for ranks in GRID_RANKS {
        elements.push(calls::elements_per_rank(rec, &mesh, ranks)?);
    }
    let mut predicted_seconds = Vec::with_capacity(points.len());
    for (point, workload) in points.iter().zip(&workloads) {
        let slot = GRID_RANKS
            .iter()
            .position(|&r| r == point.config.ranks)
            .expect("grid ranks");
        predicted_seconds.extend(calls::predict_tail(
            rec,
            workload,
            &ctx.models,
            &elements[slot],
            ORDER,
            point.config.projection_filter,
            trace.meta().sample_interval,
            &[SyncMode::NeighborSync],
        )?);
    }
    Ok(Answer {
        psamples: (points.len() * trace.particle_count() * trace.sample_count()) as u64,
        workloads,
        predicted_seconds,
    })
}

/// `phased-reduced`: compact decode, SimPoint plan, reduced replay behind
/// the holdout gate, prediction tail. Also returns the decoded trace for
/// the verify step's full replay.
fn phased_reduced(rec: &mut Recorder, ctx: &Ctx) -> Result<(Answer, pic_trace::ParticleTrace)> {
    const RANKS: usize = 32;
    const FILTER: f64 = 0.03;
    let trace = calls::load_compact(rec, &ctx.files.phased())?;
    let plan = calls::simpoint_plan(rec, &trace, ctx.seed)?;
    let cfg = calls::workload_config(RANKS, BinBased, FILTER);
    let workload = calls::generate_reduced(rec, &trace, &cfg, &plan)?;
    let predicted_seconds = calls::predict_tail(
        rec,
        &workload,
        &ctx.models,
        &[0; RANKS],
        ORDER,
        FILTER,
        trace.meta().sample_interval,
        &[SyncMode::BulkSynchronous],
    )?;
    let answer = Answer {
        // the reduced answer covers the full T samples
        psamples: (trace.particle_count() * trace.sample_count()) as u64,
        workloads: vec![workload],
        predicted_seconds,
    };
    Ok((answer, trace))
}
