//! # pic-predict
//!
//! The trace-driven performance prediction framework (paper Fig 2), tying
//! the pieces together:
//!
//! ```text
//!  particle trace ──► Dynamic Workload Generator ──► workload matrices
//!        ▲                (pic-workload)                   │
//!        │                                                 ▼
//!  mini PIC app ──► kernel timing records ──► Model Generator ──► models
//!   (pic-sim)            (pic-sim)             (pic-models)        │
//!                                                                  ▼
//!                              Simulation Platform (pic-des) ◄── schedule
//!                                        │
//!                                        ▼
//!                         predicted kernel & application times
//! ```
//!
//! Entry points:
//! * [`predict`] — the product: trace + kernel models + [`PredictSpec`]
//!   (ranks, mapping, filter, mesh, machine, sync) → [`Prediction`]. The
//!   CLI's `predict`, the service's `/predict` and the case study call it
//!   and print its `Display`; [`predict_workload`] is its tail over a
//!   workload already in hand, and [`pipeline`] has the stages it composes;
//! * [`predict_grid`] — the paper's design-space exploration (§II-D, §IV):
//!   many specs from one replay, of which `predict` is the one-point case.
//!   Each [`Prediction`] carries its workload summary, so the scalability,
//!   mapping and filter studies are projections of its rows;
//! * [`KernelModels`] — fit per-kernel performance models from timing
//!   records (linear or GP-symbolic, with automatic fallback);
//! * [`validate`] — exact DWG-vs-ground-truth workload checks and the
//!   Fig 7 kernel-MAPE computation;
//! * [`run_case_study`] — one call that runs the mini-app, generates the
//!   workload, fits models, validates, and predicts application time;
//! * [`serve`] — the resident prediction service: a long-lived daemon
//!   with a content-addressed trace registry that decodes each trace
//!   once and answers sweep/predict/check requests over HTTP, sharing
//!   assignment artifacts across concurrent and repeat requests;
//! * [`request`] — the one request vocabulary and the one call that
//!   answers it: the [`Request`] the CLI's replaying commands and the
//!   service's endpoints both parse, admit and validate, [`answer`], which
//!   replays, gates and predicts it for all of them, and the grid expansion
//!   (mapping-major cross product) and serialization they and the figures
//!   share, so all emit the same grids;
//! * [`simpoint`] — SimPoint-style trace reduction: cluster per-sample
//!   feature vectors into phases, emit a [`pic_workload::ReductionPlan`]
//!   that replays one representative per phase, and hold every replayed
//!   grid point to the `pic-analysis` error budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel_models;
pub mod pipeline;
pub mod request;
pub mod serve;
pub mod simpoint;
pub mod validate;

pub use kernel_models::{FitStrategy, KernelModels};
pub use pipeline::{
    build_schedule, predict, predict_application, predict_grid, predict_kernel_seconds,
    predict_workload, run_case_study, CaseStudyOutput, PredictSpec, Prediction,
};
pub use request::{
    answer, grid_entries, grid_to_json, Answer, Request, Resident, SweepGridEntry, SweepGridSpec,
};
pub use serve::{registry::TraceRegistry, ServeConfig, Server};
pub use simpoint::{build_plan as build_simpoint_plan, SimpointOptions};
pub use validate::{kernel_mape_vs_ground_truth, workload_matches_ground_truth};
