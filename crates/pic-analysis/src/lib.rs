//! # pic-analysis
//!
//! The static verification layer of the prediction framework: analyses
//! that run *before* a model is trusted, a workload is simulated, or a
//! concurrent pipeline ships — catching entire bug classes at admission
//! time instead of as silently wrong predictions.
//!
//! Each analyzer names the production code it guards:
//!
//! * [`expr_check`] — abstract interpretation of `pic_models::Expr` over
//!   the [`interval`] domain, seeded with per-column value ranges from the
//!   training dataset. Flags reachable protected-division degeneracies,
//!   overflow, out-of-range variable reads, and dead/constant subtrees,
//!   each positioned by preorder node index and root-relative path. The
//!   error subset gates `KernelModels::from_json`; `picpredict check
//!   --models` prints the rest.
//! * [`workload`] — the invariant catalog for `DynamicWorkload` matrices
//!   (shape, particle conservation, migration/delta consistency, ghost
//!   bounds, ...), every violation carrying `(rank, sample)` coordinates.
//!   Gates the output of `pic_workload::generator` and the sweep engine in
//!   the CLI and the pipeline, and a user's file in `picpredict check
//!   --workload`.
//! * [`prediction`] — the kernel-table gate in
//!   `pic_predict::predict_workload`: no NaN, infinite, negative, or
//!   ragged predicted kernel time reaches the simulator or an answer, each
//!   rejection positioned by `(sample, rank, kernel)`.
//! * [`reduction`] — the error-budget gate of
//!   a reduced replay in `pic_predict::answer`: exact replay of a deterministic
//!   holdout of non-representative samples, compared against the reduced
//!   reconstruction on peak load. A reduction that breaches its budget
//!   (default 2%) is rejected before anything downstream trusts it.
//! * [`sched`] — a minimal loom-style deterministic schedule explorer for
//!   [`pipeline_model`]: `pic_workload::sweep_streaming`'s
//!   decoder→workers→merge pipeline shuts down hang- and leak-free, an
//!   interleaving property of live code that no proptest can sample
//!   exhaustively (`tests/interleavings.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expr_check;
pub mod interval;
pub mod pipeline_model;
pub mod prediction;
pub mod reduction;
pub mod sched;
pub mod workload;

pub use expr_check::{
    analyze_expr, check_compiled_equivalence, check_model_expr, Diagnostic, ExprReport,
    FeatureSpace, Severity,
};
pub use interval::Interval;
pub use pipeline_model::{verify_pipeline, verify_streaming_shutdown, PipelineSpec};
pub use prediction::{
    assert_prediction_valid, check_prediction, PredictionDefect, PredictionViolation,
};
pub use reduction::{
    assert_reduction_valid, check_reduction, holdout_samples, HoldoutPoint, ReductionBudget,
    ReductionReport,
};
pub use sched::{explore, Exploration, Model, ScheduleError};
pub use workload::{
    assert_sweep_valid, assert_workload_valid, check_sweep, check_workload, SweepViolation,
    WorkloadViolation,
};
