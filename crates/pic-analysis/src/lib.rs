//! # pic-analysis
//!
//! The static verification layer of the prediction framework: analyses
//! that run *before* a model is trusted, a workload is simulated, or a
//! concurrent pipeline ships — catching entire bug classes at admission
//! time instead of as silently wrong predictions.
//!
//! Four analyzers:
//!
//! * [`expr_check`] — abstract interpretation of `pic_models::Expr` over
//!   the [`interval`] domain, seeded with per-column value ranges from the
//!   training dataset. Flags reachable protected-division degeneracies,
//!   overflow, out-of-range variable reads, and dead/constant subtrees,
//!   each positioned by preorder node index and root-relative path. The
//!   error subset gates model deserialization.
//! * [`workload`] — the invariant catalog for generated `DynamicWorkload`
//!   matrices (particle conservation, migration/delta consistency, ghost
//!   bounds, ...), every violation carrying `(rank, sample)` coordinates.
//!   Backs the `picpredict check` subcommand.
//! * [`prediction`] — the outbound response gate for the resident
//!   prediction service: no NaN, infinite, negative, or ragged predicted
//!   kernel time ever leaves the server, each rejection positioned by
//!   `(sample, rank, kernel)`.
//! * [`sched`] + [`pipeline_model`] — a minimal loom-style deterministic
//!   schedule explorer (with optional ample-set partial-order reduction
//!   and lasso-based liveness checking), plus a faithful model of the
//!   streaming workload generator's decoder→workers→merge pipeline.
//!   Exhaustive exploration proves its shutdown paths hang- and leak-free
//!   for a matrix of configurations, in CI, with a replayable schedule on
//!   any failure.
//! * [`reduction`] — the error-budget gate for SimPoint-style trace
//!   reduction: exact replay of a deterministic holdout of
//!   non-representative samples, compared against the reduced
//!   reconstruction on peak load. A reduction that breaches its budget
//!   (default 2%) is rejected before anything downstream trusts it.
//! * [`serve_model`] — explicit-state models of the three `picpredict
//!   serve` concurrency protocols (single-flight batching, LRU registry
//!   weight accounting, the shutdown handshake), verified over a config
//!   matrix by `picpredict check --serve`, plus a seeded-mutant corpus
//!   proving the checker catches each protocol's bug classes.
//! * [`des_batch`] — soundness of simulating by dataflow fold: every
//!   causal processing order of a bulk-synchronous step must reach the
//!   fold's closed-form barrier time, and every causal order of two
//!   neighbour-synchronised steps with ranks a step apart must reach its
//!   per-rank ready times. Verified by `picpredict check --des`, with a
//!   mutant corpus (double count, early release, arrivals folded into the
//!   wrong step, arrivals ignored).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des_batch;
pub mod expr_check;
pub mod interval;
pub mod pipeline_model;
pub mod prediction;
pub mod reduction;
pub mod sched;
pub mod serve_model;
pub mod workload;

pub use des_batch::{
    des_batch_mutants, verify_des_batching, BarrierStepModel, DesBatchMutant, DesBatchVerdict,
    NeighborMutant, NeighborRunAheadModel,
};
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
pub use sched::{explore, explore_with, Exploration, ExploreOptions, Model, ScheduleError};
pub use serve_model::{
    serve_mutant_corpus, verify_serve_protocols, MutantOutcome, ProtocolVerdict,
};
pub use workload::{
    assert_sweep_valid, assert_workload_valid, check_sweep, check_workload, SweepViolation,
    WorkloadViolation,
};
