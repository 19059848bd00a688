//! # pic-models
//!
//! The **Model Generator** of the prediction framework (paper §II-B):
//! fits analytical performance models for the expensive PIC kernels from
//! instrumented benchmark data.
//!
//! Two regression families, matching the paper:
//!
//! * **Linear / polynomial regression** ([`linear`]) — sufficient for
//!   single-parameter models (e.g. kernel time vs particles-per-rank);
//! * **Symbolic regression via genetic programming** ([`gp`], [`expr`]) —
//!   the authors' HPCS'19 approach (paper refs \[13\], \[14\]) for
//!   multi-parameter models whose functional form is not known a priori.
//!
//! Models implement [`PerfModel`], predicting seconds from a feature vector
//! (the workload parameters `N_p`, `N_gp`, `N_el`, `N`, filter). Accuracy is
//! reported as MAPE, the paper's headline metric.
//!
//! The crate also hosts [`kmeans`] — deterministic seeded k-means
//! (k-means++ init, BIC-style K selection) used by the SimPoint-style
//! trace reducer to cluster per-sample feature vectors into phases.
//!
//! The GP inner loop runs on a compiled fitness engine ([`compile`]):
//! candidate trees are lowered to flat bytecode tapes and batch-evaluated
//! over columnar feature storage ([`Dataset::columns`]), with population
//! scoring parallelized and memoized by canonical-form hash — all
//! bit-identical to the recursive reference evaluator, so the search
//! trajectory for a fixed seed never depends on which path ran.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod dataset;
pub mod expr;
pub mod gp;
pub mod kmeans;
pub mod linalg;
pub mod linear;
pub mod model;

pub use compile::{CompiledExpr, EvalScratch};
pub use dataset::Dataset;
pub use expr::Expr;
pub use gp::{FitContext, FitScratch, GpConfig, GpRunStats, SymbolicRegressor};
pub use kmeans::{KMeans, KMeansConfig};
pub use linear::{LinearModel, PolynomialModel};
pub use model::{FittedModel, PerfModel};
