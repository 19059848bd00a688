//! # pic-models
//!
//! The **Model Generator** of the prediction framework (paper §II-B):
//! fits analytical performance models for the expensive PIC kernels from
//! instrumented benchmark data.
//!
//! Two regression families, matching the paper:
//!
//! * **Linear regression** ([`linear`]) — sufficient for
//!   single-parameter models (e.g. kernel time vs particles-per-rank);
//! * **Symbolic regression via genetic programming** ([`gp`], [`expr`]) —
//!   the authors' HPCS'19 approach (paper refs \[13\], \[14\]) for
//!   multi-parameter models whose functional form is not known a priori.
//!
//! A fit yields a [`FittedModel`] of either family, which predicts seconds
//! from a feature vector (the workload parameters `N_p`, `N_gp`, `N_el`,
//! `N`, filter). Accuracy is reported as MAPE, the paper's headline metric.
//!
//! The crate also hosts [`kmeans`] — deterministic seeded k-means
//! (k-means++ init, BIC-style K selection) used by the SimPoint-style
//! trace reducer to cluster per-sample feature vectors into phases.
//!
//! The GP inner loop scores candidates on compiled tapes ([`compile`]):
//! canonical forms are lowered to flat bytecode and batch-evaluated over
//! columnar feature storage ([`Dataset::columns`]), in parallel and
//! memoized by canonical-form hash. The tape is bit-identical to the
//! recursive [`Expr::eval`], which tests keep as its oracle, so a fixed
//! seed gives the same model under any thread count.

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
pub use gp::{GpConfig, SymbolicRegressor};
pub use kmeans::{KMeans, KMeansConfig};
pub use linear::LinearModel;
pub use model::FittedModel;
