//! # pic-workload
//!
//! The **Dynamic Workload Generator** (paper §II-A) — the primary
//! contribution of the reproduced paper.
//!
//! Given a particle trace and a configuration (processor count, mapping
//! algorithm, grid, projection filter), the generator *mimics the mapping
//! algorithm's logic* over the trace to synthesize, without running the
//! application:
//!
//! * the **computation matrix** `P_comp[rank][sample]` — real and ghost
//!   particles residing on every rank at every sample;
//! * the **communication matrix** `P_comm[from][to][sample]` (stored
//!   sparsely) — particles migrating between rank pairs between
//!   consecutive samples;
//! * per-sample **bin counts** for the bin-based mapping (Figs 5/6/10a).
//!
//! Because particle movement is independent of the processor count, one
//! trace serves any target `R` — the basis of the paper's scalability
//! studies. Sample processing is embarrassingly parallel and runs on all
//! cores via rayon.
//!
//! There is one replay engine, in [`sweep`]: a plan groups configurations
//! that share an assignment, one kernel processes a (group, sample) pair,
//! a resident and a streaming driver run it, and one assembly turns the
//! replayed samples into workloads. Its public doors:
//!
//! | function | what it runs |
//! |---|---|
//! | [`sweep::replay`] | a grid over a resident trace; [`sweep::ReplayOptions`] adds a mesh, an [`sweep::AssignmentCache`] and a [`reduce::ReductionPlan`] (representatives broadcast over the trace), in any combination |
//! | [`sweep::sweep_streaming`] | a grid over a streamed trace, every sample |
//! | [`generator::generate_with_mesh`], [`sweep::sweep_with_stats`], [`reduce::generate_reduced_with_stats`] | one-line calls into `replay` that the end-to-end benchmark pins |
//!
//! Under [`reduce::ReductionPlan::identity`] the reduced replay is
//! bit-identical to the full one. The oracles every path is tested against
//! live in the hidden `reference` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod heatmap;
pub mod json;
pub mod matrices;
pub mod metrics;
pub mod reduce;
#[doc(hidden)]
pub mod reference;
pub mod sweep;

pub use generator::{DynamicWorkload, WorkloadConfig};
pub use json::PrettyJson;
pub use matrices::{migration_pairs, CommMatrix, CompMatrix};
pub use reduce::{peak_load_series, peak_rel_error, ReduceStats, ReductionPlan};
pub use sweep::{
    mesh_fingerprint, replay, sweep_streaming, AssignmentCache, AssignmentCacheStats,
    AssignmentKey, CachedGroup, DiffRows, GhostRow, IngestStats, RadiusRows, ReplayOptions,
    SampleAssignment, SweepPoint, SweepStats,
};
