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
//! replayed samples into workloads. The public replay functions are thin
//! adapters over it:
//!
//! | function | what it selects |
//! |---|---|
//! | [`generator::generate`] / [`generator::generate_with_mesh`] | one point, every sample, resident |
//! | [`generator::generate_streaming_with_stats`] | one point, every sample, streamed |
//! | [`sweep::sweep_with_stats`] / [`sweep::sweep_with_cache`] | a grid, every sample, resident (optionally cached) |
//! | [`sweep::sweep_streaming`] | a grid, every sample, streamed |
//! | [`reduce::generate_reduced_with_stats`] / [`reduce::sweep_reduced_with_stats`] | a [`reduce::ReductionPlan`]'s representatives, broadcast over the trace |
//!
//! Under [`reduce::ReductionPlan::identity`] the reduced replay is
//! bit-identical to the full one. The oracles every path is tested against
//! live in the hidden `reference` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod heatmap;
pub mod matrices;
pub mod metrics;
pub mod reduce;
#[doc(hidden)]
pub mod reference;
pub mod soa;
pub mod sweep;

pub use generator::{generate_streaming_with_stats, DynamicWorkload, WorkloadConfig};
pub use matrices::{migration_pairs, CommMatrix, CompMatrix};
pub use reduce::{
    generate_reduced_with_stats, peak_load_series, peak_rel_error, sweep_reduced_with_stats,
    ReduceStats, ReductionPlan,
};
pub use soa::SoAPositions;
pub use sweep::{
    mesh_fingerprint, sweep_streaming, sweep_with_cache, sweep_with_stats, AssignmentCache,
    AssignmentCacheStats, AssignmentKey, IngestStats, SampleAssignment, SweepPoint, SweepStats,
};
