//! # pic-sim
//!
//! A from-scratch mini multi-phase PIC application standing in for CMT-nek
//! (paper §III). It exists so the prediction framework has something real to
//! predict: the mini-app produces
//!
//! * **particle traces** (positions sampled every K iterations) — the input
//!   of the Dynamic Workload Generator;
//! * **ground-truth workloads** — per-rank real/ghost particle counts and
//!   migration counts at every sample, to validate the DWG against;
//! * **kernel timing data** — per-(workload, parameters) execution times of
//!   the PIC solver kernels, the training data of the Model Generator.
//!
//! The solver loop follows the paper's four phases plus ghost handling:
//!
//! 1. *Interpolation* (grid → particle): evaluate fluid properties at each
//!    particle via tensor-product Lagrange interpolation on GLL nodes;
//! 2. *Equation solver*: drag + gravity + soft-sphere collision forces;
//! 3. *Particle pusher*: advance positions;
//! 4. *Projection* (particle → grid): scatter particle influence onto
//!    neighbouring grid points within the projection filter radius;
//!
//! plus `create_ghost_particles`, which replicates a particle onto every
//! remote rank its projection-filter sphere touches.
//!
//! Execution is single-process with *simulated ranks*: each step the
//! configured [`ParticleMapper`](pic_mapping::ParticleMapper) assigns
//! particles to ranks, and kernels run rank-by-rank on each rank's subset so
//! per-rank workloads and timings are faithful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod benchmark;
pub mod clock;
pub mod config;
pub mod field;
pub mod instrument;
pub mod kernels;
pub mod oracle;
pub mod particles;
pub mod scenario;

pub use app::{GroundTruth, GroundTruthSample, MiniPic, SimOutput};
pub use benchmark::{benchmark_kernels, SweepConfig};
pub use config::SimConfig;
pub use field::{BlastField, FluidField, UniformFlow, VortexField};
pub use instrument::{KernelKind, Recorder, TrainingRecord};
pub use oracle::CostOracle;
pub use particles::ParticleSet;
pub use scenario::ScenarioKind;
