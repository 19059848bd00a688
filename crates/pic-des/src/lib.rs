//! # pic-des
//!
//! A coarse-grained system-level discrete-event simulation platform — the
//! stand-in for BE-SST on SST (paper §II-C, refs \[6\], \[7\]).
//!
//! The abstraction matches BE-SST's behavioural-emulation level: each
//! processor is a component with a local clock advanced by *modelled*
//! kernel times (not executed code); the interconnect is a
//! latency/bandwidth model. The simulator consumes a per-step schedule of
//! per-rank compute seconds and point-to-point messages — exactly what the
//! Dynamic Workload Generator + performance models produce — and predicts
//! the application timeline on a target machine.
//!
//! Two synchronization semantics are provided:
//!
//! * [`SyncMode::BulkSynchronous`] — a global barrier per step (PIC solver
//!   iterations are bulk-synchronous in CMT-nek);
//! * [`SyncMode::NeighborSync`] — a rank proceeds once its own compute and
//!   its inbound messages are done (the relaxed dependency structure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod machine;
mod queue;
#[doc(hidden)]
pub mod reference;
pub mod topology;

pub use engine::{simulate, SimTimeline, StepWorkload, SyncMode};
pub use machine::MachineSpec;
pub use topology::Topology;
