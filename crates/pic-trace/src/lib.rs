//! # pic-trace
//!
//! The *particle trace* substrate of the prediction framework (paper §II):
//! particle positions sampled at a fixed iteration interval during one
//! application run. A trace is the sole application-side input the Dynamic
//! Workload Generator needs — particle movement is independent of the
//! processor count, so one trace predicts workload at any scale.
//!
//! The crate provides:
//! * [`ParticleTrace`] — the in-memory model (fixed particle population,
//!   `T` samples of `N_p` positions);
//! * [`codec`] — the raw binary on-disk format with `f64` or `f32`
//!   precision (trace size is a first-class concern in the paper: full-scale
//!   traces run to hundreds of gigabytes);
//! * [`compact`] — the delta-encoded, quantized companion format (4–8×
//!   smaller for smoothly drifting traces);
//! * streaming [`TraceWriter`] / [`CompactWriter`], one per format, and
//!   the one [`TraceReader`], which sniffs the magic and decodes either;
//!   none holds more than one frame in memory;
//! * [`stats`] — particle-boundary evolution, displacement statistics, and
//!   file-size estimation used for the sampling-frequency trade-off;
//! * [`fault`] — deterministic fault-injection readers (truncation, short
//!   reads, interrupts, hard I/O errors, bit flips) backing the ingestion
//!   robustness contract: decoding arbitrary bytes never panics, stays
//!   within a bounded allocation budget, and fails with byte-positioned
//!   errors ([`pic_types::TraceError`]);
//! * [`features`] — per-sample feature vectors (density histogram,
//!   migration rate, occupancy spread, boundary-volume delta) for
//!   SimPoint-style phase clustering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod codec;
pub mod compact;
pub mod extrapolate;
pub mod fault;
pub mod features;
pub mod stats;
pub mod trace;

pub use bounded::{BoundedReader, DigestReader};
pub use codec::{Precision, TraceReader, TraceWriter};
pub use compact::CompactWriter;
pub use extrapolate::extrapolate;
pub use features::{feature_vectors, FeatureConfig};
pub use trace::{ParticleTrace, TraceMeta, TraceSample};
