//! # pic-types
//!
//! Foundation types shared by every crate in the `pic-predict` workspace:
//! 3-D vectors, axis-aligned bounding boxes, strongly-typed identifiers for
//! ranks / elements / bins / particles, the workspace error type, seeded RNG
//! helpers, the one integer-key radix sort, and small numeric/statistics
//! utilities (MAPE, percentiles, …).
//!
//! Everything in this crate is deliberately dependency-light and `Copy`-heavy:
//! these types sit on the hot path of the Dynamic Workload Generator, which
//! streams hundreds of millions of particle samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aabb;
pub mod error;
pub mod hash;
pub mod ids;
pub mod pool;
pub mod radix;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod vec3;

pub use aabb::Aabb;
pub use error::{PicError, Result, TraceError, TraceErrorKind};
pub use ids::{BinId, ElementId, ParticleId, Rank};
pub use vec3::{Axis, Vec3};
