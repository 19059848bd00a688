//! # pic-mapping
//!
//! Particle mapping algorithms (paper §III-B/C): the logic that decides, for
//! every particle position, which processor *resides* (stores and computes)
//! that particle. The Dynamic Workload Generator mimics exactly this logic
//! over a particle trace, so these implementations are shared between the
//! mini PIC application (which really migrates particles with them) and the
//! workload generator (which only counts).
//!
//! Four algorithms are provided behind the [`ParticleMapper`] trait:
//!
//! * [`ElementMapper`] — the de-facto PIC standard: a particle lives with the
//!   element that contains it (particle–grid locality preserved, workload
//!   follows particle density — badly imbalanced for concentrated problems);
//! * [`BinMapper`] — CMT-nek's load-balancing algorithm (paper ref \[12\]):
//!   the *particle domain* (tight bounding box of all particles) is
//!   recursively cut by axis-aligned planes into bins, stopping at a
//!   bin-size threshold (= projection filter size) or when bins reach the
//!   processor count; bins map 1:1 onto processors;
//! * [`HilbertMapper`] — the extension the paper lists as future work
//!   (ref \[10\]): particles ordered by the Hilbert index of their residing
//!   element, then divided into equal contiguous chunks;
//! * [`LoadBalancedMapper`] — weighted element partitioning (ref \[11\]):
//!   locality preserved, elements distributed by grid-plus-particle load,
//!   re-partitioned as the particles move.
//!
//! Ghost particles are counted by one pruned dual-tree join: over the
//! sample's bin tree for bin mapping ([`BinTree::ghost_counts`]) and over
//! a tree of rank ranges for the other three ([`RankTree::ghost_counts`]).
//! [`RegionIndex`] answers the same question one particle at a time; it
//! is the mini-app's ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bin;
pub mod element;
pub mod hilbert;
mod join;
pub mod load_balanced;
pub mod mapper;
pub mod rank_tree;
pub mod region_index;

pub use bin::{BinMapper, BinPartition, BinTree};
pub use element::ElementMapper;
pub use hilbert::HilbertMapper;
pub use load_balanced::LoadBalancedMapper;
pub use mapper::{MappingAlgorithm, MappingOutcome, ParticleMapper};
pub use rank_tree::RankTree;
pub use region_index::{RegionIndex, RegionQueryScratch};
