//! Target-machine specifications.
//!
//! BE-SST's coarse-grained view of a system: node/core counts, a relative
//! compute speed (against the machine the performance models were trained
//! on), and a latency/bandwidth interconnect model. Presets approximate the
//! published characteristics of the systems named in the paper; the
//! simulator only ever consumes these few scalars.

use crate::topology::Topology;
use pic_types::{PicError, Result};
use serde::{Deserialize, Serialize};

/// Coarse description of a target HPC system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Compute-speed multiplier applied to modelled kernel times
    /// (1.0 = identical to the training machine; 2.0 = twice as slow).
    pub compute_scale: f64,
    /// Point-to-point message latency in seconds.
    pub link_latency: f64,
    /// Link bandwidth in bytes per second.
    pub link_bandwidth: f64,
    /// Interconnect topology (hop-aware latency). Defaults to fully
    /// connected, the classic single-latency abstraction.
    #[serde(default)]
    pub topology: Topology,
    /// Per-stage latency of collective operations (barriers/allreduce).
    /// Each bulk-synchronous barrier costs `collective_latency · ⌈log₂ R⌉`
    /// seconds — the classic tree-reduction model. Zero disables
    /// collective costs (the default, matching plain BE-SST).
    #[serde(default)]
    pub collective_latency: f64,
}

impl MachineSpec {
    /// Reject specs whose scalars would produce NaN or infinite event
    /// times (or panic in topology hop math) mid-simulation. Called at
    /// simulation admission, so a bad spec surfaces as a positioned
    /// [`PicError`] instead of a crash deep in the event loop.
    pub fn validate(&self) -> Result<()> {
        let named = |field: &str, detail: String| {
            PicError::sim(format!("machine '{}': {field} {detail}", self.name))
        };
        if !self.compute_scale.is_finite() || self.compute_scale < 0.0 {
            return Err(named(
                "compute_scale",
                format!("is {}, must be finite and non-negative", self.compute_scale),
            ));
        }
        if !self.link_latency.is_finite() || self.link_latency < 0.0 {
            return Err(named(
                "link_latency",
                format!("is {}, must be finite and non-negative", self.link_latency),
            ));
        }
        if !self.link_bandwidth.is_finite() || self.link_bandwidth <= 0.0 {
            return Err(named(
                "link_bandwidth",
                format!("is {}, must be finite and positive", self.link_bandwidth),
            ));
        }
        if !self.collective_latency.is_finite() || self.collective_latency < 0.0 {
            return Err(named(
                "collective_latency",
                format!(
                    "is {}, must be finite and non-negative",
                    self.collective_latency
                ),
            ));
        }
        if let Topology::Torus3D { x, y, z } = self.topology {
            if x == 0 || y == 0 || z == 0 {
                return Err(named(
                    "topology",
                    format!("Torus3D {x}x{y}x{z} has a zero dimension"),
                ));
            }
        }
        Ok(())
    }

    /// Modelled transfer time between two specific ranks: per-hop latency
    /// times the topology's hop count, plus the serialization term.
    pub fn message_time_between(&self, from: u32, to: u32, bytes: u64) -> f64 {
        let hops = self.topology.hops(from, to).max(1) as f64;
        self.link_latency * hops + bytes as f64 / self.link_bandwidth
    }

    /// Modelled cost of one barrier/allreduce across `ranks` ranks
    /// (tree reduction: `collective_latency · ⌈log₂ R⌉`).
    pub fn barrier_time(&self, ranks: usize) -> f64 {
        if ranks <= 1 || self.collective_latency == 0.0 {
            return 0.0;
        }
        let stages = (usize::BITS - (ranks - 1).leading_zeros()) as f64;
        self.collective_latency * stages
    }

    /// The preset a request or flag names: `quartz`, `vulcan` (each also
    /// under its `-like` machine name) or `localhost`; `None` for anything
    /// else, a path included.
    pub fn preset(name: &str) -> Option<MachineSpec> {
        match name {
            "quartz" | "quartz-like" => Some(MachineSpec::quartz_like()),
            "vulcan" | "vulcan-like" => Some(MachineSpec::vulcan_like()),
            "localhost" => Some(MachineSpec::localhost(8)),
            _ => None,
        }
    }

    /// A Quartz-like system: LLNL Quartz has 3018 Intel Xeon E5 nodes on
    /// Intel Omni-Path (paper §IV-A).
    pub fn quartz_like() -> MachineSpec {
        MachineSpec {
            name: "quartz-like".into(),
            nodes: 3018,
            cores_per_node: 36,
            compute_scale: 1.0,
            link_latency: 1.5e-6,
            link_bandwidth: 12.5e9, // ~100 Gb/s Omni-Path
            topology: Topology::FatTree {
                radix: 36,
                spine_hops: 3,
            },
            collective_latency: 1.5e-6,
        }
    }

    /// A Vulcan-like system: LLNL Vulcan was a Blue Gene/Q — many slow
    /// cores, modest per-link bandwidth (paper Fig 1 ran there).
    pub fn vulcan_like() -> MachineSpec {
        MachineSpec {
            name: "vulcan-like".into(),
            nodes: 24576,
            cores_per_node: 16,
            compute_scale: 2.5,
            link_latency: 2.0e-6,
            link_bandwidth: 2.0e9,
            // BG/Q was a 5-D torus; a 3-D torus of equivalent node count is
            // the closest shape this coarse model carries.
            topology: Topology::Torus3D {
                x: 32,
                y: 32,
                z: 24,
            },
            collective_latency: 2.0e-6,
        }
    }

    /// A single-node development machine (useful for validating the
    /// simulator against the host that produced the training data).
    pub fn localhost(cores: usize) -> MachineSpec {
        MachineSpec {
            name: "localhost".into(),
            nodes: 1,
            cores_per_node: cores,
            compute_scale: 1.0,
            link_latency: 2.0e-7, // shared-memory transport
            link_bandwidth: 40.0e9,
            topology: Topology::FullyConnected,
            collective_latency: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let q = MachineSpec::quartz_like();
        assert_eq!((q.nodes, q.cores_per_node), (3018, 36));
        let v = MachineSpec::vulcan_like();
        assert!(v.compute_scale > q.compute_scale, "BG/Q cores are slower");
        assert!(v.link_bandwidth < q.link_bandwidth);
        let l = MachineSpec::localhost(8);
        assert_eq!((l.nodes, l.cores_per_node), (1, 8));
    }

    #[test]
    fn presets_go_by_both_spellings_and_nothing_else() {
        for (name, machine) in [
            ("quartz", MachineSpec::quartz_like()),
            ("quartz-like", MachineSpec::quartz_like()),
            ("vulcan", MachineSpec::vulcan_like()),
            ("vulcan-like", MachineSpec::vulcan_like()),
            ("localhost", MachineSpec::localhost(8)),
        ] {
            assert_eq!(MachineSpec::preset(name), Some(machine), "{name}");
        }
        for other in ["/etc/machines/quartz.json", "quartz.json", "Quartz", ""] {
            assert_eq!(MachineSpec::preset(other), None, "{other}");
        }
    }

    #[test]
    fn message_time_monotone_in_size() {
        let q = MachineSpec::quartz_like();
        // ranks 0 and 1 share a leaf switch: one hop
        let t0 = q.message_time_between(0, 1, 0);
        let t1 = q.message_time_between(0, 1, 1 << 20);
        let t2 = q.message_time_between(0, 1, 1 << 24);
        assert_eq!(t0, q.link_latency);
        assert!(t1 > t0 && t2 > t1);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let q = MachineSpec::quartz_like();
        // a 64-byte particle header: bandwidth term is negligible
        let t = q.message_time_between(0, 1, 64);
        assert!((t - q.link_latency) / q.link_latency < 0.01);
    }

    #[test]
    fn serde_roundtrip() {
        let q = MachineSpec::quartz_like();
        let json = serde_json::to_string(&q).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }
}
