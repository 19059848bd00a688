//! Interconnect topologies: hop-aware message costs.
//!
//! BE-SST models systems coarsely; a single latency number hides that on a
//! torus (Vulcan's Blue Gene/Q was a 5-D torus) distant ranks pay more
//! hops, while fat-tree systems (Quartz's Omni-Path) pay a near-uniform
//! 2–3 switch hops. [`Topology`] supplies the hop count between two ranks;
//! the machine model multiplies its per-hop latency by it.

use serde::{Deserialize, Serialize};

/// Interconnect topology of the target system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "kind")]
#[derive(Default)]
pub enum Topology {
    /// Every pair of ranks is one hop apart (the classic single-latency
    /// abstraction; default).
    #[default]
    FullyConnected,
    /// A 3-D torus of the given dimensions; ranks are laid out
    /// lexicographically and the hop count is the wrap-around Manhattan
    /// distance. Ranks beyond `x·y·z` wrap onto the torus again (folded
    /// placement).
    Torus3D {
        /// Torus size along x.
        x: usize,
        /// Torus size along y.
        y: usize,
        /// Torus size along z.
        z: usize,
    },
    /// A two-level fat tree with `radix` ranks per leaf switch: 1 hop
    /// within a leaf, `spine_hops` between leaves.
    FatTree {
        /// Ranks per leaf switch.
        radix: usize,
        /// Hops paid when crossing the spine.
        spine_hops: u32,
    },
}

impl Topology {
    /// Hop count between two ranks. `from == to` costs zero hops.
    pub fn hops(&self, from: u32, to: u32) -> u32 {
        if from == to {
            return 0;
        }
        match *self {
            Topology::FullyConnected => 1,
            Topology::Torus3D { x, y, z } => {
                let coords = |r: u32| {
                    let r = r as usize % (x * y * z).max(1);
                    ((r % x) as i64, ((r / x) % y) as i64, (r / (x * y)) as i64)
                };
                let (ax, ay, az) = coords(from);
                let (bx, by, bz) = coords(to);
                let wrap = |d: i64, n: usize| {
                    let n = n as i64;
                    let d = d.rem_euclid(n);
                    d.min(n - d) as u32
                };
                let h = wrap(ax - bx, x) + wrap(ay - by, y) + wrap(az - bz, z);
                h.max(1)
            }
            Topology::FatTree { radix, spine_hops } => {
                let radix = radix.max(1) as u32;
                if from / radix == to / radix {
                    1
                } else {
                    spine_hops.max(1)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_is_uniform() {
        let t = Topology::FullyConnected;
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(7, 1000), 1);
    }

    #[test]
    fn torus_wraps_around() {
        let t = Topology::Torus3D { x: 4, y: 4, z: 4 };
        // neighbours
        assert_eq!(t.hops(0, 1), 1);
        // 0 = (0,0,0), 3 = (3,0,0): wrap distance is 1, not 3
        assert_eq!(t.hops(0, 3), 1);
        // 0 = (0,0,0), 2 = (2,0,0): distance 2
        assert_eq!(t.hops(0, 2), 2);
        // opposite corner (2,2,2): 6 hops = diameter
        let far = 2 + 2 * 4 + 2 * 16;
        assert_eq!(t.hops(0, far as u32), 6);
        // symmetric
        for a in 0..16u32 {
            for b in 0..16u32 {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn torus_folds_excess_ranks() {
        let t = Topology::Torus3D { x: 2, y: 2, z: 2 };
        // rank 8 folds onto rank 0's node
        assert_eq!(t.hops(8, 1), t.hops(0, 1));
        // but identical ranks still cost 0
        assert_eq!(t.hops(8, 8), 0);
    }

    #[test]
    fn fat_tree_leaf_vs_spine() {
        let t = Topology::FatTree {
            radix: 4,
            spine_hops: 3,
        };
        assert_eq!(t.hops(0, 3), 1); // same leaf
        assert_eq!(t.hops(0, 4), 3); // cross spine
        assert_eq!(t.hops(5, 6), 1);
    }

    #[test]
    fn serde_roundtrip() {
        for t in [
            Topology::FullyConnected,
            Topology::Torus3D { x: 8, y: 8, z: 16 },
            Topology::FatTree {
                radix: 36,
                spine_hops: 3,
            },
        ] {
            let json = serde_json::to_string(&t).unwrap();
            let back: Topology = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t);
        }
    }
}
