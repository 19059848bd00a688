//! Reference implementations the production engine is checked against.
//!
//! Nothing here runs on a production path. The sequential replay
//! [`generate_reference`] over the pre-optimization
//! [`BaselineRegionIndex`] is the determinism oracle of every proptest;
//! [`migration_pairs_sorted`] is the comparison-sort diff the radix-sorted
//! `migration_pairs` replaced.

use crate::generator::{DynamicWorkload, WorkloadConfig};
use crate::matrices::{CommMatrix, CompMatrix};
use pic_grid::ElementMesh;
use pic_mapping::region_index::query_reach;
use pic_trace::ParticleTrace;
use pic_types::{Rank, Result};

/// The pre-optimization region index: per-cell `Vec<Vec<u32>>` buckets
/// over a clone of the full regions slice, with per-query collect +
/// `sort_unstable` + `dedup`. Its grid is coarser than [`pic_mapping::RegionIndex`]'s,
/// but both walk the query box widened by [`query_reach`], so `d² ≤ r²`
/// alone decides what either returns, and the results are identical.
#[doc(hidden)]
pub struct BaselineRegionIndex {
    bounds: pic_types::Aabb,
    dims: [usize; 3],
    inv_cell: pic_types::Vec3,
    buckets: Vec<Vec<u32>>,
    regions: Vec<pic_types::Aabb>,
}

impl BaselineRegionIndex {
    /// Build the baseline bucket grid over `regions`.
    pub fn build(regions: &[pic_types::Aabb]) -> BaselineRegionIndex {
        use pic_types::{Aabb, Vec3};
        let mut bounds = Aabb::empty();
        let mut live = 0usize;
        for r in regions {
            if !r.is_empty() {
                bounds = bounds.union(r);
                live += 1;
            }
        }
        if bounds.is_empty() {
            return BaselineRegionIndex {
                bounds,
                dims: [1, 1, 1],
                inv_cell: Vec3::ZERO,
                buckets: vec![Vec::new()],
                regions: regions.to_vec(),
            };
        }
        let per_axis = ((live as f64 / 2.0).cbrt().ceil() as usize).clamp(1, 64);
        let dims = [per_axis, per_axis, per_axis];
        let ext = bounds.extent();
        let safe = |e: f64| if e > 0.0 { e } else { 1.0 };
        let inv_cell = Vec3::new(
            dims[0] as f64 / safe(ext.x),
            dims[1] as f64 / safe(ext.y),
            dims[2] as f64 / safe(ext.z),
        );
        let mut index = BaselineRegionIndex {
            bounds,
            dims,
            inv_cell,
            buckets: vec![Vec::new(); dims[0] * dims[1] * dims[2]],
            regions: regions.to_vec(),
        };
        for (i, r) in regions.iter().enumerate() {
            if r.is_empty() {
                continue;
            }
            let (lo, hi) = index.cell_range(r);
            for cz in lo[2]..=hi[2] {
                for cy in lo[1]..=hi[1] {
                    for cx in lo[0]..=hi[0] {
                        let c = index.cell_id(cx, cy, cz);
                        index.buckets[c].push(i as u32);
                    }
                }
            }
        }
        index
    }

    #[inline]
    fn cell_id(&self, cx: usize, cy: usize, cz: usize) -> usize {
        cx + self.dims[0] * (cy + self.dims[1] * cz)
    }

    fn cell_range(&self, b: &pic_types::Aabb) -> ([usize; 3], [usize; 3]) {
        let rel_lo = b.min - self.bounds.min;
        let rel_hi = b.max - self.bounds.min;
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        let inv = self.inv_cell.to_array();
        for a in 0..3 {
            let max_i = self.dims[a] as isize - 1;
            lo[a] = ((rel_lo.to_array()[a] * inv[a]).floor() as isize).clamp(0, max_i) as usize;
            hi[a] = ((rel_hi.to_array()[a] * inv[a]).floor() as isize).clamp(0, max_i) as usize;
        }
        (lo, hi)
    }

    /// Collect (sorted, deduplicated) ranks touching the sphere.
    pub fn ranks_touching_sphere(&self, center: pic_types::Vec3, radius: f64, out: &mut Vec<Rank>) {
        use pic_types::Aabb;
        out.clear();
        if self.bounds.is_empty() {
            return;
        }
        // The rounding margin `RegionIndex` walks with, so that the
        // distance test alone decides membership here too.
        let query = Aabb::new(center, center).inflate(query_reach(radius));
        if !self.bounds.intersects(&query) {
            return;
        }
        let (lo, hi) = self.cell_range(&query);
        for cz in lo[2]..=hi[2] {
            for cy in lo[1]..=hi[1] {
                for cx in lo[0]..=hi[0] {
                    for &ri in &self.buckets[self.cell_id(cx, cy, cz)] {
                        let region = &self.regions[ri as usize];
                        if region.intersects_sphere(center, radius) {
                            out.push(Rank::new(ri));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Straight-line sequential replay used as the determinism oracle and
/// speedup baseline for the parallel paths: no rayon, no chunking, no
/// channels — one thread walks samples in order querying a
/// [`BaselineRegionIndex`] (the pre-optimization bucket grid with
/// per-query sort + dedup). Tests assert every adapter of the replay
/// engine equals this exactly.
#[doc(hidden)]
pub fn generate_reference(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<DynamicWorkload> {
    let mapper = cfg.mapping.mapper(mesh, cfg.ranks, cfg.projection_filter)?;
    let mut real = CompMatrix::new(cfg.ranks);
    let mut ghost_recv = CompMatrix::new(cfg.ranks);
    let mut ghost_sent = CompMatrix::new(cfg.ranks);
    let mut bin_counts = Vec::new();
    let mut comm_entries: Vec<Vec<(u32, u32, u32)>> = Vec::new();
    let mut prev_owners: Option<Vec<Rank>> = None;
    for sample in trace.samples() {
        let outcome = mapper.assign(&sample.positions);
        let mut r = vec![0u32; cfg.ranks];
        for rank in &outcome.ranks {
            r[rank.index()] += 1;
        }
        let mut recv = vec![0u32; cfg.ranks];
        let mut sent = vec![0u32; cfg.ranks];
        if cfg.compute_ghosts {
            let index = BaselineRegionIndex::build(&outcome.rank_regions);
            let mut touched = Vec::new();
            for (i, &p) in sample.positions.iter().enumerate() {
                index.ranks_touching_sphere(p, cfg.projection_filter, &mut touched);
                let home = outcome.ranks[i];
                for &t in &touched {
                    if t != home {
                        recv[t.index()] += 1;
                        sent[home.index()] += 1;
                    }
                }
            }
        }
        real.push_sample(&r);
        ghost_recv.push_sample(&recv);
        ghost_sent.push_sample(&sent);
        bin_counts.push(outcome.bin_count);
        comm_entries.push(match &prev_owners {
            Some(prev) => migration_pairs_sorted(prev, &outcome.ranks),
            None => Vec::new(),
        });
        prev_owners = Some(outcome.ranks);
    }
    Ok(DynamicWorkload {
        ranks: cfg.ranks,
        iterations: trace.iterations(),
        real,
        ghost_recv,
        ghost_sent,
        comm: CommMatrix {
            entries: comm_entries,
        },
        bin_counts,
    })
}

/// `migration_pairs` as it was before it radix-sorted the moves, kept
/// verbatim so that [`generate_reference`] diffs ownership independently
/// of the production diff: one comparison sort of `(from, to)` pairs.
pub fn migration_pairs_sorted(prev: &[Rank], cur: &[Rank]) -> Vec<(u32, u32, u32)> {
    assert_eq!(prev.len(), cur.len(), "ownership snapshots must align");
    let mut moves: Vec<(u32, u32)> = prev
        .iter()
        .zip(cur)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.0, b.0))
        .collect();
    moves.sort_unstable();
    let mut out: Vec<(u32, u32, u32)> = Vec::new();
    for (from, to) in moves {
        match out.last_mut() {
            Some(last) if last.0 == from && last.1 == to => last.2 += 1,
            _ => out.push((from, to, 1)),
        }
    }
    out
}
