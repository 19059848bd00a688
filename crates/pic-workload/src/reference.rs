//! Reference implementations the production engine is checked against.
//!
//! Nothing here runs on a production path. The sequential replay
//! [`generate_reference`] over the pre-optimization
//! [`BaselineRegionIndex`] is the determinism oracle of every proptest;
//! the scalar chunked kernels [`ghost_counts_chunked`] and
//! [`multi_ghost_chunked`] are what `tests/soa_kernels.rs` compares the
//! SoA lane kernels with; [`migration_pairs_sorted`] is the comparison-sort
//! diff the radix-sorted `migration_pairs` replaced.

use crate::generator::{self, DynamicWorkload, WorkloadConfig, GHOST_CHUNK};
use crate::matrices::{CommMatrix, CompMatrix};
use pic_grid::ElementMesh;
use pic_mapping::region_index::query_reach;
use pic_mapping::{RegionIndex, RegionQueryScratch};
use pic_trace::ParticleTrace;
use pic_types::{Rank, Result, Vec3};
use rayon::prelude::*;

/// Intra-sample parallel ghost counting.
///
/// Splits the particle array into [`GHOST_CHUNK`]-sized chunks processed in
/// parallel. Each chunk owns a [`RegionQueryScratch`] reused across all its
/// sphere queries — the epoch-stamp dedup in
/// [`RegionIndex::for_each_rank_touching_sphere`] replaces the old
/// per-query `sort_unstable` + `dedup`, so the steady-state query loop
/// performs no heap allocation. Chunk partials are dense `u32` histograms
/// merged by elementwise addition, which is order-independent, so the
/// result is bit-identical to a straight-line sequential replay regardless
/// of scheduling.
#[doc(hidden)] // scalar reference kernel, exposed for benches and equivalence tests
pub fn ghost_counts_chunked(
    positions: &[pic_types::Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    radius: f64,
    ranks: usize,
) -> (Vec<u32>, Vec<u32>) {
    let chunks = positions.len().div_ceil(GHOST_CHUNK);
    if chunks <= 1 {
        let mut recv = vec![0u32; ranks];
        let mut sent = vec![0u32; ranks];
        let mut scratch = RegionQueryScratch::new();
        ghost_count_span(
            positions,
            owners,
            index,
            radius,
            &mut scratch,
            &mut recv,
            &mut sent,
        );
        return (recv, sent);
    }
    let partials: Vec<(Vec<u32>, Vec<u32>)> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * GHOST_CHUNK;
            let hi = (lo + GHOST_CHUNK).min(positions.len());
            let mut recv = vec![0u32; ranks];
            let mut sent = vec![0u32; ranks];
            let mut scratch = RegionQueryScratch::new();
            ghost_count_span(
                &positions[lo..hi],
                &owners[lo..hi],
                index,
                radius,
                &mut scratch,
                &mut recv,
                &mut sent,
            );
            (recv, sent)
        })
        .collect();
    let mut ghost_recv = vec![0u32; ranks];
    let mut ghost_sent = vec![0u32; ranks];
    for (recv, sent) in &partials {
        for (acc, v) in ghost_recv.iter_mut().zip(recv) {
            *acc += v;
        }
        for (acc, v) in ghost_sent.iter_mut().zip(sent) {
            *acc += v;
        }
    }
    (ghost_recv, ghost_sent)
}

/// Sequential ghost counting over one aligned span of particles.
#[inline]
fn ghost_count_span(
    positions: &[pic_types::Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    radius: f64,
    scratch: &mut RegionQueryScratch,
    recv: &mut [u32],
    sent: &mut [u32],
) {
    for (&p, &home) in positions.iter().zip(owners) {
        let mut ghost_copies = 0u32;
        index.for_each_rank_touching_sphere(p, radius, scratch, |t| {
            if t != home {
                recv[t.index()] += 1;
                ghost_copies += 1;
            }
        });
        // One write per particle instead of one per touched rank; the sum
        // is identical, so outputs stay bit-equal to the reference.
        sent[home.index()] += ghost_copies;
    }
}

/// The pre-optimization region index: per-cell `Vec<Vec<u32>>` buckets
/// over a clone of the full regions slice, with per-query collect +
/// `sort_unstable` + `dedup`. Its grid is coarser than [`RegionIndex`]'s,
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

/// Chunked multi-radius ghost kernel: same chunk geometry and
/// order-independent histogram merge as the single-radius
/// `ghost_counts_chunked`, but each particle's candidate set is gathered
/// once at `r_max` and counted once at its *first* (smallest) containing
/// radius; suffix sums then recover the per-radius histograms. The counts
/// are integers, so the regrouping is bit-identical to filtering every
/// radius independently.
#[doc(hidden)] // scalar reference kernel, exposed for benches and equivalence tests
pub fn multi_ghost_chunked(
    positions: &[Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    r_max: f64,
    rr: &[f64],
    ranks: usize,
) -> Vec<(Vec<u32>, Vec<u32>)> {
    // First-inclusion counting needs the radii ascending; slot order is
    // arbitrary, so compute in sorted order and un-permute at the end.
    let mut order: Vec<usize> = (0..rr.len()).collect();
    order.sort_by(|&a, &b| rr[a].total_cmp(&rr[b]));
    let sorted_rr: Vec<f64> = order.iter().map(|&i| rr[i]).collect();
    let fresh = || -> Vec<(Vec<u32>, Vec<u32>)> {
        rr.iter()
            .map(|_| (vec![0u32; ranks], vec![0u32; ranks]))
            .collect()
    };
    let chunks = positions.len().div_ceil(generator::GHOST_CHUNK);
    let mut merged = if chunks <= 1 {
        let mut partial = fresh();
        multi_ghost_span(
            positions,
            owners,
            index,
            r_max,
            &sorted_rr,
            &mut RegionQueryScratch::new(),
            &mut partial,
        );
        partial
    } else {
        let partials: Vec<Vec<(Vec<u32>, Vec<u32>)>> = (0..chunks)
            .into_par_iter()
            .map(|c| {
                let lo = c * generator::GHOST_CHUNK;
                let hi = (lo + generator::GHOST_CHUNK).min(positions.len());
                let mut partial = fresh();
                multi_ghost_span(
                    &positions[lo..hi],
                    &owners[lo..hi],
                    index,
                    r_max,
                    &sorted_rr,
                    &mut RegionQueryScratch::new(),
                    &mut partial,
                );
                partial
            })
            .collect();
        let mut merged = fresh();
        for partial in &partials {
            for (acc, p) in merged.iter_mut().zip(partial) {
                for (a, v) in acc.0.iter_mut().zip(&p.0) {
                    *a += v;
                }
                for (a, v) in acc.1.iter_mut().zip(&p.1) {
                    *a += v;
                }
            }
        }
        merged
    };
    let mut out = fresh();
    for (pos, &slot) in order.iter().enumerate() {
        out[slot] = std::mem::take(&mut merged[pos]);
    }
    out
}

/// Sequential multi-radius counting over one aligned span, `rr_sorted`
/// ascending: each candidate is tallied once at the first radius that
/// contains it, and a suffix pass completes the larger radii. Returns
/// histograms in `rr_sorted` order.
#[inline]
fn multi_ghost_span(
    positions: &[Vec3],
    owners: &[Rank],
    index: &RegionIndex,
    r_max: f64,
    rr_sorted: &[f64],
    scratch: &mut RegionQueryScratch,
    partial: &mut [(Vec<u32>, Vec<u32>)],
) {
    let nr = rr_sorted.len();
    let mut count_first = vec![0u32; nr];
    for (&p, &home) in positions.iter().zip(owners) {
        count_first.iter_mut().for_each(|c| *c = 0);
        // Every candidate satisfies d2 ≤ r_max² (the query's own visit
        // condition), and r_max is the largest shared radius, so the
        // first-inclusion scan always terminates inside the slice.
        index.for_each_candidate_in_sphere(p, r_max, scratch, |t, d2| {
            if t == home {
                return;
            }
            let mut j = 0;
            while d2 > rr_sorted[j] {
                j += 1;
            }
            partial[j].0[t.index()] += 1;
            count_first[j] += 1;
        });
        let mut copies = 0u32;
        for (j, &c) in count_first.iter().enumerate() {
            copies += c;
            partial[j].1[home.index()] += copies;
        }
    }
    // Suffix-complete the recv histograms: a region first touched at
    // radius j is a ghost source at every radius ≥ j.
    for j in 1..nr {
        let (lo, hi) = partial.split_at_mut(j);
        for (a, &v) in hi[0].0.iter_mut().zip(&lo[j - 1].0) {
            *a += v;
        }
    }
}
