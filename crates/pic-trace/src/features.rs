//! Per-sample feature vectors for phase clustering.
//!
//! SimPoint-style trace reduction needs a compact signature of "what the
//! workload drivers are doing" at each sample, cheap enough to compute
//! for every sample of a long trace: one pass over the per-sample tight
//! boxes and one in-order read that bins every particle, orders of
//! magnitude cheaper than replaying the mapping algorithm. A compact
//! trace on a 16-bit grid is binned in the quantised domain: per axis, a
//! table gives each of the 65 536 grid values its reference cell, so a
//! particle is three lookups and no position is built. Four ingredients,
//! all derived from the quantities the Dynamic Workload Generator
//! actually responds to:
//!
//! * a **normalized density histogram** over a fixed reference binning
//!   (the tight bounding box of the whole trace, `bins_per_axis`³ cells)
//!   — the spatial load distribution every mapping algorithm partitions;
//! * the **migration rate** — the fraction of particles that changed
//!   reference bin since the previous sample, a proxy for communication
//!   volume;
//! * the **bin-occupancy spread** — total-variation distance of the
//!   histogram from uniform, a proxy for load imbalance;
//! * the **boundary-volume delta** — relative growth of the per-sample
//!   tight bounding box, the driver of bin-count evolution (Fig 6).
//!
//! Two samples with close feature vectors impose near-identical per-rank
//! workloads under any fixed configuration, which is what makes a
//! cluster representative's replay stand in for its whole cluster.

use crate::compact::Quantizer;
use crate::trace::ParticleTrace;
use pic_types::{pool, Aabb, Vec3};
use rayon::prelude::*;

/// Configuration for [`feature_vectors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Cells per axis of the reference density binning (the histogram has
    /// `bins_per_axis`³ entries). Must be 1 to 1625, so that every cell
    /// has a 32-bit id.
    pub bins_per_axis: usize,
}

impl Default for FeatureConfig {
    fn default() -> FeatureConfig {
        FeatureConfig { bins_per_axis: 4 }
    }
}

impl FeatureConfig {
    /// Dimensionality of the produced vectors: the histogram plus the
    /// three scalar features.
    ///
    /// # Panics
    /// Panics unless `bins_per_axis` is 1 to 1625, as [`feature_vectors`].
    pub fn dim(&self) -> usize {
        self.cells() + 3
    }

    /// The `bins_per_axis`³ reference cells, each with a 32-bit id.
    fn cells(&self) -> usize {
        let b = self.bins_per_axis;
        let cells = b
            .checked_pow(3)
            .filter(|&c| c > 0 && c <= u32::MAX as usize);
        cells.unwrap_or_else(|| {
            panic!("feature bins per axis must be 1 to 1625 (cell ids are 32-bit), got {b}")
        })
    }
}

/// Samples binned per parallel task of [`feature_vectors`]. Each task
/// re-bins the sample before its block to seed the migration count, so
/// the redundant work is one sample in `FEATURE_BLOCK`.
const FEATURE_BLOCK: usize = 32;

/// The fixed reference binning: `b`³ cells over `bounds`, so the same
/// spatial cell means the same thing at every sample.
struct RefBins {
    lo: [f64; 3],
    ext: [f64; 3],
    b: usize,
}

impl RefBins {
    fn new(bounds: &Aabb, b: usize) -> RefBins {
        RefBins {
            lo: [bounds.min.x, bounds.min.y, bounds.min.z],
            ext: [
                bounds.max.x - bounds.min.x,
                bounds.max.y - bounds.min.y,
                bounds.max.z - bounds.min.z,
            ],
            b,
        }
    }

    /// Reference cell of coordinate `x` along `axis` (clamped).
    #[inline]
    fn cell(&self, x: f64, axis: usize) -> u32 {
        if self.ext[axis] > 0.0 {
            (((x - self.lo[axis]) / self.ext[axis] * self.b as f64) as usize).min(self.b - 1) as u32
        } else {
            0
        }
    }

    /// Reference-bin index of a position (clamped).
    #[inline]
    fn bin_of(&self, p: Vec3) -> u32 {
        let b = self.b as u32;
        (self.cell(p.x, 0) * b + self.cell(p.y, 1)) * b + self.cell(p.z, 2)
    }

    /// Bin every position of one sample into `bins`, counting cell
    /// occupancy into `counts` (zeroed first).
    fn bin_sample(&self, positions: &[Vec3], bins: &mut [u32], counts: &mut [u32]) {
        counts.fill(0);
        for (slot, &p) in bins.iter_mut().zip(positions) {
            let cell = self.bin_of(p);
            *slot = cell;
            counts[cell as usize] += 1;
        }
    }
}

/// [`RefBins`] tabulated over a 16-bit grid: per axis, each grid value's
/// share of the reference-bin index (`cx·b²`, `cy·b`, `cz`), so binning a
/// particle is three lookups and two adds. Each entry is
/// [`RefBins::cell`] of the exact `f64` the trace dequantizes that value
/// to, so the index equals [`RefBins::bin_of`] of the dequantized position
/// bit for bit. `b ≤ 1625` keeps every sum below `b³ ≤ u32::MAX`.
struct CellTables {
    terms: Box<[u32]>,
}

impl CellTables {
    fn new(quant: &Quantizer, refbins: &RefBins) -> CellTables {
        let b = refbins.b as u32;
        let scale = [b * b, b, 1];
        let terms = (0..3)
            .flat_map(|axis| {
                (0..=u16::MAX as u32)
                    .map(move |q| refbins.cell(quant.dequant(axis, q), axis) * scale[axis])
            })
            .collect();
        CellTables { terms }
    }

    /// [`RefBins::bin_sample`] over one frame's grid coordinates.
    fn bin_frame(&self, coords: &[u16], bins: &mut [u32], counts: &mut [u32]) {
        let axis = |a: usize| -> &[u32; 1 << 16] {
            self.terms[a << 16..(a + 1) << 16]
                .try_into()
                .expect("65 536 entries per axis")
        };
        let (x, y, z) = (axis(0), axis(1), axis(2));
        counts.fill(0);
        for (slot, q) in bins.iter_mut().zip(coords.chunks_exact(3)) {
            let cell = x[q[0] as usize] + y[q[1] as usize] + z[q[2] as usize];
            *slot = cell;
            counts[cell as usize] += 1;
        }
    }
}

/// One feature vector per sample, in sample order.
///
/// Deterministic for any thread count: the per-sample tight boxes (the
/// reference binning and the boundary volumes both derive from them) come
/// first, then a pass bins the particles in parallel over contiguous
/// blocks of `FEATURE_BLOCK` samples that each read their samples in
/// order, and every value depends only on its own sample and its
/// predecessor. A 16-bit encoded trace is binned on its grid coordinates
/// through one table per axis, without dequantizing a position; other
/// storage bins the positions it reads.
/// Returns an empty vector for an empty trace.
///
/// # Panics
/// Panics unless `bins_per_axis` is 1 to 1625: the `bins_per_axis`³ cell
/// ids are 32-bit.
pub fn feature_vectors(trace: &ParticleTrace, cfg: &FeatureConfig) -> Vec<Vec<f64>> {
    let cells = cfg.cells();
    let t = trace.sample_count();
    if t == 0 {
        return Vec::new();
    }
    let np = trace.particle_count();

    let blocks = t.div_ceil(FEATURE_BLOCK);
    let block_range = |blk: usize| (blk * FEATURE_BLOCK, t.min((blk + 1) * FEATURE_BLOCK));
    let boxes: Vec<Vec<Aabb>> = pool::install(|| {
        (0..blocks)
            .into_par_iter()
            .map(|blk| {
                let (first, end) = block_range(blk);
                trace.bounds_in(first, end)
            })
            .collect()
    });
    let boxes: Vec<Aabb> = boxes.concat();
    let bounds = boxes.iter().fold(Aabb::empty(), |acc, s| acc.union(s));
    let refbins = RefBins::new(&bounds, cfg.bins_per_axis);
    let tables = (trace.grid16_from(0)).map(|c| CellTables::new(c.quantizer(), &refbins));
    let volumes: Vec<f64> = boxes.iter().map(Aabb::volume).collect();
    let vol_ref = volumes.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
    let inv_np = if np > 0 { 1.0 / np as f64 } else { 0.0 };
    let uniform = 1.0 / cells as f64;

    // The features of samples `first..end`, `bin_next` binning the next
    // sample of an in-order read that starts at the sample before `first`
    // (at `first` itself for the first block).
    let features = |first: usize, end: usize, bin_next: &mut dyn FnMut(&mut [u32], &mut [u32])| {
        let mut counts = vec![0u32; cells];
        let mut bins = vec![0u32; np];
        let mut prev_bins = vec![0u32; np];
        if first > 0 {
            bin_next(&mut prev_bins, &mut counts);
        }
        (first..end)
            .map(|k| {
                bin_next(&mut bins, &mut counts);
                let mut v = Vec::with_capacity(cells + 3);
                v.extend(counts.iter().map(|&c| c as f64 * inv_np));
                // Migration rate: fraction of particles whose reference bin
                // changed since the previous sample (0 for the first).
                let migration = if k == 0 {
                    0.0
                } else {
                    bins.iter().zip(&prev_bins).filter(|(a, b)| a != b).count() as f64 * inv_np
                };
                v.push(migration);
                // Occupancy spread: total-variation distance from the
                // uniform histogram, in [0, 1).
                let spread = counts
                    .iter()
                    .map(|&c| (c as f64 * inv_np - uniform).abs())
                    .sum::<f64>()
                    * 0.5;
                v.push(spread);
                // Boundary-volume delta relative to the largest boundary
                // volume.
                let dv = if k == 0 {
                    0.0
                } else {
                    (volumes[k] - volumes[k - 1]) / vol_ref
                };
                v.push(dv);
                std::mem::swap(&mut prev_bins, &mut bins);
                v
            })
            .collect::<Vec<_>>()
    };
    let block = |blk: usize| -> Vec<Vec<f64>> {
        let (first, end) = block_range(blk);
        let from = first.saturating_sub(1);
        match (&tables, trace.grid16_from(from)) {
            (Some(tables), Some(mut frames)) => features(first, end, &mut |bins, counts| {
                frames.advance().expect("a frame of the block");
                tables.bin_frame(frames.coords(), bins, counts);
            }),
            _ => {
                let mut samples = trace.samples_from(from);
                features(first, end, &mut |bins, counts| {
                    let sample = samples.next().expect("a sample of the block");
                    refbins.bin_sample(&sample.positions, bins, counts);
                })
            }
        }
    };
    let blocks: Vec<Vec<Vec<f64>>> =
        pool::install(|| (0..blocks).into_par_iter().map(block).collect());
    blocks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceMeta;

    fn two_phase_trace() -> ParticleTrace {
        // Phase A: particles packed into one corner. Phase B: spread out.
        let meta = TraceMeta::new(8, 10, Aabb::unit(), "phases");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..6 {
            let spread = if k < 3 { 0.05 } else { 0.9 };
            let positions = (0..8)
                .map(|i| {
                    let f = i as f64 / 8.0;
                    Vec3::new(0.05 + spread * f, 0.05 + spread * f, 0.05)
                })
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    #[test]
    fn dimensions_and_normalization() {
        let tr = two_phase_trace();
        let cfg = FeatureConfig { bins_per_axis: 3 };
        let fv = feature_vectors(&tr, &cfg);
        assert_eq!(fv.len(), 6);
        for v in &fv {
            assert_eq!(v.len(), cfg.dim());
            let hist_sum: f64 = v[..27].iter().sum();
            assert!(
                (hist_sum - 1.0).abs() < 1e-12,
                "histogram sums to {hist_sum}"
            );
            assert!(v.iter().all(|x| x.is_finite()));
        }
        // First sample has no predecessor: migration and volume delta 0.
        assert_eq!(fv[0][27], 0.0);
        assert_eq!(fv[0][29], 0.0);
    }

    #[test]
    fn phases_separate_and_transition_shows_migration() {
        let tr = two_phase_trace();
        let cfg = FeatureConfig::default();
        let fv = feature_vectors(&tr, &cfg);
        let d = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
        };
        // Within-phase distance is tiny, across-phase is large. Sample 3 is
        // the transition (its migration spikes), so compare steady samples.
        let within = d(&fv[0], &fv[1]).max(d(&fv[4], &fv[5]));
        let across = d(&fv[1], &fv[4]);
        assert!(across > 10.0 * within, "across {across} vs within {within}");
        // The phase switch at sample 3 moves particles between bins.
        let dim = cfg.dim();
        let migration_idx = dim - 3;
        assert!(
            fv[3][migration_idx] > 0.5,
            "migration {:?}",
            fv[3][migration_idx]
        );
        assert_eq!(fv[2][migration_idx], 0.0); // static within phase A
    }

    #[test]
    fn empty_trace_yields_no_vectors() {
        let tr = ParticleTrace::new(TraceMeta::new(4, 10, Aabb::unit(), "empty"));
        assert!(feature_vectors(&tr, &FeatureConfig::default()).is_empty());
    }

    #[test]
    fn deterministic_across_calls() {
        let tr = two_phase_trace();
        let cfg = FeatureConfig { bins_per_axis: 5 };
        assert_eq!(feature_vectors(&tr, &cfg), feature_vectors(&tr, &cfg));
    }

    /// The sequential extraction as it stood before the block-parallel
    /// one (three walks over the trace, one `prev_bins` carried through
    /// every sample), kept as the oracle the parallel result must equal
    /// bit for bit under any thread count.
    fn feature_vectors_reference(trace: &ParticleTrace, cfg: &FeatureConfig) -> Vec<Vec<f64>> {
        fn bin_of(p: Vec3, bounds: &Aabb, b: usize) -> u32 {
            let mut idx = 0u32;
            for (x, lo, hi) in [
                (p.x, bounds.min.x, bounds.max.x),
                (p.y, bounds.min.y, bounds.max.y),
                (p.z, bounds.min.z, bounds.max.z),
            ] {
                let ext = hi - lo;
                let cell = if ext > 0.0 {
                    (((x - lo) / ext * b as f64) as usize).min(b - 1)
                } else {
                    0
                };
                idx = idx * b as u32 + cell as u32;
            }
            idx
        }
        let t = trace.sample_count();
        if t == 0 {
            return Vec::new();
        }
        let b = cfg.bins_per_axis;
        let cells = b.pow(3);
        let np = trace.particle_count();
        let bounds =
            crate::stats::boundary_series(trace)
                .into_iter()
                .fold(Aabb::empty(), |acc, s| Aabb {
                    min: Vec3::new(
                        acc.min.x.min(s.min.x),
                        acc.min.y.min(s.min.y),
                        acc.min.z.min(s.min.z),
                    ),
                    max: Vec3::new(
                        acc.max.x.max(s.max.x),
                        acc.max.y.max(s.max.y),
                        acc.max.z.max(s.max.z),
                    ),
                });
        let volumes = crate::stats::boundary_volume_series(trace);
        let vol_ref = volumes.iter().cloned().fold(0.0f64, f64::max).max(1e-300);

        let mut out = Vec::with_capacity(t);
        let mut prev_bins: Vec<u32> = Vec::new();
        let mut counts = vec![0u32; cells];
        let mut bins = vec![0u32; np];
        for (k, s) in trace.samples().enumerate() {
            counts.iter_mut().for_each(|c| *c = 0);
            for (i, &p) in s.positions.iter().enumerate() {
                let cell = bin_of(p, &bounds, b);
                bins[i] = cell;
                counts[cell as usize] += 1;
            }
            let inv_np = if np > 0 { 1.0 / np as f64 } else { 0.0 };
            let mut v = Vec::with_capacity(cells + 3);
            for &c in &counts {
                v.push(c as f64 * inv_np);
            }
            let migration = if k == 0 {
                0.0
            } else {
                bins.iter().zip(&prev_bins).filter(|(a, b)| a != b).count() as f64 * inv_np
            };
            v.push(migration);
            let uniform = 1.0 / cells as f64;
            let spread = counts
                .iter()
                .map(|&c| (c as f64 * inv_np - uniform).abs())
                .sum::<f64>()
                * 0.5;
            v.push(spread);
            let dv = if k == 0 {
                0.0
            } else {
                (volumes[k] - volumes[k - 1]) / vol_ref
            };
            v.push(dv);
            out.push(v);
            std::mem::swap(&mut prev_bins, &mut bins);
            if bins.len() != np {
                bins.resize(np, 0);
            }
        }
        out
    }

    /// Particles on a slow random walk with a jump every eleventh sample,
    /// so migration and the boundary volume move at block edges too.
    fn wandering_trace(np: usize, t: usize, seed: u64) -> ParticleTrace {
        let mut rng = pic_types::rng::SplitMix64::new(seed);
        let mut cur: Vec<Vec3> = (0..np)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * 0.5)
            .collect();
        let mut tr = ParticleTrace::new(TraceMeta::new(np, 10, Aabb::unit(), "wander"));
        for k in 0..t {
            let step = if k % 11 == 10 { 0.3 } else { 0.02 };
            for p in &mut cur {
                let d = Vec3::new(
                    rng.next_range(-step, step),
                    rng.next_range(-step, step),
                    rng.next_range(-step, step),
                );
                *p = (*p + d).clamp(Vec3::ZERO, Vec3::ONE);
            }
            tr.push_positions(cur.clone()).unwrap();
        }
        tr
    }

    #[test]
    fn bit_equal_to_the_sequential_oracle_across_thread_counts() {
        let bits = |fv: &[Vec<f64>]| -> Vec<Vec<u64>> {
            fv.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        // One sample; fewer samples than a block; whole blocks and a
        // partial one; no particles at all.
        for (np, t) in [
            (40, 1),
            (40, 5),
            (25, 2 * FEATURE_BLOCK + 3),
            (0, FEATURE_BLOCK + 1),
        ] {
            let tr = wandering_trace(np, t, 17 + t as u64);
            for bins_per_axis in [2, 4] {
                let cfg = FeatureConfig { bins_per_axis };
                let oracle = bits(&feature_vectors_reference(&tr, &cfg));
                assert_eq!(oracle.len(), t);
                for threads in [1usize, 2, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let run = pool.install(|| feature_vectors(&tr, &cfg));
                    assert_eq!(
                        bits(&run),
                        oracle,
                        "np {np}, T {t}, {bins_per_axis} bins/axis, {threads} thread(s)"
                    );
                }
            }
        }
    }

    /// A compact f32 trace whose z axis has zero extent and whose x and y
    /// span exactly [-3.5, 7.25] × [0.1, 0.7]: particle 0 sits on the far
    /// corner, particle 1 on the near one, and the rest hop between the
    /// cell boundaries of every tested `b` and a random walk.
    fn grid_trace(np: usize, t: usize, seed: u64) -> ParticleTrace {
        let mut rng = pic_types::rng::SplitMix64::new(seed);
        let edges: Vec<f64> = [2.0f64, 3.0, 4.0, 7.0, 300.0]
            .iter()
            .flat_map(|&b| (0..=b as usize).map(move |j| j as f64 / b))
            .collect();
        let domain = Aabb {
            min: Vec3::new(-3.5, 0.1, 0.0),
            max: Vec3::new(7.25, 0.7, 1.0),
        };
        let mut tr = ParticleTrace::new(TraceMeta::new(np, 10, domain, "grid"));
        let mut cur: Vec<Vec3> = (0..np).map(|_| Vec3::new(0.5, 0.5, 0.25)).collect();
        for k in 0..t {
            for (i, p) in cur.iter_mut().enumerate() {
                *p = match i {
                    0 => Vec3::new(1.0, 1.0, 0.25),
                    1 => Vec3::new(0.0, 0.0, 0.25),
                    _ if i % 3 == 0 || k % 5 == 4 => {
                        let pick = |r: &mut pic_types::rng::SplitMix64| {
                            edges[r.next_below(edges.len() as u64) as usize]
                        };
                        Vec3::new(pick(&mut rng), pick(&mut rng), 0.25)
                    }
                    _ => {
                        let d = Vec3::new(
                            rng.next_range(-0.02, 0.02),
                            rng.next_range(-0.02, 0.02),
                            0.0,
                        );
                        (*p + d).clamp(Vec3::ZERO, Vec3::ONE)
                    }
                };
            }
            // Onto a box whose x extent is not a power of two, so a cell
            // computed from anything but the dequantized position drifts.
            let placed = (cur.iter())
                .map(|p| Vec3::new(-3.5 + 10.75 * p.x, 0.1 + 0.6 * p.y, p.z))
                .collect();
            tr.push_positions(placed).unwrap();
        }
        let bytes = crate::compact::encode_compact(&tr, crate::codec::Precision::F32).unwrap();
        crate::codec::decode_trace(&bytes).unwrap()
    }

    #[test]
    fn grid_features_bit_equal_to_the_sequential_oracle_across_thread_counts() {
        let bits = |fv: &[Vec<f64>]| -> Vec<Vec<u64>> {
            fv.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let spacing = crate::trace::KEYFRAME_SPACING;
        // Across keyframe and block edges; no particles besides the two
        // corners.
        for (np, t) in [
            (40, 1),
            (40, spacing - 1),
            (40, spacing + 1),
            (30, FEATURE_BLOCK),
            (30, FEATURE_BLOCK + 1),
            (25, 2 * FEATURE_BLOCK + spacing + 3),
            (2, FEATURE_BLOCK + 1),
        ] {
            let tr = grid_trace(np, t, 29 + t as u64);
            assert_eq!(tr.storage(), "encoded u16");
            for bins_per_axis in [1, 2, 3, 4, 7] {
                let cfg = FeatureConfig { bins_per_axis };
                let oracle = bits(&feature_vectors_reference(&tr, &cfg));
                assert_eq!(oracle.len(), t);
                for threads in [1usize, 2, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let run = pool.install(|| feature_vectors(&tr, &cfg));
                    assert_eq!(
                        bits(&run),
                        oracle,
                        "np {np}, T {t}, {bins_per_axis} bins/axis, {threads} thread(s)"
                    );
                }
            }
        }
    }

    /// The cell tables bin every grid value as [`RefBins::bin_of`] bins its
    /// dequantized position, up to the largest binning 32-bit ids allow
    /// (a histogram of 300³ or 1625³ cells per sample is too large to
    /// hold against the oracle). One frame visits all 65 536 values of
    /// each axis, under boxes with a degenerate axis, a negative corner and
    /// extents that are not powers of two.
    #[test]
    fn cell_tables_bin_every_grid_value_like_the_positions() {
        let coords: Vec<u16> = (0..=u16::MAX)
            .flat_map(|q| [q, q.wrapping_mul(7919), u16::MAX - q])
            .collect();
        for (lo, hi) in [
            (Vec3::ZERO, Vec3::ONE),
            (
                Vec3::new(-3.5, 0.25, 2.0),
                Vec3::new(7.25, 0.25, 2.0 + 1e-9),
            ),
            (Vec3::new(0.1, -1e-3, 1e5), Vec3::new(0.7, 1e-3, 3e5)),
        ] {
            let quant = crate::compact::Quantizer::new(&Aabb { min: lo, max: hi }, 2);
            let positions = quant.dequant_frame(&coords);
            let bounds = Aabb::from_points(positions.iter().copied());
            let n = coords.len() / 3;
            for b in [1, 2, 3, 7, 300, 1625] {
                let refbins = RefBins::new(&bounds, b);
                let tables = CellTables::new(&quant, &refbins);
                let want: Vec<u32> = positions.iter().map(|&p| refbins.bin_of(p)).collect();
                let term = |a: usize, q: u16| tables.terms[(a << 16) + q as usize];
                let got: Vec<u32> = (coords.chunks_exact(3))
                    .map(|q| term(0, q[0]) + term(1, q[1]) + term(2, q[2]))
                    .collect();
                assert_eq!(got, want, "box {lo:?}..{hi:?}, {b} bins/axis");
                let top = (b as u32 - 1) * (b as u32).pow(2);
                assert_eq!(tables.terms[..1 << 16].iter().max(), Some(&top));
                if b <= 7 {
                    let (mut bins, mut counts) = (vec![0u32; n], vec![0u32; b * b * b]);
                    refbins.bin_sample(&positions, &mut bins, &mut counts);
                    let want_counts = counts.clone();
                    tables.bin_frame(&coords, &mut bins, &mut counts);
                    assert_eq!((bins, counts), (want, want_counts), "{b} bins/axis");
                }
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "feature bins per axis must be 1 to 1625 (cell ids are 32-bit), got 1626"
    )]
    fn bins_past_32_bit_cell_ids_are_refused() {
        feature_vectors(
            &two_phase_trace(),
            &FeatureConfig {
                bins_per_axis: 1626,
            },
        );
    }

    #[test]
    #[should_panic(
        expected = "feature bins per axis must be 1 to 1625 (cell ids are 32-bit), got 0"
    )]
    fn zero_bins_are_refused() {
        feature_vectors(&two_phase_trace(), &FeatureConfig { bins_per_axis: 0 });
    }

    #[test]
    #[should_panic(expected = "got 3000000")]
    fn dim_refuses_bins_past_32_bit_cell_ids() {
        FeatureConfig {
            bins_per_axis: 3_000_000,
        }
        .dim();
    }
}
