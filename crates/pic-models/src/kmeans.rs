//! Deterministic seeded k-means for SimPoint-style phase clustering.
//!
//! Clusters per-sample feature vectors (see `pic-trace::features`) so a
//! long trace can be replayed through a handful of cluster representatives.
//! Everything here is bit-reproducible for a fixed seed, **independent of
//! thread count**: initialization (k-means++) is sequential, the parallel
//! assignment step is an order-preserving map (ties broken toward the
//! lowest centroid index), and centroid updates accumulate sequentially in
//! point order.
//!
//! The points are one row-major `n × d` matrix. The nearest-centroid
//! search starts from each point's cluster of the previous round and sums
//! squared differences in dimension order, giving up on a centroid once
//! the partial sum shows it cannot win. A distance that is completed has
//! the bits of a plain sum, and a centroid given up on could not have
//! won, so the search answers exactly what a scan of every centroid does.

use pic_types::rng::{derive_seed, SplitMix64};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration for [`fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters. Clamped to the point count.
    pub k: usize,
    /// Master seed for the k-means++ initialization.
    pub seed: u64,
    /// Iteration cap (the loop also stops when the assignment is stable).
    pub max_iters: usize,
    /// Independent restarts (derived seeds); the lowest-inertia run wins,
    /// first on ties. Lloyd's algorithm only finds local optima — e.g. a
    /// pair of far outliers can capture a centroid and force two real
    /// clusters to merge — and restarts are the standard hedge.
    #[serde(default = "default_n_init")]
    pub n_init: usize,
}

fn default_n_init() -> usize {
    4
}

impl Default for KMeansConfig {
    fn default() -> KMeansConfig {
        KMeansConfig {
            k: 8,
            seed: 0x5eed_cafe,
            max_iters: 64,
            n_init: default_n_init(),
        }
    }
}

/// A fitted clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    /// Cluster centers, `k` vectors of the input dimensionality.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index of each input point, in input order.
    pub assignment: Vec<usize>,
    /// Sum of squared distances from each point to its centroid.
    pub inertia: f64,
}

#[inline]
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Dimensions summed between two checks of [`dist2_below`] against its
/// bound.
const PRUNE_STRIDE: usize = 8;

/// [`dist2`] of `a` and `b` if it can beat `bound`: below it, or equal to
/// it where `ties_win`. `None` once a partial sum shows it cannot. The
/// squares are summed in dimension order from `-0.0`, where
/// [`Iterator::sum`] starts, so a completed distance has [`dist2`]'s bits.
/// Squares are never negative, so a partial sum never exceeds the full
/// one: giving up loses nothing. A NaN partial sum compares false and runs
/// to the end, as the full scan would.
#[inline]
fn dist2_below(a: &[f64], b: &[f64], bound: f64, ties_win: bool) -> Option<f64> {
    let mut acc = -0.0;
    for (ca, cb) in a.chunks(PRUNE_STRIDE).zip(b.chunks(PRUNE_STRIDE)) {
        for (x, y) in ca.iter().zip(cb) {
            let d = x - y;
            acc += d * d;
        }
        if acc > bound || (acc == bound && !ties_win) {
            return None;
        }
    }
    Some(acc)
}

/// Points of one dimensionality as a row-major `n × d` matrix.
struct Matrix {
    data: Vec<f64>,
    n: usize,
    d: usize,
}

impl Matrix {
    fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let d = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|p| p.len() == d),
            "points must share one dimensionality"
        );
        Matrix {
            data: rows.concat(),
            n: rows.len(),
            d,
        }
    }

    fn push(&mut self, row: &[f64]) {
        self.data.extend_from_slice(row);
        self.n += 1;
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.d..(i + 1) * self.d]
    }

    fn rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.n).map(|i| self.row(i))
    }
}

/// Nearest centroid by squared distance; ties go to the lowest index so
/// the result does not depend on evaluation order. The same answer, bit
/// for bit, as a scan of every centroid in index order that keeps the
/// first strictly nearer one (starting from index 0 at infinity): the
/// search starts from `prev` (the point's cluster in the last round, a
/// likely winner), then gives up on each other centroid as soon as
/// [`dist2_below`] shows it cannot win.
#[inline]
fn nearest(point: &[f64], centroids: &Matrix, prev: usize) -> (usize, f64) {
    let first = if prev < centroids.n { prev } else { 0 };
    let (mut best, mut best_d) = (0usize, f64::INFINITY);
    let d = dist2(point, centroids.row(first));
    if d < best_d {
        (best, best_d) = (first, d);
    }
    for j in (0..centroids.n).filter(|&j| j != first) {
        if let Some(d) = dist2_below(point, centroids.row(j), best_d, j < best) {
            if d < best_d || (d == best_d && j < best) {
                (best, best_d) = (j, d);
            }
        }
    }
    (best, best_d)
}

/// Every point's [`nearest`] centroid, searched from its cluster in
/// `prev`: an order-preserving parallel map, so the result is identical
/// for any worker count.
fn assign(points: &Matrix, centroids: &Matrix, prev: &[usize]) -> Vec<(usize, f64)> {
    pic_types::pool::install(|| {
        (0..points.n)
            .into_par_iter()
            .map(|i| nearest(points.row(i), centroids, prev[i]))
            .collect()
    })
}

/// k-means++ seeding: the first center uniform, each further center drawn
/// with probability proportional to squared distance from the chosen set.
/// Sequential by construction.
fn init_plus_plus(points: &Matrix, k: usize, seed: u64) -> Matrix {
    let n = points.n;
    let mut rng = SplitMix64::new(seed);
    let mut centroids = Matrix {
        data: Vec::with_capacity(k * points.d),
        n: 0,
        d: points.d,
    };
    centroids.push(points.row(rng.next_below(n as u64) as usize));
    let mut d2: Vec<f64> = points.rows().map(|p| dist2(p, centroids.row(0))).collect();
    while centroids.n < k {
        let total: f64 = d2.iter().sum();
        let next = if total > 0.0 {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        } else {
            // all points coincide with a chosen center: any pick works
            rng.next_below(n as u64) as usize
        };
        let c = points.row(next);
        // A distance not below `d2[i]` leaves it as it is, so its sum may
        // stop as soon as it reaches `d2[i]`.
        for (slot, p) in d2.iter_mut().zip(points.rows()) {
            if let Some(d) = dist2_below(p, c, *slot, false) {
                *slot = slot.min(d);
            }
        }
        centroids.push(c);
    }
    centroids
}

/// Fit k-means over `points` (each a vector of the same dimensionality).
///
/// Deterministic for a fixed seed across thread counts and runs: restarts
/// run sequentially on derived seeds and the lowest-inertia result wins
/// (first on ties). Empty clusters are reseeded to the point farthest
/// from its current centroid. Returns an empty clustering for an empty
/// input.
pub fn fit(points: &[Vec<f64>], cfg: &KMeansConfig) -> KMeans {
    if points.is_empty() || cfg.k == 0 {
        return KMeans {
            centroids: Vec::new(),
            assignment: Vec::new(),
            inertia: 0.0,
        };
    }
    fit_matrix(&Matrix::from_rows(points), cfg)
}

/// [`fit`] over a non-empty matrix, for a non-zero `k`.
fn fit_matrix(points: &Matrix, cfg: &KMeansConfig) -> KMeans {
    let mut best: Option<KMeans> = None;
    for r in 0..cfg.n_init.max(1) as u64 {
        let run = fit_once(points, cfg, derive_seed(cfg.seed, r));
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    best.expect("at least one restart ran")
}

/// One Lloyd's run from a single k-means++ initialization.
fn fit_once(points: &Matrix, cfg: &KMeansConfig, seed: u64) -> KMeans {
    let (n, dim) = (points.n, points.d);
    let k = cfg.k.min(n);
    let mut centroids = init_plus_plus(points, k, seed);
    let mut assignment = vec![usize::MAX; n];
    for iter in 0..cfg.max_iters.max(1) {
        let next = assign(points, &centroids, &assignment);
        let changed = next.iter().zip(&assignment).any(|((j, _), old)| j != old);
        for (slot, (j, _)) in assignment.iter_mut().zip(&next) {
            *slot = *j;
        }
        if !changed && iter > 0 {
            break;
        }
        // Sequential centroid update in point order.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (p, &(j, _)) in points.rows().zip(&next) {
            counts[j] += 1;
            for (s, x) in sums[j * dim..(j + 1) * dim].iter_mut().zip(p) {
                *s += x;
            }
        }
        for j in 0..k {
            if counts[j] > 0 {
                let inv = 1.0 / counts[j] as f64;
                let sum = &sums[j * dim..(j + 1) * dim];
                for (c, s) in centroids.row_mut(j).iter_mut().zip(sum) {
                    *c = s * inv;
                }
            } else {
                // Empty cluster: reseed to the point farthest from its
                // assigned centroid (lowest index on ties).
                let far = next
                    .iter()
                    .enumerate()
                    .max_by(|(ia, (_, da)), (ib, (_, db))| {
                        da.partial_cmp(db)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(ib.cmp(ia))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids.row_mut(j).copy_from_slice(points.row(far));
            }
        }
    }
    // Final assignment against the final centroids.
    let finals = assign(points, &centroids, &assignment);
    let inertia = finals.iter().map(|&(_, d)| d).sum();
    KMeans {
        centroids: centroids.rows().map(<[f64]>::to_vec).collect(),
        assignment: finals.into_iter().map(|(j, _)| j).collect(),
        inertia,
    }
}

impl KMeans {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// The member of each nonempty cluster closest to its centroid (the
    /// cluster *representative*), as an index into `points`. Empty
    /// clusters are skipped; the result pairs `(cluster, point_index)` in
    /// ascending cluster order.
    pub fn representatives(&self, points: &[Vec<f64>]) -> Vec<(usize, usize)> {
        let mut best: Vec<Option<(usize, f64)>> = vec![None; self.k()];
        for (i, (p, &j)) in points.iter().zip(&self.assignment).enumerate() {
            let d = dist2(p, &self.centroids[j]);
            match best[j] {
                Some((_, bd)) if bd <= d => {}
                _ => best[j] = Some((i, d)),
            }
        }
        best.iter()
            .enumerate()
            .filter_map(|(j, b)| b.map(|(i, _)| (j, i)))
            .collect()
    }
}

/// Fit k-means for every `k in 1..=k_max` and pick `K` the SimPoint way:
/// score each clustering with a BIC-style criterion
/// `-(n·ln(inertia/n) + k·d·ln(n))` (higher is better — the likelihood
/// term rewards tight clusters, the penalty charges `d` parameters per
/// extra centroid), then keep the **smallest** `k` whose score reaches 90%
/// of the best-to-worst spread. Taking the argmax instead would over-split
/// (more clusters keep shaving inertia); the spread threshold finds the
/// knee. Each `k` gets an independent seed stream derived from `seed`.
/// A `k_max` of 0 counts as 1.
pub fn select_k(points: &[Vec<f64>], k_max: usize, seed: u64, max_iters: usize) -> KMeans {
    let n = points.len();
    if n == 0 {
        return fit(points, &KMeansConfig::default());
    }
    let matrix = Matrix::from_rows(points);
    let dim = matrix.d.max(1);
    // The candidate fits are independent, so they share one ordered
    // parallel map; each fit's inner assignment step inherits what is left
    // of the budget instead of spawning threads per Lloyd iteration.
    let scored: Vec<(f64, KMeans)> = pic_types::pool::install(|| {
        (1..k_max.clamp(1, n) + 1)
            .into_par_iter()
            .map(|k| {
                let cfg = KMeansConfig {
                    k,
                    seed: derive_seed(seed, k as u64),
                    max_iters,
                    ..KMeansConfig::default()
                };
                let fitted = fit_matrix(&matrix, &cfg);
                let mean_inertia = (fitted.inertia / n as f64).max(1e-12);
                let bic = -(n as f64 * mean_inertia.ln() + (k * dim) as f64 * (n as f64).ln());
                (bic, fitted)
            })
            .collect()
    });
    let best = scored
        .iter()
        .map(|(b, _)| *b)
        .fold(f64::NEG_INFINITY, f64::max);
    let worst = scored.iter().map(|(b, _)| *b).fold(f64::INFINITY, f64::min);
    let threshold = worst + 0.9 * (best - worst);
    scored
        .into_iter()
        .find(|(b, _)| *b >= threshold)
        .expect("the best-scoring k clears its own threshold")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The clustering as it stood before the flat matrix and the pruned
    /// search, kept as the oracle that [`fit`] and [`select_k`] must equal
    /// bit for bit.
    mod reference {
        use super::super::{derive_seed, dist2, KMeans, KMeansConfig, SplitMix64};

        /// The full scan: every centroid in index order, the first
        /// strictly nearer one kept.
        pub fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (j, c) in centroids.iter().enumerate() {
                let d = dist2(point, c);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            (best, best_d)
        }

        fn init_plus_plus(points: &[Vec<f64>], k: usize, seed: u64) -> Vec<Vec<f64>> {
            let n = points.len();
            let mut rng = SplitMix64::new(seed);
            let mut centroids = Vec::with_capacity(k);
            centroids.push(points[rng.next_below(n as u64) as usize].clone());
            let mut d2: Vec<f64> = points.iter().map(|p| dist2(p, &centroids[0])).collect();
            while centroids.len() < k {
                let total: f64 = d2.iter().sum();
                let next = if total > 0.0 {
                    let mut target = rng.next_f64() * total;
                    let mut pick = n - 1;
                    for (i, &w) in d2.iter().enumerate() {
                        target -= w;
                        if target <= 0.0 {
                            pick = i;
                            break;
                        }
                    }
                    pick
                } else {
                    rng.next_below(n as u64) as usize
                };
                let c = points[next].clone();
                for (i, p) in points.iter().enumerate() {
                    d2[i] = d2[i].min(dist2(p, &c));
                }
                centroids.push(c);
            }
            centroids
        }

        pub fn fit(points: &[Vec<f64>], cfg: &KMeansConfig) -> KMeans {
            if points.is_empty() || cfg.k == 0 {
                return KMeans {
                    centroids: Vec::new(),
                    assignment: Vec::new(),
                    inertia: 0.0,
                };
            }
            let mut best: Option<KMeans> = None;
            for r in 0..cfg.n_init.max(1) as u64 {
                let run = fit_once(points, cfg, derive_seed(cfg.seed, r));
                if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
                    best = Some(run);
                }
            }
            best.unwrap()
        }

        fn fit_once(points: &[Vec<f64>], cfg: &KMeansConfig, seed: u64) -> KMeans {
            let n = points.len();
            let dim = points[0].len();
            let k = cfg.k.min(n);
            let mut centroids = init_plus_plus(points, k, seed);
            let mut assignment = vec![usize::MAX; n];
            for iter in 0..cfg.max_iters.max(1) {
                let next: Vec<(usize, f64)> =
                    points.iter().map(|p| nearest(p, &centroids)).collect();
                let changed = next.iter().zip(&assignment).any(|((j, _), old)| j != old);
                for (slot, (j, _)) in assignment.iter_mut().zip(&next) {
                    *slot = *j;
                }
                if !changed && iter > 0 {
                    break;
                }
                let mut sums = vec![vec![0.0f64; dim]; k];
                let mut counts = vec![0usize; k];
                for (p, &(j, _)) in points.iter().zip(&next) {
                    counts[j] += 1;
                    for (s, x) in sums[j].iter_mut().zip(p) {
                        *s += x;
                    }
                }
                for j in 0..k {
                    if counts[j] > 0 {
                        let inv = 1.0 / counts[j] as f64;
                        for (c, s) in centroids[j].iter_mut().zip(&sums[j]) {
                            *c = s * inv;
                        }
                    } else {
                        let far = next
                            .iter()
                            .enumerate()
                            .max_by(|(ia, (_, da)), (ib, (_, db))| {
                                da.partial_cmp(db)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    .then(ib.cmp(ia))
                            })
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        centroids[j] = points[far].clone();
                    }
                }
            }
            let finals: Vec<(usize, f64)> = points.iter().map(|p| nearest(p, &centroids)).collect();
            let inertia = finals.iter().map(|&(_, d)| d).sum();
            KMeans {
                centroids,
                assignment: finals.into_iter().map(|(j, _)| j).collect(),
                inertia,
            }
        }

        /// `select_k` for `k_max >= 1`.
        pub fn select_k(points: &[Vec<f64>], k_max: usize, seed: u64, max_iters: usize) -> KMeans {
            let n = points.len();
            let dim = points[0].len().max(1);
            let scored: Vec<(f64, KMeans)> = (1..k_max.min(n) + 1)
                .map(|k| {
                    let cfg = KMeansConfig {
                        k,
                        seed: derive_seed(seed, k as u64),
                        max_iters,
                        ..KMeansConfig::default()
                    };
                    let fitted = fit(points, &cfg);
                    let mean_inertia = (fitted.inertia / n as f64).max(1e-12);
                    let bic = -(n as f64 * mean_inertia.ln() + (k * dim) as f64 * (n as f64).ln());
                    (bic, fitted)
                })
                .collect();
            let best = (scored.iter().map(|(b, _)| *b)).fold(f64::NEG_INFINITY, f64::max);
            let worst = scored.iter().map(|(b, _)| *b).fold(f64::INFINITY, f64::min);
            let threshold = worst + 0.9 * (best - worst);
            scored.into_iter().find(|(b, _)| *b >= threshold).unwrap().1
        }
    }

    /// Every float of a clustering as bits, so `-0.0` and NaN compare
    /// exactly.
    fn bits(m: &KMeans) -> (Vec<Vec<u64>>, Vec<usize>, u64) {
        let centroids = (m.centroids.iter())
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect();
        (centroids, m.assignment.clone(), m.inertia.to_bits())
    }

    /// Rows drawn from a few `base` rows, so points repeat, plus some
    /// with fresh coordinates on a coarse lattice, so distances tie.
    fn lattice_points(n: usize, d: usize, base: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(seed);
        let row = |rng: &mut SplitMix64| -> Vec<f64> {
            (0..d).map(|_| rng.next_below(4) as f64 * 0.5).collect()
        };
        let bases: Vec<Vec<f64>> = (0..base).map(|_| row(&mut rng)).collect();
        (0..n)
            .map(|_| {
                if rng.next_below(3) == 0 {
                    row(&mut rng)
                } else {
                    bases[rng.next_below(base as u64) as usize].clone()
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn pruned_search_equals_the_full_scan(
            d in 1usize..20,
            k in 1usize..12,
            pool in 1usize..6,
            seed in any::<u64>(),
            prev in 0usize..14,
        ) {
            // Centroids drawn from a small pool repeat (ties between
            // indices); points drawn from the same lattice repeat and
            // land on centroids.
            let centroids = lattice_points(k, d, pool, seed);
            let matrix = Matrix::from_rows(&centroids);
            for point in lattice_points(24, d, pool, seed ^ 0x9e37) {
                let (j, dist) = nearest(&point, &matrix, prev);
                let (want_j, want_d) = reference::nearest(&point, &centroids);
                prop_assert_eq!((j, dist.to_bits()), (want_j, want_d.to_bits()));
            }
        }
    }

    #[test]
    fn pruned_search_equals_the_full_scan_on_wide_and_non_finite_rows() {
        let mut rng = SplitMix64::new(5);
        let mut rows: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..67).map(|_| rng.next_f64()).collect())
            .collect();
        rows[3] = rows[7].clone();
        rows[5][20] = f64::NAN;
        rows[9][60] = f64::INFINITY;
        rows[10] = vec![f64::NAN; 67];
        let matrix = Matrix::from_rows(&rows);
        for point in &rows {
            for prev in [0, 3, 5, 7, 9, 10, 11, 12, usize::MAX] {
                let (j, dist) = nearest(point, &matrix, prev);
                let (want_j, want_d) = reference::nearest(point, &rows);
                assert_eq!(
                    (j, dist.to_bits()),
                    (want_j, want_d.to_bits()),
                    "prev {prev}"
                );
            }
        }
        // Zero dimensions: every distance is `-0.0`, as `sum` makes it.
        let empty = vec![Vec::new(); 3];
        let (j, dist) = nearest(&[], &Matrix::from_rows(&empty), 2);
        assert_eq!((j, dist.to_bits()), (0, (-0.0f64).to_bits()));
    }

    #[test]
    fn fit_and_select_k_bit_equal_to_the_reference_across_thread_counts() {
        let mut cases: Vec<Vec<Vec<f64>>> = vec![
            blobs(&[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], 20, 0.5, 7),
            blobs(
                &[[0.0, 0.0], [5.0, 5.0], [9.0, 1.0], [2.0, 8.0]],
                25,
                1.0,
                3,
            ),
            lattice_points(90, 9, 6, 21),
            lattice_points(40, 3, 2, 8),
            vec![vec![3.0, 3.0]; 12],
        ];
        let mut rng = SplitMix64::new(13);
        cases.push(
            (0..150)
                .map(|i| {
                    (0..67)
                        .map(|c| if c % 9 == i % 9 { rng.next_f64() } else { 0.0 })
                        .collect()
                })
                .collect(),
        );
        for (case, pts) in cases.iter().enumerate() {
            let want_k = bits(&reference::select_k(pts, 9, 77, 25));
            let fits = [(1, 1), (3, 4), (7, 2), (pts.len() + 3, 1)].map(|(k, n_init)| {
                let cfg = KMeansConfig {
                    k,
                    seed: 40 + case as u64,
                    max_iters: 30,
                    n_init,
                };
                (cfg, bits(&reference::fit(pts, &cfg)))
            });
            for threads in [1usize, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let got_k = pool.install(|| select_k(pts, 9, 77, 25));
                assert_eq!(bits(&got_k), want_k, "case {case}, {threads} thread(s)");
                for (cfg, want) in &fits {
                    let got = pool.install(|| fit(pts, cfg));
                    assert_eq!(
                        bits(&got),
                        *want,
                        "case {case}, k {}, {threads} thread(s)",
                        cfg.k
                    );
                }
            }
        }
    }

    #[test]
    fn select_k_with_no_k_max_fits_one_cluster() {
        let pts = blobs(&[[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]], 30, 0.3, 11);
        let zero = select_k(&pts, 0, 99, 50);
        assert_eq!(zero, select_k(&pts, 1, 99, 50));
        assert_eq!(zero.k(), 1);
        assert!(select_k(&[], 0, 99, 50).assignment.is_empty());
    }

    fn blobs(centers: &[[f64; 2]], per: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::new();
        for c in centers {
            for _ in 0..per {
                out.push(vec![
                    c[0] + spread * (rng.next_f64() - 0.5),
                    c[1] + spread * (rng.next_f64() - 0.5),
                ]);
            }
        }
        out
    }

    #[test]
    fn recovers_separated_blobs() {
        let pts = blobs(&[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], 20, 0.5, 7);
        let fitted = fit(
            &pts,
            &KMeansConfig {
                k: 3,
                seed: 42,
                max_iters: 50,
                ..KMeansConfig::default()
            },
        );
        assert_eq!(fitted.k(), 3);
        // Every blob lands in exactly one cluster.
        for blob in 0..3 {
            let labels: std::collections::BTreeSet<usize> = fitted.assignment
                [blob * 20..(blob + 1) * 20]
                .iter()
                .copied()
                .collect();
            assert_eq!(labels.len(), 1, "blob {blob} split across {labels:?}");
        }
        assert!(fitted.inertia < 20.0, "inertia {}", fitted.inertia);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let pts = blobs(
            &[[0.0, 0.0], [5.0, 5.0], [9.0, 1.0], [2.0, 8.0]],
            25,
            1.0,
            3,
        );
        let cfg = KMeansConfig {
            k: 4,
            seed: 1234,
            max_iters: 40,
            ..KMeansConfig::default()
        };
        let reference = fit(&pts, &cfg);
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = pool.install(|| fit(&pts, &cfg));
            assert_eq!(run, reference, "thread count {threads} diverged");
        }
    }

    #[test]
    fn select_k_is_identical_across_thread_counts() {
        let pts = blobs(&[[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]], 30, 0.3, 11);
        let reference = select_k(&pts, 8, 99, 50);
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = pool.install(|| select_k(&pts, 8, 99, 50));
            assert_eq!(run, reference, "thread count {threads} diverged");
        }
    }

    #[test]
    fn bic_selection_recovers_cluster_count() {
        let pts = blobs(&[[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]], 30, 0.3, 11);
        let fitted = select_k(&pts, 8, 99, 50);
        assert_eq!(fitted.k(), 3, "assignment {:?}", fitted.assignment);
    }

    #[test]
    fn representatives_are_cluster_members() {
        let pts = blobs(&[[0.0, 0.0], [10.0, 10.0]], 15, 1.0, 5);
        let fitted = fit(
            &pts,
            &KMeansConfig {
                k: 2,
                seed: 8,
                max_iters: 30,
                ..KMeansConfig::default()
            },
        );
        let reps = fitted.representatives(&pts);
        assert_eq!(reps.len(), 2);
        for &(cluster, idx) in &reps {
            assert_eq!(fitted.assignment[idx], cluster);
            // no other member of the cluster is closer to the centroid
            let d_rep = dist2(&pts[idx], &fitted.centroids[cluster]);
            for (i, p) in pts.iter().enumerate() {
                if fitted.assignment[i] == cluster {
                    assert!(dist2(p, &fitted.centroids[cluster]) >= d_rep - 1e-15);
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        // empty input
        let fitted = fit(&[], &KMeansConfig::default());
        assert_eq!(fitted.k(), 0);
        assert!(fitted.assignment.is_empty());
        // k larger than n clamps
        let pts = vec![vec![1.0], vec![2.0]];
        let fitted = fit(
            &pts,
            &KMeansConfig {
                k: 10,
                seed: 1,
                max_iters: 10,
                ..KMeansConfig::default()
            },
        );
        assert_eq!(fitted.k(), 2);
        assert_eq!(fitted.inertia, 0.0);
        // identical points: one effective location, finite inertia
        let pts = vec![vec![3.0, 3.0]; 12];
        let fitted = fit(
            &pts,
            &KMeansConfig {
                k: 3,
                seed: 2,
                max_iters: 10,
                ..KMeansConfig::default()
            },
        );
        assert_eq!(fitted.inertia, 0.0);
        assert_eq!(fitted.assignment.len(), 12);
    }

    #[test]
    fn every_sample_its_own_cluster_has_zero_inertia() {
        let pts = blobs(&[[0.0, 0.0], [4.0, 4.0]], 6, 2.0, 17);
        let fitted = fit(
            &pts,
            &KMeansConfig {
                k: pts.len(),
                seed: 3,
                max_iters: 30,
                ..KMeansConfig::default()
            },
        );
        assert_eq!(fitted.inertia, 0.0);
        let reps = fitted.representatives(&pts);
        assert_eq!(reps.len(), pts.len());
    }
}
