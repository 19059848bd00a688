//! Deterministic seeded k-means for SimPoint-style phase clustering.
//!
//! Clusters per-sample feature vectors (see `pic-trace::features`) so a
//! long trace can be replayed through a handful of cluster representatives.
//! Everything here is bit-reproducible for a fixed seed, **independent of
//! thread count**: initialization (k-means++) is sequential, the parallel
//! assignment step is an order-preserving map (ties broken toward the
//! lowest centroid index), and centroid updates accumulate sequentially in
//! point order.

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

/// Nearest centroid by squared distance; ties go to the lowest index so
/// the result does not depend on evaluation order.
#[inline]
fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
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

/// k-means++ seeding: the first center uniform, each further center drawn
/// with probability proportional to squared distance from the chosen set.
/// Sequential by construction.
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
            // all points coincide with a chosen center: any pick works
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
fn fit_once(points: &[Vec<f64>], cfg: &KMeansConfig, seed: u64) -> KMeans {
    let n = points.len();
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "points must share one dimensionality"
    );
    let k = cfg.k.min(n);
    let mut centroids = init_plus_plus(points, k, seed);
    let mut assignment = vec![usize::MAX; n];
    for iter in 0..cfg.max_iters.max(1) {
        // Parallel assignment: an order-preserving map, so the collected
        // vector is identical for any worker count.
        let next: Vec<(usize, f64)> = pic_types::pool::install(|| {
            points.par_iter().map(|p| nearest(p, &centroids)).collect()
        });
        let changed = next.iter().zip(&assignment).any(|((j, _), old)| j != old);
        for (slot, (j, _)) in assignment.iter_mut().zip(&next) {
            *slot = *j;
        }
        if !changed && iter > 0 {
            break;
        }
        // Sequential centroid update in point order.
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
                centroids[j] = points[far].clone();
            }
        }
    }
    // Final assignment against the final centroids.
    let finals: Vec<(usize, f64)> =
        pic_types::pool::install(|| points.par_iter().map(|p| nearest(p, &centroids)).collect());
    let inertia = finals.iter().map(|&(_, d)| d).sum();
    KMeans {
        centroids,
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
pub fn select_k(points: &[Vec<f64>], k_max: usize, seed: u64, max_iters: usize) -> KMeans {
    let n = points.len();
    if n == 0 || k_max == 0 {
        return fit(points, &KMeansConfig::default());
    }
    let dim = points[0].len().max(1);
    // The candidate fits are independent, so they share one ordered
    // parallel map; each fit's inner assignment step inherits what is left
    // of the budget instead of spawning threads per Lloyd iteration.
    let scored: Vec<(f64, KMeans)> = pic_types::pool::install(|| {
        (1..k_max.min(n) + 1)
            .into_par_iter()
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
