//! The workload generation pipeline's vocabulary (paper Fig 3): the
//! configuration of one replay and the workload it produces.
//!
//! A replay runs a particle trace through the configured mapping
//! algorithm: the *Computation Load Generator* computes each particle's
//! residing rank `R_p` per sample (plus ghost counts from projection-filter
//! overlap), and the *Communication Load Generator* diffs consecutive
//! samples' ownership to count migrating particles. The replay itself is
//! [`crate::sweep::replay`].

use crate::json::PrettyJson;
use crate::matrices::{CommMatrix, CompMatrix};
pub use crate::reference::generate_reference;
use crate::sweep::{replay, ReplayOptions, SweepPoint};
use pic_grid::ElementMesh;
use pic_mapping::{BinMapper, BinTree, MappingAlgorithm};
use pic_trace::ParticleTrace;
use pic_types::Result;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of one workload-generation run — the framework's
/// "configuration file" content relevant to the DWG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Target processor count `R` (independent of the trace's origin!).
    pub ranks: usize,
    /// Mapping algorithm to mimic.
    pub mapping: MappingAlgorithm,
    /// Projection filter radius: ghost influence radius and bin-size
    /// threshold.
    pub projection_filter: f64,
    /// Whether to compute ghost-particle matrices (sphere queries are the
    /// dominant cost; skip when only real-particle workload is needed).
    pub compute_ghosts: bool,
}

impl WorkloadConfig {
    /// Convenience constructor with ghosts enabled.
    pub fn new(ranks: usize, mapping: MappingAlgorithm, projection_filter: f64) -> WorkloadConfig {
        WorkloadConfig {
            ranks,
            mapping,
            projection_filter,
            compute_ghosts: true,
        }
    }
}

/// The generator's output: the paper's computation and communication
/// matrices plus bin-count series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicWorkload {
    /// Target processor count.
    pub ranks: usize,
    /// Application iteration of each sample.
    pub iterations: Vec<u64>,
    /// Real particles per rank per sample.
    pub real: CompMatrix,
    /// Ghost particles received per rank per sample (zeros when ghosts are
    /// not computed).
    pub ghost_recv: CompMatrix,
    /// Ghost copies sent per rank per sample.
    pub ghost_sent: CompMatrix,
    /// Real-particle migrations between consecutive samples.
    pub comm: CommMatrix,
    /// Bins generated per sample (`None` for mappings without bins).
    pub bin_counts: Vec<Option<usize>>,
}

impl DynamicWorkload {
    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.iterations.len()
    }

    /// Peak real-particle workload over the whole run (Fig 5's headline
    /// number at a given `R`).
    pub fn peak_workload(&self) -> u32 {
        self.real.peak()
    }

    /// Maximum bin count over the run (Fig 6's cap, when bin-mapped).
    pub fn max_bin_count(&self) -> Option<usize> {
        self.bin_counts.iter().filter_map(|&b| b).max()
    }

    /// This workload as pretty-printed JSON: the bytes
    /// `serde_json::to_string_pretty` renders, without its value tree.
    /// What `picpredict check` and `Deserialize` read back.
    pub fn to_json_pretty(&self) -> String {
        let mut w = PrettyJson::default();
        self.write_json(&mut w);
        w.finish()
    }

    /// Write this workload as one JSON object at `w`'s position, in the
    /// field order of its derived `Serialize`.
    pub fn write_json(&self, w: &mut PrettyJson) {
        w.begin_object();
        w.key("ranks");
        w.uint(self.ranks as u64);
        w.key("iterations");
        w.uints(self.iterations.iter().copied());
        for (name, m) in [
            ("real", &self.real),
            ("ghost_recv", &self.ghost_recv),
            ("ghost_sent", &self.ghost_sent),
        ] {
            w.key(name);
            m.write_json(w);
        }
        w.key("comm");
        w.begin_object();
        w.key("entries");
        w.begin_array();
        for sample in &self.comm.entries {
            w.begin_array();
            for &(from, to, count) in sample {
                w.uints([from, to, count].map(u64::from));
            }
            w.end_array();
        }
        w.end_array();
        w.end_object();
        w.key("bin_counts");
        w.begin_array();
        for b in &self.bin_counts {
            match b {
                Some(n) => w.uint(*n as u64),
                None => w.null(),
            }
        }
        w.end_array();
        w.end_object();
    }
}

/// [`replay`] of one configuration with a mesh and no cache or plan. Kept
/// because the end-to-end benchmark pins this name
/// (`benchmark/src/calls.rs`) until ROADMAP's "Re-baseline the benchmark"
/// unpins it.
pub fn generate_with_mesh(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<DynamicWorkload> {
    let opts = ReplayOptions::new(mesh, None, None);
    replay(trace, &[SweepPoint::new(cfg.clone())], &opts).map(|(mut w, _)| w.remove(0))
}

/// Unbounded bin-count series over a trace, one per threshold (Fig 6:
/// "relaxing the processor count limitation" to find the optimal `R`;
/// Fig 10a: the same across filters). Each sample builds one [`BinTree`]
/// and walks it once per threshold, so each node is cut once; a task reads
/// one run of [`ParticleTrace::read_runs`].
pub fn unbounded_bin_series(trace: &ParticleTrace, thresholds: &[f64]) -> Result<Vec<Vec<usize>>> {
    for &t in thresholds {
        BinMapper::new(1, t)?;
    }
    let samples: Vec<usize> = (0..trace.sample_count()).collect();
    let runs = trace.read_runs(&samples);
    let per_run: Vec<Vec<Vec<usize>>> = pic_types::pool::install(|| {
        (runs.par_iter())
            .map(|run| {
                (trace.positions_of(&samples[run.clone()]))
                    .map(|positions| {
                        let mut tree = BinTree::new(&positions);
                        (thresholds.iter())
                            .map(|&t| tree.walk(usize::MAX, t).bin_count())
                            .collect()
                    })
                    .collect()
            })
            .collect()
    });
    let per_sample: Vec<&Vec<usize>> = per_run.iter().flatten().collect();
    Ok((0..thresholds.len())
        .map(|k| per_sample.iter().map(|bins| bins[k]).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_streaming;
    use pic_grid::MeshDims;
    use pic_trace::TraceMeta;
    use pic_types::rng::SplitMix64;
    use pic_types::{Aabb, Vec3};

    fn make_trace(np: usize, t: usize, spread_growth: f64, seed: u64) -> ParticleTrace {
        // Cloud whose extent grows each sample.
        let mut rng = SplitMix64::new(seed);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "synthetic");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let scale = 0.05 + spread_growth * k as f64;
            // a slow x-drift so ownership actually changes between samples
            let drift = Vec3::new(0.03 * k as f64, 0.0, 0.0);
            let positions: Vec<Vec3> = dirs
                .iter()
                .map(|d| (Vec3::splat(0.5) + *d * scale + drift).clamp(Vec3::ZERO, Vec3::ONE))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap()
    }

    /// One configuration through [`replay`].
    fn generate(
        tr: &ParticleTrace,
        cfg: &WorkloadConfig,
        mesh: Option<&ElementMesh>,
    ) -> Result<DynamicWorkload> {
        let opts = ReplayOptions::new(mesh, None, None);
        replay(tr, &[SweepPoint::new(cfg.clone())], &opts).map(|(mut w, _)| w.remove(0))
    }

    /// One configuration through [`sweep_streaming`].
    fn stream(
        bytes: &[u8],
        cfg: &WorkloadConfig,
        mesh: Option<&ElementMesh>,
    ) -> Result<DynamicWorkload> {
        let reader = pic_trace::TraceReader::new(bytes).unwrap();
        let points = [SweepPoint::new(cfg.clone())];
        sweep_streaming(reader, &points, mesh).map(|(mut w, ..)| w.remove(0))
    }

    #[test]
    fn real_counts_conserve_particles() {
        let tr = make_trace(500, 5, 0.05, 1);
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.02);
        let w = generate(&tr, &cfg, None).unwrap();
        assert_eq!(w.samples(), 5);
        for t in 0..5 {
            assert_eq!(w.real.sample_total(t), 500);
        }
        // ghosts: sent == received in aggregate
        for t in 0..5 {
            assert_eq!(w.ghost_sent.sample_total(t), w.ghost_recv.sample_total(t));
        }
    }

    #[test]
    fn element_mapping_requires_mesh() {
        let tr = make_trace(100, 2, 0.05, 2);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.02);
        assert!(generate(&tr, &cfg, None).is_err());
        let m = mesh();
        assert!(generate(&tr, &cfg, Some(&m)).is_ok());
    }

    #[test]
    fn parallel_generation_matches_sequential_semantics() {
        // Determinism across runs (rayon ordering must not leak in).
        let tr = make_trace(300, 6, 0.05, 3);
        let cfg = WorkloadConfig::new(12, MappingAlgorithm::BinBased, 0.05);
        let a = generate(&tr, &cfg, None).unwrap();
        let b = generate(&tr, &cfg, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn comm_matrix_first_sample_empty_and_conserves() {
        let tr = make_trace(400, 4, 0.08, 4);
        let m = mesh();
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.02);
        let w = generate(&tr, &cfg, Some(&m)).unwrap();
        assert!(w.comm.entries[0].is_empty());
        // expanding cloud with element mapping must migrate particles
        assert!(w.comm.total() > 0);
        // migration totals bounded by particle count per interval
        for t in 0..w.samples() {
            assert!(w.comm.sample_total(t) <= 400);
        }
    }

    #[test]
    fn one_trace_many_rank_counts() {
        // The paper's headline property: a single trace yields workloads at
        // any R; more ranks can only lower (or hold) the peak.
        let tr = make_trace(1000, 4, 0.06, 5);
        let mut prev_peak = u32::MAX;
        for ranks in [4, 16, 64] {
            let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 1e-4);
            let w = generate(&tr, &cfg, None).unwrap();
            let peak = w.peak_workload();
            assert!(
                peak <= prev_peak,
                "ranks={ranks} peak={peak} prev={prev_peak}"
            );
            prev_peak = peak;
        }
    }

    #[test]
    fn bin_threshold_caps_scaling() {
        // Fig 5's flat region: with a coarse threshold, increasing R beyond
        // the bin cap leaves the peak unchanged.
        let tr = make_trace(800, 3, 0.02, 6);
        let coarse = 0.2; // few bins possible
        let at = |ranks| {
            let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, coarse);
            generate(&tr, &cfg, None).unwrap()
        };
        let (w_small, w_large) = (at(32), at(256));
        let bins_small = w_small.max_bin_count().unwrap();
        let bins_large = w_large.max_bin_count().unwrap();
        assert_eq!(bins_small, bins_large, "bin cap must not depend on R");
        assert!(bins_small < 32);
        assert_eq!(w_small.real.peak_series(), w_large.real.peak_series());
    }

    #[test]
    fn unbounded_bins_grow_with_boundary() {
        let tr = make_trace(2000, 5, 0.08, 7);
        let series = unbounded_bin_series(&tr, &[0.1]).unwrap().remove(0);
        assert_eq!(series.len(), 5);
        assert!(
            series.last().unwrap() > series.first().unwrap(),
            "{series:?}"
        );
        // Several thresholds walk one tree per sample: each series is the
        // lone one, and a finer threshold never yields fewer bins.
        let both = unbounded_bin_series(&tr, &[0.05, 0.1]).unwrap();
        assert_eq!(both[1], series);
        assert_eq!(both[0], unbounded_bin_series(&tr, &[0.05]).unwrap()[0]);
        assert!(both[0]
            .iter()
            .zip(&series)
            .all(|(fine, coarse)| fine >= coarse));
        assert!(unbounded_bin_series(&tr, &[0.1, 0.0]).is_err());
    }

    #[test]
    fn ghost_counts_grow_with_filter() {
        let tr = make_trace(600, 3, 0.05, 8);
        let m = mesh();
        let total_at = |filter: f64| {
            let cfg = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, filter);
            let w = generate(&tr, &cfg, Some(&m)).unwrap();
            (0..w.samples())
                .map(|t| w.ghost_recv.sample_total(t))
                .sum::<u64>()
        };
        let small = total_at(0.01);
        let large = total_at(0.15);
        assert!(
            large > small,
            "filter 0.15 ghosts {large} vs 0.01 ghosts {small}"
        );
    }

    #[test]
    fn skipping_ghosts_zeroes_matrices() {
        let tr = make_trace(200, 3, 0.05, 9);
        let mut cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.1);
        cfg.compute_ghosts = false;
        let w = generate(&tr, &cfg, None).unwrap();
        for t in 0..3 {
            assert_eq!(w.ghost_recv.sample_total(t), 0);
            assert_eq!(w.ghost_sent.sample_total(t), 0);
        }
        // real counts unaffected
        assert_eq!(w.real.sample_total(0), 200);
    }

    #[test]
    fn zero_ranks_is_error() {
        let tr = make_trace(10, 1, 0.0, 10);
        let cfg = WorkloadConfig {
            ranks: 0,
            mapping: MappingAlgorithm::BinBased,
            projection_filter: 0.1,
            compute_ghosts: false,
        };
        assert!(generate(&tr, &cfg, None).is_err());
    }

    /// Assert the streamed pipeline, the in-memory parallel path, and the
    /// straight-line sequential reference all agree bit-for-bit.
    fn assert_streaming_equivalence(cfg: &WorkloadConfig, mesh: Option<&ElementMesh>) {
        use pic_trace::codec::{encode_trace, Precision};
        let tr = make_trace(400, 5, 0.05, 21);
        let in_memory = generate(&tr, cfg, mesh).unwrap();
        let reference = generate_reference(&tr, cfg, mesh).unwrap();
        assert_eq!(
            in_memory, reference,
            "parallel path diverged from sequential"
        );
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let streamed = stream(&bytes, cfg, mesh).unwrap();
        assert_eq!(streamed, in_memory, "streamed path diverged from in-memory");
    }

    #[test]
    fn streaming_matches_in_memory_generation() {
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.04);
        assert_streaming_equivalence(&cfg, None);
    }

    #[test]
    fn streaming_matches_in_memory_element_based() {
        let m = mesh();
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::ElementBased, 0.04);
        assert_streaming_equivalence(&cfg, Some(&m));
    }

    #[test]
    fn streaming_matches_in_memory_hilbert_ordered() {
        let m = mesh();
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::HilbertOrdered, 0.04);
        assert_streaming_equivalence(&cfg, Some(&m));
    }

    #[test]
    fn streaming_matches_in_memory_load_balanced() {
        let m = mesh();
        let cfg = WorkloadConfig::new(16, MappingAlgorithm::LoadBalanced, 0.04);
        assert_streaming_equivalence(&cfg, Some(&m));
    }

    #[test]
    fn streaming_matches_in_memory_without_ghosts() {
        let mut cfg = WorkloadConfig::new(16, MappingAlgorithm::BinBased, 0.04);
        cfg.compute_ghosts = false;
        assert_streaming_equivalence(&cfg, None);
    }

    #[test]
    fn streaming_requires_mesh_for_element_mapping() {
        use pic_trace::codec::{encode_trace, Precision};
        let tr = make_trace(50, 2, 0.05, 22);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let cfg = WorkloadConfig::new(4, MappingAlgorithm::ElementBased, 0.04);
        assert!(stream(&bytes, &cfg, None).is_err());
    }

    #[test]
    fn chunked_kernel_matches_reference_on_large_sample() {
        // A sample of a few thousand particles over 32 bins.
        let tr = make_trace(4219, 2, 0.05, 33);
        let cfg = WorkloadConfig::new(32, MappingAlgorithm::BinBased, 0.05);
        let parallel = generate(&tr, &cfg, None).unwrap();
        let reference = generate_reference(&tr, &cfg, None).unwrap();
        assert_eq!(parallel, reference);
    }

    #[test]
    fn empty_trace_yields_empty_workload() {
        let meta = TraceMeta::new(5, 100, Aabb::unit(), "empty");
        let tr = ParticleTrace::new(meta);
        let cfg = WorkloadConfig::new(4, MappingAlgorithm::BinBased, 0.1);
        let w = generate(&tr, &cfg, None).unwrap();
        assert_eq!(w.samples(), 0);
        assert_eq!(w.peak_workload(), 0);
        assert_eq!(w.max_bin_count(), None);
    }
}
