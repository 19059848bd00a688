//! What every figure shares: the scale presets, the inputs built from
//! them, and the printed and CSV output.
//!
//! Scale presets:
//! * [`Scale::Mini`] — seconds on a laptop; the shapes of every figure.
//! * [`Scale::Paper`] — the paper's Hele-Shaw dimensions (599,257
//!   particles / 216,225 elements / ranks up to 8352). Minutes to hours;
//!   used for the headline regeneration run.

use pic_mapping::MappingAlgorithm;
use pic_predict::{FitStrategy, KernelModels};
use pic_sim::instrument::WorkloadParams;
use pic_sim::{CostOracle, KernelKind, Recorder, ScenarioKind, SimConfig};
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Vec3};

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scale {
    /// Laptop-scale: thousands of particles, tens of ranks.
    Mini,
    /// The paper's case-study dimensions.
    Paper,
}

impl Scale {
    /// The Hele-Shaw configuration at this scale.
    pub(crate) fn hele_shaw_config(self) -> SimConfig {
        match self {
            Scale::Mini => SimConfig {
                ranks: 16,
                mesh_dims: pic_grid::MeshDims::cube(6),
                order: 3,
                particles: 6000,
                steps: 120,
                sample_interval: 10,
                scenario: ScenarioKind::HeleShaw,
                mapping: MappingAlgorithm::BinBased,
                projection_filter: 0.03,
                ..SimConfig::default()
            },
            Scale::Paper => SimConfig {
                // 599,257 particles / 216,225 elements: the paper's §IV-A
                // problem (216,225 ≈ 60^3 ± packing; we use 60x60x60 +
                // boundary layers ≈ 216,000).
                ranks: 1024,
                mesh_dims: pic_grid::MeshDims::new(60, 60, 60),
                order: 5,
                particles: 599_257,
                steps: 1500,
                sample_interval: 100,
                scenario: ScenarioKind::HeleShaw,
                mapping: MappingAlgorithm::BinBased,
                projection_filter: 0.005,
                ..SimConfig::default()
            },
        }
    }

    /// The rank counts swept in the scalability figures.
    pub(crate) fn rank_sweep(self) -> Vec<usize> {
        match self {
            Scale::Mini => vec![16, 32, 64, 128],
            Scale::Paper => vec![1044, 2088, 4176, 8352],
        }
    }

    /// The projection-filter sweep of Fig 10.
    pub(crate) fn filter_sweep(self) -> Vec<f64> {
        match self {
            Scale::Mini => vec![0.01, 0.02, 0.03, 0.05, 0.08, 0.12],
            // calibrated so the finest filter yields bins in the paper's
            // Fig 10a range (thousands), not millions
            Scale::Paper => vec![0.035, 0.045, 0.06, 0.08, 0.1, 0.12],
        }
    }
}

/// A synthetic expanding-cloud trace shaped like Hele-Shaw dispersal but
/// generated without running the mini-app: the paper-scale trace, where
/// the subject is the *consumer* of the trace, not its producer.
pub(crate) fn synthetic_expanding_trace(
    particles: usize,
    samples: usize,
    seed: u64,
) -> ParticleTrace {
    let mut rng = SplitMix64::new(seed);
    let dirs: Vec<Vec3> = (0..particles)
        .map(|_| {
            Vec3::new(
                rng.next_range(-1.0, 1.0),
                rng.next_range(-1.0, 1.0),
                rng.next_range(0.0, 1.0),
            )
        })
        .collect();
    let meta = TraceMeta::new(particles, 100, Aabb::unit(), "synthetic-expanding");
    let mut trace = ParticleTrace::new(meta);
    for k in 0..samples {
        // Growth capped so the cloud never hits the walls: hard clamping
        // piles particles onto degenerate planes and corrupts the bin
        // statistics the figures measure.
        let scale = 0.03 + 0.42 * (k as f64 / (samples.max(2) - 1) as f64);
        let positions: Vec<Vec3> = dirs
            .iter()
            .map(|d| (Vec3::new(0.5, 0.5, 0.05) + *d * scale).clamp(Vec3::ZERO, Vec3::ONE))
            .collect();
        trace
            .push_positions(positions)
            .expect("monotone synthetic samples");
    }
    trace
}

/// Kernel models trained from a noiseless oracle sweep: the paper-scale
/// figures predict without fitting noise in the loop.
pub(crate) fn oracle_models(seed: u64) -> KernelModels {
    let oracle = CostOracle::noiseless();
    let mut rec = Recorder::new();
    let mut rng = SplitMix64::new(seed);
    for _ in 0..200 {
        let p = WorkloadParams {
            np: rng.next_range(0.0, 5000.0).round(),
            ngp: rng.next_range(0.0, 1000.0).round(),
            nel: rng.next_range(1.0, 256.0).round(),
            n_order: 5.0,
            filter: 0.03,
        };
        for k in KernelKind::ALL {
            rec.record(k, p, oracle.true_cost(k, &p));
        }
    }
    KernelModels::fit(&rec, &FitStrategy::Linear, seed).expect("oracle sweep fits")
}

/// Format a floating series compactly for stdout tables.
pub(crate) fn fmt_series(series: &[f64]) -> String {
    series
        .iter()
        .map(|v| format!("{v:.4e}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Write CSV content to `dir/name`, creating the directory; returns the
/// path written.
pub(crate) fn write_csv(
    dir: &str,
    name: &str,
    content: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_consistent() {
        let mini = Scale::Mini.hele_shaw_config();
        mini.validate().unwrap();
        let paper = Scale::Paper.hele_shaw_config();
        paper.validate().unwrap();
        assert_eq!(paper.particles, 599_257);
        assert_eq!(paper.element_count(), 216_000);
        assert_eq!(Scale::Paper.rank_sweep(), vec![1044, 2088, 4176, 8352]);
    }

    #[test]
    fn synthetic_trace_expands() {
        let tr = synthetic_expanding_trace(500, 6, 1);
        assert_eq!(tr.sample_count(), 6);
        let vols = pic_trace::stats::boundary_volume_series(&tr);
        assert!(vols.last().unwrap() > vols.first().unwrap());
    }

    #[test]
    fn oracle_models_cover_all_kernels() {
        let m = oracle_models(3);
        assert_eq!(m.kernels().len(), 6);
        // near-exact on noiseless data
        for k in m.models() {
            assert!(k.validation_mape < 1.0);
        }
    }

    #[test]
    fn csv_writer_roundtrip() {
        let dir = std::env::temp_dir().join("pic_bench_csv_test");
        let p = write_csv(dir.to_str().unwrap(), "t.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "a,b\n1,2\n");
        std::fs::remove_file(p).ok();
    }
}
