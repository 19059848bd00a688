//! The grid and workload JSON writer against its oracle: `grid_to_json`
//! must be byte for byte `serde_json::to_string_pretty` of the entries'
//! derived `Serialize`, on random grids that reach every shape the writer
//! has a branch for — no entries, every mapping, a workload with no
//! samples, empty and non-empty migration rows, `Some` and `None` bin
//! counts, `u32::MAX` counts, `u64::MAX` iterations, and filters whose
//! shortest round-trip form is long, exponential, subnormal or not finite.
//! The CLI's workload file is held to the same oracle on a fixed trace.

use pic_mapping::MappingAlgorithm;
use pic_predict::{grid_to_json, SweepGridEntry};
use pic_trace::{codec, ParticleTrace, Precision, TraceMeta};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Vec3};
use pic_workload::{CommMatrix, CompMatrix, DynamicWorkload, ReplayOptions, SweepPoint};
use proptest::prelude::*;

const MAPPINGS: [MappingAlgorithm; 4] = [
    MappingAlgorithm::ElementBased,
    MappingAlgorithm::BinBased,
    MappingAlgorithm::HilbertOrdered,
    MappingAlgorithm::LoadBalanced,
];

/// Filters whose `{:?}` forms are the awkward ones, and two that JSON
/// cannot hold.
const FILTERS: [f64; 7] = [0.1 + 0.2, 1e-7, 1e21, 5e-324, 0.05, f64::NAN, f64::INFINITY];

/// A count that is small, zero or the largest a matrix holds.
fn count(rng: &mut SplitMix64) -> u32 {
    match rng.next_below(4) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.next_below(1000) as u32,
    }
}

/// A random workload of `ranks` ranks and `samples` samples (0 included).
fn workload(rng: &mut SplitMix64, ranks: usize, samples: usize) -> DynamicWorkload {
    let mut matrix = || {
        let rows = (0..samples).map(|_| (0..ranks).map(|_| count(rng)).collect());
        CompMatrix::from_rows(ranks, rows.collect())
    };
    let (real, ghost_recv, ghost_sent) = (matrix(), matrix(), matrix());
    let iterations = (0..samples)
        .map(|t| match rng.next_below(3) {
            0 => u64::MAX,
            _ => 10 * t as u64,
        })
        .collect();
    let entries = (0..samples)
        .map(|_| {
            let moves = rng.next_below(4) as usize;
            (0..moves)
                .map(|_| (count(rng), count(rng), count(rng)))
                .collect()
        })
        .collect();
    let bin_counts = (0..samples)
        .map(|_| match rng.next_below(3) {
            0 => None,
            1 => Some(usize::MAX),
            _ => Some(rng.next_below(64) as usize),
        })
        .collect();
    DynamicWorkload {
        ranks,
        iterations,
        real,
        ghost_recv,
        ghost_sent,
        comm: CommMatrix { entries },
        bin_counts,
    }
}

fn grid(seed: u64, entries: usize) -> Vec<SweepGridEntry> {
    let mut rng = SplitMix64::new(seed);
    (0..entries)
        .map(|point| {
            let ranks = 1 + rng.next_below(4) as usize;
            let samples = rng.next_below(4) as usize;
            let projection_filter = match rng.next_below(2) {
                0 => FILTERS[rng.next_below(FILTERS.len() as u64) as usize],
                _ => f64::from_bits(rng.next_u64() >> 2),
            };
            SweepGridEntry {
                point,
                mapping: MAPPINGS[rng.next_below(4) as usize],
                ranks,
                projection_filter,
                stride: 1 + rng.next_below(3) as usize,
                workload: workload(&mut rng, ranks, samples),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grid_writer_is_serde_pretty(seed in any::<u64>(), entries in 0usize..4) {
        let grid = grid(seed, entries);
        prop_assert_eq!(grid_to_json(&grid), serde_json::to_string_pretty(&grid).unwrap());
        for e in &grid {
            prop_assert_eq!(
                e.workload.to_json_pretty(),
                serde_json::to_string_pretty(&e.workload).unwrap()
            );
        }
    }
}

/// Every mapping, the edge filters and an empty workload, whatever the
/// random draws above happen to reach.
#[test]
fn grid_writer_covers_every_mapping_and_edge_filter() {
    let mut rng = SplitMix64::new(7);
    let mut grid = Vec::new();
    for (point, (&mapping, &projection_filter)) in MAPPINGS.iter().cycle().zip(&FILTERS).enumerate()
    {
        grid.push(SweepGridEntry {
            point,
            mapping,
            ranks: 2,
            projection_filter,
            stride: 1,
            workload: workload(&mut rng, 2, point % 3),
        });
    }
    assert_eq!(
        grid_to_json(&grid),
        serde_json::to_string_pretty(&grid).unwrap()
    );
    assert_eq!(grid_to_json(&[]), "[]");
}

/// `picpredict workload --out` writes the workload file `picpredict check`
/// reads: the serde rendering of the library's replay, byte for byte.
#[test]
fn cli_workload_file_is_the_serde_rendering() {
    let mut rng = SplitMix64::new(11);
    let particles = 200;
    let mut trace = ParticleTrace::new(TraceMeta::new(particles, 10, Aabb::unit(), "grid-json"));
    let mut point = || Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64());
    let starts: Vec<(Vec3, Vec3)> = (0..particles).map(|_| (point(), point())).collect();
    for t in 0..4 {
        let positions = (starts.iter())
            .map(|&(x, v)| {
                (x + (v - Vec3::splat(0.5)) * (0.2 * t as f64)).clamp(Vec3::ZERO, Vec3::ONE)
            })
            .collect();
        trace.push_positions(positions).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("picpredict_grid_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("t.pictrace");
    codec::save_file(&trace, trace_path.to_str().unwrap(), Precision::F64).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_picpredict"))
        .args(["workload", "--trace", trace_path.to_str().unwrap()])
        .args(["--ranks", "8", "--mapping", "bin-based", "--filter", "0.05"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .expect("run picpredict");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("workload.json")).unwrap();
    let config = pic_workload::WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
    let (workloads, _) = pic_workload::replay(
        &trace,
        &[SweepPoint::new(config)],
        &ReplayOptions::default(),
    )
    .unwrap();
    assert!(
        workloads[0].comm.total() > 0,
        "the fixed trace migrates nothing"
    );
    assert_eq!(
        written,
        serde_json::to_string_pretty(&workloads[0]).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
