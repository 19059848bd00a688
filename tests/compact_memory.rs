//! Peak-memory regression for a compact (`PICTRC02`) trace: reading the
//! file whole, building its SimPoint plan, replaying the representatives
//! and gating the reduced workload must never hold a decoded (`f64`) copy
//! of every sample. The trace is written frame by frame through
//! a compact [`TraceWriter`], so the test itself never holds one either, and it
//! is the only test in this binary, so nothing else moves the process's
//! high-water mark. Linux only: it reads `VmHWM` from `/proc/self/status`.

#![cfg(target_os = "linux")]

use pic_analysis::{assert_reduction_valid, ReductionBudget};
use pic_mapping::MappingAlgorithm;
use pic_predict::simpoint::{build_plan, SimpointOptions};
use pic_trace::compact::load_file_any;
use pic_trace::{Precision, TraceMeta, TraceSample, TraceWriter};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Vec3};
use pic_workload::reduce::generate_reduced_with_stats;
use pic_workload::WorkloadConfig;

const PARTICLES: usize = 20_000;
const SAMPLES: usize = 240;
const PHASES: usize = 12;

/// Peak resident set of this process, in bytes.
fn vm_hwm() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = (status.lines())
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .expect("VmHWM in /proc/self/status");
    kib << 10
}

/// Write a multi-phase trace: the cloud (a box of aspect 1 : 0.85 : 0.7)
/// parks in `PHASES` shuffled cells of a 3×3×3 lattice in turn,
/// alternating two densities, with a small jitter per sample.
fn write_phased_trace(path: &std::path::Path) {
    let mut rng = SplitMix64::new(20210517);
    let dirs: Vec<Vec3> = (0..PARTICLES)
        .map(|_| {
            let x = rng.next_range(-1.0, 1.0);
            let y = rng.next_range(-0.85, 0.85);
            Vec3::new(x, y, rng.next_range(-0.7, 0.7))
        })
        .collect();
    let at = |c: usize| c as f64 / 3.0 + 1.0 / 6.0;
    let mut centers: Vec<Vec3> = (0..27)
        .map(|c| Vec3::new(at(c % 3), at(c / 3 % 3), at(c / 9)))
        .collect();
    for i in 0..centers.len() {
        let j = i + rng.next_below((centers.len() - i) as u64) as usize;
        centers.swap(i, j);
    }
    let meta = TraceMeta::new(PARTICLES, 100, Aabb::unit(), "phased");
    let file = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    let mut writer = TraceWriter::compact(file, &meta, Precision::F32, Aabb::unit()).unwrap();
    for k in 0..SAMPLES {
        let phase = k * PHASES / SAMPLES;
        let scale = if phase.is_multiple_of(2) { 0.05 } else { 0.04 };
        let mut jitter = || rng.next_range(-0.00025, 0.00025);
        let positions = (dirs.iter())
            .map(|d| {
                let j = Vec3::new(jitter(), jitter(), jitter());
                (centers[phase] + *d * scale + j).clamp(Vec3::ZERO, Vec3::ONE)
            })
            .collect();
        let iteration = 100 * k as u64;
        writer
            .write_sample(&TraceSample {
                iteration,
                positions,
            })
            .unwrap();
    }
    writer.finish().unwrap();
}

#[test]
fn a_reduced_replay_of_a_compact_trace_holds_no_decoded_copy() {
    let dir = std::env::temp_dir().join(format!("compact_memory_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("phased.pictrc2");
    write_phased_trace(&path);

    let before = vm_hwm();
    let trace = load_file_any(&path).unwrap();
    assert_eq!(trace.storage(), "encoded u16");
    let opts = SimpointOptions {
        k: Some(PHASES),
        ..SimpointOptions::default()
    };
    let plan = build_plan(&trace, &opts).unwrap();
    let cfg = WorkloadConfig::new(32, MappingAlgorithm::BinBased, 0.03);
    let (reduced, _) = generate_reduced_with_stats(&trace, &cfg, None, &plan).unwrap();
    let budget = ReductionBudget::default();
    assert_reduction_valid(&trace, &cfg, None, &plan, &reduced, &budget).unwrap();
    let grew = vm_hwm().saturating_sub(before);
    std::fs::remove_dir_all(&dir).ok();

    let decoded = SAMPLES * PARTICLES * std::mem::size_of::<Vec3>();
    assert!(
        grew < decoded / 2,
        "peak resident set grew {} MiB over the run; the decoded trace is {} MiB",
        grew >> 20,
        decoded >> 20
    );
}
