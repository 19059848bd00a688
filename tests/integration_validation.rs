//! Cross-crate validation of the paper's central claim: the Dynamic
//! Workload Generator, fed only a particle trace and the configuration,
//! reproduces the application's actual per-rank workload *exactly* —
//! for every mapping algorithm, across rank counts, and through the
//! on-disk trace codec.

use pic_grid::ElementMesh;
use pic_mapping::MappingAlgorithm;
use pic_predict::workload_matches_ground_truth;
use pic_sim::{MiniPic, ScenarioKind, SimConfig};
use pic_trace::{codec, ParticleTrace};
use pic_workload::{replay, DynamicWorkload, ReplayOptions, SweepPoint, WorkloadConfig};

/// One configuration through the replay door.
fn generate(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> DynamicWorkload {
    let opts = ReplayOptions::new(mesh, None, None);
    replay(trace, &[SweepPoint::new(cfg.clone())], &opts)
        .unwrap()
        .0
        .remove(0)
}

fn cfg(mapping: MappingAlgorithm, scenario: ScenarioKind, ranks: usize) -> SimConfig {
    SimConfig {
        ranks,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles: 500,
        steps: 40,
        sample_interval: 10,
        mapping,
        scenario,
        ..SimConfig::default()
    }
}

fn mesh_of(cfg: &SimConfig) -> ElementMesh {
    ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order).unwrap()
}

#[test]
fn dwg_matches_ground_truth_for_every_mapper() {
    for mapping in [
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::BinBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ] {
        let cfg = cfg(mapping, ScenarioKind::HeleShaw, 16);
        let mesh = mesh_of(&cfg);
        let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
        let wcfg = WorkloadConfig::new(cfg.ranks, mapping, cfg.projection_filter);
        let w = generate(&out.trace, &wcfg, Some(&mesh));
        workload_matches_ground_truth(&w, &out.ground_truth)
            .unwrap_or_else(|e| panic!("{mapping}: {e}"));
    }
}

#[test]
fn dwg_matches_ground_truth_for_every_scenario() {
    for scenario in [
        ScenarioKind::HeleShaw,
        ScenarioKind::UniformCloud,
        ScenarioKind::VortexCluster,
    ] {
        let cfg = cfg(MappingAlgorithm::BinBased, scenario, 8);
        let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
        let wcfg = WorkloadConfig::new(cfg.ranks, cfg.mapping, cfg.projection_filter);
        let w = generate(&out.trace, &wcfg, None);
        workload_matches_ground_truth(&w, &out.ground_truth)
            .unwrap_or_else(|e| panic!("{scenario}: {e}"));
    }
}

#[test]
fn dwg_matches_after_f64_codec_roundtrip() {
    // The on-disk trace must carry enough information to regenerate the
    // identical workload.
    let cfg = cfg(MappingAlgorithm::BinBased, ScenarioKind::HeleShaw, 12);
    let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
    let bytes = codec::encode_trace(&out.trace, codec::Precision::F64).unwrap();
    let trace = codec::decode_trace(&bytes).unwrap();
    assert_eq!(trace, out.trace);
    let wcfg = WorkloadConfig::new(cfg.ranks, cfg.mapping, cfg.projection_filter);
    let w = generate(&trace, &wcfg, None);
    workload_matches_ground_truth(&w, &out.ground_truth).unwrap();
}

#[test]
fn f32_codec_workload_is_close_but_boundary_safe() {
    // f32 storage loses ~1e-7 of position precision: real-particle counts
    // may shift by boundary particles but totals are conserved.
    let cfg = cfg(MappingAlgorithm::BinBased, ScenarioKind::HeleShaw, 8);
    let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
    let bytes = codec::encode_trace(&out.trace, codec::Precision::F32).unwrap();
    let trace = codec::decode_trace(&bytes).unwrap();
    let wcfg = WorkloadConfig::new(cfg.ranks, cfg.mapping, cfg.projection_filter);
    let w64 = generate(&out.trace, &wcfg, None);
    let w32 = generate(&trace, &wcfg, None);
    for t in 0..w64.samples() {
        assert_eq!(w32.real.sample_total(t), w64.real.sample_total(t));
        // peaks agree within a tiny tolerance
        let p64 = w64.real.sample_row(t).iter().copied().max().unwrap();
        let p32 = w32.real.sample_row(t).iter().copied().max().unwrap();
        assert!(
            (p64 as i64 - p32 as i64).abs() <= 3,
            "sample {t}: f64 peak {p64} vs f32 peak {p32}"
        );
    }
}

#[test]
fn single_trace_serves_any_rank_count() {
    // Generate once at the app's R, then re-target the same trace to other
    // Rs; particle totals are always conserved and the peak is
    // non-increasing in R (bin-based with tiny threshold).
    let cfg = cfg(MappingAlgorithm::BinBased, ScenarioKind::HeleShaw, 16);
    let out = MiniPic::new(cfg).unwrap().run().unwrap();
    let mut prev_peak = u32::MAX;
    for ranks in [2, 8, 32, 128] {
        let wcfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 1e-4);
        let w = generate(&out.trace, &wcfg, None);
        for t in 0..w.samples() {
            assert_eq!(w.real.sample_total(t), 500);
        }
        assert!(w.peak_workload() <= prev_peak);
        prev_peak = w.peak_workload();
    }
}

#[test]
fn subsampled_trace_is_a_subset_of_the_full_workload() {
    let cfg = cfg(MappingAlgorithm::BinBased, ScenarioKind::VortexCluster, 8);
    let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
    let wcfg = WorkloadConfig::new(cfg.ranks, cfg.mapping, cfg.projection_filter);
    let full = generate(&out.trace, &wcfg, None);
    let sub = generate(&out.trace.subsample(2), &wcfg, None);
    assert_eq!(sub.samples(), full.samples().div_ceil(2));
    for (k, t) in (0..full.samples()).step_by(2).enumerate() {
        assert_eq!(sub.real.sample_row(k), full.real.sample_row(t));
        assert_eq!(sub.ghost_recv.sample_row(k), full.ghost_recv.sample_row(t));
    }
}

#[test]
fn ghost_aggregates_balance_across_every_sample() {
    let cfg = cfg(
        MappingAlgorithm::ElementBased,
        ScenarioKind::UniformCloud,
        27,
    );
    let mesh = mesh_of(&cfg);
    let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
    let wcfg = WorkloadConfig::new(cfg.ranks, cfg.mapping, cfg.projection_filter);
    let w = generate(&out.trace, &wcfg, Some(&mesh));
    for t in 0..w.samples() {
        assert_eq!(w.ghost_recv.sample_total(t), w.ghost_sent.sample_total(t));
    }
    // a uniform cloud with a non-trivial filter must create some ghosts
    let total: u64 = (0..w.samples()).map(|t| w.ghost_recv.sample_total(t)).sum();
    assert!(total > 0);
}

#[test]
fn extrapolated_trace_flows_through_the_whole_pipeline() {
    // The §VI future-work path end to end: cheap run → extrapolate →
    // DWG → conservation and domain invariants hold for the synthetic
    // population exactly as for a real one.
    let cfg = cfg(MappingAlgorithm::BinBased, ScenarioKind::HeleShaw, 8);
    let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
    let big = pic_trace::extrapolate(&out.trace, 2500, 7).unwrap();
    assert_eq!(big.particle_count(), 2500);
    for t in 0..big.sample_count() {
        for p in big.positions_at(t) {
            assert!(cfg.domain.contains_closed(*p));
        }
    }
    let wcfg = WorkloadConfig::new(32, MappingAlgorithm::BinBased, cfg.projection_filter);
    let w = generate(&big, &wcfg, None);
    for t in 0..w.samples() {
        assert_eq!(w.real.sample_total(t), 2500);
        assert_eq!(w.ghost_recv.sample_total(t), w.ghost_sent.sample_total(t));
    }
    // peak per rank scales with the population (xN particles ⇒ ~xN peak)
    let w_small = generate(&out.trace, &wcfg, None);
    let ratio = w.peak_workload() as f64 / w_small.peak_workload().max(1) as f64;
    let expect = 2500.0 / cfg.particles as f64;
    assert!(
        (ratio / expect - 1.0).abs() < 0.5,
        "peak ratio {ratio:.2} vs population ratio {expect:.2}"
    );
}

#[test]
fn extrapolate_cli_refuses_a_zero_particle_trace() {
    // A valid file (the codec round-trips it) with samples but no
    // particles: exit 1 naming the count, never a panic.
    let dir = std::env::temp_dir().join(format!("picpredict_extrapolate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, out) = (dir.join("empty.pictrace"), dir.join("big.pictrace"));
    let meta = pic_trace::TraceMeta::new(0, 10, pic_types::Aabb::unit(), "no particles");
    let mut trace = ParticleTrace::new(meta);
    trace.push_positions(Vec::new()).unwrap();
    trace.push_positions(Vec::new()).unwrap();
    codec::save_file(&trace, &input, codec::Precision::F64).unwrap();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_picpredict"))
        .args(["extrapolate", "--particles", "10", "--trace"])
        .arg(&input)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run picpredict");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: trace format error: cannot extrapolate a trace of 0 particles"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!out.exists());
    std::fs::remove_dir_all(&dir).ok();
}
