//! End-to-end pipeline integration: mini-app → trace → DWG → models →
//! kernel predictions → DES application prediction, across configurations.

use pic_des::MachineSpec;
use pic_mapping::MappingAlgorithm;
use pic_predict::{run_case_study, FitStrategy, KernelModels, PredictSpec};
use pic_sim::{KernelKind, MiniPic, ScenarioKind, SimConfig};

fn base_cfg() -> SimConfig {
    SimConfig {
        ranks: 8,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles: 400,
        steps: 30,
        sample_interval: 10,
        ..SimConfig::default()
    }
}

#[test]
fn case_study_runs_for_all_mappings() {
    for mapping in [
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::BinBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ] {
        let mut cfg = base_cfg();
        cfg.mapping = mapping;
        let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear)
            .unwrap_or_else(|e| panic!("{mapping}: {e}"));
        assert!(out.timeline.total_seconds > 0.0, "{mapping}");
        assert_eq!(out.predicted_kernel_seconds.len(), 3);
        assert_eq!(out.kernel_mape.len(), 6);
    }
}

#[test]
fn paper_accuracy_regime_holds() {
    // The paper reports 8.42 % average / 17.7 % peak kernel MAPE. With the
    // oracle's 10 % multiplicative noise our pipeline must land in the same
    // regime (single-digit-to-low-teens average).
    let mut cfg = base_cfg();
    cfg.particles = 800;
    cfg.steps = 50;
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    let avg = out.mean_kernel_mape();
    let peak = out.peak_kernel_mape();
    assert!(avg < 15.0, "average MAPE {avg}");
    assert!(peak < 45.0, "peak MAPE {peak}");
    assert!(peak >= avg);
}

#[test]
fn models_fitted_on_one_run_transfer_to_another_seed() {
    // Train on seed A, predict run with seed B (same problem class): the
    // models describe the kernels, not the specific run.
    let mut cfg_a = base_cfg();
    cfg_a.seed = 111;
    let out_a = run_case_study(&cfg_a, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();

    let mut cfg_b = base_cfg();
    cfg_b.seed = 222;
    let sim_b = MiniPic::new(cfg_b.clone()).unwrap().run().unwrap();
    let spec = PredictSpec {
        mapping: cfg_b.mapping,
        filter: cfg_b.projection_filter,
        mesh: Some(cfg_b.mesh_dims),
        order: cfg_b.order,
        ..PredictSpec::new(cfg_b.ranks)
    };
    let predicted = pic_predict::predict(&sim_b.trace, &out_a.models, &spec, None)
        .unwrap()
        .kernel_seconds;
    let mapes = pic_predict::kernel_mape_vs_ground_truth(&predicted, &sim_b.ground_truth).unwrap();
    for (k, m) in mapes {
        assert!(m < 25.0, "{k}: transfer MAPE {m}");
    }
}

#[test]
fn model_json_roundtrip_preserves_predictions() {
    let cfg = base_cfg();
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    let json = out.models.to_json();
    let back = KernelModels::from_json(&json).unwrap();
    let p = pic_sim::instrument::WorkloadParams {
        np: 123.0,
        ngp: 45.0,
        nel: 8.0,
        n_order: 3.0,
        filter: 0.04,
    };
    for k in KernelKind::ALL {
        assert_eq!(back.predict(k, &p), out.models.predict(k, &p), "{k}");
    }
}

#[test]
fn slower_network_slows_prediction_when_messages_matter() {
    // A vortex scenario with element mapping migrates particles constantly;
    // choking the network must not *reduce* predicted time.
    let mut cfg = base_cfg();
    cfg.scenario = ScenarioKind::VortexCluster;
    cfg.mapping = MappingAlgorithm::ElementBased;
    let fast = MachineSpec::quartz_like();
    let mut slow = MachineSpec::quartz_like();
    slow.link_latency = 5e-3;
    slow.link_bandwidth = 1e6;
    let out_fast = run_case_study(&cfg, &fast, &FitStrategy::Linear).unwrap();
    let out_slow = run_case_study(&cfg, &slow, &FitStrategy::Linear).unwrap();
    assert!(out_slow.timeline.total_seconds >= out_fast.timeline.total_seconds);
}

#[test]
fn bin_mapping_predicts_shorter_time_than_element_for_hele_shaw() {
    // The paper's bottom line: better load balance → shorter predicted
    // execution. Same trace-level problem, two mappings.
    let mut cfg_el = base_cfg();
    cfg_el.mapping = MappingAlgorithm::ElementBased;
    cfg_el.particles = 600;
    let mut cfg_bin = cfg_el.clone();
    cfg_bin.mapping = MappingAlgorithm::BinBased;
    cfg_bin.projection_filter = 0.01; // fine threshold → bins == ranks

    let machine = MachineSpec::quartz_like();
    let el = run_case_study(&cfg_el, &machine, &FitStrategy::Linear).unwrap();
    let bin = run_case_study(&cfg_bin, &machine, &FitStrategy::Linear).unwrap();
    assert!(
        bin.timeline.total_seconds < el.timeline.total_seconds,
        "bin {} vs element {}",
        bin.timeline.total_seconds,
        el.timeline.total_seconds
    );
    // and the element-mapped run shows more idle time
    assert!(el.timeline.mean_idle_fraction() > bin.timeline.mean_idle_fraction());
}

#[test]
fn wall_clock_mode_full_pipeline() {
    // The real-timing path end-to-end (accuracy depends on the host, so
    // only structural assertions).
    let mut cfg = base_cfg();
    cfg.timing = pic_sim::config::TimingMode::WallClock;
    cfg.steps = 20;
    let out = run_case_study(&cfg, &MachineSpec::localhost(8), &FitStrategy::Linear).unwrap();
    assert!(out.timeline.total_seconds > 0.0);
    assert!(!out.models.kernels().is_empty());
}
