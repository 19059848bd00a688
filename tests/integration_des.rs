//! Integration of the DES simulation platform with real pipeline output:
//! schedules built from generated workloads and fitted models, simulated
//! on target machine specs.

use pic_des::{simulate, MachineSpec, SyncMode};
use pic_mapping::MappingAlgorithm;
use pic_predict::{build_schedule, predict_grid, run_case_study, FitStrategy, PredictSpec};
use pic_sim::{ScenarioKind, SimConfig};

fn cfg() -> SimConfig {
    SimConfig {
        ranks: 8,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles: 500,
        steps: 40,
        sample_interval: 10,
        scenario: ScenarioKind::VortexCluster,
        mapping: MappingAlgorithm::ElementBased,
        ..SimConfig::default()
    }
}

#[test]
fn schedule_from_real_pipeline_simulates_on_both_modes() {
    let cfg = cfg();
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    let schedule = build_schedule(
        &out.workload,
        &out.predicted_kernel_seconds,
        cfg.sample_interval as u32,
        80,
    );
    let machine = MachineSpec::quartz_like();
    let barrier = simulate(&schedule, &machine, SyncMode::BulkSynchronous).unwrap();
    let neighbor = simulate(&schedule, &machine, SyncMode::NeighborSync).unwrap();
    assert!(barrier.total_seconds >= neighbor.total_seconds - 1e-12);
    assert_eq!(barrier.rank_finish.len(), cfg.ranks);
    assert_eq!(barrier.step_finish.len(), schedule.len());
    // steps finish in order
    for w in barrier.step_finish.windows(2) {
        assert!(w[1] >= w[0]);
    }
}

#[test]
fn predicted_particle_solver_time_saturates_at_the_bin_cap() {
    // The paper's §IV-B conclusion: "scaling the processor count beyond
    // [the bin cap] has no impact on particle-solver performance". Isolate
    // the particle solver by predicting without a mesh, so with zero
    // elements per rank (the fluid solve is the regular workload and
    // scales trivially), then
    // check predicted time improves up to the cap and is *identical* past
    // it — surplus ranks hold no bins, so the schedule does not change.
    let base = SimConfig {
        scenario: ScenarioKind::HeleShaw,
        mapping: MappingAlgorithm::BinBased,
        particles: 1200,
        steps: 40,
        sample_interval: 10,
        ranks: 16,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        projection_filter: 0.05,
        ..SimConfig::default()
    };
    let out = run_case_study(&base, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    let bins =
        pic_workload::generator::unbounded_bin_series(&out.sim.trace, &[base.projection_filter]);
    let cap = bins.unwrap().remove(0).into_iter().max().unwrap();
    assert!(cap >= 4, "cap {cap} too small to exercise the sweep");

    // zero the collective cost: it scales with log2(R) by design and would
    // mask the particle-solver saturation this test isolates
    let mut machine = MachineSpec::quartz_like();
    machine.collective_latency = 0.0;
    let grid = pic_predict::SweepGridSpec {
        mappings: vec![base.mapping],
        ranks: vec![(cap / 2).max(1), cap, cap * 2, cap * 4],
        filters: vec![base.projection_filter],
        strides: vec![1],
        compute_ghosts: true,
    };
    let specs: Vec<PredictSpec> = (grid.points().iter())
        .map(|p| PredictSpec {
            mapping: p.config.mapping,
            filter: p.config.projection_filter,
            order: base.order,
            machine: machine.clone(),
            ..PredictSpec::new(p.config.ranks)
        })
        .collect();
    let predictions = predict_grid(&out.sim.trace, &out.models, &specs, None).unwrap();
    let [below, at, twice, quad] = [0, 1, 2, 3].map(|i| predictions[i].timeline.total_seconds);
    // improvement while bins are still rank-limited
    assert!(at < below, "below-cap {below} vs at-cap {at}");
    // saturation beyond the cap: workloads are identical up to padding
    assert!(
        (twice - quad).abs() < 1e-9 * twice.max(1e-30),
        "past the cap: {twice} vs {quad}"
    );
    assert!(twice <= at * 1.0001);
}

#[test]
fn heavier_communication_costs_show_up_in_timeline() {
    let cfg = cfg();
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    // same schedule, particle payload 80 B vs 8 kB
    let light = build_schedule(
        &out.workload,
        &out.predicted_kernel_seconds,
        cfg.sample_interval as u32,
        80,
    );
    let heavy = build_schedule(
        &out.workload,
        &out.predicted_kernel_seconds,
        cfg.sample_interval as u32,
        8000,
    );
    let mut machine = MachineSpec::quartz_like();
    machine.link_bandwidth = 1e7; // slow link to make payload visible
    let t_light = simulate(&light, &machine, SyncMode::BulkSynchronous).unwrap();
    let t_heavy = simulate(&heavy, &machine, SyncMode::BulkSynchronous).unwrap();
    assert!(
        t_heavy.total_seconds > t_light.total_seconds,
        "heavy {} vs light {}",
        t_heavy.total_seconds,
        t_light.total_seconds
    );
}

#[test]
fn blind_prediction_at_scale_beyond_the_app_run() {
    // The BE-SST lineage: validate small, predict big. Simulate the same
    // schedule on a machine model much larger than anything we ran — the
    // point is that the simulator doesn't care.
    let cfg = cfg();
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    let schedule = build_schedule(
        &out.workload,
        &out.predicted_kernel_seconds,
        cfg.sample_interval as u32,
        80,
    );
    for machine in [MachineSpec::quartz_like(), MachineSpec::vulcan_like()] {
        let t = simulate(&schedule, &machine, SyncMode::BulkSynchronous).unwrap();
        assert!(
            t.total_seconds.is_finite() && t.total_seconds > 0.0,
            "{}",
            machine.name
        );
    }
}

#[test]
fn des_events_scale_with_schedule_size() {
    let cfg = cfg();
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    let schedule = build_schedule(
        &out.workload,
        &out.predicted_kernel_seconds,
        cfg.sample_interval as u32,
        80,
    );
    let machine = MachineSpec::quartz_like();
    let full = simulate(&schedule, &machine, SyncMode::NeighborSync).unwrap();
    let half = simulate(
        &schedule[..schedule.len() / 2],
        &machine,
        SyncMode::NeighborSync,
    )
    .unwrap();
    assert!(full.events_processed > half.events_processed);
    assert!(full.total_seconds >= half.total_seconds);
}

/// The `machine-16k` regime at full width: 16 384 ranks, three in four
/// idle with one identical compute time (so thousands of events tie on
/// time), the rest loaded unevenly and exchanging particles with near and
/// far ranks. The fold must be the event-per-message simulation bit for
/// bit, in both modes.
#[test]
fn fold_is_the_event_simulation_at_16k_ranks() {
    use pic_des::reference::simulate_reference;
    use pic_des::StepWorkload;
    use pic_types::rng::SplitMix64;
    const RANKS: u32 = 16_384;
    const STEPS: usize = 8;
    let mut rng = SplitMix64::new(20210517);
    let schedule: Vec<StepWorkload> = (0..STEPS)
        .map(|s| {
            let compute_seconds = (0..RANKS)
                .map(|r| match r % 4 {
                    0 => rng.next_range(1e-4, 5e-3),
                    _ => 2.5e-4,
                })
                .collect();
            let mut messages = Vec::new();
            for r in (0..RANKS).step_by(4) {
                let bytes = 80 * (1 + rng.next_below(500));
                // an idle neighbour, a loaded rank far away (twice on odd
                // steps: a repeated pair), and now and then itself
                messages.push((r, r + 1, bytes));
                let far = (r + 4 * (1 + rng.next_below(1000)) as u32) % RANKS;
                messages.push((r, far, bytes / 2));
                if s % 2 == 1 {
                    messages.push((r, far, 0));
                }
                if r % 64 == 0 {
                    messages.push((r, r, bytes));
                }
            }
            StepWorkload {
                compute_seconds,
                messages,
            }
        })
        .collect();
    let messages: u64 = schedule.iter().map(|s| s.messages.len() as u64).sum();
    let machine = MachineSpec::quartz_like();
    for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
        let fold = simulate(&schedule, &machine, mode).unwrap();
        let oracle = simulate_reference(&schedule, &machine, mode).unwrap();
        assert_eq!(fold, oracle, "{mode:?}");
        assert_eq!(
            fold.events_processed,
            RANKS as u64 * STEPS as u64 + messages
        );
        assert!(fold.rank_idle.iter().any(|&i| i > 0.0));
    }
}
