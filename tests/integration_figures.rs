//! Scaled-down regeneration of every paper figure, asserting the
//! qualitative *shape* each figure demonstrates (who wins, what grows,
//! where the caps fall). The `figures` binary in `pic-bench` prints the
//! full series; these tests pin the shapes in CI.

use pic_des::MachineSpec;
use pic_grid::ElementMesh;
use pic_mapping::MappingAlgorithm;
use pic_predict::{predict_grid, run_case_study, FitStrategy, PredictSpec, SweepGridSpec};
use pic_sim::{KernelKind, MiniPic, ScenarioKind, SimConfig};
use pic_trace::ParticleTrace;
use pic_workload::generator::unbounded_bin_series;
use pic_workload::metrics;
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

/// Ghost-free workloads of the `mappings` × `ranks` grid at one filter,
/// from one replay, keyed by the point each belongs to.
fn ghost_free_grid(
    trace: &ParticleTrace,
    mappings: &[MappingAlgorithm],
    ranks: &[usize],
    filter: f64,
    mesh: Option<&ElementMesh>,
) -> Vec<(SweepPoint, DynamicWorkload)> {
    let grid = SweepGridSpec {
        mappings: mappings.to_vec(),
        ranks: ranks.to_vec(),
        filters: vec![filter],
        strides: vec![1],
        compute_ghosts: false,
    };
    let points = grid.points();
    let opts = ReplayOptions::new(mesh, None, None);
    let (workloads, _) = replay(trace, &points, &opts).unwrap();
    points.into_iter().zip(workloads).collect()
}

/// The workload of `grid` at `(mapping, ranks)`.
fn at(
    grid: &[(SweepPoint, DynamicWorkload)],
    mapping: MappingAlgorithm,
    ranks: usize,
) -> &DynamicWorkload {
    let (_, w) = (grid.iter())
        .find(|(p, _)| p.config.mapping == mapping && p.config.ranks == ranks)
        .unwrap();
    w
}

/// The Hele-Shaw mini-app run shared by the figure tests.
fn hele_shaw_trace(particles: usize, steps: usize) -> (SimConfig, ParticleTrace) {
    let cfg = SimConfig {
        ranks: 16,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles,
        steps,
        sample_interval: 10,
        scenario: ScenarioKind::HeleShaw,
        mapping: MappingAlgorithm::BinBased,
        ..SimConfig::default()
    };
    let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
    (cfg, out.trace)
}

#[test]
fn fig1_element_mapping_leaves_most_ranks_idle() {
    // Fig 1a/1b: with element-based mapping of a concentrated bed, the
    // overwhelming majority of ranks hold zero particles ("on average, 81 %
    // of processors have zero particle workload").
    let (cfg, trace) = hele_shaw_trace(800, 40);
    let mesh = ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order).unwrap();
    let mut idle_fractions = Vec::new();
    for ranks in [16, 32, 64] {
        let wcfg = WorkloadConfig::new(ranks, MappingAlgorithm::ElementBased, 1e-3);
        let w = generate(&trace, &wcfg, Some(&mesh));
        idle_fractions.push(metrics::mean_idle_fraction(&w.real));
    }
    for (i, f) in idle_fractions.iter().enumerate() {
        assert!(*f > 0.5, "config {i}: idle fraction {f}");
    }
    // heat-map export works and has R rows
    let wcfg = WorkloadConfig::new(16, MappingAlgorithm::ElementBased, 1e-3);
    let w = generate(&trace, &wcfg, Some(&mesh));
    assert_eq!(w.real.to_csv().lines().count(), 16);
}

#[test]
fn fig5_peak_workload_flat_then_dips() {
    // Fig 5: with the bin-size threshold active, the early peak workload is
    // IDENTICAL across rank counts (bins < R for all of them); later, as
    // the bed expands and more bins become available, larger R pulls the
    // peak down.
    let (_cfg, trace) = hele_shaw_trace(1500, 80);
    // Calibrated so the early bed (extent ~0.6) supports only ~4 bins —
    // below every rank count in the sweep — while the dispersed bed
    // (extent ~1.0) supports ~27.
    let threshold = 0.4;
    let ranks_list = [8usize, 16, 32, 64];
    let bins = [MappingAlgorithm::BinBased];
    let grid = ghost_free_grid(&trace, &bins, &ranks_list, threshold, None);
    let series: Vec<Vec<u32>> = grid.iter().map(|(_, w)| w.real.peak_series()).collect();
    // early samples: bed is tiny, few bins possible → identical peaks
    let first: Vec<u32> = series.iter().map(|s| s[0]).collect();
    assert!(
        first.windows(2).all(|w| w[0] == w[1]),
        "early peaks {first:?}"
    );
    // late samples: the expanded bed supports more bins → more ranks help
    let last: Vec<u32> = series.iter().map(|s| *s.last().unwrap()).collect();
    assert!(
        last.last().unwrap() < last.first().unwrap(),
        "late peaks should drop with more ranks: {last:?}"
    );
}

#[test]
fn fig6_bin_count_grows_and_caps_the_useful_rank_count() {
    let (_cfg, trace) = hele_shaw_trace(1500, 80);
    let bin_series = unbounded_bin_series(&trace, &[0.2]).unwrap().remove(0);
    // bins grow as the particle boundary expands
    assert!(
        bin_series.last().unwrap() > bin_series.first().unwrap(),
        "{bin_series:?}"
    );
    let optimal = *bin_series.iter().max().unwrap();
    assert!(optimal > 1);
    // the bounded workload at R >> optimal uses exactly `optimal` bins max
    let wcfg = WorkloadConfig::new(optimal * 8, MappingAlgorithm::BinBased, 0.2);
    let w = generate(&trace, &wcfg, None);
    assert_eq!(w.max_bin_count().unwrap(), optimal);
}

#[test]
fn fig7_kernel_mape_in_paper_regime_across_rank_counts() {
    // Fig 7 reports per-kernel MAPE for several processor configurations,
    // averaging 8.42 % with 17.7 % peak.
    for ranks in [8usize, 16] {
        let cfg = SimConfig {
            ranks,
            mesh_dims: pic_grid::MeshDims::cube(4),
            order: 3,
            particles: 600,
            steps: 40,
            sample_interval: 10,
            ..SimConfig::default()
        };
        let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
        let avg = out.mean_kernel_mape();
        assert!(avg > 1.0 && avg < 15.0, "ranks {ranks}: avg MAPE {avg}");
        assert!(
            out.peak_kernel_mape() < 45.0,
            "ranks {ranks}: peak {}",
            out.peak_kernel_mape()
        );
    }
}

#[test]
fn fig8_bin_mapping_peak_is_far_below_element_mapping() {
    // Fig 8: "a couple of orders reduction in peak particle workload".
    // At mini scale we require at least ~8x.
    let (cfg, trace) = hele_shaw_trace(2000, 40);
    let mesh = ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order).unwrap();
    let mappings = [MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased];
    let grid = ghost_free_grid(&trace, &mappings, &[32, 64], 1e-3, Some(&mesh));
    let peak = |m: MappingAlgorithm, r: usize| at(&grid, m, r).peak_workload();
    // At mini scale (64 elements instead of the paper's 216k) the gap is
    // ~one order of magnitude rather than two; the figures binary shows the
    // gap widening with problem scale.
    for (r, factor) in [(32usize, 6), (64, 10)] {
        let el = peak(MappingAlgorithm::ElementBased, r);
        let bin = peak(MappingAlgorithm::BinBased, r);
        assert!(
            el >= factor * bin,
            "ranks {r}: element peak {el} should dwarf bin peak {bin} (x{factor})"
        );
    }
    // element peak decreases as ranks increase (the hot elements spread out)
    assert!(peak(MappingAlgorithm::ElementBased, 64) <= peak(MappingAlgorithm::ElementBased, 32));
}

#[test]
fn fig9_utilization_gap_between_mappings() {
    // Fig 9: bin-based 56 % vs element-based 0.68 % processor utilization.
    let (cfg, trace) = hele_shaw_trace(2000, 40);
    let mesh = ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order).unwrap();
    let mappings = [MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased];
    let grid = ghost_free_grid(&trace, &mappings, &[64], 1e-3, Some(&mesh));
    let (el, bin) = (&grid[0].1.real, &grid[1].1.real);
    let (el_ru, bin_ru) = (
        metrics::resource_utilization(el),
        metrics::resource_utilization(bin),
    );
    // Mini-scale proxy for the paper's 56 % vs 0.68 %: the element-mapped
    // run never activates most ranks even after dispersal, bin-based
    // activates essentially all of them.
    assert!(el_ru < 0.5, "element RU {el_ru}");
    assert!(bin_ru > 0.9, "bin RU {bin_ru}");
    assert!(bin_ru > 2.0 * el_ru);
    assert!(metrics::active_rank_count(bin) > metrics::active_rank_count(el));

    // Before dispersal the contrast is paper-like: the packed bed touches
    // only a handful of element-owning ranks.
    let mut early = trace.clone();
    early.truncate(2);
    let grid = ghost_free_grid(&early, &mappings, &[64], 1e-3, Some(&mesh));
    let early_ru: Vec<f64> = (grid.iter())
        .map(|(_, w)| metrics::resource_utilization(&w.real))
        .collect();
    assert!(early_ru[0] < 0.2, "early element RU {}", early_ru[0]);
    assert!(early_ru[1] > 0.9);
}

#[test]
fn fig10_filter_tradeoff() {
    // Fig 10a: smaller filter → more bins. Fig 10b: larger filter → more
    // ghosts → longer create_ghost_particles.
    let cfg = SimConfig {
        ranks: 16,
        mesh_dims: pic_grid::MeshDims::cube(4),
        order: 3,
        particles: 700,
        steps: 40,
        sample_interval: 10,
        ..SimConfig::default()
    };
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::Linear).unwrap();
    let grid = SweepGridSpec {
        mappings: vec![MappingAlgorithm::BinBased],
        ranks: vec![16],
        filters: vec![0.01, 0.02, 0.04, 0.08],
        strides: vec![1],
        compute_ghosts: true,
    };
    let specs: Vec<PredictSpec> = (grid.points().iter())
        .map(|p| PredictSpec {
            mapping: p.config.mapping,
            filter: p.config.projection_filter,
            mesh: Some(cfg.mesh_dims),
            order: cfg.order,
            ..PredictSpec::new(p.config.ranks)
        })
        .collect();
    let predictions = predict_grid(&out.sim.trace, &out.models, &specs, None).unwrap();
    // 10a: max bins non-increasing, strictly lower at the coarse end
    let filters: Vec<f64> = specs.iter().map(|s| s.filter).collect();
    let max_bins: Vec<usize> = (unbounded_bin_series(&out.sim.trace, &filters).unwrap())
        .into_iter()
        .map(|series| series.into_iter().max().unwrap())
        .collect();
    for w in max_bins.windows(2) {
        assert!(w[0] >= w[1]);
    }
    assert!(max_bins.first().unwrap() > max_bins.last().unwrap());
    // 10b: ghost totals and predicted ghost-kernel time increase overall
    let (first, last) = (&predictions[0], &predictions[3]);
    assert!(last.summary.total_ghosts > first.summary.total_ghosts);
    let ghost_kernel =
        |p: &pic_predict::Prediction| p.critical_kernel_seconds(KernelKind::CreateGhostParticles);
    assert!(ghost_kernel(last) > ghost_kernel(first));
    // the fluid share per rank `predict` derives from the mesh is the one
    // the app ran with
    let mesh = ElementMesh::new(out.sim.trace.meta().domain, cfg.mesh_dims, cfg.order).unwrap();
    let rcb = pic_grid::RcbDecomposition::decompose(&mesh, 16).unwrap();
    let rcb: Vec<u32> = rcb.element_counts().iter().map(|&c| c as u32).collect();
    assert_eq!(rcb, out.sim.ground_truth.elements_per_rank);
}
