//! Performance tuning via a parameter study (paper §IV-D, Fig 10): sweep
//! the projection filter size and quantify its two opposing effects —
//! smaller filters allow more particle bins (better load distribution),
//! larger filters multiply ghost particles and the
//! `create_ghost_particles` kernel time.
//!
//! ```sh
//! cargo run --release --example parameter_study
//! ```

use pic_des::MachineSpec;
use pic_mapping::MappingAlgorithm;
use pic_predict::{predict_grid, run_case_study, FitStrategy, PredictSpec, SweepGridSpec};
use pic_sim::{KernelKind, ScenarioKind, SimConfig};
use pic_workload::generator::unbounded_bin_series;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig {
        ranks: 32,
        mesh_dims: pic_grid::MeshDims::cube(6),
        particles: 6000,
        steps: 80,
        sample_interval: 10,
        scenario: ScenarioKind::HeleShaw,
        projection_filter: 0.03,
        ..SimConfig::default()
    };

    // One run provides the trace AND the training data for the models.
    println!("running the application once to collect trace + training data...");
    let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::default())?;

    // One prediction per filter, all from one replay of the trace.
    let grid = SweepGridSpec {
        mappings: vec![MappingAlgorithm::BinBased],
        ranks: vec![cfg.ranks],
        filters: vec![0.01, 0.02, 0.03, 0.05, 0.08, 0.12],
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
    let predictions = predict_grid(&out.sim.trace, &out.models, &specs, None)?;
    // (filter, max bins, total ghosts, create_ghost_particles seconds)
    let mut pts = Vec::new();
    let filters: Vec<f64> = specs.iter().map(|s| s.filter).collect();
    let series = unbounded_bin_series(&out.sim.trace, &filters)?;
    for ((spec, p), bins) in specs.iter().zip(&predictions).zip(series) {
        let seconds = p.critical_kernel_seconds(KernelKind::CreateGhostParticles);
        let max_bins = bins.into_iter().max().unwrap_or(0);
        pts.push((spec.filter, max_bins, p.summary.total_ghosts, seconds));
    }

    println!("\nFig 10a/10b — projection filter trade-off:");
    println!(
        "  {:>8} {:>10} {:>14} {:>24}",
        "filter", "max bins", "total ghosts", "create_ghost time [s]"
    );
    for (filter, max_bins, ghosts, seconds) in &pts {
        println!("  {filter:>8.3} {max_bins:>10} {ghosts:>14} {seconds:>24.6e}");
    }

    let first = pts.first().unwrap();
    let last = pts.last().unwrap();
    println!(
        "\n=> filter {}x larger: {}x fewer bins available, {}x more ghosts, {:.1}x ghost-kernel time",
        last.0 / first.0,
        first.1 as f64 / last.1.max(1) as f64,
        last.2.max(1) as f64 / first.2.max(1) as f64,
        last.3 / first.3.max(1e-30)
    );
    println!(
        "   application users can trade simulation accuracy (filter spread)\n   \
         against performance before committing to a hero run."
    );
    Ok(())
}
