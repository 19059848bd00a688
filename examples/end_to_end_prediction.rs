//! End-to-end system-level prediction: run the mini-app once, then predict
//! its execution time on two different target machines (Quartz-like and
//! Vulcan-like) under both synchronization semantics, and validate the
//! kernel models against the application's own measurements.
//!
//! This is the full paper workflow including the part the paper left as
//! future work (trace-driven system-level simulation in BE-SST) — here the
//! `pic-des` platform performs it.
//!
//! ```sh
//! cargo run --release --example end_to_end_prediction
//! ```

use pic_des::{MachineSpec, SyncMode};
use pic_predict::{predict, run_case_study, FitStrategy, PredictSpec};
use pic_sim::{ScenarioKind, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig {
        ranks: 32,
        mesh_dims: pic_grid::MeshDims::cube(6),
        particles: 8000,
        steps: 100,
        sample_interval: 10,
        scenario: ScenarioKind::HeleShaw,
        ..SimConfig::default()
    };
    println!(
        "application: {} particles / {} elements / {} ranks / {} mapping\n",
        cfg.particles,
        cfg.element_count(),
        cfg.ranks,
        cfg.mapping
    );

    let quartz = MachineSpec::quartz_like();
    let out = run_case_study(&cfg, &quartz, &FitStrategy::default())?;

    println!("model validation vs instrumented kernels (Fig 7):");
    for (kernel, mape) in &out.kernel_mape {
        println!("  {kernel:<24} MAPE {mape:6.2}%");
    }
    println!(
        "  => average {:.2}% (paper: 8.42%), peak {:.2}% (paper: 17.7%)\n",
        out.mean_kernel_mape(),
        out.peak_kernel_mape()
    );

    // The same trace and models, re-predicted for other machines and
    // synchronization semantics: one call each, no application run.
    let spec = |machine: MachineSpec, sync: SyncMode| PredictSpec {
        mapping: cfg.mapping,
        filter: cfg.projection_filter,
        mesh: Some(cfg.mesh_dims),
        order: cfg.order,
        machine,
        sync,
        ..PredictSpec::new(cfg.ranks)
    };
    println!(
        "system-level predictions ({} super-steps):",
        out.workload.samples()
    );
    for machine in [MachineSpec::quartz_like(), MachineSpec::vulcan_like()] {
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let t = predict(
                &out.sim.trace,
                &out.models,
                &spec(machine.clone(), mode),
                None,
            )?
            .timeline;
            println!(
                "  {:<12} {:<9} total {:>9.4} s   idle {:>5.1}%   events {}",
                machine.name,
                mode.to_string(),
                t.total_seconds,
                100.0 * t.mean_idle_fraction(),
                t.events_processed
            );
        }
    }

    println!("\nper-rank finish times on quartz-like (barrier):");
    let t = &out.timeline;
    let min = t.rank_finish.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = t.rank_finish.iter().cloned().fold(0.0f64, f64::max);
    println!("  min {min:.4} s, max {max:.4} s (bulk-synchronous ⇒ identical finish)");
    println!(
        "  busiest-rank idle {:.1}%, laziest-rank idle {:.1}%",
        100.0 * t.rank_idle.iter().cloned().fold(f64::INFINITY, f64::min) / t.total_seconds,
        100.0 * t.rank_idle.iter().cloned().fold(0.0f64, f64::max) / t.total_seconds
    );
    Ok(())
}
