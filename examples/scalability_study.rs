//! Scalability prediction (paper §IV-B, Figs 5 and 6): collect ONE trace
//! from a Hele-Shaw run, then predict the particle workload at many
//! processor counts without ever re-running the application, and derive
//! the optimal processor count from the unbounded bin-count series.
//!
//! ```sh
//! cargo run --release --example scalability_study [-- --full-scale]
//! ```

use pic_mapping::MappingAlgorithm;
use pic_predict::SweepGridSpec;
use pic_sim::{MiniPic, ScenarioKind, SimConfig};
use pic_workload::generator::unbounded_bin_series;
use pic_workload::{replay, ReplayOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full_scale = std::env::args().any(|a| a == "--full-scale");
    // Paper case study: 599,257 particles / 216,225 elements / trace from
    // 1024 ranks, predicted at 1044..8352. Default: a laptop-scale replica.
    let (cfg, rank_counts, threshold) = if full_scale {
        (
            SimConfig {
                ranks: 1024,
                mesh_dims: pic_grid::MeshDims::new(60, 60, 60),
                particles: 599_257,
                steps: 400,
                sample_interval: 100,
                projection_filter: 0.02,
                scenario: ScenarioKind::HeleShaw,
                mapping: MappingAlgorithm::BinBased,
                ..SimConfig::default()
            },
            vec![1044usize, 2088, 4176, 8352],
            0.02,
        )
    } else {
        (
            SimConfig {
                ranks: 16,
                mesh_dims: pic_grid::MeshDims::cube(6),
                particles: 6000,
                steps: 120,
                sample_interval: 10,
                projection_filter: 0.04,
                scenario: ScenarioKind::HeleShaw,
                mapping: MappingAlgorithm::BinBased,
                ..SimConfig::default()
            },
            vec![16usize, 32, 64, 128],
            0.15,
        )
    };

    if full_scale {
        eprintln!(
            "note: --full-scale runs the actual mini-app at the paper's dimensions; \
             expect hours. The `figures --full-scale` binary instead synthesizes the \
             trace (DESIGN.md) and finishes in minutes."
        );
    }
    println!(
        "collecting one trace: {} particles, {} elements, {} steps...",
        cfg.particles,
        cfg.element_count(),
        cfg.steps
    );
    let t0 = std::time::Instant::now();
    let out = MiniPic::new(cfg.clone())?.run()?;
    println!("  application run: {:.2} s", t0.elapsed().as_secs_f64());

    println!("\nFig 5 — peak particles per rank over the run, per rank count:");
    let t0 = std::time::Instant::now();
    // Peak-workload scaling needs real-particle counts only: one ghost-free
    // replay serves every rank count.
    let grid = SweepGridSpec {
        mappings: vec![MappingAlgorithm::BinBased],
        ranks: rank_counts.clone(),
        filters: vec![threshold],
        strides: vec![1],
        compute_ghosts: false,
    };
    let (workloads, _) = replay(&out.trace, &grid.points(), &ReplayOptions::default())?;
    println!(
        "  workload generation for {} rank counts: {:.2} s (vs re-running the app {}x)",
        rank_counts.len(),
        t0.elapsed().as_secs_f64(),
        rank_counts.len()
    );
    print!("  iteration ");
    for ranks in &rank_counts {
        print!("{:>10}", format!("R={ranks}"));
    }
    println!();
    let peaks: Vec<Vec<u32>> = workloads.iter().map(|w| w.real.peak_series()).collect();
    let iters = out.trace.iterations();
    for (t, &iter) in iters.iter().enumerate() {
        print!("  {iter:>9} ");
        for series in &peaks {
            print!("{:>10}", series[t]);
        }
        println!();
    }

    println!("\nFig 6 — unbounded bin count (threshold {threshold}):");
    let bins = unbounded_bin_series(&out.trace, &[threshold])?.remove(0);
    for (iter, count) in iters.iter().zip(&bins) {
        println!("  iteration {iter:>6}: {count} bins");
    }
    println!(
        "\n=> optimal processor count for this problem: {} (paper's analogue: 1104)",
        bins.iter().max().unwrap_or(&0)
    );
    println!("   scaling beyond it cannot improve the particle-solver workload.");
    Ok(())
}
