//! Mapping-algorithm evaluation (paper §IV-C, Figs 8 and 9): compare
//! element-based, bin-based, and Hilbert-ordered particle mapping on the
//! same Hele-Shaw trace — peak workload and processor utilization —
//! without implementing or running any of them at scale.
//!
//! ```sh
//! cargo run --release --example mapping_comparison
//! ```

use pic_grid::ElementMesh;
use pic_mapping::MappingAlgorithm;
use pic_predict::SweepGridSpec;
use pic_sim::{MiniPic, ScenarioKind, SimConfig};
use pic_workload::{metrics, replay, DynamicWorkload, ReplayOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig {
        ranks: 16,
        mesh_dims: pic_grid::MeshDims::cube(6),
        particles: 8000,
        steps: 100,
        sample_interval: 10,
        scenario: ScenarioKind::HeleShaw,
        mapping: MappingAlgorithm::BinBased,
        projection_filter: 0.02,
        ..SimConfig::default()
    };
    println!(
        "trace: {} particles, {} elements, {} samples",
        cfg.particles,
        cfg.element_count(),
        cfg.steps / cfg.sample_interval
    );
    let out = MiniPic::new(cfg.clone())?.run()?;
    let mesh = ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order)?;

    let rank_counts = [16usize, 32, 64, 128];
    let algorithms = [
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::BinBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ];
    // Every mapping x rank count point from one ghost-free replay.
    let grid = SweepGridSpec {
        mappings: algorithms.to_vec(),
        ranks: rank_counts.to_vec(),
        filters: vec![cfg.projection_filter],
        strides: vec![1],
        compute_ghosts: false,
    };
    let points = grid.points();
    let opts = ReplayOptions::new(Some(&mesh), None, None);
    let (workloads, _) = replay(&out.trace, &points, &opts)?;
    let eval = |mapping: MappingAlgorithm, ranks: usize| -> &DynamicWorkload {
        let at = (points.iter())
            .position(|p| p.config.mapping == mapping && p.config.ranks == ranks)
            .unwrap();
        &workloads[at]
    };
    let utilization = |mapping, ranks| metrics::resource_utilization(&eval(mapping, ranks).real);

    println!("\nFig 8 — peak particle workload per rank count:");
    print!("  {:<18}", "mapping");
    for r in rank_counts {
        print!("{:>10}", format!("R={r}"));
    }
    println!();
    for alg in algorithms {
        print!("  {:<18}", alg.to_string());
        for r in rank_counts {
            print!("{:>10}", eval(alg, r).peak_workload());
        }
        println!();
    }

    println!("\nFig 9 — processor utilization (time-averaged active ranks):");
    print!("  {:<18}", "mapping");
    for r in rank_counts {
        print!("{:>10}", format!("R={r}"));
    }
    println!();
    for alg in algorithms {
        print!("  {:<18}", alg.to_string());
        for r in rank_counts {
            print!("{:>9.1}%", 100.0 * utilization(alg, r));
        }
        println!();
    }

    let (el, bin) = (MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased);
    println!(
        "\n=> at R=128, bin-based mapping cuts the peak workload {}x \
         (paper: two orders of magnitude at full scale)",
        eval(el, 128).peak_workload() / eval(bin, 128).peak_workload().max(1)
    );
    println!(
        "   and lifts utilization from {:.1}% to {:.1}% (paper: 0.68% -> 56.13%)",
        100.0 * utilization(el, 128),
        100.0 * utilization(bin, 128)
    );
    Ok(())
}
