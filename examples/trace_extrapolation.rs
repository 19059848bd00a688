//! Trace extrapolation (the paper's §VI future work): collect a *cheap*
//! small-particle-count trace, synthesize a representative full-scale
//! trace from it, and show that the workload predictions made from the
//! extrapolated trace track the ones a real full-scale trace would give.
//!
//! ```sh
//! cargo run --release --example trace_extrapolation
//! ```

use pic_mapping::MappingAlgorithm;
use pic_sim::{MiniPic, ScenarioKind, SimConfig};
use pic_trace::extrapolate::{density_distance, extrapolate};
use pic_trace::stats::estimated_file_size;
use pic_trace::Precision;
use pic_workload::{metrics, replay, ReplayOptions, SweepPoint, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The "low-fidelity execution": a cheap run with few particles.
    let small_cfg = SimConfig {
        ranks: 16,
        mesh_dims: pic_grid::MeshDims::cube(6),
        particles: 1500,
        steps: 100,
        sample_interval: 10,
        scenario: ScenarioKind::HeleShaw,
        mapping: MappingAlgorithm::BinBased,
        ..SimConfig::default()
    };
    // The "expensive" reference run, 8x the particles (at real scale this
    // is the run you could NOT afford — here we run it to validate).
    let big_cfg = SimConfig {
        particles: 12_000,
        ..small_cfg.clone()
    };

    println!(
        "running the cheap {}-particle trace collection...",
        small_cfg.particles
    );
    let small = MiniPic::new(small_cfg.clone())?.run()?;
    println!(
        "running the expensive {}-particle reference...",
        big_cfg.particles
    );
    let reference = MiniPic::new(big_cfg.clone())?.run()?;

    println!(
        "\nextrapolating {} -> {} particles...",
        small_cfg.particles, big_cfg.particles
    );
    let synthetic = extrapolate(&small.trace, big_cfg.particles, 42)?;

    println!(
        "trace sizes (f32): small {} kB, extrapolated {} kB (collection cost ratio ~{}x)",
        estimated_file_size(
            small_cfg.particles,
            small.trace.sample_count(),
            Precision::F32
        ) / 1024,
        estimated_file_size(big_cfg.particles, synthetic.sample_count(), Precision::F32) / 1024,
        big_cfg.particles / small_cfg.particles
    );

    println!("\ndensity similarity to the real full-scale trace (total variation, 0 = identical):");
    for t in [
        0,
        synthetic.sample_count() / 2,
        synthetic.sample_count() - 1,
    ] {
        let d_synth = density_distance(&reference.trace, &synthetic, t, 4);
        let d_small = density_distance(&reference.trace, &small.trace, t, 4);
        println!("  sample {t:>2}: extrapolated {d_synth:.3} (small source itself: {d_small:.3})");
    }

    // Element-based mapping is the discriminating test: its workload is a
    // direct function of the spatial density the extrapolation must get
    // right (bin-based would balance ANY density perfectly).
    println!("\nworkload predictions at R=64 (element-based), peak particles per rank:");
    let mesh = pic_grid::ElementMesh::new(small_cfg.domain, small_cfg.mesh_dims, small_cfg.order)?;
    let point = SweepPoint::new(WorkloadConfig::new(
        64,
        MappingAlgorithm::ElementBased,
        small_cfg.projection_filter,
    ));
    let opts = ReplayOptions::new(Some(&mesh), None, None);
    let w_ref = replay(&reference.trace, std::slice::from_ref(&point), &opts)?
        .0
        .remove(0);
    let w_syn = replay(&synthetic, &[point], &opts)?.0.remove(0);
    println!(
        "  {:<14}{:>12}{:>16}",
        "sample", "reference", "extrapolated"
    );
    for t in 0..w_ref.samples() {
        println!(
            "  {:<14}{:>12}{:>16}",
            w_ref.iterations[t],
            w_ref.real.peak_series()[t],
            w_syn.real.peak_series()[t]
        );
    }
    let ru_ref = metrics::resource_utilization(&w_ref.real);
    let ru_syn = metrics::resource_utilization(&w_syn.real);
    println!(
        "\n  utilization: reference {:.1}%, extrapolated {:.1}%",
        100.0 * ru_ref,
        100.0 * ru_syn
    );

    let peak_err = {
        let a: Vec<f64> = w_syn.real.peak_series().iter().map(|&v| v as f64).collect();
        let b: Vec<f64> = w_ref.real.peak_series().iter().map(|&v| v as f64).collect();
        pic_types::stats::mape(&a, &b)
    };
    println!("  peak-workload MAPE of the extrapolated trace vs the real one: {peak_err:.1}%");
    println!(
        "\n=> a {}x cheaper collection run predicts full-scale workload within ~{:.0}%",
        big_cfg.particles / small_cfg.particles,
        peak_err.ceil()
    );
    Ok(())
}
