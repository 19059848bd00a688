//! Regenerate every figure of the paper's evaluation (§IV) as printed
//! series and CSV files.
//!
//! ```sh
//! cargo run --release -p pic-bench --bin figures            # all, mini scale
//! cargo run --release -p pic-bench --bin figures -- fig5    # one figure
//! cargo run --release -p pic-bench --bin figures -- all --full-scale
//! ```
//!
//! * mini scale (default): the mini-app is actually executed to produce
//!   the trace and training data; every figure completes in seconds to a
//!   few minutes.
//! * `--full-scale`: the paper's Hele-Shaw dimensions (599,257 particles,
//!   216,000 elements, 1044–8352 ranks). The trace is synthesized with the
//!   same dispersal shape instead of running the mini-app for 1500 steps
//!   (DESIGN.md documents this substitution); the Dynamic Workload
//!   Generator, mapping algorithms, and simulation platform — the systems
//!   under evaluation — run for real at full scale.
//!
//! CSVs land in `figures_out/` (override with `--out DIR`). Any other
//! argument is an error naming it.
#![forbid(unsafe_code)]

#[path = "figures/setup.rs"]
mod setup;

use pic_des::MachineSpec;
use pic_grid::ElementMesh;
use pic_mapping::MappingAlgorithm;
use pic_predict::{predict_grid, run_case_study, FitStrategy, PredictSpec, SweepGridSpec};
use pic_sim::{KernelKind, MiniPic, SimConfig};
use pic_trace::ParticleTrace;
use pic_workload::generator::unbounded_bin_series;
use pic_workload::{metrics, replay, DynamicWorkload, ReplayOptions, SweepPoint};
use setup::{fmt_series, oracle_models, synthetic_expanding_trace, write_csv, Scale};

struct Ctx {
    scale: Scale,
    out_dir: String,
    cfg: SimConfig,
    trace: ParticleTrace,
    mesh: ElementMesh,
}

/// Every figure the binary regenerates, in the order it runs them.
const FIGURES: [&str; 9] = [
    "fig1a", "fig1b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b",
];

/// The command line: where the CSVs go, at which scale, and which figures
/// (none named, or `all`, means every one).
struct Args {
    out_dir: String,
    full_scale: bool,
    figures: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            out_dir: "figures_out".to_string(),
            full_scale: false,
            figures: Vec::new(),
        };
        let mut all = false;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--out" => parsed.out_dir = args.next().ok_or("--out needs a directory")?.clone(),
                "--full-scale" => parsed.full_scale = true,
                "all" => all = true,
                fig if FIGURES.contains(&fig) => parsed.figures.push(fig.to_string()),
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (expected --out DIR, --full-scale, all or {})",
                        FIGURES.join(", ")
                    ))
                }
            }
        }
        if all || parsed.figures.is_empty() {
            parsed.figures = FIGURES.map(String::from).to_vec();
        }
        Ok(parsed)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2)
    });
    let want = |f: &str| args.figures.iter().any(|g| g == f);

    let scale = if args.full_scale {
        Scale::Paper
    } else {
        Scale::Mini
    };
    let cfg = scale.hele_shaw_config();
    let mesh = ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order).expect("valid mesh");

    eprintln!(
        "# scale: {scale:?} — {} particles, {} elements, rank sweep {:?}",
        cfg.particles,
        cfg.element_count(),
        scale.rank_sweep()
    );
    let trace = match scale {
        Scale::Mini => {
            eprintln!("# running the mini PIC application to collect the trace...");
            let t0 = std::time::Instant::now();
            let out = MiniPic::new(cfg.clone())
                .expect("valid config")
                .run()
                .expect("app runs");
            eprintln!("#   done in {:.1} s", t0.elapsed().as_secs_f64());
            out.trace
        }
        Scale::Paper => {
            eprintln!("# synthesizing a paper-scale dispersal trace (see DESIGN.md)...");
            synthetic_expanding_trace(cfg.particles, 15, cfg.seed)
        }
    };

    let ctx = Ctx {
        scale,
        out_dir: args.out_dir.clone(),
        cfg,
        trace,
        mesh,
    };
    if want("fig1a") {
        fig1a(&ctx);
    }
    if want("fig1b") {
        fig1b(&ctx);
    }
    if want("fig5") {
        fig5(&ctx);
    }
    if want("fig6") {
        fig6(&ctx);
    }
    if want("fig7") {
        fig7(&ctx);
    }
    // Figs 8 and 9 read one mapping comparison: it runs once for whichever
    // of the two are asked for.
    if want("fig8") || want("fig9") {
        fig8_9(&ctx, want("fig8"), want("fig9"));
    }
    if want("fig10a") {
        fig10a(&ctx);
    }
    if want("fig10b") {
        fig10b(&ctx);
    }
    eprintln!("# CSVs written to {}/", ctx.out_dir);
}

/// Fig 5/6's bin-size threshold: large enough that the early (packed) bed
/// supports fewer bins than the smallest rank count, so the flat region is
/// visible, while the dispersed bed supports more than intermediate counts.
fn fig5_threshold(scale: Scale) -> f64 {
    match scale {
        Scale::Mini => 0.35,
        // calibrated so the dispersed bed supports ~1100 bins — the paper's
        // regime, where the cap sits just above the smallest rank count
        Scale::Paper => 0.065,
    }
}

/// Ghost-free workloads of every `mappings` × `rank_counts` point at one
/// filter, from one replay, in [`SweepGridSpec`] order.
fn ghost_free_grid(
    ctx: &Ctx,
    mappings: &[MappingAlgorithm],
    rank_counts: &[usize],
    filter: f64,
) -> Vec<(SweepPoint, DynamicWorkload)> {
    let grid = SweepGridSpec {
        mappings: mappings.to_vec(),
        ranks: rank_counts.to_vec(),
        filters: vec![filter],
        strides: vec![1],
        compute_ghosts: false,
    };
    let points = grid.points();
    let opts = ReplayOptions::new(Some(&ctx.mesh), None, None);
    let (workloads, _) = replay(&ctx.trace, &points, &opts).expect("workload");
    points.into_iter().zip(workloads).collect()
}

const ELEMENT: [MappingAlgorithm; 1] = [MappingAlgorithm::ElementBased];

fn heatmap_rank_count(scale: Scale) -> usize {
    match scale {
        Scale::Mini => 64,
        Scale::Paper => 4096, // the paper's Fig 1a was 4096 ranks on Vulcan
    }
}

fn fig1a(ctx: &Ctx) {
    println!("\n== Fig 1a: particle-distribution heat map (element-based mapping) ==");
    let ranks = [heatmap_rank_count(ctx.scale)];
    let (_, w) = ghost_free_grid(ctx, &ELEMENT, &ranks, ctx.cfg.projection_filter).remove(0);
    let csv = w.real.to_csv();
    let path = write_csv(&ctx.out_dir, "fig1a_heatmap.csv", &csv).expect("write csv");
    let pgm = std::path::Path::new(&ctx.out_dir).join("fig1a_heatmap.ppm");
    pic_workload::heatmap::save(&w.real, &pgm, pic_workload::heatmap::ColorMap::Heat, 4)
        .expect("write heatmap image");
    let white = (0..w.ranks)
        .filter(|&r| (0..w.samples()).all(|t| w.real.get(pic_types::Rank::from_index(r), t) == 0))
        .count();
    println!(
        "  {} ranks x {} samples; CSV rows are ranks: {}",
        w.ranks,
        w.samples(),
        path.display()
    );
    println!("  rendered image: {}", pgm.display());
    println!(
        "  'white patches' (ranks with zero particles THROUGHOUT): {} / {} ({:.1}%)",
        white,
        w.ranks,
        100.0 * white as f64 / w.ranks as f64
    );
}

fn fig1b(ctx: &Ctx) {
    println!("\n== Fig 1b: ranks with non-zero particles, per rank count ==");
    let mut csv = String::from("ranks,mean_active,mean_active_pct,mean_idle_pct\n");
    let mut idle_pcts = Vec::new();
    let filter = ctx.cfg.projection_filter;
    for (p, w) in ghost_free_grid(ctx, &ELEMENT, &ctx.scale.rank_sweep(), filter) {
        let ranks = p.config.ranks;
        let series = metrics::active_fraction_series(&w.real);
        let mean_active = pic_types::stats::mean(&series);
        let idle_pct = 100.0 * (1.0 - mean_active);
        idle_pcts.push(idle_pct);
        println!(
            "  R={ranks:>6}: avg active ranks {:>8.1} ({:>5.1}%), idle {:>5.1}%",
            mean_active * ranks as f64,
            100.0 * mean_active,
            idle_pct
        );
        csv.push_str(&format!(
            "{ranks},{:.3},{:.2},{:.2}\n",
            mean_active * ranks as f64,
            100.0 * mean_active,
            idle_pct
        ));
    }
    write_csv(&ctx.out_dir, "fig1b_active_ranks.csv", &csv).expect("write csv");
    println!(
        "  => average idle fraction across configurations: {:.1}% (paper: 81%)",
        pic_types::stats::mean(&idle_pcts)
    );
}

fn fig5(ctx: &Ctx) {
    println!("\n== Fig 5: max particles per rank over iterations (bin-based) ==");
    let threshold = fig5_threshold(ctx.scale);
    let bins = [MappingAlgorithm::BinBased];
    let grid = ghost_free_grid(ctx, &bins, &ctx.scale.rank_sweep(), threshold);
    let pts: Vec<(usize, Vec<u32>)> = (grid.iter())
        .map(|(p, w)| (p.config.ranks, w.real.peak_series()))
        .collect();
    let iters = ctx.trace.iterations();
    let mut csv = String::from("iteration");
    for (ranks, _) in &pts {
        csv.push_str(&format!(",R{ranks}"));
    }
    csv.push('\n');
    print!("  iteration ");
    for (ranks, _) in &pts {
        print!("{:>10}", format!("R={ranks}"));
    }
    println!();
    for (t, &iter) in iters.iter().enumerate() {
        print!("  {iter:>9} ");
        csv.push_str(&iter.to_string());
        for (_, peaks) in &pts {
            print!("{:>10}", peaks[t]);
            csv.push_str(&format!(",{}", peaks[t]));
        }
        println!();
        csv.push('\n');
    }
    write_csv(&ctx.out_dir, "fig5_peak_workload.csv", &csv).expect("write csv");
    println!("  (threshold = {threshold}; flat rows ⇒ the bin cap, not R, limits distribution)");
}

fn fig6(ctx: &Ctx) {
    println!("\n== Fig 6: particle bins generated over the run (unbounded) ==");
    let threshold = fig5_threshold(ctx.scale);
    let mut series = unbounded_bin_series(&ctx.trace, &[threshold]).expect("bin series");
    let series = series.remove(0);
    let mut csv = String::from("iteration,bins\n");
    for (iter, bins) in ctx.trace.iterations().iter().zip(&series) {
        println!("  iteration {iter:>7}: {bins} bins");
        csv.push_str(&format!("{iter},{bins}\n"));
    }
    write_csv(&ctx.out_dir, "fig6_bin_counts.csv", &csv).expect("write csv");
    println!(
        "  => optimal processor count: {} (paper found 1104)",
        series.iter().max().unwrap_or(&0)
    );
}

fn fig7(ctx: &Ctx) {
    println!("\n== Fig 7: per-kernel model MAPE across rank counts ==");
    // Model accuracy needs instrumented app runs; these stay app-scale even
    // under --full-scale (the paper likewise trained on instrumented runs
    // far smaller than the predicted system).
    let rank_counts: &[usize] = match ctx.scale {
        Scale::Mini => &[8, 16, 32],
        Scale::Paper => &[16, 32, 64],
    };
    let mut csv = String::from("kernel");
    for r in rank_counts {
        csv.push_str(&format!(",R{r}"));
    }
    csv.push('\n');
    let mut per_rank_results = Vec::new();
    for &ranks in rank_counts {
        let cfg = SimConfig {
            ranks,
            mesh_dims: pic_grid::MeshDims::cube(6),
            order: 3,
            particles: 4000,
            steps: 80,
            sample_interval: 10,
            ..SimConfig::default()
        };
        let out = run_case_study(&cfg, &MachineSpec::quartz_like(), &FitStrategy::default())
            .expect("pipeline");
        per_rank_results.push(out);
    }
    let kernels = per_rank_results[0]
        .kernel_mape
        .iter()
        .map(|&(k, _)| k)
        .collect::<Vec<_>>();
    print!("  {:<24}", "kernel");
    for r in rank_counts {
        print!("{:>9}", format!("R={r}"));
    }
    println!();
    let mut all = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        print!("  {:<24}", k.to_string());
        csv.push_str(&k.to_string());
        for out in &per_rank_results {
            let m = out.kernel_mape[i].1;
            print!("{m:>8.2}%");
            csv.push_str(&format!(",{m:.3}"));
            all.push(m);
        }
        println!();
        csv.push('\n');
    }
    write_csv(&ctx.out_dir, "fig7_kernel_mape.csv", &csv).expect("write csv");
    println!(
        "  => average MAPE {:.2}% (paper: 8.42%), peak {:.2}% (paper: 17.7%)",
        pic_types::stats::mean(&all),
        pic_types::stats::max(&all)
    );
}

/// One rank count of the mapping comparison: its element- and bin-based
/// workloads.
type Compared<'a> = (usize, &'a DynamicWorkload, &'a DynamicWorkload);

fn fig8_9(ctx: &Ctx, fig8: bool, fig9: bool) {
    let mappings = [MappingAlgorithm::ElementBased, MappingAlgorithm::BinBased];
    let filter = ctx.cfg.projection_filter;
    let grid = ghost_free_grid(ctx, &mappings, &ctx.scale.rank_sweep(), filter);
    // mapping-major: the element-based half, then the bin-based half
    let (element, bin) = grid.split_at(grid.len() / 2);
    let rows: Vec<Compared> = (element.iter().zip(bin))
        .map(|((p, el), (_, bin))| (p.config.ranks, el, bin))
        .collect();
    if fig8 {
        print_fig8(ctx, &rows);
    }
    if fig9 {
        print_fig9(ctx, &rows);
    }
}

fn print_fig8(ctx: &Ctx, rows: &[Compared]) {
    println!("\n== Fig 8: peak particle workload, bin- vs element-based ==");
    let mut csv = String::from("ranks,element_peak,bin_peak,ratio\n");
    println!(
        "  {:>8} {:>14} {:>10} {:>8}",
        "ranks", "element peak", "bin peak", "ratio"
    );
    for &(r, el, bin) in rows {
        let (el, bin) = (el.peak_workload(), bin.peak_workload());
        let ratio = el as f64 / bin.max(1) as f64;
        println!("  {r:>8} {el:>14} {bin:>10} {ratio:>7.1}x");
        csv.push_str(&format!("{r},{el},{bin},{ratio:.2}\n"));
    }
    write_csv(&ctx.out_dir, "fig8_peak_comparison.csv", &csv).expect("write csv");
    println!("  (paper: roughly two orders of magnitude at full scale)");
}

fn print_fig9(ctx: &Ctx, rows: &[Compared]) {
    println!("\n== Fig 9: processor utilization, bin- vs element-based ==");
    let mut csv = String::from("ranks,element_active,element_pct,bin_active,bin_pct\n");
    println!(
        "  {:>8} {:>22} {:>22}",
        "ranks", "element active (pct)", "bin active (pct)"
    );
    for &(r, el, bin) in rows {
        let [(el_active, el_pct), (bin_active, bin_pct)] = [el, bin].map(|w| {
            let pct = 100.0 * metrics::resource_utilization(&w.real);
            (metrics::active_rank_count(&w.real), pct)
        });
        println!("  {r:>8} {el_active:>14} ({el_pct:>5.2}%) {bin_active:>14} ({bin_pct:>5.2}%)");
        csv.push_str(&format!(
            "{r},{el_active},{el_pct:.3},{bin_active},{bin_pct:.3}\n"
        ));
    }
    write_csv(&ctx.out_dir, "fig9_utilization.csv", &csv).expect("write csv");
    println!("  (paper at R=1044: element 4 ranks = 0.68%, bin 584 ranks = 56.13%)");
}

fn fig10a(ctx: &Ctx) {
    println!("\n== Fig 10a: projection-filter parameter study ==");
    let mut csv = String::from("filter,max_bins\n");
    let filters = ctx.scale.filter_sweep();
    let all = unbounded_bin_series(&ctx.trace, &filters).expect("bin series");
    for (filter, series) in filters.into_iter().zip(all) {
        let max_bins = series.into_iter().max().unwrap_or(0);
        println!("  filter {filter:>7.3}: max bins {max_bins}");
        csv.push_str(&format!("{filter},{max_bins}\n"));
    }
    write_csv(&ctx.out_dir, "fig10a_bins_vs_filter.csv", &csv).expect("write csv");
    println!("  (smaller filter ⇒ lower threshold ⇒ more bins; paper shape identical)");
}

/// The filter sweep through the product: bin-based predictions at the
/// smallest rank count, one per filter, with the fluid share per rank that
/// `predict` derives from the mesh.
fn fig10b(ctx: &Ctx) {
    println!("\n== Fig 10b: projection-filter parameter study ==");
    let ranks = ctx.scale.rank_sweep()[0];
    let grid = SweepGridSpec {
        mappings: vec![MappingAlgorithm::BinBased],
        ranks: vec![ranks],
        filters: ctx.scale.filter_sweep(),
        strides: vec![1],
        compute_ghosts: true,
    };
    let specs: Vec<PredictSpec> = (grid.points().iter())
        .map(|p| PredictSpec {
            mapping: p.config.mapping,
            filter: p.config.projection_filter,
            mesh: Some(ctx.cfg.mesh_dims),
            order: ctx.cfg.order,
            ..PredictSpec::new(p.config.ranks)
        })
        .collect();
    let models = oracle_models(ctx.cfg.seed);
    let predictions = predict_grid(&ctx.trace, &models, &specs, None).expect("filter study");
    let ghost_seconds: Vec<f64> = (predictions.iter())
        .map(|p| p.critical_kernel_seconds(KernelKind::CreateGhostParticles))
        .collect();
    let mut csv = String::from("filter,total_ghosts,create_ghost_seconds\n");
    for ((spec, p), seconds) in specs.iter().zip(&predictions).zip(&ghost_seconds) {
        let (filter, ghosts) = (spec.filter, p.summary.total_ghosts);
        println!(
            "  filter {filter:>7.3}: ghosts {ghosts:>10}, create_ghost_particles {seconds:.4e} s"
        );
        csv.push_str(&format!("{filter},{ghosts},{seconds:.6e}\n"));
    }
    write_csv(&ctx.out_dir, "fig10b_ghost_kernel.csv", &csv).expect("write csv");
    println!("  series: {}", fmt_series(&ghost_seconds));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    /// An out directory is never read as a figure name, whatever it is
    /// called: the default `figures_out` included.
    #[test]
    fn out_dir_named_like_a_figure_still_selects_every_figure() {
        for line in ["--out figures_out", "--out fig10b", "--out fig5 all"] {
            let args = parse(line).unwrap();
            assert_eq!(args.figures, FIGURES.map(String::from).to_vec(), "{line}");
            assert_eq!(args.out_dir, line.split_whitespace().nth(1).unwrap());
        }
        let args = parse("fig5 --out figures_out fig10b --full-scale").unwrap();
        assert_eq!(
            (args.out_dir.as_str(), args.full_scale),
            ("figures_out", true)
        );
        assert_eq!(args.figures, ["fig5", "fig10b"]);
        assert_eq!(parse("").unwrap().out_dir, "figures_out");
    }

    #[test]
    fn unknown_words_are_refused_by_name() {
        for (line, word) in [
            ("fig11", "fig11"),
            ("fig5 fig10", "fig10"),
            ("--scale", "--scale"),
        ] {
            let err = parse(line).err().unwrap();
            assert!(
                err.starts_with(&format!("unknown argument '{word}'")),
                "{line}: {err}"
            );
        }
        assert_eq!(parse("--out").err().unwrap(), "--out needs a directory");
    }
}
