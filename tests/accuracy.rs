//! Accuracy v0: predicted seconds against observed seconds, at mini scale,
//! gated against the committed `ACCURACY.json` at the repo root.
//!
//! Every `pic-sim` scenario × mapping (bin, element, Hilbert,
//! load-balanced) × three rank counts is one cell. Each cell runs the
//! mini-app under oracle timing (so every number is deterministic),
//! replays its trace through the DWG and records:
//!
//! - the DWG's real, ghost and migration totals, which must equal the
//!   mini-app's ground truth sample by sample (`workload_matches_ground_truth`);
//! - the in-sample MAPE of each kernel's linear model against the observed
//!   kernel seconds (Fig 7);
//! - the end-to-end signed error: one schedule folded with the observed
//!   kernel seconds and again with the predicted ones, under both sync
//!   modes, `100 · (predicted − observed) / observed`;
//! - the end-to-end signed error against the mini-app's application clock
//!   (`pic_sim::clock`): the predicted `BulkSynchronous` seconds against
//!   seconds priced every iteration, not folded from the samples. The
//!   errors above share the predictor's fold, so they measure model error
//!   only; this one also measures what the fold assumes.
//!
//! The gate: counts equal the committed ones exactly; each error lies
//! within [`TOLERANCE_PCT`] percentage points of its committed value, so a
//! change that moves accuracy shows up in review; and each error lies
//! within its cell's committed budget. Budgets were set from the first
//! committed run plus a margin ([`first_budget`]) and are carried over
//! unchanged when the file is regenerated; nothing here loosens them.
//!
//! Every run writes the regenerated document to this test's scratch
//! directory (the path is printed) with the committed budgets. A change
//! that moves accuracy on purpose replaces `ACCURACY.json` with it. With no
//! committed file the regenerated document carries first budgets, and the
//! test fails and names it, so that it is reviewed and copied in by hand.

use pic_des::{MachineSpec, SyncMode};
use pic_grid::ElementMesh;
use pic_mapping::MappingAlgorithm;
use pic_predict::pipeline::bytes_per_particle;
use pic_predict::{
    build_schedule, kernel_mape_vs_ground_truth, predict_application, predict_kernel_seconds,
    workload_matches_ground_truth, FitStrategy, KernelModels,
};
use pic_sim::{MiniPic, ScenarioKind, SimConfig};
use pic_workload::{replay, ReplayOptions, SweepPoint, WorkloadConfig};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// How far (percentage points) a regenerated error may sit from its
/// committed value: above the last-digit noise of a different `libm`, far
/// below any change to a model, a mapper or the fold.
const TOLERANCE_PCT: f64 = 0.05;

const SCENARIOS: [ScenarioKind; 3] = [
    ScenarioKind::HeleShaw,
    ScenarioKind::UniformCloud,
    ScenarioKind::VortexCluster,
];
const MAPPINGS: [MappingAlgorithm; 4] = [
    MappingAlgorithm::BinBased,
    MappingAlgorithm::ElementBased,
    MappingAlgorithm::HilbertOrdered,
    MappingAlgorithm::LoadBalanced,
];
const RANKS: [usize; 3] = [16, 64, 256];

/// The mini scale is `SimConfig::default()`'s: an 8³ mesh (512 elements, so
/// every rank count fits the element mapping), 4 000 particles, ten
/// samples.
fn config(scenario: ScenarioKind, mapping: MappingAlgorithm, ranks: usize) -> SimConfig {
    SimConfig {
        ranks,
        scenario,
        mapping,
        clock: Some(MachineSpec::quartz_like()),
        ..SimConfig::default()
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct KernelError {
    kernel: String,
    mape_pct: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Cell {
    scenario: String,
    mapping: String,
    ranks: usize,
    /// Real particles summed over ranks and samples.
    real: u64,
    /// Ghost copies received, summed over ranks and samples.
    ghosts: u64,
    /// Migrated particles summed over samples.
    migrations: u64,
    /// In-sample MAPE per kernel, `KernelKind::ALL` order.
    kernel_mape: Vec<KernelError>,
    /// End-to-end signed error under `SyncMode::BulkSynchronous`.
    e2e_err_pct_barrier: f64,
    /// End-to-end signed error under `SyncMode::NeighborSync`.
    e2e_err_pct_neighbor: f64,
    /// Predicted `BulkSynchronous` seconds against the application clock,
    /// signed percent.
    e2e_err_pct_vs_clock: f64,
    /// No kernel's MAPE may exceed this.
    budget_mape_pct: f64,
    /// Neither end-to-end error may exceed this in magnitude.
    budget_e2e_pct: f64,
    /// The error against the clock may not exceed this in magnitude.
    budget_clock_pct: f64,
}

impl Cell {
    fn key(&self) -> (String, String, usize) {
        (self.scenario.clone(), self.mapping.clone(), self.ranks)
    }

    fn errors(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = (self.kernel_mape.iter())
            .map(|k| (format!("{} mape", k.kernel), k.mape_pct))
            .collect();
        out.push(("e2e barrier".into(), self.e2e_err_pct_barrier));
        out.push(("e2e neighbor".into(), self.e2e_err_pct_neighbor));
        out.push(("e2e vs clock".into(), self.e2e_err_pct_vs_clock));
        out
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Accuracy {
    /// What each cell ran: scale, timing and fit.
    scale: String,
    tolerance_pct: f64,
    cells: Vec<Cell>,
}

/// Four decimals: the stored precision of every error.
fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// A first budget: the value's magnitude plus a quarter, plus half a
/// percentage point, rounded up to a half point.
fn first_budget(v: f64) -> f64 {
    ((v.abs() * 1.25 + 0.5) * 2.0).ceil() / 2.0
}

fn run_cell(scenario: ScenarioKind, mapping: MappingAlgorithm, ranks: usize) -> Cell {
    let cfg = config(scenario, mapping, ranks);
    let at = format!("{} {} R={}", scenario.name(), mapping, ranks);
    let out = MiniPic::new(cfg.clone()).unwrap().run().unwrap();
    let gt = &out.ground_truth;
    let mesh = ElementMesh::new(cfg.domain, cfg.mesh_dims, cfg.order).unwrap();
    let point = SweepPoint::new(WorkloadConfig::new(ranks, mapping, cfg.projection_filter));
    let opts = ReplayOptions::new(Some(&mesh), None, None);
    let workload = replay(&out.trace, &[point], &opts).unwrap().0.remove(0);
    workload_matches_ground_truth(&workload, gt).unwrap_or_else(|e| panic!("{at}: {e}"));

    let models = KernelModels::fit(&out.recorder, &FitStrategy::Linear, cfg.seed).unwrap();
    let predicted = predict_kernel_seconds(
        &workload,
        &models,
        &gt.elements_per_rank,
        cfg.order,
        cfg.projection_filter,
    );
    let kernel_mape = kernel_mape_vs_ground_truth(&predicted, gt)
        .unwrap()
        .into_iter()
        .map(|(kernel, mape)| KernelError {
            kernel: kernel.name().to_string(),
            mape_pct: round4(mape),
        })
        .collect();
    let observed: Vec<Vec<[f64; 6]>> = (gt.samples.iter())
        .map(|s| s.kernel_seconds.clone())
        .collect();
    let machine = cfg.clock.clone().expect("the cell runs the clock");
    let interval = out.trace.meta().sample_interval;
    let fold = |kernel_seconds: &[Vec<[f64; 6]>], sync| {
        let schedule = build_schedule(&workload, kernel_seconds, interval, bytes_per_particle());
        predict_application(&schedule, &machine, sync)
            .unwrap()
            .total_seconds
    };
    let e2e = |sync| {
        let (obs, pred) = (fold(&observed, sync), fold(&predicted, sync));
        round4(100.0 * (pred - obs) / obs)
    };
    let clock = out.application_seconds.expect("the cell runs the clock");
    let pred = fold(&predicted, SyncMode::BulkSynchronous);
    let total = |m: &pic_workload::CompMatrix| -> u64 {
        (0..m.samples())
            .map(|t| m.sample_row(t).iter().map(|&c| u64::from(c)).sum::<u64>())
            .sum()
    };
    let mut cell = Cell {
        scenario: scenario.name().to_string(),
        mapping: mapping.to_string(),
        ranks,
        real: total(&workload.real),
        ghosts: total(&workload.ghost_recv),
        migrations: gt.total_migrations(),
        kernel_mape,
        e2e_err_pct_barrier: e2e(SyncMode::BulkSynchronous),
        e2e_err_pct_neighbor: e2e(SyncMode::NeighborSync),
        e2e_err_pct_vs_clock: round4(100.0 * (pred - clock) / clock),
        budget_mape_pct: 0.0,
        budget_e2e_pct: 0.0,
        budget_clock_pct: 0.0,
    };
    let worst_mape = (cell.kernel_mape.iter()).fold(0.0f64, |m, k| m.max(k.mape_pct));
    cell.budget_mape_pct = first_budget(worst_mape);
    cell.budget_e2e_pct = first_budget(
        cell.e2e_err_pct_barrier
            .abs()
            .max(cell.e2e_err_pct_neighbor.abs()),
    );
    cell.budget_clock_pct = first_budget(cell.e2e_err_pct_vs_clock);
    cell
}

fn committed_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ACCURACY.json")
}

fn render(doc: &Accuracy) -> String {
    serde_json::to_string_pretty(doc).unwrap() + "\n"
}

/// `v ≤ bound`, false for a NaN.
fn within(v: f64, bound: f64) -> bool {
    v <= bound
}

/// Every way `fresh` departs from `committed`, one line each.
fn gate(fresh: &Accuracy, committed: &Accuracy) -> Vec<String> {
    let mut faults = Vec::new();
    if fresh.cells.len() != committed.cells.len() {
        faults.push(format!(
            "{} cells, {} committed",
            fresh.cells.len(),
            committed.cells.len()
        ));
    }
    for cell in &fresh.cells {
        let at = format!("{} {} R={}", cell.scenario, cell.mapping, cell.ranks);
        let Some(old) = committed.cells.iter().find(|c| c.key() == cell.key()) else {
            faults.push(format!("{at}: no committed cell"));
            continue;
        };
        let counts = |c: &Cell| (c.real, c.ghosts, c.migrations);
        if counts(cell) != counts(old) {
            faults.push(format!(
                "{at}: (real, ghosts, migrations) {:?}, committed {:?}",
                counts(cell),
                counts(old)
            ));
        }
        for ((name, v), (_, was)) in cell.errors().into_iter().zip(old.errors()) {
            if !within((v - was).abs(), TOLERANCE_PCT) {
                faults.push(format!(
                    "{at}: {name} {v:.4} %, committed {was:.4} % (tolerance {TOLERANCE_PCT})"
                ));
            }
        }
        for k in &cell.kernel_mape {
            if !within(k.mape_pct, old.budget_mape_pct) {
                faults.push(format!(
                    "{at}: {} MAPE {:.4} % over its budget {} %",
                    k.kernel, k.mape_pct, old.budget_mape_pct
                ));
            }
        }
        for v in [cell.e2e_err_pct_barrier, cell.e2e_err_pct_neighbor] {
            if !within(v.abs(), old.budget_e2e_pct) {
                faults.push(format!(
                    "{at}: end-to-end error {v:.4} % over its budget {} %",
                    old.budget_e2e_pct
                ));
            }
        }
        if !within(cell.e2e_err_pct_vs_clock.abs(), old.budget_clock_pct) {
            faults.push(format!(
                "{at}: error against the clock {:.4} % over its budget {} %",
                cell.e2e_err_pct_vs_clock, old.budget_clock_pct
            ));
        }
    }
    faults
}

#[test]
fn accuracy_matches_the_committed_file() {
    let started = std::time::Instant::now();
    let grid: Vec<(ScenarioKind, MappingAlgorithm, usize)> = (SCENARIOS.iter())
        .flat_map(|&s| MAPPINGS.iter().flat_map(move |&m| RANKS.map(|r| (s, m, r))))
        .collect();
    let cells: Vec<Cell> = (grid.par_iter())
        .map(|&(scenario, mapping, ranks)| run_cell(scenario, mapping, ranks))
        .collect();
    let cfg = config(ScenarioKind::HeleShaw, MappingAlgorithm::BinBased, 0);
    let mut fresh = Accuracy {
        scale: format!(
            "{} particles, {} steps sampled every {}, mesh {} order {}, filter {}, \
             oracle timing, linear fit, machine quartz-like",
            cfg.particles,
            cfg.steps,
            cfg.sample_interval,
            cfg.mesh_dims,
            cfg.order,
            cfg.projection_filter
        ),
        tolerance_pct: TOLERANCE_PCT,
        cells,
    };
    println!(
        "{:<15} {:<14} {:>4} {:>9} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "scenario", "mapping", "R", "ghosts", "migr", "max MAPE", "e2e bar", "e2e nbr", "vs clock"
    );
    for c in &fresh.cells {
        let worst = (c.kernel_mape.iter()).fold(0.0f64, |m, k| m.max(k.mape_pct));
        println!(
            "{:<15} {:<14} {:>4} {:>9} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            c.scenario,
            c.mapping,
            c.ranks,
            c.ghosts,
            c.migrations,
            worst,
            c.e2e_err_pct_barrier,
            c.e2e_err_pct_neighbor,
            c.e2e_err_pct_vs_clock
        );
    }
    println!(
        "{} cells in {:.1} s",
        fresh.cells.len(),
        started.elapsed().as_secs_f64()
    );

    let path = committed_path();
    let committed: Option<Accuracy> = std::fs::read_to_string(&path)
        .ok()
        .map(|text| serde_json::from_str(&text).unwrap());
    // The regenerated document keeps the committed budgets.
    for cell in &mut fresh.cells {
        let mut old = committed.iter().flat_map(|c| &c.cells);
        if let Some(old) = old.find(|c| c.key() == cell.key()) {
            cell.budget_mape_pct = old.budget_mape_pct;
            cell.budget_e2e_pct = old.budget_e2e_pct;
            cell.budget_clock_pct = old.budget_clock_pct;
        }
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ACCURACY.json");
    std::fs::write(&out, render(&fresh)).unwrap();
    println!("regenerated: {}", out.display());
    let Some(committed) = committed else {
        panic!(
            "no committed {}: review {} (first budgets) and copy it there",
            path.display(),
            out.display()
        );
    };
    let faults = gate(&fresh, &committed);
    assert!(
        faults.is_empty(),
        "accuracy departs from {}:\n{}",
        path.display(),
        faults.join("\n")
    );
}
