//! Regenerate the golden corpus under `tests/fixtures/analysis/`.
//!
//! The corpus is committed; this generator exists so the fixtures are
//! reproducible rather than hand-edited. `good/` holds artifacts that
//! `picpredict check` must accept; `bad/` holds single-corruption variants
//! (one invariant-violation class each) that it must reject. CI and
//! `tests/integration_analysis.rs` sweep both directories.
//!
//! ```text
//! cargo run --example gen_analysis_fixtures
//! ```
#![forbid(unsafe_code)]

use pic_mapping::MappingAlgorithm;
use pic_models::gp::SymbolicModel;
use pic_models::{Expr, FittedModel, LinearModel};
use pic_predict::kernel_models::{FitStrategy, KernelModel};
use pic_predict::KernelModels;
use pic_sim::instrument::WorkloadParams;
use pic_sim::{CostOracle, KernelKind, Recorder};
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Vec3};
use pic_workload::{
    replay, CompMatrix, DynamicWorkload, ReplayOptions, SweepPoint, WorkloadConfig,
};
use std::path::Path;

/// Particle count of every workload fixture — `picpredict check` runs with
/// `--particles 40` over the corpus.
const PARTICLES: usize = 40;
const SAMPLES: usize = 6;
const RANKS: usize = 4;

fn base_workload() -> DynamicWorkload {
    let mut trace = ParticleTrace::new(TraceMeta::new(
        PARTICLES,
        100,
        Aabb::unit(),
        "analysis-fixture",
    ));
    for s in 0..SAMPLES {
        let mut pos = Vec::with_capacity(PARTICLES);
        for p in 0..PARTICLES {
            let spread = (p as f64 * 0.618_034) % 1.0;
            let drift = (s as f64 + 1.0) / (SAMPLES as f64 + 1.0);
            let x = (spread * 0.4 + drift * 0.55).min(0.999);
            let y = ((p as f64 * 0.414_214) % 1.0) * 0.9 + 0.05;
            let z = ((p as f64 * 0.732_051 + s as f64 * 0.1) % 1.0) * 0.9 + 0.05;
            pos.push(Vec3::new(x, y, z));
        }
        trace.push_positions(pos).unwrap();
    }
    let point = SweepPoint::new(WorkloadConfig::new(RANKS, MappingAlgorithm::BinBased, 0.08));
    replay(&trace, &[point], &ReplayOptions::default())
        .unwrap()
        .0
        .remove(0)
}

fn rows(m: &CompMatrix) -> Vec<Vec<u32>> {
    (0..m.samples()).map(|t| m.sample_row(t).to_vec()).collect()
}

fn patch(m: &CompMatrix, rank: usize, sample: usize, f: impl Fn(u32) -> u32) -> CompMatrix {
    let mut r = rows(m);
    r[sample][rank] = f(r[sample][rank]);
    CompMatrix::from_rows(m.ranks(), r)
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("fixture serializes");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn synthetic_recorder(seed: u64) -> Recorder {
    let oracle = CostOracle {
        noise_sigma: 0.05,
        seed,
    };
    let mut rec = Recorder::new();
    let mut rng = SplitMix64::new(seed);
    let mut key = 0u64;
    for _ in 0..120 {
        let p = WorkloadParams {
            np: rng.next_range(0.0, 2000.0).round(),
            ngp: rng.next_range(0.0, 400.0).round(),
            nel: rng.next_range(8.0, 64.0).round(),
            n_order: 5.0,
            filter: 0.05,
        };
        for k in KernelKind::ALL {
            rec.record(k, p, oracle.observed_cost(k, &p, key));
            key += 1;
        }
    }
    rec
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/analysis");
    let good = root.join("good");
    let bad = root.join("bad");
    std::fs::create_dir_all(&good).unwrap();
    std::fs::create_dir_all(&bad).unwrap();

    // ---- workloads ---------------------------------------------------
    let base = base_workload();
    assert!(
        pic_analysis::check_workload(&base, Some(PARTICLES as u64)).is_empty(),
        "generated base workload must be clean"
    );
    write_json(&good.join("workload_drift.json"), &base);

    // each bad fixture seeds exactly one corruption class
    let mut conservation = base.clone();
    conservation.real = patch(&conservation.real, 1, SAMPLES - 1, |c| c + 1);
    write_json(&bad.join("workload_conservation.json"), &conservation);

    let mut flow = base.clone();
    let t = (1..flow.samples())
        .find(|&t| !flow.comm.entries[t].is_empty())
        .expect("fixture has migrations");
    flow.comm.entries[t][0].2 += 3;
    write_json(&bad.join("workload_comm_flow.json"), &flow);

    let mut self_loop = base.clone();
    self_loop.comm.entries[1].insert(0, (0, 0, 2));
    write_json(&bad.join("workload_comm_self.json"), &self_loop);

    let mut unsorted = base.clone();
    let dup = unsorted.comm.entries[t][0];
    unsorted.comm.entries[t].insert(1, dup);
    write_json(&bad.join("workload_comm_order.json"), &unsorted);

    let mut rank_range = base.clone();
    rank_range.comm.entries[2].push((RANKS as u32 + 3, 0, 1));
    write_json(&bad.join("workload_comm_rank.json"), &rank_range);

    let mut first = base.clone();
    first.comm.entries[0].push((0, 1, 1));
    write_json(&bad.join("workload_comm_first.json"), &first);

    let mut ghost = base.clone();
    ghost.ghost_recv = patch(&ghost.ghost_recv, 0, SAMPLES - 1, |c| c + 2);
    write_json(&bad.join("workload_ghost_balance.json"), &ghost);

    let mut iters = base.clone();
    iters.iterations[SAMPLES - 1] = iters.iterations[SAMPLES - 2];
    write_json(&bad.join("workload_iterations.json"), &iters);

    // one count past the last whole row: `CompMatrix::samples()` floors it
    // away, so only the length check sees it
    let mut ragged = base.clone();
    let mut counts = rows(&ragged.real).concat();
    counts.push(0);
    let json = format!(r#"{{"ranks":{RANKS},"data":{counts:?}}}"#);
    ragged.real = serde_json::from_str(&json).expect("ragged matrix parses");
    write_json(&bad.join("workload_shape.json"), &ragged);

    for entry in std::fs::read_dir(&bad).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("workload_"))
        {
            let text = std::fs::read_to_string(&path).unwrap();
            let w: DynamicWorkload = serde_json::from_str(&text).unwrap();
            assert!(
                !pic_analysis::check_workload(&w, Some(PARTICLES as u64)).is_empty(),
                "{} must violate at least one invariant",
                path.display()
            );
        }
    }

    // ---- kernel models ----------------------------------------------
    let rec = synthetic_recorder(17);
    let linear = KernelModels::fit(&rec, &FitStrategy::Linear, 17).expect("linear fit");
    linear.validate().expect("fitted linear models admit");
    write_json(&good.join("models_linear.json"), &linear);

    // a hand-built symbolic set exercising the expression analyzer path
    let symbolic = KernelModels::from_models(vec![KernelModel {
        kernel: KernelKind::ParticlePusher,
        model: FittedModel::Symbolic(SymbolicModel {
            expr: Expr::Add(
                Box::new(Expr::Mul(
                    Box::new(Expr::Var(0)),
                    Box::new(Expr::Const(3.2e-6)),
                )),
                Box::new(Expr::Const(1.1e-4)),
            ),
            scale: 1.0,
            offset: 0.0,
            feature_names: vec!["np".into()],
        }),
        feature_columns: vec![0],
        validation_mape: 4.2,
    }]);
    symbolic.validate().expect("symbolic fixture admits");
    write_json(&good.join("models_symbolic.json"), &symbolic);

    // corrupt variants: each must be rejected by the load-time admission
    let bad_var = KernelModels::from_models(vec![KernelModel {
        kernel: KernelKind::ParticlePusher,
        model: FittedModel::Symbolic(SymbolicModel {
            expr: Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::Var(9))),
            scale: 1.0,
            offset: 0.0,
            feature_names: vec!["np".into()],
        }),
        feature_columns: vec![0],
        validation_mape: 4.2,
    }]);
    assert!(KernelModels::from_json(&bad_var.to_json()).is_err());
    write_json(&bad.join("models_var_range.json"), &bad_var);

    let bad_coeffs = KernelModels::from_models(vec![KernelModel {
        kernel: KernelKind::Projection,
        model: FittedModel::Linear(LinearModel {
            feature_names: vec!["np".into(), "ngp".into()],
            intercept: 1e-5,
            coefficients: vec![2.5e-6], // truncated: two columns, one coefficient
        }),
        feature_columns: vec![0, 1],
        validation_mape: 3.0,
    }]);
    assert!(KernelModels::from_json(&bad_coeffs.to_json()).is_err());
    write_json(&bad.join("models_truncated_linear.json"), &bad_coeffs);

    // a model family no fit produces: the loader knows only linear and
    // symbolic models
    let polynomial = r#"{
  "models": [
    {
      "kernel": "projection",
      "model": {
        "family": "polynomial",
        "feature_name": "np",
        "feature_index": 0,
        "coefficients": [1e-5, 2.5e-6, 1e-9]
      },
      "feature_columns": [0],
      "validation_mape": 3.0
    }
  ]
}"#;
    assert!(KernelModels::from_json(polynomial).is_err());
    let path = bad.join("models_polynomial.json");
    std::fs::write(&path, polynomial).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());

    println!("corpus regenerated under {}", root.display());
}
