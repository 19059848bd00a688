//! Per-kernel performance models fitted from instrumentation records.

use pic_models::{
    CompiledExpr, Dataset, EvalScratch, FittedModel, GpConfig, LinearModel, PerfModel,
    SymbolicRegressor,
};
use pic_sim::instrument::WorkloadParams;
use pic_sim::{KernelKind, Recorder};
use pic_types::{PicError, Result};
use serde::{Deserialize, Serialize};

/// Which regression family to use for each kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "strategy")]
pub enum FitStrategy {
    /// Ordinary least squares on the varying features (the paper's choice
    /// for single-parameter models).
    Linear,
    /// GP symbolic regression on the varying features (the paper's choice
    /// for multi-parameter models).
    Symbolic {
        /// GP search parameters.
        gp: GpConfig,
    },
    /// Fit linear first; if its held-out MAPE exceeds `mape_threshold`
    /// (percent), fall back to symbolic regression and keep the better of
    /// the two. This mirrors the paper's finding that linear regression
    /// sufficed for simple kernels but failed on multi-parameter ones.
    Auto {
        /// MAPE (percent) above which the GP fallback is tried.
        mape_threshold: f64,
        /// GP search parameters for the fallback.
        gp: GpConfig,
    },
}

impl Default for FitStrategy {
    fn default() -> FitStrategy {
        FitStrategy::Auto {
            mape_threshold: 12.0,
            gp: GpConfig::default(),
        }
    }
}

impl FitStrategy {
    /// An Auto strategy with a fast GP — for tests and quick studies.
    pub fn fast(seed: u64) -> FitStrategy {
        FitStrategy::Auto {
            mape_threshold: 12.0,
            gp: GpConfig::fast(seed),
        }
    }
}

/// Maximum depth accepted for a symbolic model's expression tree. The
/// recursive walkers that render and analyze admitted models (and serde's
/// `Serialize`) stay far from the thread stack limit at this bound;
/// evaluation itself is depth-safe regardless (deep trees run on the
/// compiled tape). Checked iteratively by [`KernelModel::validate`].
pub const MAX_EXPR_DEPTH: usize = 512;

/// One kernel's fitted model plus the feature columns it consumes
/// (indices into [`WorkloadParams::features`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelModel {
    /// The kernel this model predicts.
    pub kernel: KernelKind,
    /// The fitted model.
    pub model: FittedModel,
    /// Feature column indices the model was trained on.
    pub feature_columns: Vec<usize>,
    /// Held-out validation MAPE (percent) measured at fit time.
    pub validation_mape: f64,
}

impl KernelModel {
    /// Static admission check for a (possibly deserialized) kernel model.
    ///
    /// The evaluators are deliberately total — `Expr::eval` maps an
    /// out-of-range `Var(i)` to `0.0` and a short linear coefficient
    /// vector silently truncates the dot product — so a stale or corrupt
    /// model file would *predict* rather than *fail*. This check rejects
    /// such models at the load boundary with positioned diagnostics
    /// (kernel name, and for symbolic models the offending node's preorder
    /// index and path, via [`pic_analysis::check_model_expr`]).
    pub fn validate(&self) -> Result<()> {
        let ctx = |msg: String| PicError::model(format!("kernel '{}': {msg}", self.kernel));
        let arity = self.feature_columns.len();
        if arity == 0 {
            return Err(ctx("no feature columns".into()));
        }
        for &c in &self.feature_columns {
            if c >= N_FEATURES {
                return Err(ctx(format!(
                    "feature column {c} out of range for the {N_FEATURES} workload features"
                )));
            }
        }
        if !self.validation_mape.is_finite() || self.validation_mape < 0.0 {
            return Err(ctx(format!(
                "non-physical validation MAPE {}",
                self.validation_mape
            )));
        }
        match &self.model {
            FittedModel::Linear(m) => {
                if m.coefficients.len() != arity {
                    return Err(ctx(format!(
                        "linear model has {} coefficients for {arity} feature columns",
                        m.coefficients.len()
                    )));
                }
                if !m.intercept.is_finite() || m.coefficients.iter().any(|c| !c.is_finite()) {
                    return Err(ctx("linear model has non-finite parameters".into()));
                }
            }
            FittedModel::Polynomial(m) => {
                if m.feature_index >= arity {
                    return Err(ctx(format!(
                        "polynomial feature index {} out of range for {arity} columns",
                        m.feature_index
                    )));
                }
                if m.coefficients.iter().any(|c| !c.is_finite()) {
                    return Err(ctx("polynomial model has non-finite coefficients".into()));
                }
            }
            FittedModel::Symbolic(m) => {
                // Depth gate first: it is iterative, and everything after
                // it (the analyzer, rendering, serialization) recurses.
                if m.expr.depth_within(MAX_EXPR_DEPTH).is_none() {
                    return Err(ctx(format!(
                        "symbolic expression nests deeper than {MAX_EXPR_DEPTH} levels"
                    )));
                }
                pic_analysis::check_model_expr(&m.expr, arity).map_err(|e| ctx(e.to_string()))?;
                if !m.scale.is_finite() || !m.offset.is_finite() {
                    return Err(ctx("symbolic model has non-finite scaling".into()));
                }
            }
        }
        Ok(())
    }
}

/// The full set of per-kernel performance models.
///
/// Symbolic models are lowered to compiled bytecode tapes at
/// construction (fit *and* load), so every downstream prediction —
/// pipeline assembly, DES replay — runs on the non-recursive tape
/// instead of walking the boxed expression tree. Bit-identical output
/// either way; the tapes are derived state and are never serialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelModels {
    models: Vec<KernelModel>,
    /// Compiled tape per model (`None` for linear/polynomial), aligned
    /// with `models`. Rebuilt by every constructor; empty only on the
    /// deserialization fast path, which [`KernelModels::from_json`]
    /// immediately repairs.
    #[serde(skip)]
    compiled: Vec<Option<CompiledExpr>>,
}

impl PartialEq for KernelModels {
    fn eq(&self, other: &KernelModels) -> bool {
        // The tapes are a pure function of the models: comparing them
        // would only distinguish construction paths, not content.
        self.models == other.models
    }
}

/// Lower each symbolic model's expression to a tape.
fn compile_tapes(models: &[KernelModel]) -> Vec<Option<CompiledExpr>> {
    models
        .iter()
        .map(|m| match &m.model {
            FittedModel::Symbolic(s) => Some(CompiledExpr::compile(&s.expr)),
            _ => None,
        })
        .collect()
}

impl KernelModels {
    /// Fit one model per kernel found in the recorder, using an 80/20
    /// train/validation split.
    pub fn fit(recorder: &Recorder, strategy: &FitStrategy, seed: u64) -> Result<KernelModels> {
        let mut models = Vec::new();
        for kernel in KernelKind::ALL {
            let records = recorder.for_kernel(kernel);
            if records.is_empty() {
                continue;
            }
            let full = dataset_for(&records);
            // Constant columns carry no signal; keep only varying ones (or
            // the first column if everything is constant — degenerate but
            // legal: the model reduces to a constant).
            let mut columns = full.varying_features();
            if columns.is_empty() {
                columns = vec![0];
            }
            let data = full.select_features(&columns);
            let (train, test) = data.split(0.8, seed)?;
            let test = if test.is_empty() { train.clone() } else { test };

            let (model, mape) = fit_one(&train, &test, strategy, seed)?;
            if let FittedModel::Symbolic(s) = &model {
                // Differential admission: the compiled tape every later
                // prediction runs on must agree bit-for-bit with the tree
                // on the corners of the training feature space.
                let space = pic_analysis::FeatureSpace::from_dataset(&data);
                pic_analysis::check_compiled_equivalence(&s.expr, &space)
                    .map_err(|e| PicError::model(format!("kernel '{kernel}': {e}")))?;
            }
            models.push(KernelModel {
                kernel,
                model,
                feature_columns: columns,
                validation_mape: mape,
            });
        }
        if models.is_empty() {
            return Err(PicError::model("recorder holds no training records"));
        }
        Ok(KernelModels::from_models(models))
    }

    /// The model for a kernel, if fitted.
    pub fn model(&self, kernel: KernelKind) -> Option<&KernelModel> {
        self.models.iter().find(|m| m.kernel == kernel)
    }

    /// All fitted models, in fit order.
    pub fn models(&self) -> &[KernelModel] {
        &self.models
    }

    /// Assemble a model set directly, without the admission pass — for
    /// tools and tests that need to construct sets (including deliberately
    /// invalid ones); loading from disk still validates.
    pub fn from_models(models: Vec<KernelModel>) -> KernelModels {
        KernelModels {
            compiled: compile_tapes(&models),
            models,
        }
    }

    /// Run [`KernelModel::validate`] on every model.
    pub fn validate(&self) -> Result<()> {
        for m in &self.models {
            m.validate()?;
        }
        Ok(())
    }

    /// All fitted kernels.
    pub fn kernels(&self) -> Vec<KernelKind> {
        self.models.iter().map(|m| m.kernel).collect()
    }

    /// Resolve one kernel for evaluation: its model and, when symbolic,
    /// its tape. `None` when no model was fitted for the kernel.
    pub(crate) fn plan(&self, kernel: KernelKind) -> Option<KernelPlan<'_>> {
        let idx = self.models.iter().position(|m| m.kernel == kernel)?;
        Some(KernelPlan {
            model: &self.models[idx],
            tape: self.compiled.get(idx).and_then(Option::as_ref),
        })
    }

    /// Predict one kernel's execution seconds for a workload. Negative
    /// model outputs clamp to zero (times cannot be negative); a kernel
    /// with no model predicts zero. This is the scalar definition the
    /// columnar path of [`crate::predict_kernel_seconds`] is tested
    /// against.
    pub fn predict(&self, kernel: KernelKind, params: &WorkloadParams) -> f64 {
        self.plan(kernel)
            .map_or(0.0, |plan| plan.predict(&params.features()))
    }

    /// Per-kernel held-out validation MAPE (percent).
    pub fn validation_mapes(&self) -> Vec<(KernelKind, f64)> {
        self.models
            .iter()
            .map(|m| (m.kernel, m.validation_mape))
            .collect()
    }

    /// Average validation MAPE across kernels (the paper's headline
    /// "average MAPE of 8.42 %").
    pub fn mean_validation_mape(&self) -> f64 {
        let v: Vec<f64> = self.models.iter().map(|m| m.validation_mape).collect();
        pic_types::stats::mean(&v)
    }

    /// Human-readable model formulas.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for m in &self.models {
            s.push_str(&format!(
                "{}: {} (validation MAPE {:.2}%)\n",
                m.kernel,
                m.model.describe(),
                m.validation_mape
            ));
        }
        s
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("models serialize")
    }

    /// Parse from JSON, rejecting structurally invalid models (the
    /// analyzer admission pass — see [`KernelModel::validate`]), then
    /// compile the admitted symbolic models to tapes. Hostile nesting is
    /// refused by the JSON parser itself (`serde_json::MAX_DEPTH`), before
    /// it can reach a recursive `Deserialize`.
    pub fn from_json(s: &str) -> Result<KernelModels> {
        let mut models: KernelModels = serde_json::from_str(s)
            .map_err(|e| PicError::model(format!("bad models JSON: {e}")))?;
        models.validate()?;
        models.compiled = compile_tapes(&models.models);
        Ok(models)
    }
}

/// Number of workload features ([`WorkloadParams::features`]).
const N_FEATURES: usize = WorkloadParams::FEATURE_NAMES.len();

/// One kernel resolved for evaluation (see [`KernelModels::plan`]): the
/// lookup a prediction over many rows does once instead of per row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelPlan<'a> {
    model: &'a KernelModel,
    tape: Option<&'a CompiledExpr>,
}

impl KernelPlan<'_> {
    /// Hand `f` the model's view of the workload features: `features[c]`
    /// for each of its feature columns, in its order. On the stack for
    /// every arity a fit can produce; only a hand-built model that repeats
    /// columns past the feature count takes the heap.
    fn with_selected<T: Copy, R>(
        &self,
        features: &[T; N_FEATURES],
        f: impl FnOnce(&[T]) -> R,
    ) -> R {
        let columns = &self.model.feature_columns;
        if columns.len() > N_FEATURES {
            return f(&columns.iter().map(|&c| features[c]).collect::<Vec<T>>());
        }
        let mut selected = [features[0]; N_FEATURES];
        for (s, &c) in selected.iter_mut().zip(columns) {
            *s = features[c];
        }
        f(&selected[..columns.len()])
    }

    /// One row: the kernel's seconds for one feature vector.
    fn predict(&self, features: &[f64; N_FEATURES]) -> f64 {
        self.with_selected(features, |row| {
            let raw = match (&self.model.model, self.tape) {
                // Compiled path: same IEEE operations as `Expr::eval`, so
                // the prediction is bit-identical to the tree walk.
                (FittedModel::Symbolic(s), Some(tape)) => s.scale * tape.eval_row(row) + s.offset,
                (m, _) => m.predict(row),
            };
            raw.max(0.0)
        })
    }

    /// A block of rows given as one column per workload feature, each
    /// `out.len()` long; `out[r]` gets the bits [`KernelPlan::predict`]
    /// returns for row `r`.
    pub(crate) fn predict_block(
        &self,
        features: &[&[f64]; N_FEATURES],
        out: &mut [f64],
        scratch: &mut EvalScratch,
    ) {
        self.with_selected(features, |cols| {
            match (&self.model.model, self.tape) {
                (FittedModel::Symbolic(s), Some(tape)) => {
                    tape.eval_batch(cols, out, scratch);
                    for o in out.iter_mut() {
                        *o = s.scale * *o + s.offset;
                    }
                }
                (m, _) => m.predict_batch(cols, out),
            }
            for o in out.iter_mut() {
                *o = o.max(0.0);
            }
        })
    }
}

/// Build the full-feature dataset for one kernel's records.
fn dataset_for(records: &[pic_sim::TrainingRecord]) -> Dataset {
    let names = WorkloadParams::FEATURE_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut d = Dataset::new(names);
    for r in records {
        d.push(r.params.features().to_vec(), r.seconds);
    }
    d
}

fn fit_one(
    train: &Dataset,
    test: &Dataset,
    strategy: &FitStrategy,
    seed: u64,
) -> Result<(FittedModel, f64)> {
    let linear = || -> Result<(FittedModel, f64)> {
        // Relative least squares matches the MAPE objective (timing noise
        // is multiplicative).
        let m = LinearModel::fit_relative(train)?;
        let mape = m.mape(test);
        Ok((FittedModel::Linear(m), mape))
    };
    let symbolic = |gp: &GpConfig| -> Result<(FittedModel, f64)> {
        let mut gp = gp.clone();
        gp.seed ^= seed;
        let m = SymbolicRegressor::new(gp).fit(train)?;
        let mape = m.mape(test);
        Ok((FittedModel::Symbolic(m), mape))
    };
    match strategy {
        FitStrategy::Linear => linear(),
        FitStrategy::Symbolic { gp } => symbolic(gp),
        FitStrategy::Auto { mape_threshold, gp } => {
            let (lm, lmape) = linear()?;
            if lmape <= *mape_threshold {
                return Ok((lm, lmape));
            }
            let (sm, smape) = symbolic(gp)?;
            if smape < lmape {
                Ok((sm, smape))
            } else {
                Ok((lm, lmape))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_sim::CostOracle;
    use pic_types::rng::SplitMix64;

    /// Synthesize oracle-based training data across a workload sweep.
    fn synthetic_recorder(noise: f64, seed: u64) -> Recorder {
        let oracle = CostOracle {
            noise_sigma: noise,
            seed,
        };
        let mut rec = Recorder::new();
        let mut rng = SplitMix64::new(seed);
        let mut key = 0u64;
        for _ in 0..220 {
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

    #[test]
    fn linear_strategy_fits_all_kernels_within_noise() {
        let rec = synthetic_recorder(0.10, 3);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 1).unwrap();
        assert_eq!(models.kernels().len(), 6);
        // With σ = 0.1 multiplicative noise, E|rel err| ≈ 8 % — the paper's
        // 8.42 % regime. Allow headroom.
        for (k, mape) in models.validation_mapes() {
            assert!(mape < 15.0, "{k}: MAPE {mape}");
        }
        let avg = models.mean_validation_mape();
        assert!(avg > 2.0 && avg < 12.0, "avg {avg}");
    }

    #[test]
    fn noiseless_linear_fit_is_nearly_exact() {
        let rec = synthetic_recorder(0.0, 4);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 2).unwrap();
        for (k, mape) in models.validation_mapes() {
            // all oracle kernels are linear in (np, ngp, nel) at fixed N
            // and filter
            assert!(mape < 0.5, "{k}: MAPE {mape}");
        }
    }

    #[test]
    fn predictions_use_correct_feature_columns() {
        let rec = synthetic_recorder(0.0, 5);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 3).unwrap();
        let oracle = CostOracle::noiseless();
        let p = WorkloadParams {
            np: 500.0,
            ngp: 100.0,
            nel: 27.0,
            n_order: 5.0,
            filter: 0.05,
        };
        for k in KernelKind::ALL {
            let pred = models.predict(k, &p);
            let truth = oracle.true_cost(k, &p);
            let rel = (pred - truth).abs() / truth.max(1e-12);
            assert!(rel < 0.05, "{k}: pred {pred} truth {truth}");
        }
    }

    #[test]
    fn predictions_clamp_to_zero() {
        let rec = synthetic_recorder(0.1, 6);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 4).unwrap();
        let p = WorkloadParams {
            np: 0.0,
            ngp: 0.0,
            nel: 0.0,
            n_order: 5.0,
            filter: 0.05,
        };
        for k in KernelKind::ALL {
            assert!(models.predict(k, &p) >= 0.0);
        }
    }

    #[test]
    fn empty_recorder_is_error() {
        let rec = Recorder::new();
        assert!(KernelModels::fit(&rec, &FitStrategy::Linear, 1).is_err());
    }

    #[test]
    fn auto_strategy_keeps_linear_when_good() {
        let rec = synthetic_recorder(0.05, 7);
        let models = KernelModels::fit(&rec, &FitStrategy::fast(1), 5).unwrap();
        // linear is near-exact here, so Auto must not degrade accuracy
        for (k, mape) in models.validation_mapes() {
            assert!(mape < 10.0, "{k}: {mape}");
        }
        // and the chosen family should be Linear for at least the pusher
        let m = models.model(KernelKind::ParticlePusher).unwrap();
        assert!(matches!(m.model, FittedModel::Linear(_)));
    }

    fn symbolic_kernel_model(expr: pic_models::Expr, columns: Vec<usize>) -> KernelModel {
        KernelModel {
            kernel: KernelKind::ParticlePusher,
            model: FittedModel::Symbolic(pic_models::gp::SymbolicModel {
                expr,
                scale: 1.0,
                offset: 0.0,
                feature_names: columns.iter().map(|c| format!("f{c}")).collect(),
            }),
            feature_columns: columns,
            validation_mape: 1.0,
        }
    }

    #[test]
    fn validate_accepts_fitted_models() {
        let rec = synthetic_recorder(0.1, 10);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 8).unwrap();
        assert!(models.validate().is_ok());
        assert_eq!(models.models().len(), models.kernels().len());
    }

    #[test]
    fn out_of_range_var_is_rejected_with_position() {
        use pic_models::Expr;
        let e = Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::Var(7)));
        let m = symbolic_kernel_model(e, vec![0, 1]);
        let err = m.validate().unwrap_err().to_string();
        assert!(err.contains("E001"), "{err}");
        assert!(err.contains("node 2"), "{err}");
        assert!(err.contains("root/rhs"), "{err}");
        assert!(err.contains("particle_pusher"), "{err}");
    }

    #[test]
    fn corrupt_serialized_models_fail_to_load() {
        use pic_models::Expr;
        // a valid single-model set...
        let good = KernelModels::from_models(vec![symbolic_kernel_model(
            Expr::Mul(Box::new(Expr::Var(0)), Box::new(Expr::Const(2.0))),
            vec![0],
        )]);
        let json = good.to_json();
        assert!(KernelModels::from_json(&json).is_ok());
        // ...corrupted on disk: the variable index now points past the arity
        let bad = json
            .replace("\"Var\": 0", "\"Var\": 9")
            .replace("\"Var\":0", "\"Var\":9");
        assert_ne!(bad, json, "corruption must hit the serialized Var");
        let err = KernelModels::from_json(&bad).unwrap_err().to_string();
        assert!(err.contains("E001"), "{err}");
    }

    #[test]
    fn truncated_linear_coefficients_are_rejected() {
        let rec = synthetic_recorder(0.0, 11);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 9).unwrap();
        let mut broken = models.clone();
        let lm = &mut broken.models[0];
        let FittedModel::Linear(ref mut linear) = lm.model else {
            panic!("expected linear model")
        };
        linear.coefficients.pop();
        let err = broken.validate().unwrap_err().to_string();
        assert!(err.contains("coefficients"), "{err}");
        // and the load path rejects it too
        assert!(KernelModels::from_json(&broken.to_json()).is_err());
    }

    #[test]
    fn feature_columns_out_of_range_are_rejected() {
        let m = KernelModel {
            feature_columns: vec![0, 99],
            ..symbolic_kernel_model(pic_models::Expr::Var(0), vec![0])
        };
        let err = m.validate().unwrap_err().to_string();
        assert!(err.contains("99"), "{err}");
    }

    /// Serialized `Add` chain of the given length around a `Var(0)` leaf,
    /// built by string concatenation: serializing a real tree would
    /// recurse, which is exactly what the load path must survive without.
    fn deep_expr_json(levels: usize) -> String {
        let mut s = String::with_capacity(24 * levels + 16);
        for _ in 0..levels {
            s.push_str("{\"Add\": [{\"Const\": 1.0}, ");
        }
        s.push_str("{\"Var\": 0}");
        for _ in 0..levels {
            s.push_str("]}");
        }
        s
    }

    fn with_deep_expr(levels: usize) -> String {
        let good = KernelModels::from_models(vec![symbolic_kernel_model(
            pic_models::Expr::Var(0),
            vec![0],
        )]);
        let json = good.to_json();
        let bad = json.replace("{\"Var\": 0}", &deep_expr_json(levels));
        // Pretty-printing may break the expr across lines; fall back to
        // replacing the bare tag.
        if bad != json {
            bad
        } else {
            json.replace(
                "\"Var\": 0",
                &deep_expr_json(levels)[1..deep_expr_json(levels).len() - 1],
            )
        }
    }

    #[test]
    fn hundred_k_deep_model_file_is_rejected_before_parsing() {
        // A ~100k-deep expression would overflow the stack in the parser,
        // the derived Deserialize, or the drop glue — the raw-depth scan
        // must reject it first, as a clean error.
        let hostile = with_deep_expr(100_000);
        let err = KernelModels::from_json(&hostile).unwrap_err().to_string();
        assert!(err.contains("nests deeper"), "{err}");
        assert!(err.contains("byte"), "{err}");
    }

    #[test]
    fn over_deep_expression_is_rejected_by_validation() {
        // Deep enough to exceed the expression bound, shallow enough to
        // parse: the iterative depth gate in validate() must catch it.
        let sneaky = with_deep_expr(MAX_EXPR_DEPTH + 100);
        let err = KernelModels::from_json(&sneaky).unwrap_err().to_string();
        assert!(
            err.contains(&format!("nests deeper than {MAX_EXPR_DEPTH}")),
            "{err}"
        );
    }

    #[test]
    fn compiled_predictions_match_tree_walk_bitwise() {
        use pic_models::Expr;
        // (f0 * 2 + f1) / f0 exercises add/mul/div including the guard
        let expr = Expr::Div(
            Box::new(Expr::Add(
                Box::new(Expr::Mul(
                    Box::new(Expr::Var(0)),
                    Box::new(Expr::Const(2.0)),
                )),
                Box::new(Expr::Var(1)),
            )),
            Box::new(Expr::Var(0)),
        );
        let km = KernelModel {
            model: FittedModel::Symbolic(pic_models::gp::SymbolicModel {
                expr: expr.clone(),
                scale: 1.5,
                offset: 0.25,
                feature_names: vec!["f0".into(), "f1".into()],
            }),
            feature_columns: vec![0, 1],
            ..symbolic_kernel_model(Expr::Var(0), vec![0, 1])
        };
        let models = KernelModels::from_models(vec![km]);
        // ...and a loaded copy, whose tapes come from the from_json rebuild
        let loaded = KernelModels::from_json(&models.to_json()).unwrap();
        for np in [0.0, 1.0, 513.0, 2e4] {
            let p = WorkloadParams {
                np,
                ngp: 3.0 * np + 1.0,
                nel: 27.0,
                n_order: 5.0,
                filter: 0.05,
            };
            let feats = p.features();
            let want = (1.5 * expr.eval(&[feats[0], feats[1]]) + 0.25).max(0.0);
            let got = models.predict(KernelKind::ParticlePusher, &p);
            assert_eq!(got.to_bits(), want.to_bits());
            let got_loaded = loaded.predict(KernelKind::ParticlePusher, &p);
            assert_eq!(got_loaded.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn json_roundtrip() {
        let rec = synthetic_recorder(0.1, 8);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 6).unwrap();
        let json = models.to_json();
        let back = KernelModels::from_json(&json).unwrap();
        assert_eq!(back, models);
    }

    #[test]
    fn describe_lists_all_kernels() {
        let rec = synthetic_recorder(0.1, 9);
        let models = KernelModels::fit(&rec, &FitStrategy::Linear, 7).unwrap();
        let d = models.describe();
        for k in KernelKind::ALL {
            assert!(d.contains(k.name()), "missing {k} in:\n{d}");
        }
    }
}
