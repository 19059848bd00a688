//! Symbolic regression by genetic programming (paper refs \[13\], \[14\]).
//!
//! A Koza-style GP over the [`Expr`] function set with two modern
//! refinements that make small populations reliable:
//!
//! * **linear scaling** (Keijzer 2003): each candidate is evaluated as
//!   `a·expr(x) + b` with `(a, b)` chosen by 1-D least squares, so the GP
//!   searches for *shape* while scale/offset come for free;
//! * **parsimony pressure**: fitness carries a per-node penalty, keeping
//!   the reported formulas compact.
//!
//! Candidates are scored on one path: admissibility gate → canonical form
//! and structural hash → memo lookup → compiled tape over columnar
//! features → ordered parallel map on the shared pool. The search is
//! fully deterministic in the configured seed and independent of the
//! thread count: scoring never touches the RNG, candidates are scored
//! independently, the vendored rayon assembles results in input order,
//! and the memo returns exactly the value an evaluation would have
//! produced. The recursive [`Expr::eval`] is the tape's oracle in tests.

use crate::compile::{CompiledExpr, EvalScratch};
use crate::dataset::Dataset;
use crate::expr::Expr;
use pic_types::rng::SplitMix64;
use pic_types::{PicError, Result};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Tournament size for selection.
const TOURNAMENT: usize = 5;
/// Maximum tree depth (children exceeding it are rejected).
const MAX_DEPTH: usize = 8;
/// Probability of crossover (vs mutation) when breeding.
const CROSSOVER_PROB: f64 = 0.85;
/// Per-node fitness penalty.
const PARSIMONY: f64 = 1e-4;
/// Number of elite individuals copied unchanged each generation.
const ELITISM: usize = 4;

/// Genetic-programming search parameters: the budget and the seed. The
/// breeding knobs are the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> GpConfig {
        GpConfig {
            population: 256,
            generations: 60,
            seed: 0xC0FFEE,
        }
    }
}

impl GpConfig {
    /// A small, fast configuration for tests and smoke runs.
    pub fn fast(seed: u64) -> GpConfig {
        GpConfig {
            population: 96,
            generations: 30,
            seed,
        }
    }
}

/// A fitted symbolic model: `seconds = scale · expr(features) + offset`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymbolicModel {
    /// The evolved expression.
    pub expr: Expr,
    /// Linear-scaling slope.
    pub scale: f64,
    /// Linear-scaling intercept.
    pub offset: f64,
    /// Feature names for rendering.
    pub feature_names: Vec<String>,
}

impl SymbolicModel {
    /// Predict the target for one feature row.
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        self.scale * self.expr.eval(features) + self.offset
    }

    /// Human-readable formula.
    pub(crate) fn describe(&self) -> String {
        format!(
            "{:.4e} * {} + {:.4e}",
            self.scale,
            self.expr.render(&self.feature_names),
            self.offset
        )
    }
}

/// The GP search engine.
#[derive(Debug, Clone)]
pub struct SymbolicRegressor {
    cfg: GpConfig,
}

/// Structural admission: every variable in range, every constant finite.
/// GP's own operators never violate this, but candidates can also arrive
/// from deserialized populations or future operators — the gate is what
/// makes that safe.
fn admissible(expr: &Expr, arity: usize) -> bool {
    fn constants_finite(e: &Expr) -> bool {
        match e {
            Expr::Const(c) => c.is_finite(),
            Expr::Var(_) => true,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                constants_finite(a) && constants_finite(b)
            }
        }
    }
    expr.max_var().is_none_or(|v| v < arity) && constants_finite(expr)
}

/// A `(fitness or penalty-free error, scale, offset)` triple.
type Scored = (f64, f64, f64);

/// Dataset-constant fitness state, computed once per fit: `mean_y` and the
/// relative-error magnitude floor depend only on the targets, and the
/// columnar feature block is what the compiled tape streams over.
struct FitContext<'a> {
    data: &'a Dataset,
    cols: Vec<Vec<f64>>,
    mean_y: f64,
    floor: f64,
}

/// Reusable per-worker fitness workspace: the candidate's per-row
/// evaluations plus the tape's register block. After warm-up scoring does
/// not allocate per candidate.
#[derive(Default)]
struct FitScratch {
    evals: Vec<f64>,
    tape: EvalScratch,
}

impl<'a> FitContext<'a> {
    fn new(data: &'a Dataset) -> FitContext<'a> {
        let n = data.len() as f64;
        let mean_y = data.targets.iter().sum::<f64>() / n;
        // Relative error against a magnitude floor so near-zero targets
        // don't dominate.
        let floor = data.targets.iter().map(|y| y.abs()).sum::<f64>() / n;
        let floor = (floor * 1e-3).max(1e-30);
        FitContext {
            data,
            cols: data.columns(),
            mean_y,
            floor,
        }
    }

    /// Penalty-free fitness base of a candidate — `(mean relative error,
    /// scale, offset)` — from its compiled tape over the columnar block.
    /// The parsimony penalty is *not* included: it depends on the
    /// candidate's size as bred, not on the evaluated tree, so
    /// [`finalize`] applies it per candidate.
    fn base(&self, expr: &Expr, scratch: &mut FitScratch) -> Scored {
        scratch.evals.clear();
        scratch.evals.resize(self.data.len(), 0.0);
        CompiledExpr::compile(expr).eval_batch(&self.cols, &mut scratch.evals, &mut scratch.tape);
        if scratch.evals.iter().any(|v| !v.is_finite()) {
            return (f64::INFINITY, 0.0, 0.0);
        }
        self.base_from_evals(&scratch.evals)
    }

    /// Keijzer linear scaling and mean relative error over precomputed
    /// per-row evaluations (no parsimony term).
    fn base_from_evals(&self, evals: &[f64]) -> Scored {
        let n = self.data.len() as f64;
        let mean_e = evals.iter().sum::<f64>() / n;
        let mean_y = self.mean_y;
        let mut cov = 0.0;
        let mut var_e = 0.0;
        for (e, y) in evals.iter().zip(&self.data.targets) {
            cov += (e - mean_e) * (y - mean_y);
            var_e += (e - mean_e) * (e - mean_e);
        }
        let (a, b) = if var_e < 1e-30 {
            (0.0, mean_y)
        } else {
            (cov / var_e, mean_y - cov / var_e * mean_e)
        };
        let mut err = 0.0;
        for (e, y) in evals.iter().zip(&self.data.targets) {
            let p = a * e + b;
            err += (p - y).abs() / (y.abs() + self.floor);
        }
        (err / n, a, b)
    }
}

/// Add the parsimony charge for a candidate of `penalty_nodes` nodes as
/// bred to a penalty-free base triple. Split from the base computation so
/// a memoized base can serve hash-equal candidates of *different* sizes
/// without perturbing selection.
fn finalize(base: Scored, parsimony: f64, penalty_nodes: usize) -> Scored {
    let (err, a, b) = base;
    let fitness = err + parsimony * penalty_nodes as f64;
    if fitness.is_finite() {
        (fitness, a, b)
    } else {
        (f64::INFINITY, 0.0, 0.0)
    }
}

/// Memoized *penalty-free* fitness bases keyed by the structural hash of
/// the canonical form that was evaluated, so duplicate individuals
/// (common after crossover, and every elite every generation) are scored
/// once per run. Hash-equal ⇒ canonical-form-equal is a property-checked
/// invariant of [`Expr::structural_hash`] (`tests/compile_props.rs`).
type FitnessCache = HashMap<u64, Scored>;

/// What scoring needs of one candidate besides the dataset.
struct Prepared {
    /// [Canonical form](Expr::canonicalize): identical semantics, fewer
    /// nodes to evaluate.
    canon: Expr,
    /// Node count of the candidate as bred (parsimony charge).
    orig_nodes: usize,
    /// Structural hash of `canon` (memo key).
    hash: u64,
}

fn prepare(e: &Expr) -> Prepared {
    let canon = e.clone().canonicalize();
    Prepared {
        hash: canon.structural_hash(),
        canon,
        orig_nodes: e.node_count(),
    }
}

thread_local! {
    /// Per-worker scratch. The vendored rayon gives each worker contiguous
    /// blocks of candidates, so the buffers warm up once per worker
    /// instead of once per candidate.
    static WORKER_SCRATCH: RefCell<FitScratch> = RefCell::new(FitScratch::default());
}

/// The `(fitness, scale, offset)` triple of every candidate, in population
/// order. Selection is unaffected by evaluating canonical forms because
/// the parsimony charge still uses the node count as bred.
fn score_population(
    pop: &[Expr],
    ctx: &FitContext<'_>,
    parsimony: f64,
    cache: &mut FitnessCache,
) -> Vec<Scored> {
    let prepared: Vec<Prepared> =
        pic_types::pool::install(|| pop.par_iter().map(prepare).collect());

    // One evaluation per canonical form the cache has not seen.
    let mut queued = HashSet::new();
    let to_eval: Vec<&Prepared> = prepared
        .iter()
        .filter(|p| !cache.contains_key(&p.hash) && queued.insert(p.hash))
        .collect();
    let bases: Vec<Scored> = pic_types::pool::install(|| {
        to_eval
            .par_iter()
            .map(|p| WORKER_SCRATCH.with(|ws| ctx.base(&p.canon, &mut ws.borrow_mut())))
            .collect()
    });
    cache.extend(to_eval.iter().map(|p| p.hash).zip(bases));

    prepared
        .iter()
        .map(|p| finalize(cache[&p.hash], parsimony, p.orig_nodes))
        .collect()
}

impl SymbolicRegressor {
    /// Create a regressor with the given configuration.
    pub fn new(cfg: GpConfig) -> SymbolicRegressor {
        SymbolicRegressor { cfg }
    }

    /// Run the evolutionary search against `data`.
    pub fn fit(&self, data: &Dataset) -> Result<SymbolicModel> {
        if data.is_empty() {
            return Err(PicError::model("cannot run GP on an empty dataset"));
        }
        if data.arity() == 0 {
            return Err(PicError::model("GP needs at least one feature"));
        }
        let cfg = &self.cfg;
        let mut rng = SplitMix64::new(cfg.seed);
        let arity = data.arity();
        let ctx = FitContext::new(data);
        let mut cache = FitnessCache::new();

        // Ramped half-and-half initialization.
        let mut pop: Vec<Expr> = (0..cfg.population)
            .map(|i| {
                let depth = 2 + (i % 4);
                let full = i % 2 == 0;
                random_tree(&mut rng, arity, depth, full)
            })
            .collect();
        let mut scored = score_population(&pop, &ctx, PARSIMONY, &mut cache);

        let mut best_idx = argmin(&scored);
        let mut best = (pop[best_idx].clone(), scored[best_idx]);

        for _gen in 0..cfg.generations {
            let mut next: Vec<Expr> = Vec::with_capacity(cfg.population);
            // Elitism: carry the best individuals forward.
            let mut order: Vec<usize> = (0..pop.len()).collect();
            order.sort_by(|&a, &b| scored[a].0.partial_cmp(&scored[b].0).unwrap());
            for &i in order.iter().take(ELITISM.min(pop.len())) {
                next.push(pop[i].clone());
            }
            while next.len() < cfg.population {
                let mut child = if rng.next_f64() < CROSSOVER_PROB {
                    let p1 = tournament(&mut rng, &scored, TOURNAMENT);
                    let p2 = tournament(&mut rng, &scored, TOURNAMENT);
                    crossover(&mut rng, &pop[p1], &pop[p2])
                } else {
                    let p = tournament(&mut rng, &scored, TOURNAMENT);
                    mutate(&mut rng, &pop[p], arity)
                };
                // Admission gate: structurally invalid children never
                // reach fitness evaluation.
                if !admissible(&child, arity) {
                    child = random_tree(&mut rng, arity, 3, false);
                }
                // Depth limit: oversize children are replaced by a fresh
                // small tree (keeps diversity instead of cloning parents).
                if child.depth() <= MAX_DEPTH {
                    next.push(child);
                } else {
                    next.push(random_tree(&mut rng, arity, 3, false));
                }
            }
            pop = next;
            scored = score_population(&pop, &ctx, PARSIMONY, &mut cache);
            best_idx = argmin(&scored);
            if scored[best_idx].0 < best.1 .0 {
                best = (pop[best_idx].clone(), scored[best_idx]);
            }
            if best.1 .0 < 1e-9 {
                break;
            }
        }

        let expr = best.0.canonicalize();
        // Re-fit scaling on the canonical tree (identical semantics, but
        // be safe against constant-folding rounding).
        let (_, scale, offset) = finalize(ctx.base(&expr, &mut FitScratch::default()), 0.0, 0);
        Ok(SymbolicModel {
            expr,
            scale,
            offset,
            feature_names: data.feature_names.clone(),
        })
    }
}

fn argmin(scored: &[Scored]) -> usize {
    let mut best = 0;
    for i in 1..scored.len() {
        if scored[i].0 < scored[best].0 {
            best = i;
        }
    }
    best
}

/// Tournament selection: best of `k` random individuals.
fn tournament(rng: &mut SplitMix64, scored: &[Scored], k: usize) -> usize {
    let mut best = rng.next_below(scored.len() as u64) as usize;
    for _ in 1..k {
        let i = rng.next_below(scored.len() as u64) as usize;
        if scored[i].0 < scored[best].0 {
            best = i;
        }
    }
    best
}

/// Random tree generation ("full" or "grow" method).
fn random_tree(rng: &mut SplitMix64, arity: usize, depth: usize, full: bool) -> Expr {
    if depth <= 1 || (!full && rng.next_f64() < 0.3) {
        // Terminal: variable (70 %) or ephemeral constant.
        if rng.next_f64() < 0.7 {
            Expr::Var(rng.next_below(arity as u64) as usize)
        } else {
            Expr::Const(random_constant(rng))
        }
    } else {
        let a = Box::new(random_tree(rng, arity, depth - 1, full));
        let b = Box::new(random_tree(rng, arity, depth - 1, full));
        match rng.next_below(4) {
            0 => Expr::Add(a, b),
            1 => Expr::Sub(a, b),
            2 => Expr::Mul(a, b),
            _ => Expr::Div(a, b),
        }
    }
}

/// Ephemeral random constant: uniform in [-5, 5] with a bias toward small
/// integers (1, 2, 3 show up in real cost formulas).
fn random_constant(rng: &mut SplitMix64) -> f64 {
    if rng.next_f64() < 0.4 {
        (rng.next_below(4) + 1) as f64
    } else {
        rng.next_range(-5.0, 5.0)
    }
}

/// Subtree crossover: replace a random subtree of `p1` with a random
/// subtree of `p2`.
fn crossover(rng: &mut SplitMix64, p1: &Expr, p2: &Expr) -> Expr {
    let i = rng.next_below(p1.node_count() as u64) as usize;
    let j = rng.next_below(p2.node_count() as u64) as usize;
    let donor = p2.subtree(j).expect("preorder index in range").clone();
    p1.clone().replace_subtree(i, donor)
}

/// Mutation: subtree replacement (60 %), point constant jitter (40 %).
fn mutate(rng: &mut SplitMix64, p: &Expr, arity: usize) -> Expr {
    let i = rng.next_below(p.node_count() as u64) as usize;
    if rng.next_f64() < 0.6 {
        let sub = random_tree(rng, arity, 3, false);
        p.clone().replace_subtree(i, sub)
    } else {
        // Jitter: if the chosen node is a constant, scale it; otherwise
        // swap in a terminal.
        let replacement = match p.subtree(i) {
            Some(Expr::Const(c)) => Expr::Const(c * rng.next_range(0.5, 1.5)),
            _ => {
                if rng.next_f64() < 0.7 {
                    Expr::Var(rng.next_below(arity as u64) as usize)
                } else {
                    Expr::Const(random_constant(rng))
                }
            }
        };
        p.clone().replace_subtree(i, replacement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::DIV_GUARD;

    fn mape(m: &SymbolicModel, d: &Dataset) -> f64 {
        crate::FittedModel::Symbolic(m.clone()).mape(d)
    }

    fn dataset_from(f: impl Fn(&[f64]) -> f64, arity: usize, n: usize, seed: u64) -> Dataset {
        let names = (0..arity).map(|i| format!("x{i}")).collect();
        let mut d = Dataset::new(names);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            let row: Vec<f64> = (0..arity).map(|_| rng.next_range(0.5, 10.0)).collect();
            let y = f(&row);
            d.push(row, y);
        }
        d
    }

    #[test]
    fn fits_linear_shape_exactly_via_scaling() {
        // y = 7x + 3: expr = x with linear scaling nails it.
        let d = dataset_from(|x| 7.0 * x[0] + 3.0, 1, 60, 1);
        let m = SymbolicRegressor::new(GpConfig::fast(5)).fit(&d).unwrap();
        assert!(mape(&m, &d) < 0.5, "mape {}", mape(&m, &d));
    }

    #[test]
    fn fits_product_of_two_features() {
        // y = x0 * x1 — requires discovering the product structure.
        let d = dataset_from(|x| x[0] * x[1], 2, 120, 2);
        let m = SymbolicRegressor::new(GpConfig::fast(7)).fit(&d).unwrap();
        assert!(
            mape(&m, &d) < 5.0,
            "mape {} expr {}",
            mape(&m, &d),
            m.describe()
        );
    }

    #[test]
    fn fits_projection_like_shape() {
        // y ∝ (x0 + x1) — the projection kernel at fixed N and filter.
        let d = dataset_from(|x| 30e-9 * (x[0] + x[1]) * 125.0, 2, 100, 3);
        let m = SymbolicRegressor::new(GpConfig::fast(11)).fit(&d).unwrap();
        assert!(
            mape(&m, &d) < 2.0,
            "mape {} expr {}",
            mape(&m, &d),
            m.describe()
        );
    }

    #[test]
    fn search_is_deterministic() {
        let d = dataset_from(|x| x[0] * x[0] + x[1], 2, 80, 4);
        let a = SymbolicRegressor::new(GpConfig::fast(9)).fit(&d).unwrap();
        let b = SymbolicRegressor::new(GpConfig::fast(9)).fit(&d).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_may_differ_but_both_fit() {
        let d = dataset_from(|x| 2.0 * x[0] + x[1], 2, 80, 5);
        let a = SymbolicRegressor::new(GpConfig::fast(1)).fit(&d).unwrap();
        let b = SymbolicRegressor::new(GpConfig::fast(2)).fit(&d).unwrap();
        assert!(mape(&a, &d) < 5.0);
        assert!(mape(&b, &d) < 5.0);
    }

    /// A ramped half-and-half population like the engine's initialization.
    fn random_population(seed: u64, arity: usize, count: usize, max_depth: usize) -> Vec<Expr> {
        let mut rng = SplitMix64::new(seed);
        let ramp = max_depth.saturating_sub(1).max(1);
        (0..count)
            .map(|i| random_tree(&mut rng, arity, 2 + (i % ramp), i % 2 == 0))
            .collect()
    }

    /// The scoring oracle: fitness base by walking the tree per row with
    /// the recursive [`Expr::eval`], no tape, no memo, no pool.
    fn base_tree(ctx: &FitContext<'_>, expr: &Expr) -> Scored {
        let evals: Vec<f64> = ctx.data.rows.iter().map(|row| expr.eval(row)).collect();
        if evals.iter().any(|v| !v.is_finite()) {
            return (f64::INFINITY, 0.0, 0.0);
        }
        ctx.base_from_evals(&evals)
    }

    /// Integer-grid features that include zero and a target that is itself
    /// a protected division, so denominators land in the `DIV_GUARD` band
    /// on real rows (eight of the 64 have `x1 == 0`).
    fn division_dataset() -> Dataset {
        let target = Expr::Div(
            Box::new(Expr::Add(
                Box::new(Expr::Var(0)),
                Box::new(Expr::Const(2.0)),
            )),
            Box::new(Expr::Var(1)),
        );
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
        for i in 0..64 {
            let row = vec![(i % 8) as f64, (i / 8) as f64 - 3.0];
            let y = target.eval(&row);
            d.push(row, y);
        }
        d
    }

    /// A noisy linear kernel cost over `(np, ngp, nel)`, the shape the
    /// benchmark records have.
    fn noisy_kernel_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["np".into(), "ngp".into(), "nel".into()]);
        let mut rng = SplitMix64::new(21);
        for _ in 0..128 {
            let row = vec![
                rng.next_range(0.0, 2000.0),
                rng.next_range(0.0, 400.0),
                rng.next_range(8.0, 64.0),
            ];
            let y = 3e-6 * row[0] + 6e-6 * row[1] + 5e-5 * row[2] + 1e-5;
            d.push(row, y * (1.0 + 0.05 * rng.next_gaussian()));
        }
        d
    }

    #[test]
    fn fixed_seed_fits_equal_the_committed_goldens() {
        // Any change to the search trajectory or to one rounding of the
        // fitness moves these; they were captured while tree-walk, serial
        // and memo-free scoring still existed and agreed with this path.
        // `(dataset, seed, expr JSON, scale bits, offset bits)`.
        #[rustfmt::skip]
        let goldens: [(&str, u64, &str, u64, u64); 6] = [
            ("noisy", 17, r#"{"Add":[{"Add":[{"Var":0},{"Add":[{"Var":1},{"Mul":[{"Const":3.0},{"Mul":[{"Const":3.0},{"Var":2}]}]}]}]},{"Add":[{"Var":1},{"Mul":[{"Const":3.0},{"Mul":[{"Const":3.0},{"Var":2}]}]}]}]}"#, 0x3ec89f72a297ca2a, 0xbecc64944643e000),
            ("noisy", 41, r#"{"Sub":[{"Add":[{"Add":[{"Add":[{"Add":[{"Const":1.3499533955291838},{"Add":[{"Var":2},{"Var":2}]}]},{"Div":[{"Var":0},{"Const":4.613083746884373}]}]},{"Add":[{"Add":[{"Const":4.406246891580752},{"Add":[{"Add":[{"Var":2},{"Var":2}]},{"Div":[{"Var":1},{"Const":1.3499533955291838}]}]}]},{"Div":[{"Var":1},{"Const":4.613083746884373}]}]}]},{"Add":[{"Add":[{"Add":[{"Const":1.7160986798092095},{"Add":[{"Var":2},{"Var":2}]}]},{"Add":[{"Var":2},{"Var":2}]}]},{"Div":[{"Var":0},{"Const":4.055197897159582}]}]}]},{"Const":4.406246891580752}]}"#, 0x3edaa00cbe6858f6, 0x3ed3eb378834d800),
            ("noisy", 20210517, r#"{"Add":[{"Var":0},{"Sub":[{"Var":1},{"Add":[{"Sub":[{"Const":-4.356814343558707},{"Mul":[{"Const":4.196706176914805},{"Mul":[{"Const":4.196706176914805},{"Var":2}]}]}]},{"Sub":[{"Const":4.196706176914805},{"Var":1}]}]}]}]}"#, 0x3ec8b5a50638f512, 0x3ef230f904358800),
            ("division", 17, r#"{"Div":[{"Add":[{"Var":0},{"Add":[{"Const":4.0},{"Var":0}]}]},{"Var":1}]}"#, 0x3fe0000000000000, 0x0000000000000000),
            ("division", 41, r#"{"Div":[{"Add":[{"Const":2.0},{"Var":0}]},{"Var":1}]}"#, 0x3ff0000000000000, 0x0000000000000000),
            ("division", 20210517, r#"{"Sub":[{"Div":[{"Var":0},{"Var":1}]},{"Div":[{"Const":-2.040406751342881},{"Var":1}]}]}"#, 0x3fefcd6210439c2c, 0xbf4f9bc9b6406400),
        ];
        let (noisy, division) = (noisy_kernel_dataset(), division_dataset());
        for (name, seed, expr, scale, offset) in goldens {
            let d = if name == "noisy" { &noisy } else { &division };
            let m = SymbolicRegressor::new(GpConfig::fast(seed)).fit(d).unwrap();
            assert_eq!(
                serde_json::to_string(&m.expr).unwrap(),
                expr,
                "{name}/{seed}"
            );
            assert_eq!(m.scale.to_bits(), scale, "{name}/{seed} scale");
            assert_eq!(m.offset.to_bits(), offset, "{name}/{seed} offset");
            // every division golden divides by `x1`, zero on eight rows
            if name == "division" {
                let guarded = (0..m.expr.node_count())
                    .filter_map(|i| match m.expr.subtree(i) {
                        Some(Expr::Div(_, den)) => Some(den),
                        _ => None,
                    })
                    .any(|den| d.rows.iter().any(|r| den.eval(r).abs() < DIV_GUARD));
                assert!(guarded, "{name}/{seed} never trips the protected division");
            }
        }
    }

    #[test]
    fn fit_is_identical_across_thread_counts() {
        let d = noisy_kernel_dataset();
        let fit_under = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| SymbolicRegressor::new(GpConfig::fast(17)).fit(&d).unwrap())
        };
        let one = fit_under(1);
        for threads in [2, 4] {
            assert_eq!(fit_under(threads), one, "{threads}-thread pool");
        }
    }

    #[test]
    fn admission_reduces_evaluated_nodes_without_changing_quality() {
        // Scoring evaluates canonical forms: strictly less tape to run
        // than the candidates as bred (the scores themselves are held to
        // the oracle by `score_population_matches_fitness_tree_reference`).
        let pop = random_population(7, 2, 128, 8);
        let original: usize = pop.iter().map(Expr::node_count).sum();
        let evaluated: usize = pop.iter().map(|e| prepare(e).canon.node_count()).sum();
        assert!(
            evaluated < original,
            "canonical forms should shrink evaluated nodes: {evaluated} vs {original}"
        );
    }

    #[test]
    fn memo_cache_reports_hits_for_duplicates_and_elites() {
        let d = dataset_from(|x| 2.0 * x[0] + x[1], 2, 80, 22);
        let ctx = FitContext::new(&d);
        let e = Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::Var(1)));
        // `x1 + x0` has the canonical form of `x0 + x1`
        let flipped = Expr::Add(Box::new(Expr::Var(1)), Box::new(Expr::Var(0)));
        let pop = [e.clone(), Expr::Var(1), flipped, e.clone()];
        let mut cache = FitnessCache::new();
        let scored = score_population(&pop, &ctx, 1e-4, &mut cache);
        assert_eq!(cache.len(), 2, "one evaluation per canonical form");
        assert_eq!(scored[0], scored[2]);
        assert_eq!(scored[0], scored[3]);
        // A resident base is served as is, not recomputed: this is what
        // carries elites from one generation to the next for free.
        let planted = (0.5, 2.0, 3.0);
        cache.insert(prepare(&e).hash, planted);
        let again = score_population(&pop, &ctx, 1e-4, &mut cache);
        assert_eq!(again[0], finalize(planted, 1e-4, e.node_count()));
        assert_eq!(again[1], scored[1]);
    }

    #[test]
    fn score_population_matches_fitness_tree_reference() {
        let d = dataset_from(|x| x[0] + 2.0 * x[1], 2, 60, 23);
        let ctx = FitContext::new(&d);
        let pop = random_population(9, 2, 64, 6);
        let parsimony = PARSIMONY;
        let scored = score_population(&pop, &ctx, parsimony, &mut FitnessCache::new());
        assert_eq!(scored.len(), pop.len());
        for (e, &(f, a, b)) in pop.iter().zip(&scored) {
            let canon = e.clone().canonicalize();
            let (rf, ra, rb) = finalize(base_tree(&ctx, &canon), parsimony, e.node_count());
            assert_eq!(f.to_bits(), rf.to_bits());
            assert_eq!(a.to_bits(), ra.to_bits());
            assert_eq!(b.to_bits(), rb.to_bits());
        }
    }

    #[test]
    fn admission_rejects_invalid_candidates() {
        // Directly exercise the gate GP's own operators never trip.
        let bad_var = Expr::Var(9);
        assert!(!super::admissible(&bad_var, 2));
        let bad_const = Expr::Add(Box::new(Expr::Const(f64::INFINITY)), Box::new(Expr::Var(0)));
        assert!(!super::admissible(&bad_const, 2));
        let ok = Expr::Mul(Box::new(Expr::Var(1)), Box::new(Expr::Const(2.0)));
        assert!(super::admissible(&ok, 2));
    }

    #[test]
    fn empty_dataset_is_error() {
        let d = Dataset::new(vec!["x".into()]);
        assert!(SymbolicRegressor::new(GpConfig::fast(1)).fit(&d).is_err());
    }

    #[test]
    fn describe_renders_features() {
        let d = dataset_from(|x| x[0], 1, 40, 6);
        let m = SymbolicRegressor::new(GpConfig::fast(3)).fit(&d).unwrap();
        assert!(m.describe().contains('*'), "{}", m.describe());
    }

    #[test]
    fn model_serde_roundtrip() {
        let d = dataset_from(|x| x[0] + 1.0, 1, 40, 7);
        let m = SymbolicRegressor::new(GpConfig::fast(4)).fit(&d).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: SymbolicModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.predict(&[2.0]), m.predict(&[2.0]));
    }
}
