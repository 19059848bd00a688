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
//! The search is fully deterministic in the configured seed — including
//! with the compiled/parallel/memoized fitness engine enabled. Scoring
//! never touches the RNG, candidates are scored independently, the
//! vendored rayon assembles results in input order, and the memo cache
//! returns exactly the value an evaluation would have produced, so every
//! toggle combination yields a bit-identical search trajectory.

use crate::compile::{CompiledExpr, EvalScratch};
use crate::dataset::Dataset;
use crate::expr::Expr;
use crate::model::PerfModel;
use pic_types::rng::SplitMix64;
use pic_types::{PicError, Result};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;

fn default_true() -> bool {
    true
}

/// Genetic-programming search parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Maximum tree depth (children exceeding it are rejected).
    pub max_depth: usize,
    /// Probability of crossover (vs mutation) when breeding.
    pub crossover_prob: f64,
    /// Per-node fitness penalty.
    pub parsimony: f64,
    /// Number of elite individuals copied unchanged each generation.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
    /// Run the static admission pass before fitness evaluation:
    /// structurally invalid candidates (out-of-range variables,
    /// non-finite constants) are rejected and replaced, and every
    /// admitted candidate's fitness is computed on its
    /// [canonical form](Expr::canonicalize) — identical semantics,
    /// fewer evaluated nodes. Selection is unchanged because the
    /// parsimony penalty still uses the original node count.
    pub admission: bool,
    /// Evaluate candidates on the compiled bytecode tape over columnar
    /// feature storage instead of walking the boxed tree per row.
    /// Bit-identical fitness either way (the tape executes the same IEEE
    /// operations in the same order); this is purely a speed switch.
    #[serde(default = "default_true")]
    pub compiled: bool,
    /// Score each generation's population in parallel. Deterministic:
    /// scoring is per-candidate, touches no RNG, and results are
    /// assembled in population order, so the search trajectory is
    /// bit-identical to the serial path.
    #[serde(default = "default_true")]
    pub parallel: bool,
    /// Memoize fitness by the structural hash of the evaluated tree, so
    /// duplicate individuals (common after crossover, and every elite
    /// every generation) are scored once per run. Returns exactly the
    /// value evaluation would produce — no trajectory change.
    #[serde(default = "default_true")]
    pub memo: bool,
}

impl Default for GpConfig {
    fn default() -> GpConfig {
        GpConfig {
            population: 256,
            generations: 60,
            tournament: 5,
            max_depth: 8,
            crossover_prob: 0.85,
            parsimony: 1e-4,
            elitism: 4,
            seed: 0xC0FFEE,
            admission: true,
            compiled: true,
            parallel: true,
            memo: true,
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
            ..GpConfig::default()
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

impl PerfModel for SymbolicModel {
    fn predict(&self, features: &[f64]) -> f64 {
        self.scale * self.expr.eval(features) + self.offset
    }

    fn describe(&self) -> String {
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

/// Counters from one GP run showing what the admission pass did. The
/// node counters measure search cost: fitness evaluation walks the tree
/// once per dataset row, so `evaluated_nodes / original_nodes` is the
/// fraction of tree-walking work the canonicalizer left standing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GpRunStats {
    /// Candidates whose fitness was computed.
    pub candidates: usize,
    /// Candidates rejected by the admission pass (structurally invalid:
    /// out-of-range variable or non-finite constant) and replaced with
    /// fresh random trees before evaluation.
    pub rejected: usize,
    /// Summed node count of candidates as bred.
    pub original_nodes: u64,
    /// Summed node count of the trees actually evaluated (canonical
    /// forms when admission is on).
    pub evaluated_nodes: u64,
    /// Candidates whose fitness came from the memo cache instead of a
    /// fresh evaluation (duplicates after crossover, surviving elites).
    #[serde(default)]
    pub cache_hits: u64,
}

impl GpRunStats {
    /// Fraction of candidate nodes eliminated before evaluation.
    pub fn node_reduction(&self) -> f64 {
        if self.original_nodes == 0 {
            0.0
        } else {
            1.0 - self.evaluated_nodes as f64 / self.original_nodes as f64
        }
    }

    /// Fraction of candidate scorings served from the memo cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.candidates as f64
        }
    }
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

/// Dataset-constant fitness state, hoisted out of the per-candidate loop.
///
/// `mean_y` and the relative-error magnitude floor depend only on the
/// targets, yet the old `scaled_fitness` recomputed both for every
/// candidate × generation. They are computed here once per fit, together
/// with the columnar feature block the compiled evaluator streams over.
/// The arithmetic (summation order included) is identical to the old
/// per-candidate recomputation, so hoisting is bit-exact.
#[derive(Debug, Clone)]
pub struct FitContext<'a> {
    data: &'a Dataset,
    cols: Vec<Vec<f64>>,
    mean_y: f64,
    floor: f64,
}

/// Reusable per-worker fitness workspace: the candidate's per-row
/// evaluations plus the tape's register block. After warm-up neither
/// path allocates per candidate.
#[derive(Debug, Default, Clone)]
pub struct FitScratch {
    /// Per-row candidate evaluations.
    pub evals: Vec<f64>,
    /// Batch-evaluator register block.
    pub tape: EvalScratch,
}

impl<'a> FitContext<'a> {
    /// Hoist the dataset constants and build the columnar feature view.
    pub fn new(data: &'a Dataset) -> FitContext<'a> {
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
    /// scale, offset)` — evaluated by walking the tree per row (the
    /// reference path). The parsimony penalty is *not* included: it
    /// depends on the candidate's original size, not on the evaluated
    /// tree, so it is applied per candidate by [`FitContext::finalize`].
    pub fn base_tree(&self, expr: &Expr, scratch: &mut FitScratch) -> (f64, f64, f64) {
        scratch.evals.clear();
        for row in &self.data.rows {
            let v = expr.eval(row);
            if !v.is_finite() {
                return (f64::INFINITY, 0.0, 0.0);
            }
            scratch.evals.push(v);
        }
        let evals = std::mem::take(&mut scratch.evals);
        let out = self.base_from_evals(&evals);
        scratch.evals = evals;
        out
    }

    /// Like [`FitContext::base_tree`], but evaluating the candidate's
    /// compiled tape over the columnar block — bit-identical results.
    pub fn base_compiled(&self, tape: &CompiledExpr, scratch: &mut FitScratch) -> (f64, f64, f64) {
        scratch.evals.clear();
        scratch.evals.resize(self.data.len(), 0.0);
        tape.eval_batch(&self.cols, &mut scratch.evals, &mut scratch.tape);
        if scratch.evals.iter().any(|v| !v.is_finite()) {
            return (f64::INFINITY, 0.0, 0.0);
        }
        let evals = std::mem::take(&mut scratch.evals);
        let out = self.base_from_evals(&evals);
        scratch.evals = evals;
        out
    }

    /// Add the parsimony charge for a candidate of `penalty_nodes`
    /// original nodes to a penalty-free base triple. Split from the base
    /// computation so memoized bases can serve hash-equal candidates of
    /// *different* original sizes without perturbing selection.
    pub fn finalize(
        base: (f64, f64, f64),
        parsimony: f64,
        penalty_nodes: usize,
    ) -> (f64, f64, f64) {
        let (err, a, b) = base;
        let fitness = err + parsimony * penalty_nodes as f64;
        if fitness.is_finite() {
            (fitness, a, b)
        } else {
            (f64::INFINITY, 0.0, 0.0)
        }
    }

    /// Full fitness of a candidate via the tree-walking reference path:
    /// [`FitContext::base_tree`] plus the parsimony charge.
    pub fn fitness_tree(
        &self,
        expr: &Expr,
        parsimony: f64,
        penalty_nodes: usize,
        scratch: &mut FitScratch,
    ) -> (f64, f64, f64) {
        FitContext::finalize(self.base_tree(expr, scratch), parsimony, penalty_nodes)
    }

    /// Full fitness of a candidate via the compiled tape:
    /// [`FitContext::base_compiled`] plus the parsimony charge.
    pub fn fitness_compiled(
        &self,
        tape: &CompiledExpr,
        parsimony: f64,
        penalty_nodes: usize,
        scratch: &mut FitScratch,
    ) -> (f64, f64, f64) {
        FitContext::finalize(self.base_compiled(tape, scratch), parsimony, penalty_nodes)
    }

    /// Keijzer linear scaling and mean relative error over precomputed
    /// per-row evaluations (no parsimony term).
    fn base_from_evals(&self, evals: &[f64]) -> (f64, f64, f64) {
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

/// Memoized *penalty-free* fitness bases keyed by the structural hash of
/// the tree that was actually evaluated (the canonical form when
/// admission is on). Bases rather than final fitness because hash-equal
/// candidates may differ in original size and therefore in parsimony
/// charge; [`FitContext::finalize`] applies the per-candidate term.
/// Hash-equal ⇒ canonical-form-equal is a property-checked invariant of
/// [`Expr::structural_hash`] (`tests/compile_props.rs`).
pub type FitnessCache = HashMap<u64, (f64, f64, f64)>;

/// Per-candidate admission artifacts produced before evaluation.
struct Prepared {
    /// Canonical form, when admission rewrites the tree for evaluation.
    canon: Option<Expr>,
    /// Node count of the candidate as bred (parsimony charge).
    orig_nodes: usize,
    /// Node count of the tree actually evaluated.
    eval_nodes: usize,
    /// Structural hash of the evaluated tree (memo key).
    hash: u64,
}

thread_local! {
    /// Per-worker scratch for parallel scoring. The vendored rayon gives
    /// each worker a contiguous span of candidates, so the buffer warms
    /// up once per worker per generation instead of once per candidate.
    static WORKER_SCRATCH: RefCell<FitScratch> = RefCell::new(FitScratch::default());
}

/// Score a population against a fit context, honoring the engine toggles
/// in `cfg` (`admission`, `compiled`, `parallel`, `memo`). Returns the
/// `(fitness, scale, offset)` triple per candidate, in population order.
///
/// Deterministic by construction: every toggle combination produces
/// bit-identical triples. Scoring never touches the RNG; duplicates are
/// answered from `cache` with exactly the value a fresh evaluation would
/// produce; the parallel path scores candidates independently and
/// assembles results in input order. Exposed publicly so benches can
/// drive the engine's scoring paths directly.
pub fn score_population(
    cfg: &GpConfig,
    pop: &[Expr],
    ctx: &FitContext<'_>,
    cache: &mut FitnessCache,
    stats: &mut GpRunStats,
    scratch: &mut FitScratch,
) -> Vec<(f64, f64, f64)> {
    // Phase 1: admission rewrite + memo key, per candidate.
    let prepare = |e: &Expr| -> Prepared {
        let orig_nodes = e.node_count();
        if cfg.admission {
            let canon = e.clone().canonicalize();
            Prepared {
                eval_nodes: canon.node_count(),
                hash: canon.structural_hash(),
                canon: Some(canon),
                orig_nodes,
            }
        } else {
            Prepared {
                canon: None,
                orig_nodes,
                eval_nodes: orig_nodes,
                hash: e.structural_hash(),
            }
        }
    };
    let prepared: Vec<Prepared> = if cfg.parallel && pop.len() > 1 {
        pic_types::pool::install(|| pop.par_iter().map(prepare).collect())
    } else {
        pop.iter().map(prepare).collect()
    };

    // Phase 2 (sequential): counters, cache lookups, dedup plan.
    let mut scored: Vec<Option<(f64, f64, f64)>> = vec![None; pop.len()];
    let mut to_eval: Vec<usize> = Vec::new();
    let mut aliases: Vec<(usize, usize)> = Vec::new(); // (candidate, to_eval slot)
    let mut this_batch: HashMap<u64, usize> = HashMap::new();
    for (i, p) in prepared.iter().enumerate() {
        stats.candidates += 1;
        stats.original_nodes += p.orig_nodes as u64;
        stats.evaluated_nodes += p.eval_nodes as u64;
        if cfg.memo {
            if let Some(&hit) = cache.get(&p.hash) {
                scored[i] = Some(FitContext::finalize(hit, cfg.parsimony, p.orig_nodes));
                stats.cache_hits += 1;
                continue;
            }
            if let Some(&slot) = this_batch.get(&p.hash) {
                aliases.push((i, slot));
                stats.cache_hits += 1;
                continue;
            }
            this_batch.insert(p.hash, to_eval.len());
        }
        to_eval.push(i);
    }

    // Phase 3: evaluate the unique candidates (penalty-free bases; the
    // per-candidate parsimony charge is applied at assembly).
    let eval_one = |i: usize, ws: &mut FitScratch| -> (f64, f64, f64) {
        let p = &prepared[i];
        let expr = p.canon.as_ref().unwrap_or(&pop[i]);
        if cfg.compiled {
            let tape = CompiledExpr::compile(expr);
            ctx.base_compiled(&tape, ws)
        } else {
            ctx.base_tree(expr, ws)
        }
    };
    let results: Vec<(f64, f64, f64)> = if cfg.parallel && to_eval.len() > 1 {
        pic_types::pool::install(|| {
            to_eval
                .par_iter()
                .map(|&i| WORKER_SCRATCH.with(|ws| eval_one(i, &mut ws.borrow_mut())))
                .collect()
        })
    } else {
        to_eval.iter().map(|&i| eval_one(i, scratch)).collect()
    };

    // Phase 4 (sequential): assemble in population order, fill the cache.
    for (&i, &base) in to_eval.iter().zip(&results) {
        scored[i] = Some(FitContext::finalize(
            base,
            cfg.parsimony,
            prepared[i].orig_nodes,
        ));
        if cfg.memo {
            cache.insert(prepared[i].hash, base);
        }
    }
    for (i, slot) in aliases {
        scored[i] = Some(FitContext::finalize(
            results[slot],
            cfg.parsimony,
            prepared[i].orig_nodes,
        ));
    }
    scored
        .into_iter()
        .map(|s| s.expect("every candidate scored"))
        .collect()
}

impl SymbolicRegressor {
    /// Create a regressor with the given configuration.
    pub fn new(cfg: GpConfig) -> SymbolicRegressor {
        SymbolicRegressor { cfg }
    }

    /// Run the evolutionary search against `data`.
    pub fn fit(&self, data: &Dataset) -> Result<SymbolicModel> {
        self.fit_with_stats(data).map(|(m, _)| m)
    }

    /// Like [`SymbolicRegressor::fit`], additionally returning the
    /// admission-pass counters.
    pub fn fit_with_stats(&self, data: &Dataset) -> Result<(SymbolicModel, GpRunStats)> {
        if data.is_empty() {
            return Err(PicError::model("cannot run GP on an empty dataset"));
        }
        if data.arity() == 0 {
            return Err(PicError::model("GP needs at least one feature"));
        }
        let cfg = &self.cfg;
        let mut rng = SplitMix64::new(cfg.seed);
        let arity = data.arity();
        let mut stats = GpRunStats::default();

        // Dataset constants (mean_y, magnitude floor) and the columnar
        // feature block are hoisted here, once per fit; scoring below is
        // compiled/parallel/memoized per the config, with bit-identical
        // results on every path.
        let ctx = FitContext::new(data);
        let mut cache = FitnessCache::new();
        let mut scratch = FitScratch::default();

        // Ramped half-and-half initialization.
        let mut pop: Vec<Expr> = (0..cfg.population)
            .map(|i| {
                let depth = 2 + (i % 4);
                let full = i % 2 == 0;
                random_tree(&mut rng, arity, depth, full)
            })
            .collect();
        let mut scored = score_population(cfg, &pop, &ctx, &mut cache, &mut stats, &mut scratch);

        let mut best_idx = argmin(&scored);
        let mut best = (pop[best_idx].clone(), scored[best_idx]);

        for _gen in 0..cfg.generations {
            let mut next: Vec<Expr> = Vec::with_capacity(cfg.population);
            // Elitism: carry the best individuals forward.
            let mut order: Vec<usize> = (0..pop.len()).collect();
            order.sort_by(|&a, &b| scored[a].0.partial_cmp(&scored[b].0).unwrap());
            for &i in order.iter().take(cfg.elitism.min(pop.len())) {
                next.push(pop[i].clone());
            }
            while next.len() < cfg.population {
                let mut child = if rng.next_f64() < cfg.crossover_prob {
                    let p1 = tournament(&mut rng, &scored, cfg.tournament);
                    let p2 = tournament(&mut rng, &scored, cfg.tournament);
                    crossover(&mut rng, &pop[p1], &pop[p2])
                } else {
                    let p = tournament(&mut rng, &scored, cfg.tournament);
                    mutate(&mut rng, &pop[p], arity)
                };
                // Admission gate: structurally invalid children never
                // reach fitness evaluation.
                if cfg.admission && !admissible(&child, arity) {
                    stats.rejected += 1;
                    child = random_tree(&mut rng, arity, 3, false);
                }
                // Depth limit: oversize children are replaced by a fresh
                // small tree (keeps diversity instead of cloning parents).
                if child.depth() <= cfg.max_depth {
                    next.push(child);
                } else {
                    next.push(random_tree(&mut rng, arity, 3, false));
                }
            }
            pop = next;
            scored = score_population(cfg, &pop, &ctx, &mut cache, &mut stats, &mut scratch);
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
        let (_, a, b) = ctx.fitness_tree(&expr, 0.0, 0, &mut scratch);
        let model = SymbolicModel {
            expr,
            scale: a,
            offset: b,
            feature_names: data.feature_names.clone(),
        };
        Ok((model, stats))
    }
}

fn argmin(scored: &[(f64, f64, f64)]) -> usize {
    let mut best = 0;
    for i in 1..scored.len() {
        if scored[i].0 < scored[best].0 {
            best = i;
        }
    }
    best
}

/// Tournament selection: best of `k` random individuals.
fn tournament(rng: &mut SplitMix64, scored: &[(f64, f64, f64)], k: usize) -> usize {
    let mut best = rng.next_below(scored.len() as u64) as usize;
    for _ in 1..k {
        let i = rng.next_below(scored.len() as u64) as usize;
        if scored[i].0 < scored[best].0 {
            best = i;
        }
    }
    best
}

/// A ramped half-and-half population like the engine's initialization —
/// public so benches can score realistic candidate pools without running
/// the full search.
pub fn random_population(seed: u64, arity: usize, count: usize, max_depth: usize) -> Vec<Expr> {
    let mut rng = SplitMix64::new(seed);
    let ramp = max_depth.saturating_sub(1).max(1);
    (0..count)
        .map(|i| random_tree(&mut rng, arity, 2 + (i % ramp), i % 2 == 0))
        .collect()
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
        assert!(m.mape(&d) < 0.5, "mape {}", m.mape(&d));
    }

    #[test]
    fn fits_product_of_two_features() {
        // y = x0 * x1 — requires discovering the product structure.
        let d = dataset_from(|x| x[0] * x[1], 2, 120, 2);
        let m = SymbolicRegressor::new(GpConfig::fast(7)).fit(&d).unwrap();
        assert!(
            m.mape(&d) < 5.0,
            "mape {} expr {}",
            m.mape(&d),
            m.describe()
        );
    }

    #[test]
    fn fits_projection_like_shape() {
        // y ∝ (x0 + x1) — the projection kernel at fixed N and filter.
        let d = dataset_from(|x| 30e-9 * (x[0] + x[1]) * 125.0, 2, 100, 3);
        let m = SymbolicRegressor::new(GpConfig::fast(11)).fit(&d).unwrap();
        assert!(
            m.mape(&d) < 2.0,
            "mape {} expr {}",
            m.mape(&d),
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
        assert!(a.mape(&d) < 5.0);
        assert!(b.mape(&d) < 5.0);
    }

    #[test]
    fn admission_reduces_evaluated_nodes_without_changing_quality() {
        // The acceptance contract: canonicalizing before evaluation must
        // cut tree-walking work while leaving the best model's held-out
        // RMSE within 1 % of the no-admission run.
        let d = dataset_from(|x| x[0] * x[1] + 2.0 * x[0], 2, 120, 13);
        let test = dataset_from(|x| x[0] * x[1] + 2.0 * x[0], 2, 60, 14);
        let on = GpConfig {
            admission: true,
            ..GpConfig::fast(7)
        };
        let off = GpConfig {
            admission: false,
            ..GpConfig::fast(7)
        };
        let (m_on, s_on) = SymbolicRegressor::new(on).fit_with_stats(&d).unwrap();
        let (m_off, s_off) = SymbolicRegressor::new(off).fit_with_stats(&d).unwrap();
        assert!(
            s_on.evaluated_nodes < s_off.evaluated_nodes,
            "admission should shrink evaluated nodes: {} vs {}",
            s_on.evaluated_nodes,
            s_off.evaluated_nodes
        );
        assert!(s_on.node_reduction() > 0.0);
        assert_eq!(s_on.candidates, s_off.candidates);
        let (r_on, r_off) = (m_on.rmse(&test), m_off.rmse(&test));
        let scale = r_off.abs().max(1e-12);
        assert!(
            (r_on - r_off).abs() / scale <= 0.01,
            "admission changed RMSE: {r_on} vs {r_off}"
        );
    }

    #[test]
    fn engine_toggles_preserve_search_trajectory_bitwise() {
        // The acceptance contract of the compiled engine: every
        // combination of {compiled, parallel, memo} returns the same
        // best model, bit for bit, and identical admission counters
        // (modulo the cache-hit field, which only the memoized runs
        // populate).
        let d = dataset_from(|x| x[0] * x[1] + 3.0 * x[0], 2, 100, 21);
        let mut reference: Option<(SymbolicModel, GpRunStats)> = None;
        for mask in 0..8u8 {
            let cfg = GpConfig {
                compiled: mask & 1 != 0,
                parallel: mask & 2 != 0,
                memo: mask & 4 != 0,
                ..GpConfig::fast(17)
            };
            let (m, s) = SymbolicRegressor::new(cfg).fit_with_stats(&d).unwrap();
            match &reference {
                None => reference = Some((m, s)),
                Some((m0, s0)) => {
                    assert_eq!(&m, m0, "mask {mask:#05b} changed the best model");
                    assert_eq!(s.candidates, s0.candidates);
                    assert_eq!(s.rejected, s0.rejected);
                    assert_eq!(s.original_nodes, s0.original_nodes);
                    assert_eq!(s.evaluated_nodes, s0.evaluated_nodes);
                }
            }
        }
    }

    #[test]
    fn config_engine_toggles_default_on_for_pre_compiled_json() {
        // Config files written before the compiled engine existed carry
        // none of the toggle fields: they must load with the fast path on.
        let old = r#"{"population":96,"generations":30,"tournament":5,"max_depth":8,
                      "crossover_prob":0.85,"parsimony":0.0001,"elitism":4,"seed":7,
                      "admission":true}"#;
        let cfg: GpConfig = serde_json::from_str(old).expect("old config loads");
        assert!(cfg.compiled && cfg.parallel && cfg.memo);
        // and a full roundtrip preserves explicit opt-outs
        let off = GpConfig {
            compiled: false,
            parallel: false,
            memo: false,
            ..GpConfig::default()
        };
        let back: GpConfig = serde_json::from_str(&serde_json::to_string(&off).unwrap()).unwrap();
        assert_eq!(back, off);
    }

    #[test]
    fn memo_cache_reports_hits_for_duplicates_and_elites() {
        let d = dataset_from(|x| 2.0 * x[0] + x[1], 2, 80, 22);
        let cfg = GpConfig {
            memo: true,
            ..GpConfig::fast(3)
        };
        let (_, stats) = SymbolicRegressor::new(cfg).fit_with_stats(&d).unwrap();
        // Elites alone guarantee hits: they are re-scored every
        // generation and always cached.
        assert!(
            stats.cache_hits as usize >= GpConfig::fast(3).elitism,
            "cache hits {}",
            stats.cache_hits
        );
        assert!(stats.cache_hit_rate() > 0.0 && stats.cache_hit_rate() < 1.0);
        let off = GpConfig {
            memo: false,
            ..GpConfig::fast(3)
        };
        let (_, s_off) = SymbolicRegressor::new(off).fit_with_stats(&d).unwrap();
        assert_eq!(s_off.cache_hits, 0);
    }

    #[test]
    fn score_population_matches_fitness_tree_reference() {
        let d = dataset_from(|x| x[0] + 2.0 * x[1], 2, 60, 23);
        let ctx = FitContext::new(&d);
        let pop = random_population(9, 2, 64, 6);
        let cfg = GpConfig::default();
        let mut cache = FitnessCache::new();
        let mut stats = GpRunStats::default();
        let mut scratch = FitScratch::default();
        let scored = score_population(&cfg, &pop, &ctx, &mut cache, &mut stats, &mut scratch);
        assert_eq!(scored.len(), pop.len());
        for (e, &(f, a, b)) in pop.iter().zip(&scored) {
            let canon = e.clone().canonicalize();
            let (rf, ra, rb) =
                ctx.fitness_tree(&canon, cfg.parsimony, e.node_count(), &mut scratch);
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
