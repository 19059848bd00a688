//! Abstract interpretation of `pic_models::Expr` over the interval domain.
//!
//! The analyzer walks an expression tree once, propagating an [`Interval`]
//! per node derived from the feature space (per-column value ranges from a
//! training dataset, or unconstrained). It flags:
//!
//! * **E001** — `Var(i)` with `i` outside the model arity (the evaluator
//!   silently maps these to `0.0`; the analyzer makes them a load-time
//!   rejection instead);
//! * **E002** — non-finite constants embedded in the tree;
//! * **W101** — a protected division whose denominator range crosses the
//!   `|d| < 1e-9` guard band, so the expression silently switches between
//!   `x/y` and `x` somewhere in the feature space;
//! * **W104** — a division whose denominator *always* lies inside the
//!   guard band: the division is dead weight (identity on its numerator);
//! * **W102** — a node whose value range reaches ±∞ from finite operands
//!   (overflow, and through later subtraction possibly NaN);
//! * **W103** — a maximal non-leaf subtree whose value is a single point
//!   over the whole feature space (dead or constant-foldable code);
//! * **I201** — structurally repeated non-trivial subtrees (common
//!   subexpressions the canonicalizer can deduplicate for costing).

use crate::interval::{Interval, PROTECT_EPS};
use pic_models::{CompiledExpr, Dataset, Expr};
use pic_types::PicError;
use serde::Serialize;
use std::collections::HashMap;

/// Value ranges for each model input column.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeatureSpace {
    names: Option<Vec<String>>,
    ranges: Vec<Interval>,
}

impl FeatureSpace {
    /// A space of `arity` columns each spanning every `f64`.
    pub fn unconstrained(arity: usize) -> FeatureSpace {
        FeatureSpace {
            names: None,
            ranges: vec![Interval::FULL; arity],
        }
    }

    /// Per-column `[min, max]` hull of a training dataset. Empty datasets
    /// yield unconstrained columns.
    pub fn from_dataset(data: &Dataset) -> FeatureSpace {
        let mut ranges = vec![Interval::FULL; data.arity()];
        for (c, range) in ranges.iter_mut().enumerate() {
            let mut hull: Option<Interval> = None;
            for row in &data.rows {
                let p = Interval::point(row[c]);
                hull = Some(match hull {
                    Some(h) => h.hull(p),
                    None => p,
                });
            }
            if let Some(h) = hull {
                *range = h;
            }
        }
        FeatureSpace {
            names: Some(data.feature_names.clone()),
            ranges,
        }
    }

    /// Number of input columns.
    pub fn arity(&self) -> usize {
        self.ranges.len()
    }

    /// Range of column `i`.
    pub fn range(&self, i: usize) -> Interval {
        self.ranges[i]
    }

    /// Name of column `i`, when the space was built from a dataset.
    pub fn name(&self, i: usize) -> Option<&str> {
        self.names
            .as_ref()
            .and_then(|n| n.get(i))
            .map(String::as_str)
    }

    /// Deterministic probe rows covering the corners of the space: per
    /// column the range endpoints, midpoint, zero, and values straddling
    /// the `1e-9` protected-division guard band (all clamped into the
    /// column's range; unconstrained columns substitute finite stand-ins).
    /// The cartesian product is capped at [`FeatureSpace::MAX_PROBE_ROWS`]
    /// rows, walked in mixed-radix order so early rows still vary every
    /// column.
    fn probe_rows(&self) -> Vec<Vec<f64>> {
        let per_col: Vec<Vec<f64>> = self
            .ranges
            .iter()
            .map(|iv| Self::probe_values(*iv))
            .collect();
        if per_col.is_empty() {
            return Vec::new();
        }
        let total: usize = per_col
            .iter()
            .map(|v| v.len())
            .try_fold(1usize, |acc, k| acc.checked_mul(k))
            .unwrap_or(usize::MAX);
        let count = total.min(Self::MAX_PROBE_ROWS);
        let mut rows = Vec::with_capacity(count);
        for mut k in 0..count {
            let mut row = Vec::with_capacity(per_col.len());
            for vals in &per_col {
                row.push(vals[k % vals.len()]);
                k /= vals.len();
            }
            rows.push(row);
        }
        rows
    }

    /// Cap on the cartesian probe-row product of `FeatureSpace::probe_rows`.
    pub const MAX_PROBE_ROWS: usize = 512;

    /// Candidate probe values for one column, deduplicated, in range.
    fn probe_values(iv: Interval) -> Vec<f64> {
        // Finite stand-ins for unconstrained bounds: wide enough to
        // exercise magnitude-dependent behaviour, small enough that
        // products of a few columns stay finite.
        let lo = if iv.lo.is_finite() { iv.lo } else { -1e6 };
        let hi = if iv.hi.is_finite() { iv.hi } else { 1e6 };
        let candidates = [
            lo,
            hi,
            0.5 * (lo + hi),
            0.0,
            // straddle the protected-division guard band
            0.5 * PROTECT_EPS,
            PROTECT_EPS,
            -0.5 * PROTECT_EPS,
        ];
        let mut vals: Vec<f64> = Vec::with_capacity(candidates.len());
        for c in candidates {
            let v = c.clamp(lo, hi);
            if !vals.iter().any(|p| p.to_bits() == v.to_bits()) {
                vals.push(v);
            }
        }
        vals
    }
}

/// Differential check of the compiled bytecode tape against the recursive
/// evaluator: every `FeatureSpace::probe_rows` corner must produce
/// bit-identical results through `Expr::eval`, `CompiledExpr::eval_row`,
/// *and* `CompiledExpr::eval_batch` (NaN compares equal to NaN). This is
/// the load-time counterpart of the property tests: it runs on the
/// actual admitted model over the actual feature space.
pub fn check_compiled_equivalence(expr: &Expr, space: &FeatureSpace) -> Result<(), PicError> {
    let rows = space.probe_rows();
    if rows.is_empty() {
        return Ok(());
    }
    let tape = CompiledExpr::compile(expr);
    let cols: Vec<Vec<f64>> = (0..space.arity())
        .map(|c| rows.iter().map(|row| row[c]).collect())
        .collect();
    let mut batch = vec![0.0; rows.len()];
    tape.eval_batch(&cols, &mut batch, &mut pic_models::EvalScratch::new());
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for (i, row) in rows.iter().enumerate() {
        let tree = expr.eval(row);
        let one = tape.eval_row(row);
        if !same(tree, one) || !same(tree, batch[i]) {
            return Err(PicError::model(format!(
                "compiled tape diverges from the tree evaluator at probe row {i} \
                 {row:?}: tree {tree:e}, tape {one:e}, batch {:e}",
                batch[i]
            )));
        }
    }
    Ok(())
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational: no behavioural concern, possible optimization.
    Info,
    /// Suspicious but well-defined behaviour.
    Warning,
    /// The expression must be rejected.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, positioned by preorder node index and a root-relative path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (`E001`, `W101`, ...).
    pub code: &'static str,
    /// Preorder index of the offending node (root = 0), usable with
    /// `Expr::subtree`.
    pub node: usize,
    /// Human-readable path from the root, e.g. `root/rhs/lhs`.
    pub path: String,
    /// Explanation of the finding.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] at node {} ({}): {}",
            self.severity, self.code, self.node, self.path, self.message
        )
    }
}

/// Full analysis result for one expression.
#[derive(Debug, Clone, Serialize)]
pub struct ExprReport {
    /// All findings, in preorder-position order.
    pub diagnostics: Vec<Diagnostic>,
    /// Interval covering every value the expression can take over the
    /// feature space.
    pub value: Interval,
    /// Node count of the analyzed expression.
    pub node_count: usize,
    /// Node count after canonicalization (simplification headroom).
    pub canonical_node_count: usize,
}

impl ExprReport {
    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Iterator over error diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Iterator over warning diagnostics only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }
}

struct Walker<'a> {
    space: &'a FeatureSpace,
    next_idx: usize,
    path: Vec<&'static str>,
    diags: Vec<Diagnostic>,
    /// structural hash → (first preorder index, occurrences, first path)
    /// for non-leaf subtrees, for repeated-subexpression reporting.
    seen: HashMap<u64, (usize, u32, String)>,
    /// (preorder index, span, path) of constant-valued non-leaf subtrees;
    /// filtered to maximal ones after the walk.
    const_nodes: Vec<(usize, usize, String)>,
}

impl Walker<'_> {
    fn path_string(&self) -> String {
        if self.path.is_empty() {
            "root".to_string()
        } else {
            format!("root/{}", self.path.join("/"))
        }
    }

    fn diag(&mut self, severity: Severity, code: &'static str, node: usize, message: String) {
        let path = self.path_string();
        self.diags.push(Diagnostic {
            severity,
            code,
            node,
            path,
            message,
        });
    }

    fn child(&mut self, label: &'static str, e: &Expr) -> Interval {
        self.path.push(label);
        let iv = self.go(e);
        self.path.pop();
        iv
    }

    fn go(&mut self, e: &Expr) -> Interval {
        let idx = self.next_idx;
        self.next_idx += 1;
        let iv = match e {
            Expr::Const(c) => {
                if !c.is_finite() {
                    self.diag(
                        Severity::Error,
                        "E002",
                        idx,
                        format!("non-finite constant {c} in expression tree"),
                    );
                }
                Interval::point(*c)
            }
            Expr::Var(i) => {
                if *i >= self.space.arity() {
                    self.diag(
                        Severity::Error,
                        "E001",
                        idx,
                        format!(
                            "Var({i}) out of range for arity {} (evaluator would silently read 0.0)",
                            self.space.arity()
                        ),
                    );
                    Interval::FULL
                } else {
                    self.space.range(*i)
                }
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                let ia = self.child("lhs", a);
                let ib = self.child("rhs", b);
                let iv = match e {
                    Expr::Add(..) => ia + ib,
                    Expr::Sub(..) => ia - ib,
                    Expr::Mul(..) => ia * ib,
                    Expr::Div(..) => {
                        let out = ia.div_protected(ib);
                        if out.always_protects {
                            self.diag(
                                Severity::Warning,
                                "W104",
                                idx,
                                format!(
                                    "division degenerate: denominator range {ib} lies entirely \
                                     inside the 1e-9 guard band, so the division is the identity \
                                     on its numerator"
                                ),
                            );
                        } else if out.may_protect {
                            self.diag(
                                Severity::Warning,
                                "W101",
                                idx,
                                format!(
                                    "protected division reachable: denominator range {ib} crosses \
                                     the 1e-9 guard band (result silently switches to the numerator)"
                                ),
                            );
                        }
                        out.value
                    }
                    _ => unreachable!(),
                };
                if !iv.is_finite() && ia.is_finite() && ib.is_finite() {
                    self.diag(
                        Severity::Warning,
                        "W102",
                        idx,
                        format!(
                            "value range {iv} reaches infinity from finite operands \
                             ({ia} op {ib}): overflow (and downstream NaN) possible"
                        ),
                    );
                }
                if iv.is_point() {
                    let span = e.node_count();
                    let path = self.path_string();
                    self.const_nodes.push((idx, span, path));
                }
                // repeated-subexpression bookkeeping (non-leaf only)
                let h = e.structural_hash();
                let path = self.path_string();
                let entry = self.seen.entry(h).or_insert((idx, 0, path));
                entry.1 += 1;
                iv
            }
        };
        iv
    }
}

/// Analyze `expr` against `space`, returning every finding plus the
/// expression's abstract value range.
pub fn analyze_expr(expr: &Expr, space: &FeatureSpace) -> ExprReport {
    let mut w = Walker {
        space,
        next_idx: 0,
        path: Vec::new(),
        diags: Vec::new(),
        seen: HashMap::new(),
        const_nodes: Vec::new(),
    };
    let value = w.go(expr);

    // Maximal constant subtrees: preorder spans nest, so after sorting by
    // index we keep a node only if it is not inside the last kept span.
    w.const_nodes.sort_by_key(|&(idx, _, _)| idx);
    let mut kept_end = 0usize;
    for (idx, span, path) in std::mem::take(&mut w.const_nodes) {
        if idx >= kept_end {
            kept_end = idx + span;
            w.diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "W103",
                node: idx,
                path,
                message: format!(
                    "subtree ({span} nodes) evaluates to a single constant over the whole \
                     feature space: dead or constant-foldable code"
                ),
            });
        }
    }

    // Repeated non-leaf subtrees, reported once at the first occurrence.
    let mut repeats: Vec<(usize, u32, String)> = w
        .seen
        .drain()
        .map(|(_, v)| v)
        .filter(|&(_, n, _)| n > 1)
        .collect();
    repeats.sort_unstable();
    for (first, n, path) in repeats {
        w.diags.push(Diagnostic {
            severity: Severity::Info,
            code: "I201",
            node: first,
            path,
            message: format!("subtree repeated {n}× (structural hash match): common subexpression"),
        });
    }

    w.diags.sort_by_key(|d| (d.node, d.code));
    ExprReport {
        diagnostics: w.diags,
        value,
        node_count: expr.node_count(),
        canonical_node_count: expr.clone().canonicalize().node_count(),
    }
}

/// Admission check for deserialized model expressions: rejects trees the
/// evaluator would only paper over (out-of-range variables, non-finite
/// constants). Returns a positioned, multi-finding error message.
pub fn check_model_expr(expr: &Expr, arity: usize) -> Result<(), PicError> {
    let report = analyze_expr(expr, &FeatureSpace::unconstrained(arity));
    if report.has_errors() {
        let msg = report
            .errors()
            .map(|d| {
                format!(
                    "{}[{}] at node {} ({}): {}",
                    d.severity, d.code, d.node, d.path, d.message
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        return Err(PicError::model(format!("invalid model expression: {msg}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A space with explicit per-column ranges.
    fn ranges(ranges: Vec<Interval>) -> FeatureSpace {
        FeatureSpace {
            names: None,
            ranges,
        }
    }

    fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }
    fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }
    fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    #[test]
    fn clean_expression_has_no_findings() {
        // (x0 + 2) * x1 over positive ranges
        let e = mul(add(Expr::Var(0), Expr::Const(2.0)), Expr::Var(1));
        let space = ranges(vec![Interval::new(1.0, 100.0), Interval::new(0.5, 2.0)]);
        let r = analyze_expr(&e, &space);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.value, Interval::new(1.5, 204.0));
    }

    #[test]
    fn var_out_of_range_is_positioned_error() {
        let e = add(Expr::Var(0), mul(Expr::Const(2.0), Expr::Var(7)));
        let r = analyze_expr(&e, &FeatureSpace::unconstrained(2));
        let errs: Vec<_> = r.errors().collect();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].code, "E001");
        assert_eq!(errs[0].node, 4); // preorder: add, var0, mul, const, var7
        assert_eq!(errs[0].path, "root/rhs/rhs");
        assert!(check_model_expr(&e, 2).is_err());
        assert!(check_model_expr(&e, 8).is_ok());
    }

    #[test]
    fn nonfinite_constant_is_error() {
        let e = add(Expr::Const(f64::INFINITY), Expr::Var(0));
        let r = analyze_expr(&e, &FeatureSpace::unconstrained(1));
        assert!(r.has_errors());
        assert_eq!(r.errors().next().unwrap().code, "E002");
        assert!(check_model_expr(&e, 1).is_err());
    }

    #[test]
    fn protected_division_flagged_when_guard_reachable() {
        // x0 / x1 with x1 spanning zero
        let e = div(Expr::Var(0), Expr::Var(1));
        let space = ranges(vec![Interval::new(1.0, 2.0), Interval::new(-1.0, 1.0)]);
        let r = analyze_expr(&e, &space);
        assert_eq!(
            r.warnings().map(|d| d.code).collect::<Vec<_>>(),
            vec!["W101"]
        );
        // bounded away from zero: clean
        let safe = ranges(vec![Interval::new(1.0, 2.0), Interval::new(0.5, 1.0)]);
        assert!(analyze_expr(&e, &safe).diagnostics.is_empty());
    }

    #[test]
    fn degenerate_division_flagged_as_identity() {
        // x0 / (1e-15 · x1) — denominator never escapes the guard band
        let e = div(Expr::Var(0), mul(Expr::Const(1e-15), Expr::Var(1)));
        let space = ranges(vec![Interval::new(1.0, 2.0), Interval::new(0.0, 1.0)]);
        let r = analyze_expr(&e, &space);
        let codes: Vec<_> = r.warnings().map(|d| d.code).collect();
        assert!(codes.contains(&"W104"), "{codes:?}");
        // and the value is exactly the numerator's range
        assert_eq!(r.value, Interval::new(1.0, 2.0));
    }

    #[test]
    fn constant_subtree_reported_once_at_maximal_node() {
        // x0 + ((2+3) * (1+1)) — the whole right product is constant;
        // nested constant nodes must not double-report.
        let e = add(
            Expr::Var(0),
            mul(
                add(Expr::Const(2.0), Expr::Const(3.0)),
                add(Expr::Const(1.0), Expr::Const(1.0)),
            ),
        );
        let r = analyze_expr(&e, &FeatureSpace::unconstrained(1));
        let w103: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "W103").collect();
        assert_eq!(w103.len(), 1);
        assert_eq!(w103[0].node, 2); // the Mul node
        assert_eq!(w103[0].path, "root/rhs");
    }

    #[test]
    fn overflow_reported_when_range_escapes_finite() {
        let e = mul(Expr::Const(1e300), mul(Expr::Const(1e300), Expr::Var(0)));
        let space = ranges(vec![Interval::new(0.0, 10.0)]);
        let r = analyze_expr(&e, &space);
        assert!(
            r.warnings().any(|d| d.code == "W102"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn repeated_subtree_reported_as_info() {
        let shared = add(Expr::Var(0), Expr::Const(1.0));
        let e = mul(shared.clone(), shared);
        let r = analyze_expr(&e, &FeatureSpace::unconstrained(1));
        let info: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "I201").collect();
        assert_eq!(info.len(), 1);
        assert!(info[0].message.contains("2×"));
    }

    #[test]
    fn feature_space_from_dataset_hulls_columns() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        d.push(vec![1.0, -2.0], 0.0);
        d.push(vec![5.0, 0.5], 0.0);
        let s = FeatureSpace::from_dataset(&d);
        assert_eq!(s.range(0), Interval::new(1.0, 5.0));
        assert_eq!(s.range(1), Interval::new(-2.0, 0.5));
        assert_eq!(s.name(1), Some("b"));
    }

    #[test]
    fn probe_rows_cover_corners_and_guard_band() {
        let space = ranges(vec![Interval::new(-1.0, 2.0), Interval::new(0.5, 4.0)]);
        let rows = space.probe_rows();
        assert!(!rows.is_empty());
        assert!(rows.len() <= FeatureSpace::MAX_PROBE_ROWS);
        // both-corners row and the guard-band probe appear
        assert!(rows.iter().any(|r| r == &vec![-1.0, 0.5]));
        assert!(rows.iter().any(|r| r == &vec![2.0, 4.0]));
        assert!(rows.iter().any(|r| r[0] == 0.5 * PROTECT_EPS));
        // out-of-range candidates were clamped into the column range
        for r in &rows {
            assert!((-1.0..=2.0).contains(&r[0]) && (0.5..=4.0).contains(&r[1]));
        }
        // unconstrained columns get finite stand-ins
        let u = FeatureSpace::unconstrained(2);
        assert!(u
            .probe_rows()
            .iter()
            .all(|r| r.iter().all(|v| v.is_finite())));
        assert!(FeatureSpace::unconstrained(0).probe_rows().is_empty());
    }

    #[test]
    fn probe_row_cap_holds_for_wide_spaces() {
        let space = FeatureSpace::unconstrained(8);
        let rows = space.probe_rows();
        assert_eq!(rows.len(), FeatureSpace::MAX_PROBE_ROWS);
        // mixed-radix order varies the early columns within the cap
        assert!(rows.iter().any(|r| r[0] != rows[0][0]));
        assert!(rows.iter().any(|r| r[1] != rows[0][1]));
    }

    #[test]
    fn compiled_equivalence_holds_on_probe_corners() {
        // protected division with the guard band reachable — the probes
        // include rows on both sides of it
        let e = div(add(Expr::Var(0), Expr::Const(1.0)), Expr::Var(1));
        let space = ranges(vec![Interval::new(-2.0, 2.0), Interval::new(-1.0, 1.0)]);
        assert!(check_compiled_equivalence(&e, &space).is_ok());
        assert!(check_compiled_equivalence(&e, &FeatureSpace::unconstrained(2)).is_ok());
        // overflow corners (inf/NaN evaluations) must also agree
        let blow = mul(Expr::Const(1e300), mul(Expr::Var(0), Expr::Var(1)));
        assert!(check_compiled_equivalence(&blow, &FeatureSpace::unconstrained(2)).is_ok());
    }

    #[test]
    fn report_value_is_sound_for_eval() {
        let e = div(add(Expr::Var(0), Expr::Const(1.0)), Expr::Var(1));
        let space = ranges(vec![Interval::new(-2.0, 2.0), Interval::new(0.5, 4.0)]);
        let r = analyze_expr(&e, &space);
        for i in 0..=20 {
            for j in 0..=20 {
                let x0 = -2.0 + 4.0 * i as f64 / 20.0;
                let x1 = 0.5 + 3.5 * j as f64 / 20.0;
                let v = e.eval(&[x0, x1]);
                assert!(r.value.contains(v), "{v} outside {}", r.value);
            }
        }
    }
}
