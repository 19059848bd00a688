//! Expression trees for symbolic regression.
//!
//! The genetic-programming search (paper refs \[13\], \[14\]) evolves these
//! trees. The function set is `{+, −, ×, ÷(protected)}` over feature
//! variables and ephemeral constants — sufficient to express the rational
//! polynomial shapes PIC kernel costs take.

use serde::{Deserialize, Serialize};

/// Protected-division guard band: denominators with `|d| < DIV_GUARD`
/// pass the numerator through unchanged. Shared by [`Expr::eval`], the
/// canonicalizer's constant folder, and the compiled tape so the three
/// can never disagree.
pub const DIV_GUARD: f64 = 1e-9;

/// Recursion budget of [`Expr::eval`]: trees deeper than this are
/// evaluated on the non-recursive compiled tape instead of the call
/// stack. Generously above anything the GP breeds (its depth limit is
/// single digits) while keeping hostile deep trees from aborting the
/// process.
const EVAL_RECURSION_LIMIT: usize = 128;

/// A symbolic expression over feature variables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A constant.
    Const(f64),
    /// Feature variable by column index.
    Var(usize),
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
    /// Product.
    Mul(Box<Expr>, Box<Expr>),
    /// Protected division: denominators within `1e-9` of zero pass the
    /// numerator through unchanged.
    Div(Box<Expr>, Box<Expr>),
}

/// Canonical operand order for commutative nodes: the structurally
/// smaller tree goes left. Swapping is bit-exact for IEEE `+` and `×`.
fn order_commutative(a: Expr, b: Expr) -> (Expr, Expr) {
    if b.structural_cmp(&a) == std::cmp::Ordering::Less {
        (b, a)
    } else {
        (a, b)
    }
}

/// Ordering rank of an [`Expr`] variant, used by [`Expr::structural_cmp`].
fn variant_rank(e: &Expr) -> u8 {
    match e {
        Expr::Const(_) => 0,
        Expr::Var(_) => 1,
        Expr::Add(_, _) => 2,
        Expr::Sub(_, _) => 3,
        Expr::Mul(_, _) => 4,
        Expr::Div(_, _) => 5,
    }
}

impl Expr {
    /// Evaluate over a feature row. Out-of-range variables evaluate to 0
    /// (defensive; the GP never generates them).
    ///
    /// Recursion is bounded: trees deeper than an internal limit are
    /// lowered to the non-recursive [`CompiledExpr`](crate::compile::CompiledExpr)
    /// tape and evaluated there — bit-identical results (the tape runs
    /// the same IEEE operations in the same order), no call-stack
    /// overflow on hostile inputs.
    pub fn eval(&self, x: &[f64]) -> f64 {
        match self.eval_bounded(x, EVAL_RECURSION_LIMIT) {
            Some(v) => v,
            None => crate::compile::CompiledExpr::compile(self).eval_row(x),
        }
    }

    /// Recursive evaluator with a depth budget; `None` when the budget
    /// runs out (the caller switches to the compiled tape).
    fn eval_bounded(&self, x: &[f64], budget: usize) -> Option<f64> {
        if budget == 0 {
            return None;
        }
        Some(match self {
            Expr::Const(c) => *c,
            Expr::Var(i) => x.get(*i).copied().unwrap_or(0.0),
            Expr::Add(a, b) => a.eval_bounded(x, budget - 1)? + b.eval_bounded(x, budget - 1)?,
            Expr::Sub(a, b) => a.eval_bounded(x, budget - 1)? - b.eval_bounded(x, budget - 1)?,
            Expr::Mul(a, b) => a.eval_bounded(x, budget - 1)? * b.eval_bounded(x, budget - 1)?,
            Expr::Div(a, b) => {
                let d = b.eval_bounded(x, budget - 1)?;
                if d.abs() < DIV_GUARD {
                    a.eval_bounded(x, budget - 1)?
                } else {
                    a.eval_bounded(x, budget - 1)? / d
                }
            }
        })
    }

    /// Consume the tree iteratively. `Box<Expr>`'s compiler-generated
    /// drop glue recurses, so simply dropping a pathologically deep tree
    /// can overflow the call stack; use this for trees of untrusted
    /// depth. (Trees behind the model-load depth gate never need it.)
    pub fn drop_iterative(self) {
        let mut work = vec![self];
        while let Some(e) = work.pop() {
            match e {
                Expr::Const(_) | Expr::Var(_) => {}
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    work.push(*a);
                    work.push(*b);
                }
            }
        }
    }

    /// Tree depth computed iteratively (a leaf has depth 1) — safe on
    /// trees too deep for the recursive [`Expr::depth`]. Returns `None`
    /// as soon as the depth exceeds `max`, without walking the rest.
    pub fn depth_within(&self, max: usize) -> Option<usize> {
        let mut work: Vec<(&Expr, usize)> = vec![(self, 1)];
        let mut deepest = 0usize;
        while let Some((e, d)) = work.pop() {
            if d > max {
                return None;
            }
            deepest = deepest.max(d);
            match e {
                Expr::Const(_) | Expr::Var(_) => {}
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    work.push((a, d + 1));
                    work.push((b, d + 1));
                }
            }
        }
        Some(deepest)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.node_count() + b.node_count()
            }
        }
    }

    /// Tree depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.depth().max(b.depth())
            }
        }
    }

    /// The `idx`-th node in preorder (0 = the root).
    pub fn subtree(&self, idx: usize) -> Option<&Expr> {
        fn walk<'a>(e: &'a Expr, idx: &mut usize) -> Option<&'a Expr> {
            if *idx == 0 {
                return Some(e);
            }
            *idx -= 1;
            match e {
                Expr::Const(_) | Expr::Var(_) => None,
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    walk(a, idx).or_else(|| walk(b, idx))
                }
            }
        }
        let mut i = idx;
        walk(self, &mut i)
    }

    /// Replace the `idx`-th preorder node with `new`, returning the
    /// modified tree. Out-of-range indices leave the tree unchanged.
    pub fn replace_subtree(self, idx: usize, new: Expr) -> Expr {
        fn walk(e: Expr, idx: &mut isize, new: &mut Option<Expr>) -> Expr {
            if *idx == 0 {
                *idx -= 1;
                return new.take().expect("replacement consumed once");
            }
            *idx -= 1;
            match e {
                Expr::Const(_) | Expr::Var(_) => e,
                Expr::Add(a, b) => {
                    let a = walk(*a, idx, new);
                    let b = walk(*b, idx, new);
                    Expr::Add(Box::new(a), Box::new(b))
                }
                Expr::Sub(a, b) => {
                    let a = walk(*a, idx, new);
                    let b = walk(*b, idx, new);
                    Expr::Sub(Box::new(a), Box::new(b))
                }
                Expr::Mul(a, b) => {
                    let a = walk(*a, idx, new);
                    let b = walk(*b, idx, new);
                    Expr::Mul(Box::new(a), Box::new(b))
                }
                Expr::Div(a, b) => {
                    let a = walk(*a, idx, new);
                    let b = walk(*b, idx, new);
                    Expr::Div(Box::new(a), Box::new(b))
                }
            }
        }
        let mut i = idx as isize;
        let mut slot = Some(new);
        walk(self, &mut i, &mut slot)
    }

    /// Canonicalizing simplifier: constant folding (with the protected
    /// division semantics of [`Expr::eval`]), algebraic identity
    /// elimination, and a commutative-operand normal form (`Add`/`Mul`
    /// operands sorted by `Expr::structural_cmp`, which is bit-exact
    /// because IEEE-754 `+` and `×` are commutative).
    ///
    /// Guarantees relied on by the GP admission pass and the analyzer:
    ///
    /// * **semantics-preserving**: on finite evaluations the canonical
    ///   form is bit-identical to the original (identities like `x − x → 0`
    ///   diverge only where the original evaluates to non-finite values —
    ///   exactly what `pic-analysis` exists to flag);
    /// * **idempotent**: `e.canonicalize().canonicalize() ==
    ///   e.canonicalize()`;
    /// * **shrinking**: never increases the node count.
    pub fn canonicalize(self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Var(_) => self,
            Expr::Add(a, b) => {
                let (a, b) = (a.canonicalize(), b.canonicalize());
                match (a, b) {
                    (Expr::Const(x), Expr::Const(y)) => Expr::Const(x + y),
                    (Expr::Const(z), e) | (e, Expr::Const(z)) if z == 0.0 => e,
                    (a, b) => {
                        let (a, b) = order_commutative(a, b);
                        Expr::Add(Box::new(a), Box::new(b))
                    }
                }
            }
            Expr::Sub(a, b) => {
                let (a, b) = (a.canonicalize(), b.canonicalize());
                match (a, b) {
                    (Expr::Const(x), Expr::Const(y)) => Expr::Const(x - y),
                    (a, Expr::Const(0.0)) => a,
                    (a, b) if a == b => Expr::Const(0.0),
                    (a, b) => Expr::Sub(Box::new(a), Box::new(b)),
                }
            }
            Expr::Mul(a, b) => {
                let (a, b) = (a.canonicalize(), b.canonicalize());
                match (a, b) {
                    (Expr::Const(x), Expr::Const(y)) => Expr::Const(x * y),
                    (Expr::Const(z), _) | (_, Expr::Const(z)) if z == 0.0 => Expr::Const(0.0),
                    (Expr::Const(o), e) | (e, Expr::Const(o)) if o == 1.0 => e,
                    (a, b) => {
                        let (a, b) = order_commutative(a, b);
                        Expr::Mul(Box::new(a), Box::new(b))
                    }
                }
            }
            Expr::Div(a, b) => {
                let (a, b) = (a.canonicalize(), b.canonicalize());
                match (a, b) {
                    // Protected fold: mirrors eval's near-zero guard.
                    (Expr::Const(x), Expr::Const(y)) => {
                        Expr::Const(if y.abs() < DIV_GUARD { x } else { x / y })
                    }
                    (a, Expr::Const(1.0)) => a,
                    (a, b) => Expr::Div(Box::new(a), Box::new(b)),
                }
            }
        }
    }

    /// Total structural order over expression trees: variant rank first
    /// (`Const < Var < Add < Sub < Mul < Div`), then contents
    /// (constants by `total_cmp`, variables by index, branches
    /// lexicographically). Used to pick the canonical operand order of
    /// commutative nodes.
    fn structural_cmp(&self, other: &Expr) -> std::cmp::Ordering {
        match (self, other) {
            (Expr::Const(a), Expr::Const(b)) => a.total_cmp(b),
            (Expr::Var(a), Expr::Var(b)) => a.cmp(b),
            (Expr::Add(a1, b1), Expr::Add(a2, b2))
            | (Expr::Sub(a1, b1), Expr::Sub(a2, b2))
            | (Expr::Mul(a1, b1), Expr::Mul(a2, b2))
            | (Expr::Div(a1, b1), Expr::Div(a2, b2)) => {
                a1.structural_cmp(a2).then_with(|| b1.structural_cmp(b2))
            }
            _ => variant_rank(self).cmp(&variant_rank(other)),
        }
    }

    /// FNV-1a hash over the preorder structure (variant tags, variable
    /// indices, constant bit patterns). Trees that compare
    /// [`Equal`](std::cmp::Ordering::Equal) under
    /// `Expr::structural_cmp` hash identically, so the hash serves as a
    /// cheap key for subtree deduplication in the analyzer.
    pub fn structural_hash(&self) -> u64 {
        fn mix(h: u64, byte: u8) -> u64 {
            (h ^ byte as u64).wrapping_mul(0x100000001b3)
        }
        fn walk(e: &Expr, mut h: u64) -> u64 {
            h = mix(h, variant_rank(e));
            match e {
                Expr::Const(c) => {
                    for b in c.to_bits().to_le_bytes() {
                        h = mix(h, b);
                    }
                    h
                }
                Expr::Var(i) => {
                    for b in (*i as u64).to_le_bytes() {
                        h = mix(h, b);
                    }
                    h
                }
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    walk(b, walk(a, h))
                }
            }
        }
        walk(self, 0xcbf29ce484222325)
    }

    /// Highest feature index referenced, or `None` for constant trees.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            Expr::Const(_) => None,
            Expr::Var(i) => Some(*i),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                match (a.max_var(), b.max_var()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
        }
    }

    /// Render with feature names (falls back to `x<i>` when names are
    /// missing).
    pub fn render(&self, names: &[String]) -> String {
        match self {
            Expr::Const(c) => format!("{c:.4e}"),
            Expr::Var(i) => names.get(*i).cloned().unwrap_or_else(|| format!("x{i}")),
            Expr::Add(a, b) => format!("({} + {})", a.render(names), b.render(names)),
            Expr::Sub(a, b) => format!("({} - {})", a.render(names), b.render(names)),
            Expr::Mul(a, b) => format!("({} * {})", a.render(names), b.render(names)),
            Expr::Div(a, b) => format!("({} / {})", a.render(names), b.render(names)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expr {
        // (x0 + 2) * x1
        Expr::Mul(
            Box::new(Expr::Add(
                Box::new(Expr::Var(0)),
                Box::new(Expr::Const(2.0)),
            )),
            Box::new(Expr::Var(1)),
        )
    }

    #[test]
    fn eval_basics() {
        let e = sample();
        assert_eq!(e.eval(&[3.0, 4.0]), 20.0);
        assert_eq!(Expr::Var(5).eval(&[1.0]), 0.0); // out of range
    }

    #[test]
    fn protected_division() {
        let e = Expr::Div(Box::new(Expr::Const(6.0)), Box::new(Expr::Var(0)));
        assert_eq!(e.eval(&[2.0]), 3.0);
        assert_eq!(e.eval(&[0.0]), 6.0); // protected: numerator passes through
    }

    #[test]
    fn counting() {
        let e = sample();
        assert_eq!(e.node_count(), 5);
        assert_eq!(e.depth(), 3);
        assert_eq!(Expr::Const(1.0).node_count(), 1);
        assert_eq!(Expr::Const(1.0).depth(), 1);
    }

    #[test]
    fn preorder_subtree_access() {
        let e = sample();
        // preorder: 0=Mul, 1=Add, 2=Var(0), 3=Const(2), 4=Var(1)
        assert!(matches!(e.subtree(0), Some(Expr::Mul(_, _))));
        assert!(matches!(e.subtree(1), Some(Expr::Add(_, _))));
        assert_eq!(e.subtree(2), Some(&Expr::Var(0)));
        assert_eq!(e.subtree(3), Some(&Expr::Const(2.0)));
        assert_eq!(e.subtree(4), Some(&Expr::Var(1)));
        assert_eq!(e.subtree(5), None);
    }

    #[test]
    fn replace_subtree_preorder() {
        let e = sample().replace_subtree(3, Expr::Const(10.0));
        assert_eq!(e.eval(&[3.0, 4.0]), 52.0); // (3+10)*4
        let e = sample().replace_subtree(0, Expr::Const(7.0));
        assert_eq!(e, Expr::Const(7.0));
        // out-of-range: unchanged
        let e = sample().replace_subtree(99, Expr::Const(0.0));
        assert_eq!(e, sample());
    }

    #[test]
    fn simplify_folds_constants() {
        let e = Expr::Add(Box::new(Expr::Const(2.0)), Box::new(Expr::Const(3.0)));
        assert_eq!(e.canonicalize(), Expr::Const(5.0));
        let e = Expr::Mul(Box::new(Expr::Var(0)), Box::new(Expr::Const(1.0)));
        assert_eq!(e.canonicalize(), Expr::Var(0));
        let e = Expr::Mul(Box::new(Expr::Var(0)), Box::new(Expr::Const(0.0)));
        assert_eq!(e.canonicalize(), Expr::Const(0.0));
        let e = Expr::Sub(Box::new(Expr::Var(1)), Box::new(Expr::Var(1)));
        assert_eq!(e.canonicalize(), Expr::Const(0.0));
        let e = Expr::Add(Box::new(Expr::Const(0.0)), Box::new(Expr::Var(2)));
        assert_eq!(e.canonicalize(), Expr::Var(2));
    }

    #[test]
    fn simplify_preserves_semantics() {
        let e = Expr::Div(
            Box::new(sample()),
            Box::new(Expr::Add(
                Box::new(Expr::Const(1.0)),
                Box::new(Expr::Const(0.0)),
            )),
        );
        let s = e.clone().canonicalize();
        for x in [[1.0, 2.0], [0.5, -3.0], [10.0, 0.0]] {
            assert!((e.eval(&x) - s.eval(&x)).abs() < 1e-12);
        }
    }

    #[test]
    fn canonicalize_orders_commutative_operands() {
        let ab = Expr::Add(Box::new(Expr::Var(1)), Box::new(Expr::Var(0)));
        let ba = Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::Var(1)));
        assert_eq!(ab.clone().canonicalize(), ba.clone().canonicalize());
        // constants sort before variables
        let e = Expr::Mul(Box::new(Expr::Var(0)), Box::new(Expr::Const(3.0)));
        assert_eq!(
            e.canonicalize(),
            Expr::Mul(Box::new(Expr::Const(3.0)), Box::new(Expr::Var(0)))
        );
        // non-commutative operands keep their order
        let s = Expr::Sub(Box::new(Expr::Var(1)), Box::new(Expr::Var(0)));
        assert_eq!(s.clone().canonicalize(), s);
    }

    #[test]
    fn canonicalize_folds_protected_division() {
        // |denominator| below the guard: the numerator passes through
        let e = Expr::Div(Box::new(Expr::Const(6.0)), Box::new(Expr::Const(1e-12)));
        assert_eq!(e.canonicalize(), Expr::Const(6.0));
        let e = Expr::Div(Box::new(Expr::Const(6.0)), Box::new(Expr::Const(2.0)));
        assert_eq!(e.canonicalize(), Expr::Const(3.0));
    }

    #[test]
    fn canonicalize_detects_equal_subtrees_modulo_commutativity() {
        // (x0 + x1) - (x1 + x0) == 0 once operands are normalized
        let l = Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::Var(1)));
        let r = Expr::Add(Box::new(Expr::Var(1)), Box::new(Expr::Var(0)));
        let e = Expr::Sub(Box::new(l), Box::new(r));
        assert_eq!(e.canonicalize(), Expr::Const(0.0));
    }

    #[test]
    fn structural_hash_agrees_with_cmp() {
        let a = sample();
        let b = sample();
        assert_eq!(a.structural_cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.structural_hash(), b.structural_hash());
        let c = Expr::Var(0);
        assert_ne!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn max_var_spans_tree() {
        assert_eq!(Expr::Const(1.0).max_var(), None);
        assert_eq!(sample().max_var(), Some(1));
        let e = Expr::Div(Box::new(Expr::Var(7)), Box::new(Expr::Const(2.0)));
        assert_eq!(e.max_var(), Some(7));
    }

    #[test]
    fn render_uses_names() {
        let names = vec!["np".to_string(), "ngp".to_string()];
        assert_eq!(sample().render(&names), "((np + 2.0000e0) * ngp)");
        assert_eq!(Expr::Var(9).render(&names), "x9");
    }

    #[test]
    fn deep_tree_eval_uses_tape_not_call_stack() {
        // 200k-deep right-leaning chain: recursive eval would abort.
        let mut e = Expr::Var(0);
        for _ in 0..200_000 {
            e = Expr::Add(Box::new(Expr::Const(1.0)), Box::new(e));
        }
        assert_eq!(e.eval(&[0.25]), 200_000.25);
        assert_eq!(e.depth_within(1_000_000), Some(200_001));
        assert_eq!(e.depth_within(1000), None);
        e.drop_iterative();
    }

    #[test]
    fn depth_within_agrees_with_depth() {
        let e = sample();
        assert_eq!(e.depth_within(10), Some(e.depth()));
        assert_eq!(e.depth_within(3), Some(3));
        assert_eq!(e.depth_within(2), None);
        assert_eq!(Expr::Const(1.0).depth_within(1), Some(1));
    }

    #[test]
    fn serde_roundtrip() {
        let e = sample();
        let json = serde_json::to_string(&e).unwrap();
        let back: Expr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
