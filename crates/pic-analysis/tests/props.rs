//! Property-based evidence for the analyzer's core soundness claim: the
//! interval computed for an expression contains every value the concrete
//! evaluator produces on inputs drawn from the feature space.

use pic_analysis::{analyze_expr, FeatureSpace};
use pic_models::{Dataset, Expr};
use proptest::prelude::*;

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-5.0..5.0f64).prop_map(Expr::Const),
        (0usize..3).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 64, 2, |inner| {
        (inner.clone(), inner, 0..4u8).prop_map(|(a, b, op)| match op {
            0 => Expr::Add(Box::new(a), Box::new(b)),
            1 => Expr::Sub(Box::new(a), Box::new(b)),
            2 => Expr::Mul(Box::new(a), Box::new(b)),
            _ => Expr::Div(Box::new(a), Box::new(b)),
        })
    })
}

/// Columns bounded to [-4, 4] (the hull of two corner rows); evaluation
/// points inside them.
fn space() -> FeatureSpace {
    let mut corners = Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()]);
    corners.push(vec![-4.0; 3], 0.0);
    corners.push(vec![4.0; 3], 0.0);
    FeatureSpace::from_dataset(&corners)
}

proptest! {
    #[test]
    fn abstract_value_contains_concrete_eval(
        e in expr_strategy(),
        xs in proptest::collection::vec(proptest::collection::vec(-4.0..4.0f64, 3), 1..10),
    ) {
        let report = analyze_expr(&e, &space());
        for x in &xs {
            let v = e.eval(x);
            if v.is_finite() {
                // one ulp of outward slack per operation, absorbed by a
                // relative tolerance on the bound comparison
                let tol = 1e-9 * v.abs().max(1.0);
                prop_assert!(
                    report.value.lo - tol <= v && v <= report.value.hi + tol,
                    "{v} outside {} for {e:?} at {x:?}", report.value
                );
            }
        }
    }

    #[test]
    fn error_free_report_means_eval_never_reads_out_of_range(e in expr_strategy()) {
        // the strategy only generates in-range variables, so the analyzer
        // must never produce E001/E002 for them
        let report = analyze_expr(&e, &space());
        prop_assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }

    #[test]
    fn canonical_form_analyzes_within_original_range(e in expr_strategy()) {
        // canonicalization can only tighten (or preserve) the value range
        // on point-free structure; at minimum it must stay sound, so both
        // reports' intervals must overlap on any concretely reachable value
        let canon = e.clone().canonicalize();
        let ra = analyze_expr(&e, &space());
        let rb = analyze_expr(&canon, &space());
        for x in [[-3.0, 0.5, 2.0], [0.0, 0.0, 0.0], [3.9, -3.9, 1.0]] {
            let v = canon.eval(&x);
            if v.is_finite() {
                let tol = 1e-9 * v.abs().max(1.0);
                prop_assert!(rb.value.lo - tol <= v && v <= rb.value.hi + tol);
                prop_assert!(ra.value.lo - tol <= v && v <= ra.value.hi + tol);
            }
        }
    }
}
