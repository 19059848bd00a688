//! Property-based tests: regression recovers planted models; expression
//! trees keep their structural invariants under the GP operators' building
//! blocks.

use pic_models::{Dataset, Expr, FittedModel, LinearModel};
use pic_types::rng::SplitMix64;
use proptest::prelude::*;

fn planted_linear(coefs: &[f64], intercept: f64, rows: usize, seed: u64) -> Dataset {
    let names = (0..coefs.len()).map(|i| format!("x{i}")).collect();
    let mut d = Dataset::new(names);
    let mut rng = SplitMix64::new(seed);
    for _ in 0..rows {
        let x: Vec<f64> = (0..coefs.len())
            .map(|_| rng.next_range(-10.0, 10.0))
            .collect();
        let y = intercept + coefs.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>();
        d.push(x, y);
    }
    d
}

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

proptest! {
    #[test]
    fn ols_recovers_planted_coefficients(
        coefs in proptest::collection::vec(-5.0..5.0f64, 1..4),
        intercept in -10.0..10.0f64,
        seed in any::<u64>(),
    ) {
        let d = planted_linear(&coefs, intercept, 50 + coefs.len() * 10, seed);
        let m = LinearModel::fit(&d).unwrap();
        prop_assert!((m.intercept - intercept).abs() < 1e-5, "{} vs {intercept}", m.intercept);
        for (got, want) in m.coefficients.iter().zip(&coefs) {
            prop_assert!((got - want).abs() < 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn relative_fit_matches_plain_on_positive_targets(
        c in 0.1..5.0f64,
        seed in any::<u64>(),
    ) {
        // y = c·x + 10 with x > 0 keeps targets positive: both fits recover it
        let mut d = Dataset::new(vec!["x".into()]);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..60 {
            let x = rng.next_range(1.0, 50.0);
            d.push(vec![x], c * x + 10.0);
        }
        let plain = LinearModel::fit(&d).unwrap();
        let rel = LinearModel::fit_relative(&d).unwrap();
        prop_assert!((plain.coefficients[0] - c).abs() < 1e-5);
        prop_assert!((rel.coefficients[0] - c).abs() < 1e-5);
        prop_assert!(FittedModel::Linear(rel).mape(&d) < 1e-5);
    }

    #[test]
    fn expr_simplify_preserves_value(e in expr_strategy(), x in proptest::collection::vec(-3.0..3.0f64, 3)) {
        let before = e.eval(&x);
        let after = e.clone().canonicalize().eval(&x);
        if before.is_finite() && after.is_finite() {
            let scale = before.abs().max(1.0);
            prop_assert!((before - after).abs() <= 1e-6 * scale, "{before} vs {after}");
        }
    }

    #[test]
    fn expr_simplify_never_grows(e in expr_strategy()) {
        prop_assert!(e.clone().canonicalize().node_count() <= e.node_count());
    }

    #[test]
    fn expr_canonicalize_preserves_value_tightly(
        e in expr_strategy(),
        rows in proptest::collection::vec(proptest::collection::vec(-10.0..10.0f64, 3), 1..8),
    ) {
        // Canonicalization is the GP admission pass: fitness computed on
        // the canonical form must be what the original would have scored,
        // so the tolerance here is tight (1e-12 relative), not loose.
        let canon = e.clone().canonicalize();
        for x in &rows {
            let before = e.eval(x);
            let after = canon.eval(x);
            if before.is_finite() {
                let scale = before.abs().max(1.0);
                prop_assert!(
                    (before - after).abs() <= 1e-12 * scale,
                    "{before} vs {after} on {x:?}\n  orig:  {e:?}\n  canon: {canon:?}"
                );
            }
        }
    }

    #[test]
    fn expr_canonicalize_is_idempotent(e in expr_strategy()) {
        let once = e.canonicalize();
        let twice = once.clone().canonicalize();
        prop_assert_eq!(&twice, &once);
    }

    #[test]
    fn expr_canonicalize_normalizes_commutative_swaps(e in expr_strategy()) {
        // Swapping every Add/Mul operand pair must reach the same
        // canonical form (structural hashing gives one normal form per
        // equivalence class under commutativity).
        fn mirror(e: Expr) -> Expr {
            match e {
                Expr::Const(_) | Expr::Var(_) => e,
                Expr::Add(a, b) => Expr::Add(Box::new(mirror(*b)), Box::new(mirror(*a))),
                Expr::Mul(a, b) => Expr::Mul(Box::new(mirror(*b)), Box::new(mirror(*a))),
                Expr::Sub(a, b) => Expr::Sub(Box::new(mirror(*a)), Box::new(mirror(*b))),
                Expr::Div(a, b) => Expr::Div(Box::new(mirror(*a)), Box::new(mirror(*b))),
            }
        }
        let m = mirror(e.clone());
        prop_assert_eq!(e.canonicalize(), m.canonicalize());
    }

    #[test]
    fn expr_subtree_indexing_is_total(e in expr_strategy()) {
        let n = e.node_count();
        for i in 0..n {
            prop_assert!(e.subtree(i).is_some(), "index {i} of {n}");
        }
        prop_assert!(e.subtree(n).is_none());
    }

    #[test]
    fn expr_replace_preserves_count_arithmetic(e in expr_strategy(), idx_seed in any::<u64>()) {
        let n = e.node_count();
        let idx = (idx_seed % n as u64) as usize;
        let removed = e.subtree(idx).unwrap().node_count();
        let replaced = e.clone().replace_subtree(idx, Expr::Const(1.0));
        prop_assert_eq!(replaced.node_count(), n - removed + 1);
    }

    #[test]
    fn expr_depth_le_nodes(e in expr_strategy()) {
        prop_assert!(e.depth() <= e.node_count());
    }

    #[test]
    fn dataset_split_partitions(rows in 2usize..60, frac in 0.0..1.0f64, seed in any::<u64>()) {
        let d = planted_linear(&[1.0], 0.0, rows, seed);
        let (train, test) = d.split(frac, seed).unwrap();
        prop_assert_eq!(train.len() + test.len(), rows);
    }
}

/// Not a property test, but it belongs with the regression evidence: the
/// ablation showing why relative least squares is the default for kernel
/// models. Under multiplicative noise, plain OLS over-weights large
/// workloads and leaves large *percentage* errors on small ones.
#[test]
fn ablation_relative_ols_beats_plain_ols_on_multiplicative_noise() {
    let mut rng = SplitMix64::new(99);
    let mut train = Dataset::new(vec!["np".into()]);
    let mut test = Dataset::new(vec!["np".into()]);
    for i in 0..400 {
        // workloads spanning three orders of magnitude
        let np = 10.0_f64.powf(rng.next_range(0.0, 3.0));
        let y = 3e-6 * np * (1.0 + 0.1 * rng.next_gaussian()).max(0.05);
        if i % 2 == 0 {
            train.push(vec![np], y);
        } else {
            test.push(vec![np], y);
        }
    }
    let plain = FittedModel::Linear(LinearModel::fit(&train).unwrap());
    let relative = FittedModel::Linear(LinearModel::fit_relative(&train).unwrap());
    let plain_mape = plain.mape(&test);
    let rel_mape = relative.mape(&test);
    assert!(
        rel_mape < plain_mape * 0.8,
        "relative {rel_mape:.2}% should clearly beat plain {plain_mape:.2}%"
    );
    // and relative OLS lands in the paper's single-digit regime
    assert!(rel_mape < 12.0, "relative MAPE {rel_mape:.2}%");
}
