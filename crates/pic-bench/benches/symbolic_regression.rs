//! Model Generator cost: OLS fitting vs GP symbolic regression (the paper's
//! two regression families), and expression-tree evaluation throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_models::{Dataset, Expr, FittedModel, GpConfig, LinearModel, SymbolicRegressor};
use pic_types::rng::SplitMix64;

fn dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix64::new(seed);
    let mut d = Dataset::new(vec!["np".into(), "ngp".into(), "nel".into()]);
    for _ in 0..rows {
        let np = rng.next_range(0.0, 2000.0);
        let ngp = rng.next_range(0.0, 400.0);
        let nel = rng.next_range(8.0, 64.0);
        let y = 3e-6 * np + 6e-6 * ngp + 5e-5 * nel + 1e-5;
        d.push(vec![np, ngp, nel], y * (1.0 + 0.05 * rng.next_gaussian()));
    }
    d
}

fn regression_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_fit");
    group.sample_size(10);
    for &rows in &[100usize, 500] {
        let d = dataset(rows, 5);
        group.bench_with_input(BenchmarkId::new("ols_linear", rows), &d, |b, d| {
            b.iter(|| LinearModel::fit(d).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("ols_relative", rows), &d, |b, d| {
            b.iter(|| LinearModel::fit_relative(d).unwrap());
        });
    }
    // GP is orders of magnitude costlier; bench a small budget.
    let d = dataset(100, 6);
    group.bench_function("gp_pop64_gen10", |b| {
        let cfg = GpConfig {
            population: 64,
            generations: 10,
            seed: 17,
        };
        b.iter(|| SymbolicRegressor::new(cfg.clone()).fit(&d).unwrap());
    });
    group.finish();
}

fn expression_eval(c: &mut Criterion) {
    // (np + ngp) * nel / (1 + np) — a representative evolved shape.
    let expr = Expr::Div(
        Box::new(Expr::Mul(
            Box::new(Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::Var(1)))),
            Box::new(Expr::Var(2)),
        )),
        Box::new(Expr::Add(
            Box::new(Expr::Const(1.0)),
            Box::new(Expr::Var(0)),
        )),
    );
    let rows: Vec<[f64; 3]> = (0..10_000)
        .map(|i| [i as f64, (i / 2) as f64, 8.0 + (i % 56) as f64])
        .collect();
    let mut group = c.benchmark_group("expr_eval");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("10k_rows", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for r in &rows {
                acc += expr.eval(r);
            }
            acc
        });
    });
    group.finish();
}

fn model_predict(c: &mut Criterion) {
    let d = dataset(300, 9);
    let m = FittedModel::Linear(LinearModel::fit_relative(&d).unwrap());
    let mut group = c.benchmark_group("model_predict");
    group.throughput(Throughput::Elements(d.rows.len() as u64));
    group.bench_function("linear_300_rows", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in &d.rows {
                acc += m.predict(row);
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, regression_fit, expression_eval, model_predict);
criterion_main!(benches);
