//! Expression evaluation throughput: recursive tree walk vs the compiled
//! bytecode tape, per-row and batched over columnar storage. The spread
//! between these is what scoring GP candidates on the tape buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_models::{CompiledExpr, Dataset, EvalScratch, Expr};
use pic_types::rng::SplitMix64;

fn workload(rows: usize, seed: u64) -> (Dataset, Vec<Vec<f64>>) {
    let mut rng = SplitMix64::new(seed);
    let mut d = Dataset::new(vec!["np".into(), "ngp".into(), "nel".into()]);
    for _ in 0..rows {
        d.push(
            vec![
                rng.next_range(0.0, 2000.0),
                rng.next_range(0.0, 400.0),
                rng.next_range(8.0, 64.0),
            ],
            0.0,
        );
    }
    let cols = d.columns();
    (d, cols)
}

/// A representative evolved shape exercising all four ops.
fn sample_expr() -> Expr {
    // (np + ngp) * nel / (1 + np)
    Expr::Div(
        Box::new(Expr::Mul(
            Box::new(Expr::Add(Box::new(Expr::Var(0)), Box::new(Expr::Var(1)))),
            Box::new(Expr::Var(2)),
        )),
        Box::new(Expr::Add(
            Box::new(Expr::Const(1.0)),
            Box::new(Expr::Var(0)),
        )),
    )
}

fn single_expr_paths(c: &mut Criterion) {
    let expr = sample_expr();
    let tape = CompiledExpr::compile(&expr);
    let mut group = c.benchmark_group("expr_eval_paths");
    for &rows in &[1_000usize, 10_000] {
        let (d, cols) = workload(rows, 11);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("tree_walk", rows), &d, |b, d| {
            b.iter(|| {
                let mut acc = 0.0;
                for r in &d.rows {
                    acc += expr.eval(r);
                }
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("tape_row", rows), &d, |b, d| {
            b.iter(|| {
                let mut acc = 0.0;
                for r in &d.rows {
                    acc += tape.eval_row(r);
                }
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("tape_batch", rows), &cols, |b, cols| {
            let mut out = vec![0.0; rows];
            let mut scratch = EvalScratch::new();
            b.iter(|| {
                tape.eval_batch(cols, &mut out, &mut scratch);
                out[0]
            });
        });
    }
    group.finish();
}

/// A random tree over three features and the four operators, full to
/// `depth` or cut short at a leaf three times in ten.
fn random_tree(rng: &mut SplitMix64, depth: usize, full: bool) -> Expr {
    if depth <= 1 || (!full && rng.next_f64() < 0.3) {
        return if rng.next_f64() < 0.7 {
            Expr::Var(rng.next_below(3) as usize)
        } else {
            Expr::Const(rng.next_range(-5.0, 5.0))
        };
    }
    let a = Box::new(random_tree(rng, depth - 1, full));
    let b = Box::new(random_tree(rng, depth - 1, full));
    match rng.next_below(4) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        _ => Expr::Div(a, b),
    }
}

fn population_batch(c: &mut Criterion) {
    // Amortized cost over a realistic mixed population, tape compilation
    // included (the engine recompiles each candidate every generation):
    // depths ramped 2..=8, half of the trees full, as a GP breeds them.
    let mut rng = SplitMix64::new(3);
    let pop: Vec<Expr> = (0..64)
        .map(|i| random_tree(&mut rng, 2 + i % 7, i % 2 == 0))
        .collect();
    let (d, cols) = workload(512, 13);
    let mut group = c.benchmark_group("expr_eval_population");
    group.sample_size(20);
    group.throughput(Throughput::Elements((pop.len() * d.len()) as u64));
    group.bench_function("tree_walk", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for e in &pop {
                for r in &d.rows {
                    acc += e.eval(r);
                }
            }
            acc
        });
    });
    group.bench_function("compile_and_batch", |b| {
        let mut out = vec![0.0; d.len()];
        let mut scratch = EvalScratch::new();
        b.iter(|| {
            let mut acc = 0.0;
            for e in &pop {
                let tape = CompiledExpr::compile(e);
                tape.eval_batch(&cols, &mut out, &mut scratch);
                acc += out[0];
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, single_expr_paths, population_batch);
criterion_main!(benches);
