//! Intra-sample DWG scaling: the chunked parallel ghost kernel and the
//! pipelined streaming path against the straight-line sequential replay.
//!
//! `dwg_throughput` measures absolute generator throughput; this bench
//! isolates the *speedup structure* of the parallel paths — same trace,
//! same configs, three execution strategies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_bench::synthetic_expanding_trace;
use pic_mapping::MappingAlgorithm;
use pic_trace::codec::{encode_trace, Precision};
use pic_workload::generator::{self, WorkloadConfig};
use pic_workload::{replay, sweep_streaming, ReplayOptions, SweepPoint};

fn dwg_scaling(c: &mut Criterion) {
    let particles = 20_000usize;
    let samples = 4usize;
    let trace = synthetic_expanding_trace(particles, samples, 42);
    let encoded = encode_trace(&trace, Precision::F64).unwrap();
    let total = (particles * samples) as u64;

    let mut group = c.benchmark_group("dwg_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));
    for &ranks in &[1044usize, 4176] {
        let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, 0.02);
        let points = [SweepPoint::new(cfg.clone())];
        group.bench_with_input(
            BenchmarkId::new("sequential_reference", ranks),
            &cfg,
            |b, cfg| b.iter(|| generator::generate_reference(&trace, cfg, None).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("parallel", ranks), &points, |b, points| {
            b.iter(|| replay(&trace, points, &ReplayOptions::default()).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("streaming", ranks),
            &points,
            |b, points| {
                b.iter(|| {
                    let reader = pic_trace::TraceReader::new(&encoded[..]).unwrap();
                    sweep_streaming(reader, points, None).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, dwg_scaling);
criterion_main!(benches);
