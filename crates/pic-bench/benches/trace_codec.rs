//! Trace codec bandwidth: encode/decode rates for both precisions, both
//! formats decoded through the one `decode_trace`.
//!
//! Trace size is a first-class constraint in the paper (§II-D: hundreds of
//! gigabytes at scale), so codec speed determines whether the trace-driven
//! workflow is I/O-bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_bench::synthetic_expanding_trace;
use pic_trace::codec::{decode_trace, encode_trace, Precision};
use pic_trace::compact::encode_compact;
use pic_trace::features::{feature_vectors, FeatureConfig};

fn codec_bandwidth(c: &mut Criterion) {
    let trace = synthetic_expanding_trace(50_000, 10, 21);
    let mut group = c.benchmark_group("trace_codec");
    group.sample_size(10);
    for precision in [Precision::F64, Precision::F32] {
        let bytes = encode_trace(&trace, precision).unwrap();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("encode", format!("{precision:?}")),
            &trace,
            |b, trace| b.iter(|| encode_trace(trace, precision).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("decode", format!("{precision:?}")),
            &bytes,
            |b, bytes| b.iter(|| decode_trace(bytes).unwrap()),
        );
        let compact = encode_compact(&trace, precision).unwrap();
        group.throughput(Throughput::Bytes(compact.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("compact_encode", format!("{precision:?}")),
            &trace,
            |b, trace| b.iter(|| encode_compact(trace, precision).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("compact_decode", format!("{precision:?}")),
            &compact,
            |b, bytes| b.iter(|| decode_trace(bytes).unwrap()),
        );
    }
    group.finish();
}

fn subsampling(c: &mut Criterion) {
    let trace = synthetic_expanding_trace(50_000, 20, 22);
    let mut group = c.benchmark_group("trace_ops");
    group.sample_size(10);
    group.bench_function("subsample_stride4", |b| b.iter(|| trace.subsample(4)));
    group.bench_function("boundary_series", |b| {
        b.iter(|| pic_trace::stats::boundary_series(&trace))
    });
    group.bench_function("feature_vectors", |b| {
        b.iter(|| feature_vectors(&trace, &FeatureConfig::default()))
    });
    group.finish();
}

criterion_group!(benches, codec_bandwidth, subsampling);
criterion_main!(benches);
