//! Property-based tests: trace invariants and codec roundtrips over
//! arbitrary particle populations.

use pic_trace::codec::{decode_trace, encode_trace, Precision};
use pic_trace::compact::encode_compact;
use pic_trace::features::{feature_vectors, FeatureConfig};
use pic_trace::{stats, ParticleTrace, TraceMeta, TraceReader, TraceSample};
use pic_types::{Aabb, Vec3};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = ParticleTrace> {
    (1usize..20, 0usize..8, 1u32..1000).prop_flat_map(|(np, t, interval)| {
        proptest::collection::vec(
            proptest::collection::vec(
                (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                np..=np,
            ),
            t..=t,
        )
        .prop_map(move |frames| {
            let meta = TraceMeta::new(
                np,
                interval,
                Aabb::new(Vec3::splat(-1e3), Vec3::splat(1e3)),
                "prop",
            );
            let mut tr = ParticleTrace::new(meta);
            for frame in frames {
                tr.push_positions(frame).unwrap();
            }
            tr
        })
    })
}

/// Frames between keyframes of a compact file's trace.
const K: usize = pic_trace::trace::KEYFRAME_SPACING;

/// Traces for the compact codec: particles (possibly none) drifting at a
/// per-particle velocity whose scale ranges from static through grid-step
/// deltas to jumps that force absolute frames, over short sample counts
/// (none included) and counts on either side of a keyframe. At up to three
/// chosen samples every particle leaps far across the box, so those samples
/// and the ones after them are absolute frames wherever they fall between
/// keyframes.
fn drifting_strategy() -> impl Strategy<Value = ParticleTrace> {
    let scale = prop_oneof![Just(0.0), Just(1e-3), Just(0.5), Just(300.0)];
    let samples = prop_oneof![
        0usize..7,
        Just(K - 1),
        Just(K),
        Just(K + 1),
        Just(2 * K + 3)
    ];
    let leaps = proptest::collection::vec(1usize..2 * K + 3, 0..3);
    (0usize..12, samples, scale, leaps).prop_flat_map(|(np, t, scale, leaps)| {
        let particle = (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64, -1.0..1.0f64);
        proptest::collection::vec(particle, np..=np).prop_map(move |particles| {
            let meta = TraceMeta::new(
                np,
                10,
                Aabb::new(Vec3::splat(-2e3), Vec3::splat(2e3)),
                "drift",
            );
            let mut tr = ParticleTrace::new(meta);
            for k in 0..t {
                let step = k as f64 * scale;
                let leap = if leaps.contains(&k) { 1e5 } else { 0.0 };
                let frame = (particles.iter())
                    .map(|&(x, y, z, v)| {
                        let p = Vec3::new(x + v * step, y - v * step, z + 0.5 * v * step);
                        p + Vec3::splat(leap)
                    })
                    .collect();
                tr.push_positions(frame).unwrap();
            }
            tr
        })
    })
}

/// A trace from [`drifting_strategy`] and an order to read its samples in.
fn shuffled_strategy() -> impl Strategy<Value = (ParticleTrace, Vec<usize>)> {
    (drifting_strategy(), any::<u64>()).prop_map(|(tr, seed)| {
        let mut rng = pic_types::rng::SplitMix64::new(seed);
        let mut order: Vec<usize> = (0..tr.sample_count()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        (tr, order)
    })
}

/// The bits of every coordinate, so `-0.0` and `0.0` differ.
fn bits(positions: &[Vec3]) -> Vec<[u64; 3]> {
    (positions.iter())
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

/// The bits of a box's corners.
fn box_bits(b: &Aabb) -> [[u64; 3]; 2] {
    [b.min, b.max].map(|v| [v.x, v.y, v.z].map(f64::to_bits))
}

fn feature_bits(tr: &ParticleTrace) -> Vec<Vec<u64>> {
    (feature_vectors(tr, &FeatureConfig::default()).iter())
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

proptest! {
    /// A compact file read whole keeps its frames encoded, with a keyframe
    /// every `K` samples. Random reads (in shuffled order), the in-order
    /// read and the bounds all agree, bit for bit, with the frames the
    /// frame-by-frame reader decodes; so do derived traces, cut or thinned
    /// across keyframes, and an f64 trace built from those frames compares
    /// equal to it. Reading never grows what the trace is charged.
    #[test]
    fn compact_resident_trace_reads_what_the_stream_decodes(
        (tr, order) in shuffled_strategy(),
        stride in 1usize..4,
        keep in 0usize..2 * K + 4,
    ) {
        for (precision, storage) in [(Precision::F64, "encoded u32"), (Precision::F32, "encoded u16")] {
            let bytes = encode_compact(&tr, precision).unwrap();
            let resident = decode_trace(&bytes).unwrap();
            prop_assert_eq!(resident.storage(), storage);
            let charged = resident.resident_bytes();
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let mut frames: Vec<TraceSample> = Vec::new();
            while let Some(frame) = reader.read_sample().unwrap() {
                frames.push(frame);
            }
            let mut oracle = ParticleTrace::new(resident.meta().clone());
            for frame in &frames {
                oracle.push_sample(frame.clone()).unwrap();
            }
            prop_assert_eq!(oracle.storage(), "f64");

            prop_assert_eq!(resident.sample_count(), frames.len());
            prop_assert_eq!(resident.samples().len(), frames.len());
            for (s, frame) in resident.samples().zip(&frames) {
                prop_assert_eq!(s.iteration, frame.iteration);
                prop_assert_eq!(bits(&s.positions), bits(&frame.positions));
            }
            for &t in &order {
                let frame = &frames[t];
                prop_assert_eq!(bits(&resident.positions_at(t)), bits(&frame.positions));
                prop_assert_eq!(resident.sample(t).iteration, frame.iteration);
                prop_assert_eq!(bits(&resident.sample(t).positions), bits(&frame.positions));
                let tight = Aabb::from_points(frame.positions.iter().copied());
                prop_assert_eq!(box_bits(&resident.bounds_at(t)), box_bits(&tight));
            }
            // Reads in runs: in shuffled order, then every sample in order.
            let reads: Vec<Vec<Vec3>> = (resident.positions_of(&order))
                .map(|p| p.into_owned())
                .collect();
            prop_assert_eq!(reads.len(), frames.len());
            for (&t, read) in order.iter().zip(&reads) {
                prop_assert_eq!(bits(read), bits(&frames[t].positions));
            }
            let all: Vec<usize> = (0..frames.len()).collect();
            let runs = resident.read_runs(&all);
            prop_assert_eq!(runs.iter().map(|r| r.len()).sum::<usize>(), frames.len());
            for run in runs {
                for (t, read) in run.clone().zip(resident.positions_of(&all[run])) {
                    prop_assert_eq!(bits(&read), bits(&frames[t].positions));
                }
            }
            prop_assert_eq!(resident.iterations(), oracle.iterations());
            prop_assert_eq!(resident.resident_bytes(), charged);

            // Derived traces keep the storage and the bits.
            let sub = resident.subsample(stride);
            let sub_oracle = oracle.subsample(stride);
            prop_assert_eq!(sub.storage(), storage);
            prop_assert_eq!(&sub, &sub_oracle);
            for &t in order.iter().filter(|&&t| t < sub.sample_count()) {
                prop_assert_eq!(bits(&sub.positions_at(t)), bits(&sub_oracle.positions_at(t)));
            }
            let (mut cut, mut cut_oracle) = (resident.clone(), oracle.clone());
            cut.truncate(keep);
            cut_oracle.truncate(keep);
            prop_assert_eq!(cut.storage(), storage);
            prop_assert_eq!(&cut, &cut_oracle);
            for &t in order.iter().filter(|&&t| t < cut.sample_count()) {
                prop_assert_eq!(bits(&cut.positions_at(t)), bits(&frames[t].positions));
            }
            prop_assert_eq!(&resident.clone(), &oracle);
            prop_assert_eq!(&oracle, &resident);
            if let Some(last) = frames.last().filter(|f| !f.positions.is_empty()) {
                let mut moved = oracle.clone();
                moved.truncate(frames.len() - 1);
                let mut positions = last.positions.clone();
                positions[0].x += 1.0;
                moved.push_sample(TraceSample { iteration: last.iteration, positions }).unwrap();
                prop_assert!(resident != moved, "a moved particle compares equal");
            }

            prop_assert_eq!(feature_bits(&resident), feature_bits(&oracle));
            prop_assert_eq!(
                stats::boundary_series(&resident),
                stats::boundary_series(&oracle)
            );
            prop_assert_eq!(
                stats::max_step_displacement(&resident).to_bits(),
                stats::max_step_displacement(&oracle).to_bits()
            );
            // Lossy once: the resident trace re-encodes to the same bytes.
            prop_assert_eq!(encode_compact(&resident, precision).unwrap(), bytes);
            prop_assert_eq!(resident.resident_bytes(), charged);
        }
    }

    #[test]
    fn f64_codec_roundtrip_exact(tr in trace_strategy()) {
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let back = decode_trace(&bytes).unwrap();
        prop_assert_eq!(back, tr);
    }

    #[test]
    fn f32_codec_roundtrip_close(tr in trace_strategy()) {
        let bytes = encode_trace(&tr, Precision::F32).unwrap();
        let back = decode_trace(&bytes).unwrap();
        prop_assert_eq!(back.sample_count(), tr.sample_count());
        prop_assert_eq!(back.meta(), tr.meta());
        for t in 0..tr.sample_count() {
            for (a, b) in tr.positions_at(t).iter().zip(back.positions_at(t).iter()) {
                // f32 relative precision on coordinates up to 1e3
                prop_assert!(a.distance(*b) < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn raw_file_size_matches_estimate(tr in trace_strategy()) {
        for precision in [Precision::F64, Precision::F32] {
            let bytes = encode_trace(&tr, precision).unwrap();
            let body = pic_trace::stats::estimated_file_size(
                tr.particle_count(),
                tr.sample_count(),
                precision,
            );
            let header = bytes.len() as u64 - body;
            // fixed header plus description
            prop_assert!((72..200).contains(&header), "header {header}");
        }
    }

    #[test]
    fn iterations_strictly_increase(tr in trace_strategy()) {
        let iters = tr.iterations();
        for w in iters.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn subsample_stride_one_is_identity(tr in trace_strategy()) {
        prop_assert_eq!(tr.subsample(1), tr);
    }

    #[test]
    fn subsample_composition(tr in trace_strategy(), a in 1usize..4, b in 1usize..4) {
        // subsampling by a then b keeps the same frames as subsampling a*b
        let left = tr.subsample(a).subsample(b);
        let right = tr.subsample(a * b);
        prop_assert_eq!(left.sample_count(), right.sample_count());
        for t in 0..left.sample_count() {
            prop_assert_eq!(left.positions_at(t), right.positions_at(t));
        }
    }

    #[test]
    fn boundary_contains_all_particles(tr in trace_strategy()) {
        let boxes = pic_trace::stats::boundary_series(&tr);
        for (t, b) in boxes.iter().enumerate() {
            for p in tr.positions_at(t).iter() {
                prop_assert!(b.contains_closed(*p));
            }
        }
    }

    #[test]
    fn truncated_bytes_never_panic(tr in trace_strategy(), cut_frac in 0.0..1.0f64) {
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        // decoding may fail, but must not panic and any success must be a prefix
        if let Ok(back) = decode_trace(&bytes[..cut]) {
            prop_assert!(back.sample_count() <= tr.sample_count());
        }
    }

    #[test]
    fn displacement_zero_for_static_trace(np in 1usize..20, t in 2usize..6) {
        let meta = TraceMeta::new(np, 10, Aabb::unit(), "static");
        let mut tr = ParticleTrace::new(meta);
        let frame: Vec<Vec3> = (0..np).map(|i| Vec3::splat(i as f64 * 1e-3)).collect();
        for _ in 0..t {
            tr.push_positions(frame.clone()).unwrap();
        }
        prop_assert_eq!(pic_trace::stats::max_step_displacement(&tr), 0.0);
    }
}
