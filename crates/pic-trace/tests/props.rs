//! Property-based tests: trace invariants and codec roundtrips over
//! arbitrary particle populations.

use pic_trace::codec::{decode_trace, encode_trace, Precision};
use pic_trace::{ParticleTrace, TraceMeta};
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
            let meta = TraceMeta::new(np, interval, Aabb::centered_cube(1e3), "prop");
            let mut tr = ParticleTrace::new(meta);
            for frame in frames {
                tr.push_positions(frame).unwrap();
            }
            tr
        })
    })
}

proptest! {
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
            for (a, b) in tr.positions_at(t).iter().zip(back.positions_at(t)) {
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
            for p in tr.positions_at(t) {
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
        let d = pic_trace::stats::mean_displacement_series(&tr);
        prop_assert!(d.iter().all(|&x| x == 0.0));
        prop_assert_eq!(pic_trace::stats::max_step_displacement(&tr), 0.0);
    }
}
