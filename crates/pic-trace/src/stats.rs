//! Trace statistics: particle-boundary evolution, displacement, sizing.
//!
//! Two paper-level concerns live here:
//! * the **particle boundary** (tight AABB of all particles) per sample —
//!   its expansion over time is what drives bin-count growth in Fig 6;
//! * the **trace-size / sampling-frequency trade-off** (§II-D): bytes per
//!   sample scale with `N_p`, so the estimator lets a user budget a
//!   collection run before making it.

use crate::codec::Precision;
use crate::trace::ParticleTrace;
use pic_types::Aabb;

/// Tight bounding box of every particle at each sample.
///
/// Returns one AABB per sample (empty box for a sample of zero particles —
/// cannot happen for valid traces, but kept total).
pub fn boundary_series(trace: &ParticleTrace) -> Vec<Aabb> {
    trace.bounds_in(0, trace.sample_count())
}

/// Volume of the particle boundary at each sample. Strictly increasing for
/// dispersal problems like Hele-Shaw.
pub fn boundary_volume_series(trace: &ParticleTrace) -> Vec<f64> {
    boundary_series(trace).iter().map(Aabb::volume).collect()
}

/// Maximum single-particle displacement between consecutive samples, over
/// the whole trace. A displacement larger than an element edge between
/// samples signals an under-sampled trace (the paper's "low sampling
/// frequency does not accurately capture particle movement").
pub fn max_step_displacement(trace: &ParticleTrace) -> f64 {
    let mut samples = trace.samples();
    let Some(mut prev) = samples.next() else {
        return 0.0;
    };
    let mut max = 0.0f64;
    for cur in samples {
        for (a, b) in prev.positions.iter().zip(cur.positions.iter()) {
            max = max.max(a.distance(*b));
        }
        prev = cur;
    }
    max
}

/// Estimated on-disk size in bytes of a trace with `particles` particles and
/// `samples` samples at the given precision (header excluded — it is tens of
/// bytes).
pub fn estimated_file_size(particles: usize, samples: usize, precision: Precision) -> u64 {
    let frame = 8 + particles as u64 * 3 * precision.scalar_bytes() as u64;
    frame * samples as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceMeta;
    use pic_types::Vec3;

    /// The cube `[-h, h]^3`.
    fn cube(h: f64) -> Aabb {
        Aabb::new(Vec3::splat(-h), Vec3::splat(h))
    }

    fn expanding_trace() -> ParticleTrace {
        // Two particles that move apart each sample.
        let meta = TraceMeta::new(2, 10, cube(10.0), "expand");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..4 {
            let d = k as f64;
            tr.push_positions(vec![Vec3::splat(-d), Vec3::splat(d)])
                .unwrap();
        }
        tr
    }

    #[test]
    fn boundary_expands() {
        let tr = expanding_trace();
        let vols = boundary_volume_series(&tr);
        assert_eq!(vols.len(), 4);
        assert_eq!(vols[0], 0.0); // both particles at origin
        for k in 1..4 {
            assert!(vols[k] > vols[k - 1]);
        }
        let boxes = boundary_series(&tr);
        assert_eq!(boxes[3], cube(3.0));
    }

    #[test]
    fn displacement_series() {
        let tr = expanding_trace();
        let step = Vec3::splat(1.0).norm();
        assert!((max_step_displacement(&tr) - step).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_series_are_empty() {
        let tr = ParticleTrace::new(TraceMeta::new(2, 10, Aabb::unit(), "e"));
        assert!(boundary_series(&tr).is_empty());
        assert_eq!(max_step_displacement(&tr), 0.0);
    }

    #[test]
    fn file_size_estimate_matches_codec() {
        use crate::codec::encode_trace;
        let tr = expanding_trace();
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let est = estimated_file_size(2, 4, Precision::F64);
        // header is the only difference
        let header = bytes.len() as u64 - est;
        assert!(header > 0 && header < 200, "header={header}");
    }

    #[test]
    fn compaction_beats_raw_sizing_for_smooth_traces() {
        // A slow drift: ~43 grid units per sample on the 32-bit grid, so
        // deltas fit one byte and the compact body is ~8x smaller than raw
        // f64 frames.
        let meta = TraceMeta::new(100, 10, Aabb::unit(), "drift");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..20 {
            tr.push_positions(
                (0..100)
                    .map(|i| Vec3::new(0.001 * i as f64 + 1e-9 * k as f64, 0.5, 0.3))
                    .collect(),
            )
            .unwrap();
        }
        let raw = estimated_file_size(100, 20, Precision::F64);
        let compact = crate::compact::encode_compact(&tr, Precision::F64)
            .unwrap()
            .len() as u64;
        assert!(
            compact * 4 < raw,
            "compact {compact} should be far below raw {raw}"
        );
    }

    #[test]
    fn paper_scale_trace_is_hundreds_of_gigabytes() {
        // §II-D: millions of particles over a million time-steps, sampled
        // every 100 iterations → 10⁴ samples.
        let bytes = estimated_file_size(10_000_000, 10_000, Precision::F64);
        assert!(bytes > 2_000_000_000_000u64); // > 2 TB at f64
        let f32_bytes = estimated_file_size(10_000_000, 10_000, Precision::F32);
        assert!(f32_bytes < bytes);
    }
}
