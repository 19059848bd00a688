//! Trace extrapolation: synthesize a representative large-particle-count
//! trace from a small-scale run.
//!
//! This is the extension the paper names as future work (§VI: "we are
//! working on incorporating trace extrapolation … to generate
//! representative high-scale particle trace from a low-fidelity
//! execution"), motivated by the cost of collecting full-scale traces
//! (§II-D: hundreds of gigabytes, large compute budgets).
//!
//! The scheme preserves what the Dynamic Workload Generator consumes —
//! the evolving *spatial density* of the particle cloud:
//!
//! 1. every synthetic particle adopts one source particle's trajectory
//!    (chosen deterministically from the seed);
//! 2. a per-particle offset, drawn once and *scaled to the cloud's current
//!    extent*, is added at every sample, so the jitter expands and
//!    contracts with the cloud instead of blurring it by a fixed amount;
//! 3. positions are clamped to the trace's domain.
//!
//! Because offsets follow the cloud scale, the density *shape* (and hence
//! per-rank workload fractions) of the source trace is preserved while the
//! particle count — and so the absolute workload — scales to the target.

use crate::stats::boundary_series;
use crate::trace::{ParticleTrace, TraceMeta, TraceSample};
use pic_types::error::check_reservable;
use pic_types::rng::SplitMix64;
use pic_types::{PicError, Result, Vec3};

/// Relative jitter scale: offsets are Gaussian with σ equal to this
/// fraction of the cloud extent per axis.
const JITTER_FRACTION: f64 = 0.04;

/// Refuse a target count before anything is sized by it: zero, or a count
/// whose output — `samples` rows of `target_count` positions, plus one
/// source index and one offset drawn per target — [`check_reservable`]
/// refuses.
fn check_target_count(target_count: usize, samples: usize) -> Result<()> {
    if target_count == 0 {
        return Err(PicError::config(
            "target particle count must be positive, got 0",
        ));
    }
    let vec3 = std::mem::size_of::<Vec3>();
    let bytes = (samples.checked_mul(vec3))
        .and_then(|n| n.checked_add(std::mem::size_of::<u64>() + vec3))
        .and_then(|n| n.checked_mul(target_count));
    check_reservable(bytes, |size| {
        format!(
            "target particle count {target_count} needs {size} bytes for {samples} samples, \
             which cannot be allocated"
        )
    })
}

/// Extrapolate `source` to `target_count` particles.
///
/// Works for both up-scaling (the paper's use case) and down-scaling
/// (useful for quick previews). Fails on a source trace without samples
/// or without particles: there is no trajectory to adopt. A target count
/// of zero, or one whose output cannot be allocated, is a configuration
/// error naming it.
pub fn extrapolate(
    source: &ParticleTrace,
    target_count: usize,
    seed: u64,
) -> Result<ParticleTrace> {
    if source.is_empty() {
        return Err(PicError::trace("cannot extrapolate an empty trace"));
    }
    check_target_count(target_count, source.sample_count())?;
    let n_src = source.particle_count();
    if n_src == 0 {
        return Err(PicError::trace(format!(
            "cannot extrapolate a trace of {n_src} particles"
        )));
    }
    let mut rng = SplitMix64::new(seed);

    // Per-target-particle: a source index and a unit-scale offset.
    let assignments: Vec<u64> = (0..target_count)
        .map(|_| rng.next_below(n_src as u64))
        .collect();
    let offsets: Vec<Vec3> = (0..target_count)
        .map(|_| {
            Vec3::new(
                rng.next_gaussian(),
                rng.next_gaussian(),
                rng.next_gaussian(),
            ) * JITTER_FRACTION
        })
        .collect();

    let boundaries = boundary_series(source);
    let domain = source.meta().domain;
    let meta = TraceMeta::new(
        target_count,
        source.meta().sample_interval,
        domain,
        format!(
            "extrapolated x{:.2} from: {}",
            target_count as f64 / n_src as f64,
            source.meta().description
        ),
    );
    let mut out = ParticleTrace::new(meta);
    for (t, sample) in source.samples().enumerate() {
        let ext = boundaries[t].extent();
        let mut positions = Vec::with_capacity(target_count);
        for j in 0..target_count {
            let base = sample.positions[assignments[j] as usize];
            let o = offsets[j];
            let p = base + Vec3::new(o.x * ext.x, o.y * ext.y, o.z * ext.z);
            positions.push(p.clamp(domain.min, domain.max));
        }
        out.push_sample(TraceSample {
            iteration: sample.iteration,
            positions,
        })?;
    }
    Ok(out)
}

/// Density-similarity diagnostic: split each trace's domain into
/// `cells_per_axis`³ cells and compare per-cell mass fractions at sample
/// `t`. Returns the total variation distance in `[0, 1]` (0 = identical
/// distributions).
///
/// Used to judge whether an extrapolated trace is *representative* —
/// the quality criterion the paper's future-work discussion sets.
pub fn density_distance(
    a: &ParticleTrace,
    b: &ParticleTrace,
    t: usize,
    cells_per_axis: usize,
) -> f64 {
    assert!(cells_per_axis > 0, "need at least one cell");
    let n = cells_per_axis;
    // Each trace is binned in its *own* domain: the comparison is between
    // relative density shapes, so a trace living in a translated or scaled
    // domain must not have its mass saturated into `a`'s edge cells.
    let hist = |tr: &ParticleTrace| -> Vec<f64> {
        let domain = tr.meta().domain;
        let ext = domain.extent();
        let cell_of = |p: Vec3| -> usize {
            let rel = p - domain.min;
            let idx = |v: f64, e: f64| (((v / e.max(1e-30)) * n as f64) as usize).min(n - 1);
            idx(rel.x, ext.x) + n * (idx(rel.y, ext.y) + n * idx(rel.z, ext.z))
        };
        let mut h = vec![0.0; n * n * n];
        let pos = tr.positions_at(t);
        for &p in pos.iter() {
            h[cell_of(p)] += 1.0;
        }
        let total = pos.len().max(1) as f64;
        for v in &mut h {
            *v /= total;
        }
        h
    };
    let ha = hist(a);
    let hb = hist(b);
    0.5 * ha.iter().zip(&hb).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_types::Aabb;

    /// A concentrated-then-dispersing source trace.
    fn source_trace(np: usize) -> ParticleTrace {
        let mut rng = SplitMix64::new(77);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(0.0, 1.0),
                )
            })
            .collect();
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "source");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..5 {
            let s = 0.05 + 0.15 * k as f64;
            tr.push_positions(
                dirs.iter()
                    .map(|d| (Vec3::new(0.5, 0.5, 0.1) + *d * s).clamp(Vec3::ZERO, Vec3::ONE))
                    .collect(),
            )
            .unwrap();
        }
        tr
    }

    #[test]
    fn upscales_particle_count() {
        let src = source_trace(200);
        let big = extrapolate(&src, 2000, 1).unwrap();
        assert_eq!(big.particle_count(), 2000);
        assert_eq!(big.sample_count(), src.sample_count());
        assert_eq!(big.iterations(), src.iterations());
        // all positions in domain
        for t in 0..big.sample_count() {
            for p in big.positions_at(t).iter() {
                assert!(Aabb::unit().contains_closed(*p));
            }
        }
    }

    #[test]
    fn downscales_too() {
        let src = source_trace(500);
        let small = extrapolate(&src, 50, 2).unwrap();
        assert_eq!(small.particle_count(), 50);
    }

    #[test]
    fn is_deterministic_in_seed() {
        let src = source_trace(100);
        let a = extrapolate(&src, 400, 9).unwrap();
        let b = extrapolate(&src, 400, 9).unwrap();
        assert_eq!(a, b);
        let c = extrapolate(&src, 400, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn density_shape_is_preserved() {
        let src = source_trace(2000);
        let big = extrapolate(&src, 10_000, 3).unwrap();
        for t in [0, 2, 4] {
            let d = density_distance(&src, &big, t, 4);
            assert!(d < 0.15, "sample {t}: density distance {d}");
        }
        // sanity: against a uniform cloud the distance is large
        let meta = TraceMeta::new(2000, 100, Aabb::unit(), "uniform");
        let mut uni = ParticleTrace::new(meta);
        let mut rng = SplitMix64::new(5);
        for _ in 0..5 {
            uni.push_positions(
                (0..2000)
                    .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
                    .collect(),
            )
            .unwrap();
        }
        assert!(density_distance(&src, &uni, 0, 4) > 0.5);
    }

    #[test]
    fn boundary_growth_is_mirrored() {
        let src = source_trace(500);
        let big = extrapolate(&src, 5000, 4).unwrap();
        let sv = crate::stats::boundary_volume_series(&src);
        let bv = crate::stats::boundary_volume_series(&big);
        // both expand monotonically
        for k in 1..sv.len() {
            assert!(
                bv[k] >= bv[k - 1] * 0.9,
                "extrapolated boundary shrank at {k}"
            );
        }
        // extrapolated boundary is within ~35 % of the source (jitter inflates it)
        for k in 0..sv.len() {
            assert!(
                bv[k] <= sv[k] * 2.5 + 1e-6,
                "sample {k}: {} vs {}",
                bv[k],
                sv[k]
            );
        }
    }

    #[test]
    fn errors_on_bad_inputs() {
        let empty = ParticleTrace::new(TraceMeta::new(5, 10, Aabb::unit(), "e"));
        assert!(extrapolate(&empty, 100, 1).is_err());
    }

    #[test]
    fn target_counts_without_an_output_are_configuration_errors() {
        let src = source_trace(10);
        let err = extrapolate(&src, 0, 1).unwrap_err();
        assert!(matches!(err, PicError::Config(_)), "{err}");
        assert!(err.to_string().contains("got 0"), "{err}");
        // Output bytes past usize::MAX: refused before any allocation,
        // whatever the host's overcommit mode.
        let err = extrapolate(&src, usize::MAX, 1).unwrap_err();
        assert!(matches!(err, PicError::Config(_)), "{err}");
        let named = format!("count {} needs more than usize::MAX bytes", usize::MAX);
        assert!(err.to_string().contains(&named), "{err}");
    }

    #[test]
    fn zero_particle_trace_is_refused_naming_the_count() {
        // A valid trace (the codec round-trips it) with samples but no
        // particle to draw a trajectory from.
        let mut none = ParticleTrace::new(TraceMeta::new(0, 10, Aabb::unit(), "none"));
        none.push_positions(Vec::new()).unwrap();
        none.push_positions(Vec::new()).unwrap();
        let err = extrapolate(&none, 10, 1).unwrap_err();
        assert!(err.to_string().contains("trace of 0 particles"), "{err}");
    }

    #[test]
    fn density_distance_is_zero_for_identical() {
        let src = source_trace(300);
        assert_eq!(density_distance(&src, &src, 0, 4), 0.0);
    }

    #[test]
    fn density_distance_bins_each_trace_in_its_own_domain() {
        // The same cloud shape translated into a disjoint domain must
        // compare as identical — the old code binned `b` with `a`'s
        // domain, saturating all of `b`'s mass into one edge cell.
        let src = source_trace(400);
        let shift = Vec3::splat(10.0);
        let domain_b = Aabb::new(Aabb::unit().min + shift, Aabb::unit().max + shift);
        let meta = TraceMeta::new(400, 100, domain_b, "shifted");
        let mut shifted = ParticleTrace::new(meta);
        for t in 0..src.sample_count() {
            shifted
                .push_sample(crate::trace::TraceSample {
                    iteration: src.iterations()[t],
                    positions: src.positions_at(t).iter().map(|&p| p + shift).collect(),
                })
                .unwrap();
        }
        for t in [0, 2, 4] {
            let d = density_distance(&src, &shifted, t, 4);
            assert!(d < 1e-12, "sample {t}: shifted clone at distance {d}");
        }
        // and a genuinely different distribution still reads as far
        let meta = TraceMeta::new(400, 100, domain_b, "corner");
        let mut corner = ParticleTrace::new(meta);
        for t in 0..src.sample_count() {
            corner
                .push_sample(crate::trace::TraceSample {
                    iteration: src.iterations()[t],
                    positions: vec![domain_b.max - Vec3::splat(1e-3); 400],
                })
                .unwrap();
        }
        assert!(density_distance(&src, &corner, 0, 4) > 0.5);
    }
}
