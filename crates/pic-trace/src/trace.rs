//! In-memory particle trace model.

use pic_types::{Aabb, PicError, Result, Vec3};
use serde::{Deserialize, Serialize};

/// Metadata describing how a trace was collected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Number of particles tracked (constant over the trace — PIC particle
    /// populations are conserved).
    pub particle_count: usize,
    /// Application iterations between consecutive samples (the paper sampled
    /// every 100 iterations).
    pub sample_interval: u32,
    /// The computational domain the particles live in.
    pub domain: Aabb,
    /// Free-form description of the run that produced the trace (scenario
    /// name, seed, source system).
    pub description: String,
}

impl TraceMeta {
    /// Convenience constructor.
    pub fn new(
        particle_count: usize,
        sample_interval: u32,
        domain: Aabb,
        description: impl Into<String>,
    ) -> TraceMeta {
        TraceMeta {
            particle_count,
            sample_interval,
            domain,
            description: description.into(),
        }
    }
}

/// One sample: every particle's position at a given application iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Application iteration the sample was taken at.
    pub iteration: u64,
    /// Position of particle `i` at `positions[i]`.
    pub positions: Vec<Vec3>,
}

/// The per-sample trace invariants: `particle_count` positions, an
/// iteration strictly after `prev` (the previous sample's), and finite
/// coordinates. [`ParticleTrace::push_sample`] and
/// [`TraceReader::read_sample`](crate::TraceReader::read_sample) run this
/// one check, so a streamed replay sees exactly the frames a resident
/// trace would hold.
pub(crate) fn check_sample(
    sample: &TraceSample,
    particle_count: usize,
    prev: Option<u64>,
) -> Result<()> {
    if sample.positions.len() != particle_count {
        return Err(PicError::trace(format!(
            "sample at iteration {} has {} positions, expected {particle_count}",
            sample.iteration,
            sample.positions.len(),
        )));
    }
    if let Some(last) = prev.filter(|&last| sample.iteration <= last) {
        return Err(PicError::trace(format!(
            "sample iterations must increase: {} after {last}",
            sample.iteration
        )));
    }
    // Non-finite coordinates poison every downstream consumer (mapping
    // comparators, bounding boxes); reject them at the boundary.
    if let Some(i) = sample.positions.iter().position(|p| !p.is_finite()) {
        return Err(PicError::trace(format!(
            "particle {i} has a non-finite position at iteration {}",
            sample.iteration
        )));
    }
    Ok(())
}

/// A complete particle trace: metadata plus `T` samples.
///
/// Invariants (enforced by [`ParticleTrace::push_sample`]):
/// * every sample holds exactly `meta.particle_count` positions;
/// * sample iterations are strictly increasing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParticleTrace {
    meta: TraceMeta,
    samples: Vec<TraceSample>,
}

impl ParticleTrace {
    /// Create an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> ParticleTrace {
        ParticleTrace {
            meta,
            samples: Vec::new(),
        }
    }

    /// Trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of particles per sample (the paper's `N_p`).
    pub fn particle_count(&self) -> usize {
        self.meta.particle_count
    }

    /// Number of samples collected (the paper's `T`).
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append a sample, validating the trace invariants.
    pub fn push_sample(&mut self, sample: TraceSample) -> Result<()> {
        let prev = self.samples.last().map(|s| s.iteration);
        check_sample(&sample, self.meta.particle_count, prev)?;
        self.samples.push(sample);
        Ok(())
    }

    /// Append a sample [`check_sample`] has already admitted against this
    /// trace's last sample ([`TraceReader::read_all`](crate::TraceReader::read_all)).
    pub(crate) fn push_checked(&mut self, sample: TraceSample) {
        self.samples.push(sample);
    }

    /// Convenience: append positions at the next iteration
    /// (`last + sample_interval`, or 0 for the first sample).
    pub fn push_positions(&mut self, positions: Vec<Vec3>) -> Result<()> {
        let iteration = match self.samples.last() {
            Some(s) => s.iteration + self.meta.sample_interval as u64,
            None => 0,
        };
        self.push_sample(TraceSample {
            iteration,
            positions,
        })
    }

    /// The `t`-th sample.
    pub fn sample(&self, t: usize) -> &TraceSample {
        &self.samples[t]
    }

    /// Positions at sample `t` (panics if out of range).
    pub fn positions_at(&self, t: usize) -> &[Vec3] {
        &self.samples[t].positions
    }

    /// Iterate over samples in order.
    pub fn samples(&self) -> impl Iterator<Item = &TraceSample> {
        self.samples.iter()
    }

    /// Iterations at which samples were taken.
    pub fn iterations(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.iteration).collect()
    }

    /// Keep only every `stride`-th sample (starting with the first).
    ///
    /// Models the paper's sampling-frequency trade-off: a coarser trace is
    /// smaller but captures particle movement less faithfully.
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn subsample(&self, stride: usize) -> ParticleTrace {
        assert!(stride > 0, "subsample stride must be positive");
        let mut meta = self.meta.clone();
        meta.sample_interval = self.meta.sample_interval.saturating_mul(stride as u32);
        ParticleTrace {
            meta,
            samples: self.samples.iter().step_by(stride).cloned().collect(),
        }
    }

    /// Truncate the trace to its first `t` samples.
    pub fn truncate(&mut self, t: usize) {
        self.samples.truncate(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(n: usize) -> TraceMeta {
        TraceMeta::new(n, 100, Aabb::unit(), "test")
    }

    fn pos(n: usize, v: f64) -> Vec<Vec3> {
        (0..n).map(|i| Vec3::splat(v + i as f64 * 0.001)).collect()
    }

    #[test]
    fn push_enforces_particle_count() {
        let mut tr = ParticleTrace::new(meta(3));
        assert!(tr.push_positions(pos(3, 0.1)).is_ok());
        let err = tr.push_positions(pos(2, 0.2));
        assert!(err.is_err());
        assert_eq!(tr.sample_count(), 1);
    }

    #[test]
    fn push_enforces_monotone_iterations() {
        let mut tr = ParticleTrace::new(meta(1));
        tr.push_sample(TraceSample {
            iteration: 100,
            positions: pos(1, 0.0),
        })
        .unwrap();
        let dup = tr.push_sample(TraceSample {
            iteration: 100,
            positions: pos(1, 0.1),
        });
        assert!(dup.is_err());
        let back = tr.push_sample(TraceSample {
            iteration: 50,
            positions: pos(1, 0.1),
        });
        assert!(back.is_err());
    }

    #[test]
    fn push_rejects_non_finite_positions() {
        let mut tr = ParticleTrace::new(meta(2));
        let bad = vec![Vec3::splat(0.5), Vec3::new(f64::NAN, 0.0, 0.0)];
        let err = tr.push_positions(bad).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        let inf = vec![Vec3::splat(0.5), Vec3::new(0.0, f64::INFINITY, 0.0)];
        assert!(tr.push_positions(inf).is_err());
        assert!(tr.is_empty());
    }

    #[test]
    fn push_positions_advances_by_interval() {
        let mut tr = ParticleTrace::new(meta(2));
        tr.push_positions(pos(2, 0.1)).unwrap();
        tr.push_positions(pos(2, 0.2)).unwrap();
        tr.push_positions(pos(2, 0.3)).unwrap();
        assert_eq!(tr.iterations(), vec![0, 100, 200]);
    }

    #[test]
    fn accessors() {
        let mut tr = ParticleTrace::new(meta(2));
        assert!(tr.is_empty());
        tr.push_positions(pos(2, 0.5)).unwrap();
        assert!(!tr.is_empty());
        assert_eq!(tr.particle_count(), 2);
        assert_eq!(tr.positions_at(0), &pos(2, 0.5)[..]);
        assert_eq!(tr.sample(0).iteration, 0);
        assert_eq!(tr.samples().count(), 1);
    }

    #[test]
    fn subsample_keeps_every_stride() {
        let mut tr = ParticleTrace::new(meta(1));
        for i in 0..10 {
            tr.push_positions(pos(1, i as f64 * 0.05)).unwrap();
        }
        let s = tr.subsample(3);
        assert_eq!(s.sample_count(), 4); // samples 0,3,6,9
        assert_eq!(s.iterations(), vec![0, 300, 600, 900]);
        assert_eq!(s.meta().sample_interval, 300);
        assert_eq!(s.positions_at(1), tr.positions_at(3));
    }

    #[test]
    #[should_panic]
    fn subsample_zero_stride_panics() {
        ParticleTrace::new(meta(1)).subsample(0);
    }

    #[test]
    fn truncate_shortens() {
        let mut tr = ParticleTrace::new(meta(1));
        for i in 0..5 {
            tr.push_positions(pos(1, i as f64 * 0.1)).unwrap();
        }
        tr.truncate(2);
        assert_eq!(tr.sample_count(), 2);
    }
}
