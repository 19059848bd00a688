//! In-memory particle trace model.

use crate::compact::Quantizer;
use pic_types::{Aabb, PicError, Result, Vec3};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

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
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Application iteration the sample was taken at.
    pub iteration: u64,
    /// Position of particle `i` at `positions[i]`.
    pub positions: Vec<Vec3>,
}

/// Iterations must increase strictly: `iteration` may follow `prev` (the
/// previous sample's).
pub(crate) fn check_order(iteration: u64, prev: Option<u64>) -> Result<()> {
    match prev.filter(|&last| iteration <= last) {
        Some(last) => Err(PicError::trace(format!(
            "sample iterations must increase: {iteration} after {last}"
        ))),
        None => Ok(()),
    }
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
    check_order(sample.iteration, prev)?;
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

/// Grid coordinates of every sample, back to back: sample `t` is
/// `[t * width, (t + 1) * width)` with x, y, z interleaved per particle.
#[derive(Debug, Clone)]
enum Coords {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// The samples of a compact (`PICTRC02`) file as its frames decode them:
/// grid coordinates and the grid they live on.
#[derive(Debug, Clone)]
struct GridFrames {
    quant: Quantizer,
    /// [`Quantizer::order_preserving`] on every axis, checked on the first
    /// [`bounds`](Self::bounds).
    ordered: OnceLock<bool>,
    /// Coordinates per sample: three per particle.
    width: usize,
    iterations: Vec<u64>,
    coords: Coords,
}

impl GridFrames {
    /// Dequantized positions of sample `t`.
    fn positions(&self, t: usize) -> Vec<Vec3> {
        let at = t * self.width..(t + 1) * self.width;
        match &self.coords {
            Coords::U16(c) => self.quant.dequant_frame(&c[at]),
            Coords::U32(c) => self.quant.dequant_frame(&c[at]),
        }
    }

    /// Tight box of sample `t`. Where dequantizing keeps the grid's order,
    /// that is the box of its extreme coordinates, dequantized.
    fn bounds(&self, t: usize) -> Aabb {
        let at = t * self.width..(t + 1) * self.width;
        match &self.coords {
            Coords::U16(c) if self.width > 0 && self.is_ordered() => {
                let (mut lo, mut hi) = ([u16::MAX; 3], [0u16; 3]);
                for q in c[at].chunks_exact(3) {
                    for axis in 0..3 {
                        lo[axis] = lo[axis].min(q[axis]);
                        hi[axis] = hi[axis].max(q[axis]);
                    }
                }
                let corner = |q: [u16; 3]| {
                    let x = |axis: usize| self.quant.dequant(axis, q[axis].into());
                    Vec3::new(x(0), x(1), x(2))
                };
                Aabb {
                    min: corner(lo),
                    max: corner(hi),
                }
            }
            _ => Aabb::from_points(self.positions(t)),
        }
    }

    fn is_ordered(&self) -> bool {
        *(self.ordered).get_or_init(|| self.quant.order_preserving() == [true; 3])
    }

    /// Every `stride`-th sample, starting with the first.
    fn subsample(&self, stride: usize) -> GridFrames {
        let keep = (0..self.iterations.len()).step_by(stride);
        let pick = |t: usize| t * self.width..(t + 1) * self.width;
        let coords = match &self.coords {
            Coords::U16(c) => {
                Coords::U16(keep.clone().flat_map(|t| &c[pick(t)]).copied().collect())
            }
            Coords::U32(c) => {
                Coords::U32(keep.clone().flat_map(|t| &c[pick(t)]).copied().collect())
            }
        };
        GridFrames {
            quant: self.quant.clone(),
            ordered: self.ordered.clone(),
            width: self.width,
            iterations: keep.map(|t| self.iterations[t]).collect(),
            coords,
        }
    }

    fn truncate(&mut self, t: usize) {
        self.iterations.truncate(t);
        let len = self.iterations.len() * self.width;
        match &mut self.coords {
            Coords::U16(c) => c.truncate(len),
            Coords::U32(c) => c.truncate(len),
        }
    }

    fn resident_bytes(&self) -> usize {
        let coords = match &self.coords {
            Coords::U16(c) => std::mem::size_of_val(&c[..]),
            Coords::U32(c) => std::mem::size_of_val(&c[..]),
        };
        coords + std::mem::size_of_val(&self.iterations[..])
    }
}

/// Where a trace's samples live.
#[derive(Debug, Clone)]
enum Frames {
    /// `f64` positions, read by borrowing.
    F64(Vec<TraceSample>),
    /// Grid coordinates, dequantized on every read.
    Grid(GridFrames),
}

/// A complete particle trace: metadata plus `T` samples.
///
/// Invariants (enforced by [`ParticleTrace::push_sample`]):
/// * every sample holds exactly `meta.particle_count` positions;
/// * sample iterations are strictly increasing.
///
/// A trace read from a compact (`PICTRC02`) file keeps each sample as the
/// grid coordinates its frame decodes to (16 or 32 bits per axis, see
/// [`crate::compact`]) and dequantizes a sample on every read, so it stays
/// 4× (or 2×) smaller than its positions; nothing caches a dequantized
/// sample. A raw file or a trace built in memory keeps `f64` positions and
/// lends them out. Either way every read yields the same bits: the
/// accessors return [`Cow`]s, borrowed or freshly dequantized.
#[derive(Debug, Clone)]
pub struct ParticleTrace {
    meta: TraceMeta,
    frames: Frames,
}

impl PartialEq for ParticleTrace {
    /// Equal metadata and equal samples, whatever the storage.
    fn eq(&self, other: &ParticleTrace) -> bool {
        self.meta == other.meta
            && self.sample_count() == other.sample_count()
            && self.samples().zip(other.samples()).all(|(a, b)| a == b)
    }
}

impl ParticleTrace {
    /// Create an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> ParticleTrace {
        ParticleTrace {
            meta,
            frames: Frames::F64(Vec::new()),
        }
    }

    /// An empty trace that keeps the grid coordinates of a compact
    /// file's frames ([`TraceReader::read_all`](crate::TraceReader::read_all)).
    pub(crate) fn on_grid(meta: TraceMeta, quant: Quantizer) -> ParticleTrace {
        let coords = if quant.mask() <= u16::MAX as u32 {
            Coords::U16(Vec::new())
        } else {
            Coords::U32(Vec::new())
        };
        let width = 3 * meta.particle_count;
        ParticleTrace {
            meta,
            frames: Frames::Grid(GridFrames {
                ordered: OnceLock::new(),
                quant,
                width,
                iterations: Vec::new(),
                coords,
            }),
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
        match &self.frames {
            Frames::F64(s) => s.len(),
            Frames::Grid(g) => g.iterations.len(),
        }
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sample_count() == 0
    }

    /// How the samples are held: `"f64"` positions (raw files and traces
    /// built in memory), or the `"grid u16"` / `"grid u32"` coordinates
    /// of an f32 / f64 compact file.
    pub fn storage(&self) -> &'static str {
        match &self.frames {
            Frames::F64(_) => "f64",
            Frames::Grid(GridFrames {
                coords: Coords::U16(_),
                ..
            }) => "grid u16",
            Frames::Grid(_) => "grid u32",
        }
    }

    /// Bytes the samples occupy: positions (or grid coordinates) and
    /// iterations.
    pub fn resident_bytes(&self) -> usize {
        match &self.frames {
            Frames::F64(s) => s
                .iter()
                .map(|s| std::mem::size_of_val(&s.positions[..]) + std::mem::size_of_val(s))
                .sum(),
            Frames::Grid(g) => g.resident_bytes(),
        }
    }

    /// Append a sample, validating the trace invariants. A trace that
    /// holds grid coordinates widens to `f64` positions first: an
    /// arbitrary position need not lie on the grid.
    pub fn push_sample(&mut self, sample: TraceSample) -> Result<()> {
        let prev = self.last_iteration();
        check_sample(&sample, self.meta.particle_count, prev)?;
        self.push_checked(sample);
        Ok(())
    }

    /// Append a sample [`check_sample`] has already admitted against this
    /// trace's last sample ([`TraceReader::read_all`](crate::TraceReader::read_all)).
    pub(crate) fn push_checked(&mut self, sample: TraceSample) {
        if let Frames::Grid(_) = self.frames {
            self.frames = Frames::F64(self.samples().map(Cow::into_owned).collect());
        }
        if let Frames::F64(s) = &mut self.frames {
            s.push(sample);
        }
    }

    /// Append the grid coordinates of an admitted compact frame (`width`
    /// of them, already masked to the grid).
    pub(crate) fn push_grid(&mut self, iteration: u64, coords: &[u32]) {
        let Frames::Grid(g) = &mut self.frames else {
            unreachable!("push_grid on an f64 trace");
        };
        g.iterations.push(iteration);
        match &mut g.coords {
            Coords::U16(c) => c.extend(coords.iter().map(|&q| q as u16)),
            Coords::U32(c) => c.extend_from_slice(coords),
        }
    }

    fn last_iteration(&self) -> Option<u64> {
        match &self.frames {
            Frames::F64(s) => s.last().map(|s| s.iteration),
            Frames::Grid(g) => g.iterations.last().copied(),
        }
    }

    /// Convenience: append positions at the next iteration
    /// (`last + sample_interval`, or 0 for the first sample).
    pub fn push_positions(&mut self, positions: Vec<Vec3>) -> Result<()> {
        let iteration = match self.last_iteration() {
            Some(last) => last + self.meta.sample_interval as u64,
            None => 0,
        };
        self.push_sample(TraceSample {
            iteration,
            positions,
        })
    }

    /// The `t`-th sample (panics if out of range): borrowed from `f64`
    /// storage, dequantized from grid storage.
    pub fn sample(&self, t: usize) -> Cow<'_, TraceSample> {
        match &self.frames {
            Frames::F64(s) => Cow::Borrowed(&s[t]),
            Frames::Grid(g) => Cow::Owned(TraceSample {
                iteration: g.iterations[t],
                positions: g.positions(t),
            }),
        }
    }

    /// Positions at sample `t` (panics if out of range).
    pub fn positions_at(&self, t: usize) -> Cow<'_, [Vec3]> {
        match &self.frames {
            Frames::F64(s) => Cow::Borrowed(&s[t].positions),
            Frames::Grid(g) => Cow::Owned(g.positions(t)),
        }
    }

    /// Tight bounding box of sample `t`'s positions, bit for bit
    /// `Aabb::from_points` over [`positions_at`](Self::positions_at); a
    /// 16-bit grid answers from its extreme coordinates without
    /// dequantizing the sample.
    pub fn bounds_at(&self, t: usize) -> Aabb {
        match &self.frames {
            Frames::F64(s) => Aabb::from_points(s[t].positions.iter().copied()),
            Frames::Grid(g) => g.bounds(t),
        }
    }

    /// Iterate over samples in order, one [`sample`](Self::sample) each.
    pub fn samples(&self) -> impl ExactSizeIterator<Item = Cow<'_, TraceSample>> + '_ {
        (0..self.sample_count()).map(|t| self.sample(t))
    }

    /// Iterations at which samples were taken.
    pub fn iterations(&self) -> Vec<u64> {
        match &self.frames {
            Frames::F64(s) => s.iter().map(|s| s.iteration).collect(),
            Frames::Grid(g) => g.iterations.clone(),
        }
    }

    /// Keep only every `stride`-th sample (starting with the first), in
    /// the same storage.
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
        let frames = match &self.frames {
            Frames::F64(s) => Frames::F64(s.iter().step_by(stride).cloned().collect()),
            Frames::Grid(g) => Frames::Grid(g.subsample(stride)),
        };
        ParticleTrace { meta, frames }
    }

    /// Truncate the trace to its first `t` samples.
    pub fn truncate(&mut self, t: usize) {
        match &mut self.frames {
            Frames::F64(s) => s.truncate(t),
            Frames::Grid(g) => g.truncate(t),
        }
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

    /// A compact f32 file read whole: 16-bit grid coordinates.
    fn grid_trace() -> ParticleTrace {
        let mut tr = ParticleTrace::new(meta(5));
        for k in 0..4 {
            let frame = (0..5)
                .map(|i| Vec3::new(0.1 * i as f64, 0.05 * k as f64, 0.5))
                .collect();
            tr.push_positions(frame).unwrap();
        }
        let bytes = crate::compact::encode_compact(&tr, crate::Precision::F32).unwrap();
        crate::codec::decode_trace(&bytes).unwrap()
    }

    #[test]
    fn grid_storage_reports_its_size() {
        let tr = grid_trace();
        assert_eq!(tr.storage(), "grid u16");
        assert_eq!(tr.resident_bytes(), 4 * (5 * 3 * 2 + 8));
        let mut f64_trace = ParticleTrace::new(meta(5));
        f64_trace.push_positions(pos(5, 0.1)).unwrap();
        assert_eq!(f64_trace.storage(), "f64");
        assert_eq!(f64_trace.resident_bytes(), 5 * 24 + 32);
    }

    #[test]
    fn grid_bounds_are_the_bounds_of_the_dequantized_positions() {
        // z is a degenerate axis: one position, trivially in order.
        let tr = grid_trace();
        let Frames::Grid(g) = &tr.frames else {
            panic!("a compact file reads into grid storage");
        };
        assert!(g.is_ordered());
        for t in 0..tr.sample_count() {
            let expect = Aabb::from_points(tr.positions_at(t).iter().copied());
            let got = tr.bounds_at(t);
            assert_eq!(
                [got.min, got.max].map(|v| [v.x, v.y, v.z].map(f64::to_bits)),
                [expect.min, expect.max].map(|v| [v.x, v.y, v.z].map(f64::to_bits)),
            );
        }
    }

    #[test]
    fn pushing_onto_a_grid_trace_widens_it_to_f64() {
        let mut tr = grid_trace();
        let before: Vec<TraceSample> = tr.samples().map(Cow::into_owned).collect();
        tr.push_positions(pos(5, 0.123_456_789)).unwrap();
        assert_eq!(tr.storage(), "f64");
        assert_eq!(tr.sample_count(), 5);
        for (t, s) in before.iter().enumerate() {
            assert_eq!(*tr.sample(t), *s);
        }
        assert_eq!(&*tr.positions_at(4), &pos(5, 0.123_456_789)[..]);
    }
}
