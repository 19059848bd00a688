//! In-memory particle trace model.

use crate::compact::{encode_payload, kernel, GridCoord, Lookup, Quantizer, TABLE_LEN};
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

/// Frames between keyframes of an encoded trace: every
/// `KEYFRAME_SPACING`-th frame also keeps its grid coordinates, so a
/// random read folds at most `KEYFRAME_SPACING - 1` frames. On the
/// benchmark's 600 × 20 000 f32 trace, 16 costs 4.5 MB of keyframes next
/// to 36.7 MB of payload, and a random read folds 7.5 frames of 15–25 µs
/// each on average.
pub const KEYFRAME_SPACING: usize = 16;

/// A 16-bit trace dequantizes through a table of its grid's every value
/// once it holds this many coordinates: the table (1.5 MiB) is then at
/// most a sixteenth of the positions it stands in for.
const TABLE_MIN_COORDS: usize = 16 * TABLE_LEN;

/// One frame as the compact file stores it.
#[derive(Debug, Clone)]
struct Frame {
    /// The frame head's width byte: 0 for absolute coordinates, else the
    /// bytes per zigzag delta against the previous frame.
    width: u8,
    payload: Box<[u8]>,
}

/// The samples of a compact (`PICTRC02`) file as its frames encode them,
/// on a grid of `Q` coordinates (`u16` at f32, `u32` at f64).
#[derive(Debug, Clone)]
struct Encoded<Q> {
    quant: Quantizer,
    /// The grid's order and, for a large 16-bit trace, its table; built
    /// on first read.
    lookup: OnceLock<Lookup>,
    /// Coordinates per frame: three per particle.
    width: usize,
    iterations: Vec<u64>,
    frames: Vec<Frame>,
    /// The coordinates of frame `k · KEYFRAME_SPACING` at `k`, `None`
    /// where that frame is absolute (its payload is its coordinates).
    keyframes: Vec<Option<Box<[Q]>>>,
    /// Per frame: the smallest then the largest coordinate of each axis.
    extremes: Vec<[Q; 6]>,
    /// Frames folded so far, so a test can hold each reader to its share.
    #[cfg(test)]
    folds: tests::FoldCount,
}

impl<Q: GridCoord> Encoded<Q> {
    fn new(quant: Quantizer, width: usize) -> Encoded<Q> {
        Encoded {
            quant,
            lookup: OnceLock::new(),
            width,
            iterations: Vec::new(),
            frames: Vec::new(),
            keyframes: Vec::new(),
            extremes: Vec::new(),
            #[cfg(test)]
            folds: tests::FoldCount::default(),
        }
    }

    fn len(&self) -> usize {
        self.iterations.len()
    }

    /// Append a frame: its iteration, width byte and payload, and the
    /// grid coordinates the payload folds to.
    fn push<C: GridCoord>(&mut self, iteration: u64, width: u8, payload: Box<[u8]>, coords: &[C]) {
        let t = self.len();
        let grid = |c: &C| Q::from_grid((*c).into());
        let mut ext = [Q::default(); 6];
        if !coords.is_empty() {
            let (lo, hi) = ext.split_at_mut(3);
            lo.fill(Q::from_grid(u32::MAX));
            for q in coords.chunks_exact(3) {
                for axis in 0..3 {
                    lo[axis] = lo[axis].min(grid(&q[axis]));
                    hi[axis] = hi[axis].max(grid(&q[axis]));
                }
            }
        }
        if t.is_multiple_of(KEYFRAME_SPACING) {
            self.keyframes
                .push((width != 0).then(|| coords.iter().map(grid).collect()));
        }
        self.iterations.push(iteration);
        self.frames.push(Frame { width, payload });
        self.extremes.push(ext);
    }

    /// Fold frame `t` into `coords`, which hold frame `t - 1`'s.
    fn fold(&self, t: usize, coords: &mut [Q]) {
        let frame = &self.frames[t];
        kernel::<Q>(frame.width.into(), Q::BYTES)(&frame.payload, self.quant.mask(), coords);
        #[cfg(test)]
        self.folds.bump();
    }

    /// Frame `t`'s coordinates into `coords`: from the latest frame at or
    /// before `t` that needs no predecessor (an absolute frame, or else
    /// the keyframe), then at most `KEYFRAME_SPACING - 1` folds.
    fn seek(&self, t: usize, coords: &mut Vec<Q>) {
        let key = t - t % KEYFRAME_SPACING;
        let absolute = (key..=t).rev().find(|&f| self.frames[f].width == 0);
        coords.clear();
        match absolute {
            Some(f) => {
                coords.resize(self.width, Q::default());
                let payload = &self.frames[f].payload;
                kernel::<Q>(0, Q::BYTES)(payload, self.quant.mask(), coords);
            }
            None => coords.extend_from_slice(
                (self.keyframes[key / KEYFRAME_SPACING].as_deref())
                    .expect("a frame that is not absolute keeps its keyframe"),
            ),
        }
        for f in absolute.unwrap_or(key) + 1..=t {
            self.fold(f, coords);
        }
    }

    /// Frame `t`'s coordinates into `coords`, which hold frame `at`'s
    /// (`None`: nothing read yet): folded on from `at` when `t` is at or
    /// after it in the same keyframe block, else a [`seek`](Self::seek).
    fn step(&self, at: Option<usize>, t: usize, coords: &mut Vec<Q>) {
        match at {
            Some(a) if a <= t && a / KEYFRAME_SPACING == t / KEYFRAME_SPACING => {
                for f in a + 1..=t {
                    self.fold(f, coords);
                }
            }
            _ => self.seek(t, coords),
        }
    }

    /// Whether reads dequantize through a table: a 16-bit trace of at
    /// least [`TABLE_MIN_COORDS`] coordinates.
    fn tabulates(&self) -> bool {
        Q::BYTES == 2 && self.len() * self.width >= TABLE_MIN_COORDS
    }

    fn lookup(&self) -> &Lookup {
        self.lookup
            .get_or_init(|| self.quant.lookup(self.tabulates()))
    }

    fn positions(&self, coords: &[Q]) -> Vec<Vec3> {
        if self.tabulates() {
            self.lookup().dequant_frame(&self.quant, coords)
        } else {
            self.quant.dequant_frame(coords)
        }
    }

    fn positions_at(&self, t: usize) -> Vec<Vec3> {
        let mut coords = Vec::new();
        self.seek(t, &mut coords);
        self.positions(&coords)
    }

    /// Tight box of sample `t`. Where dequantizing keeps the grid's order,
    /// that is the box of the frame's extreme coordinates, dequantized.
    fn bounds(&self, t: usize) -> Aabb {
        if !self.bounds_are_stored() {
            return Aabb::from_points(self.positions_at(t));
        }
        let ext = &self.extremes[t];
        let corner = |q: &[Q]| {
            let x = |axis: usize| self.quant.dequant(axis, q[axis].into());
            Vec3::new(x(0), x(1), x(2))
        };
        Aabb {
            min: corner(&ext[..3]),
            max: corner(&ext[3..]),
        }
    }

    /// Whether [`bounds`](Self::bounds) reads stored extremes.
    fn bounds_are_stored(&self) -> bool {
        self.width > 0 && self.lookup().ordered == [true; 3]
    }

    /// Every `stride`-th sample, starting with the first, re-encoded
    /// against the samples it keeps.
    fn subsample(&self, stride: usize) -> Encoded<Q> {
        let mut out = Encoded::new(self.quant.clone(), self.width);
        let mut cursor = Cursor::new(self, 0);
        let mut prev: Vec<Q> = Vec::new();
        while let Some(t) = cursor.advance() {
            if !t.is_multiple_of(stride) {
                continue;
            }
            let mut payload = Vec::new();
            let kept = (!out.frames.is_empty()).then_some(&prev[..]);
            let width = encode_payload(&cursor.coords, kept, Q::BYTES, &mut payload);
            out.push(self.iterations[t], width, payload.into(), &cursor.coords);
            prev.clone_from(&cursor.coords);
        }
        out
    }

    fn truncate(&mut self, t: usize) {
        self.iterations.truncate(t);
        self.frames.truncate(t);
        self.extremes.truncate(t);
        self.keyframes.truncate(t.div_ceil(KEYFRAME_SPACING));
    }

    /// Payload, keyframes, extremes, frame records and iterations, and the
    /// table of a 16-bit trace that has or will have one.
    fn resident_bytes(&self) -> usize {
        let payload: usize = self.frames.iter().map(|f| f.payload.len()).sum();
        let keyframes: usize = (self.keyframes.iter().flatten())
            .map(|k| std::mem::size_of_val(&k[..]))
            .sum();
        let tabulated = (self.lookup.get()).map_or_else(|| self.tabulates(), |l| l.table.is_some());
        payload
            + keyframes
            + std::mem::size_of_val(&self.keyframes[..])
            + std::mem::size_of_val(&self.extremes[..])
            + std::mem::size_of_val(&self.frames[..])
            + std::mem::size_of_val(&self.iterations[..])
            + if tabulated {
                TABLE_LEN * std::mem::size_of::<f64>()
            } else {
                0
            }
    }
}

/// An in-order read of an encoded trace from some frame on: each frame is
/// folded once into the coordinates of the one before it.
struct Cursor<'a, Q> {
    enc: &'a Encoded<Q>,
    next: usize,
    /// The coordinates of frame `next - 1` (empty before frame 0).
    coords: Vec<Q>,
}

impl<'a, Q: GridCoord> Cursor<'a, Q> {
    fn new(enc: &'a Encoded<Q>, from: usize) -> Cursor<'a, Q> {
        let mut coords = Vec::new();
        if (1..=enc.len()).contains(&from) {
            enc.seek(from - 1, &mut coords);
        }
        Cursor {
            enc,
            next: from,
            coords,
        }
    }

    /// Fold the next frame into [`coords`](Self::coords); its index.
    fn advance(&mut self) -> Option<usize> {
        let t = self.next;
        if t >= self.enc.len() {
            return None;
        }
        // Sized by the first frame: its payload is in memory.
        self.coords.resize(self.enc.width, Q::default());
        self.enc.fold(t, &mut self.coords);
        self.next += 1;
        Some(t)
    }
}

impl<Q: GridCoord> Iterator for Cursor<'_, Q> {
    type Item = TraceSample;

    fn next(&mut self) -> Option<TraceSample> {
        let t = self.advance()?;
        Some(TraceSample {
            iteration: self.enc.iterations[t],
            positions: self.enc.positions(&self.coords),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.enc.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

impl<Q: GridCoord> ExactSizeIterator for Cursor<'_, Q> {}

/// Where a trace's samples live.
#[derive(Debug, Clone)]
enum Frames {
    /// `f64` positions, read by borrowing.
    F64(Vec<TraceSample>),
    /// A compact file's frames on a 16-bit grid (`Precision::F32`).
    U16(Encoded<u16>),
    /// A compact file's frames on a 32-bit grid (`Precision::F64`).
    U32(Encoded<u32>),
}

/// `$body` with `$e` bound to the encoded storage of either grid, or
/// `$f64` with `$s` bound to the `f64` samples.
macro_rules! on_storage {
    ($frames:expr, $s:ident => $f64:expr, $e:ident => $body:expr) => {
        match $frames {
            Frames::F64($s) => $f64,
            Frames::U16($e) => $body,
            Frames::U32($e) => $body,
        }
    };
}

/// A complete particle trace: metadata plus `T` samples.
///
/// Invariants (enforced by [`ParticleTrace::push_sample`]):
/// * every sample holds exactly `meta.particle_count` positions;
/// * sample iterations are strictly increasing.
///
/// A trace read from a compact (`PICTRC02`) file keeps its frames as the
/// file encodes them (deltas or absolute grid coordinates, 16 or 32 bits
/// per axis, see [`crate::compact`]), with the grid coordinates of every
/// [`KEYFRAME_SPACING`]-th frame and each frame's extreme coordinates, and
/// decodes and dequantizes a sample on every read; nothing caches a
/// decoded sample. [`samples`](Self::samples) folds each frame once, a
/// random read from the keyframe before it. A raw file or a trace built
/// in memory keeps `f64` positions and lends them out. Either way every
/// read yields the same bits: the accessors return [`Cow`]s, borrowed or
/// freshly decoded.
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

    /// An empty trace that keeps a compact file's frames as encoded
    /// ([`TraceReader::read_all`](crate::TraceReader::read_all)).
    pub(crate) fn encoded(meta: TraceMeta, quant: Quantizer) -> ParticleTrace {
        let width = 3 * meta.particle_count;
        let frames = if quant.mask() <= u16::MAX as u32 {
            Frames::U16(Encoded::new(quant, width))
        } else {
            Frames::U32(Encoded::new(quant, width))
        };
        ParticleTrace { meta, frames }
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
        on_storage!(&self.frames, s => s.len(), e => e.len())
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sample_count() == 0
    }

    /// How the samples are held: `"f64"` positions (raw files and traces
    /// built in memory), or the grid an f32 / f64 compact file's encoded
    /// frames lie on, `"grid u16"` / `"grid u32"` (`picpredict info` calls
    /// that storage `encoded u16` / `encoded u32`, with the
    /// [`KEYFRAME_SPACING`]).
    pub fn storage(&self) -> &'static str {
        match &self.frames {
            Frames::F64(_) => "f64",
            Frames::U16(_) => "grid u16",
            Frames::U32(_) => "grid u32",
        }
    }

    /// Bytes the samples occupy. `f64` storage: positions and iterations.
    /// Encoded storage: payload bytes, keyframes, per-frame extremes,
    /// frame records and iterations, plus a 16-bit trace's dequantization
    /// table from the start, built or not, so the figure never grows.
    pub fn resident_bytes(&self) -> usize {
        on_storage!(&self.frames,
            s => s
                .iter()
                .map(|s| std::mem::size_of_val(&s.positions[..]) + std::mem::size_of_val(s))
                .sum(),
            e => e.resident_bytes())
    }

    /// Append a sample, validating the trace invariants. An encoded trace
    /// widens to `f64` positions first: an arbitrary position need not lie
    /// on the grid.
    pub fn push_sample(&mut self, sample: TraceSample) -> Result<()> {
        let prev = self.last_iteration();
        check_sample(&sample, self.meta.particle_count, prev)?;
        self.push_checked(sample);
        Ok(())
    }

    /// Append a sample [`check_sample`] has already admitted against this
    /// trace's last sample ([`TraceReader::read_all`](crate::TraceReader::read_all)).
    pub(crate) fn push_checked(&mut self, sample: TraceSample) {
        if !matches!(self.frames, Frames::F64(_)) {
            self.frames = Frames::F64(self.samples().map(Cow::into_owned).collect());
        }
        if let Frames::F64(s) = &mut self.frames {
            s.push(sample);
        }
    }

    /// Append an admitted compact frame: its width byte, its payload, and
    /// the grid coordinates it folds to (`3 × particle_count`, masked to
    /// the grid).
    pub(crate) fn push_frame(
        &mut self,
        iteration: u64,
        width: u8,
        payload: Box<[u8]>,
        coords: &[u32],
    ) {
        on_storage!(&mut self.frames,
            _s => unreachable!("push_frame on an f64 trace"),
            e => e.push(iteration, width, payload, coords))
    }

    fn last_iteration(&self) -> Option<u64> {
        on_storage!(&self.frames,
            s => s.last().map(|s| s.iteration),
            e => e.iterations.last().copied())
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
    /// storage; from encoded storage, decoded from the keyframe at or
    /// before `t` and dequantized.
    pub fn sample(&self, t: usize) -> Cow<'_, TraceSample> {
        on_storage!(&self.frames,
        s => Cow::Borrowed(&s[t]),
        e => Cow::Owned(TraceSample {
            iteration: e.iterations[t],
            positions: e.positions_at(t),
        }))
    }

    /// Positions at sample `t` (panics if out of range), as
    /// [`sample`](Self::sample) reads them.
    pub fn positions_at(&self, t: usize) -> Cow<'_, [Vec3]> {
        on_storage!(&self.frames,
            s => Cow::Borrowed(&s[t].positions),
            e => Cow::Owned(e.positions_at(t)))
    }

    /// Tight bounding box of sample `t`'s positions, bit for bit
    /// `Aabb::from_points` over [`positions_at`](Self::positions_at); a
    /// 16-bit grid answers from the frame's stored extreme coordinates
    /// without decoding the sample.
    pub fn bounds_at(&self, t: usize) -> Aabb {
        on_storage!(&self.frames,
            s => Aabb::from_points(s[t].positions.iter().copied()),
            e => e.bounds(t))
    }

    /// [`bounds_at`](Self::bounds_at) of samples `from..to`, in order: from
    /// stored extremes where they answer, else from one in-order read.
    pub(crate) fn bounds_in(&self, from: usize, to: usize) -> Vec<Aabb> {
        let stored = on_storage!(&self.frames, _s => false, e => e.bounds_are_stored());
        if stored {
            return (from..to).map(|t| self.bounds_at(t)).collect();
        }
        (self.samples_from(from).take(to - from))
            .map(|s| Aabb::from_points(s.positions.iter().copied()))
            .collect()
    }

    /// Positions at each of `samples` in turn (panics if one is out of
    /// range), as [`positions_at`](Self::positions_at) reads them. Encoded
    /// storage folds on from the sample before wherever that lies earlier
    /// in the same keyframe block, so a run from
    /// [`read_runs`](Self::read_runs) folds each of its frames once.
    pub fn positions_of<'a>(
        &'a self,
        samples: &'a [usize],
    ) -> impl Iterator<Item = Cow<'a, [Vec3]>> + 'a {
        type Reads<'a> = Box<dyn Iterator<Item = Cow<'a, [Vec3]>> + 'a>;
        on_storage!(&self.frames,
        s => Box::new(samples.iter().map(|&t| Cow::Borrowed(&s[t].positions[..]))) as Reads<'_>,
        e => {
            let (mut at, mut coords) = (None, Vec::new());
            Box::new(samples.iter().map(move |&t| {
                e.step(at, t, &mut coords);
                at = Some(t);
                Cow::Owned(e.positions(&coords))
            }))
        })
    }

    /// `samples` cut into runs that [`positions_of`](Self::positions_of)
    /// reads best in one pass, as index ranges into `samples`: each sample
    /// alone where a read borrows (`f64` storage); on encoded storage the
    /// longest stretches whose samples rise within one keyframe block, so
    /// that a pass over `0..T` in runs folds each frame once.
    pub fn read_runs(&self, samples: &[usize]) -> Vec<std::ops::Range<usize>> {
        let encoded = !matches!(self.frames, Frames::F64(_));
        let joins = |i: usize| {
            let (a, b) = (samples[i - 1], samples[i]);
            encoded && a < b && a / KEYFRAME_SPACING == b / KEYFRAME_SPACING
        };
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for i in 0..samples.len() {
            match runs.last_mut() {
                Some(run) if joins(i) => run.end = i + 1,
                _ => runs.push(i..i + 1),
            }
        }
        runs
    }

    /// Iterate over samples in order. Encoded storage folds each frame
    /// once, where [`sample`](Self::sample) would fold up to
    /// [`KEYFRAME_SPACING`]` - 1` frames per call.
    pub fn samples(&self) -> impl ExactSizeIterator<Item = Cow<'_, TraceSample>> + '_ {
        self.samples_from(0)
    }

    /// [`samples`](Self::samples) from sample `from` on.
    pub(crate) fn samples_from(
        &self,
        from: usize,
    ) -> impl ExactSizeIterator<Item = Cow<'_, TraceSample>> + '_ {
        type Samples<'a> = Box<dyn ExactSizeIterator<Item = Cow<'a, TraceSample>> + 'a>;
        on_storage!(&self.frames,
            s => Box::new(s[from.min(s.len())..].iter().map(Cow::Borrowed)) as Samples<'_>,
            e => Box::new(Cursor::new(e, from).map(Cow::Owned)))
    }

    /// Iterations at which samples were taken.
    pub fn iterations(&self) -> Vec<u64> {
        on_storage!(&self.frames,
            s => s.iter().map(|s| s.iteration).collect(),
            e => e.iterations.clone())
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
            Frames::U16(e) => Frames::U16(e.subsample(stride)),
            Frames::U32(e) => Frames::U32(e.subsample(stride)),
        };
        ParticleTrace { meta, frames }
    }

    /// Truncate the trace to its first `t` samples.
    pub fn truncate(&mut self, t: usize) {
        on_storage!(&mut self.frames, s => s.truncate(t), e => e.truncate(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_trace, Precision};
    use crate::compact::encode_compact;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Frames an encoded trace has folded; a clone starts from zero.
    #[derive(Debug, Default)]
    pub(super) struct FoldCount(AtomicUsize);

    impl Clone for FoldCount {
        fn clone(&self) -> FoldCount {
            FoldCount::default()
        }
    }

    impl FoldCount {
        pub(super) fn bump(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Frames `tr` has folded since the last call.
    fn folds(tr: &ParticleTrace) -> usize {
        on_storage!(&tr.frames,
            _s => panic!("an f64 trace folds nothing"),
            e => e.folds.0.swap(0, Ordering::Relaxed))
    }

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
        let bytes = encode_compact(&tr, Precision::F32).unwrap();
        decode_trace(&bytes).unwrap()
    }

    /// `t` samples of `n` particles drifting a few grid steps per sample,
    /// except that sample `jump` lands across the box (an absolute frame),
    /// as compact bytes at `precision`.
    fn drifting_bytes(n: usize, t: usize, jump: usize, precision: Precision) -> Vec<u8> {
        let mut tr = ParticleTrace::new(meta(n));
        for k in 0..t {
            let drift = if k == jump { 0.5 } else { 1e-4 * k as f64 };
            let frame = (0..n)
                .map(|i| {
                    let x = 0.4 * i as f64 / n as f64 + drift;
                    Vec3::new(x, 1.0 - x, 0.5 * x + 0.25)
                })
                .collect();
            tr.push_positions(frame).unwrap();
        }
        encode_compact(&tr, precision).unwrap()
    }

    #[test]
    fn grid_storage_reports_its_size() {
        let tr = grid_trace();
        assert_eq!(tr.storage(), "grid u16");
        let mut f64_trace = ParticleTrace::new(meta(5));
        f64_trace.push_positions(pos(5, 0.1)).unwrap();
        assert_eq!(f64_trace.storage(), "f64");
        assert_eq!(f64_trace.resident_bytes(), 5 * 24 + 32);
    }

    #[test]
    fn encoded_storage_is_charged_payload_keyframes_extremes_and_table() {
        // 35 samples: keyframe slots at 0, 16 and 32; frames 0, 20 and 21
        // are absolute, so 16 and 32 keep their coordinates.
        let (n, t) = (7, 2 * KEYFRAME_SPACING + 3);
        for (precision, q) in [(Precision::F32, 2), (Precision::F64, 4)] {
            let bytes = drifting_bytes(n, t, 20, precision);
            let header = crate::TraceReader::new(&bytes[..]).unwrap().bytes_read() as usize;
            let payload = bytes.len() - header - t * crate::compact::FRAME_HEAD_LEN;
            let tr = decode_trace(&bytes).unwrap();
            let absolute: Vec<usize> = on_storage!(&tr.frames,
                _s => unreachable!("a compact file reads into encoded storage"),
                e => (0..t).filter(|&f| e.frames[f].width == 0).collect());
            assert_eq!(absolute, [0, 20, 21], "{precision:?}");
            let per_frame = 8 + std::mem::size_of::<Frame>() + 6 * q;
            let slots = 3 * std::mem::size_of::<Option<Box<[u16]>>>();
            let expect = t * per_frame + payload + slots + 2 * 3 * n * q;
            assert_eq!(tr.resident_bytes(), expect, "{precision:?}");
            tr.positions_at(t - 1);
            assert_eq!(tr.resident_bytes(), expect, "{precision:?}: a read grew it");
        }
        // Past 16 coordinates per table entry, a 16-bit trace is charged
        // its table before it is built, and the same after.
        let (n, t) = ((1 << 16) + 100, 17);
        let bytes = drifting_bytes(n, t, 3, Precision::F32);
        let tr = decode_trace(&bytes).unwrap();
        let Frames::U16(e) = &tr.frames else {
            panic!("an f32 compact file reads into 16-bit storage");
        };
        assert!(e.lookup.get().is_none());
        let header = crate::TraceReader::new(&bytes[..]).unwrap().bytes_read() as usize;
        let payload = bytes.len() - header - t * crate::compact::FRAME_HEAD_LEN;
        let slots = 2 * std::mem::size_of::<Option<Box<[u16]>>>();
        let table = 3 * (1 << 16) * 8;
        let expect = t * (8 + std::mem::size_of::<Frame>() + 12) + payload + slots + 3 * n * 2;
        assert_eq!(tr.resident_bytes(), expect + table);
        tr.positions_at(5);
        assert!(e.lookup().table.is_some());
        assert_eq!(tr.resident_bytes(), expect + table);
    }

    #[test]
    fn in_order_reads_fold_each_frame_once_and_random_reads_fold_less_than_a_spacing() {
        let t = 3 * KEYFRAME_SPACING + 5;
        for precision in [Precision::F32, Precision::F64] {
            let tr = decode_trace(&drifting_bytes(6, t, t, precision)).unwrap();
            folds(&tr);
            assert_eq!(tr.samples().count(), t);
            assert_eq!(folds(&tr), t, "{precision:?}: a full in-order pass");
            for s in 0..t {
                tr.positions_at(s);
                let n = folds(&tr);
                assert!(n < KEYFRAME_SPACING, "{precision:?}: sample {s} folded {n}");
                assert_eq!(n, s % KEYFRAME_SPACING, "{precision:?}: sample {s}");
            }
            // Every sample in runs: one run per keyframe block, each
            // starting at its keyframe, so a full pass folds less than `t`.
            let all: Vec<usize> = (0..t).collect();
            let runs = tr.read_runs(&all);
            assert_eq!(runs.len(), t.div_ceil(KEYFRAME_SPACING), "{precision:?}");
            for run in &runs {
                assert_eq!(tr.positions_of(&all[run.clone()]).count(), run.len());
            }
            assert_eq!(
                folds(&tr),
                t - runs.len(),
                "{precision:?}: a full pass in runs"
            );
            // Each block of the features reads in order, from the sample
            // before it: at most one spacing of extra folds per block, per
            // pass (a 32-bit grid reads the boxes in a pass of their own).
            crate::features::feature_vectors(&tr, &Default::default());
            let blocks = t.div_ceil(32);
            let passes = if precision == Precision::F32 { 1 } else { 2 };
            let n = folds(&tr);
            assert!(
                n <= passes * (t + blocks * KEYFRAME_SPACING),
                "{precision:?}: features folded {n} frames of {t}"
            );
        }
    }

    #[test]
    fn read_runs_join_rising_samples_of_one_keyframe_block() {
        let k = KEYFRAME_SPACING;
        let tr = decode_trace(&drifting_bytes(2, 3 * k, 3 * k, Precision::F32)).unwrap();
        let samples = [0, 1, 3, 3, k - 1, k, k + 2, 1, 2 * k + 1, 2 * k];
        assert_eq!(
            tr.read_runs(&samples),
            [0..3, 3..5, 5..7, 7..8, 8..9, 9..10]
        );
        let reads: Vec<Vec<Vec3>> = (tr.positions_of(&samples)).map(Cow::into_owned).collect();
        for (&t, read) in samples.iter().zip(&reads) {
            assert_eq!(*read, *tr.positions_at(t), "sample {t}");
        }
        // Borrowed reads gain nothing from a run.
        let mut f64_trace = ParticleTrace::new(meta(2));
        for k in 0..3 {
            f64_trace.push_positions(pos(2, 0.1 * k as f64)).unwrap();
        }
        assert_eq!(f64_trace.read_runs(&[0, 1, 2]), [0..1, 1..2, 2..3]);
        assert!(f64_trace
            .positions_of(&[2, 0])
            .all(|p| matches!(p, Cow::Borrowed(_))));
    }

    #[test]
    fn grid_bounds_are_the_bounds_of_the_dequantized_positions() {
        // z is a degenerate axis: one position, trivially in order.
        let tr = grid_trace();
        let Frames::U16(e) = &tr.frames else {
            panic!("an f32 compact file reads into 16-bit storage");
        };
        assert!(e.bounds_are_stored());
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
