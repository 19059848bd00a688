//! Compact trace codec: delta-encoded, quantized positions.
//!
//! Layout (all little-endian), sharing the raw codec's header shape —
//! only the magic distinguishes the two formats, so
//! [`TraceReader`](crate::TraceReader) sniffs the first eight bytes and
//! decodes either:
//!
//! ```text
//! header:  magic "PICTRC02" | precision u8 | pad [u8;3] | sample_interval u32
//!          | particle_count u64 | domain min/max 6×f64
//!          | desc_len u32 | desc utf-8 bytes
//! qbox:    quantization box min/max 6×f64 (tight bounds of every position)
//! frame:   iteration u64 | width u8 | pad [u8;3] | payload
//! ```
//!
//! Positions are quantized onto a uniform grid over the quantization box
//! — 32 bits per axis under [`Precision::F64`], 16 under
//! [`Precision::F32`] — and stored as per-particle deltas against the
//! previous frame. `width` is the bytes per delta (zigzag-encoded, so
//! small drifts in either direction stay small); `width 0` marks an
//! *absolute* frame storing the full quantized coordinates (always the
//! first frame, and any frame whose deltas overflow the widest delta).
//! Particles drift a tiny fraction of the domain per sample, so steady
//! state is width 1–2: 3–6 bytes per particle per frame against the raw
//! codec's 24 at `f64` — a 4–8× size reduction at a quantization error
//! bounded by half a grid step (`extent / 2^33` per axis at 32 bits).
//!
//! The robustness contract matches the raw codec and is exercised by the
//! same fault-injection corpus: decoding arbitrary bytes never panics,
//! allocations are never driven by unvalidated header fields, truncation
//! and I/O faults surface as positioned [`TraceError`]s, and delta
//! arithmetic wraps modulo the grid so corrupt payloads still decode to
//! finite in-box positions (caught downstream by the trace invariants).

use crate::codec::{self, encode_header_with_magic, header_err, read_fully, Precision};
use crate::trace::{ParticleTrace, TraceMeta, TraceSample};
use bytes::BufMut;
use pic_types::{Aabb, PicError, Result, TraceError, TraceErrorKind, Vec3};
use std::io::{Read, Write};
use std::path::Path;

/// File magic for the compact (delta + quantized) trace format.
pub const COMPACT_MAGIC: &[u8; 8] = b"PICTRC02";

/// Byte length of the quantization-box section that follows the header.
pub const QBOX_LEN: usize = 48;

/// Frame-head bytes: iteration word, width byte, reserved padding.
pub(crate) const FRAME_HEAD_LEN: usize = 12;

/// Bytes per quantized coordinate for a precision tag: the compact codec
/// maps `F64` to a 32-bit grid and `F32` to a 16-bit grid.
fn quant_bytes(precision: Precision) -> usize {
    match precision {
        Precision::F64 => 4,
        Precision::F32 => 2,
    }
}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Little-endian load of one `W`-byte payload element (`W` ≤ 4).
#[inline(always)]
fn load_le<const W: usize>(elem: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw[..W].copy_from_slice(elem);
    u32::from_le_bytes(raw)
}

/// A grid coordinate as it is held: `u16` on a 16-bit grid, `u32` on a
/// 32-bit one (the streaming reader folds either grid in `u32`).
pub(crate) trait GridCoord:
    Copy + Default + Ord + Into<u32> + Send + Sync + 'static
{
    /// Bytes per coordinate.
    const BYTES: usize;
    /// The coordinate `q`, already masked to a grid this type holds.
    fn from_grid(q: u32) -> Self;
    /// `self + delta`, wrapping on a grid of largest coordinate `mask`.
    fn wrapping_step(self, delta: u32, mask: u32) -> Self;
}

impl GridCoord for u16 {
    const BYTES: usize = 2;
    #[inline(always)]
    fn from_grid(q: u32) -> u16 {
        q as u16
    }
    /// A `u16` holds only a 16-bit grid, whose mask is `u16::MAX`: the
    /// sum wraps in the type itself.
    #[inline(always)]
    fn wrapping_step(self, delta: u32, _mask: u32) -> u16 {
        self.wrapping_add(delta as u16)
    }
}

impl GridCoord for u32 {
    const BYTES: usize = 4;
    #[inline(always)]
    fn from_grid(q: u32) -> u32 {
        q
    }
    #[inline(always)]
    fn wrapping_step(self, delta: u32, mask: u32) -> u32 {
        self.wrapping_add(delta) & mask
    }
}

/// Fold one chunk of an absolute (width 0) frame into the quantized
/// coordinates it overwrites. Monomorphised on the element width so the
/// loop is a fixed-size load and a mask per element.
fn fold_abs<const W: usize, Q: GridCoord>(chunk: &[u8], mask: u32, out: &mut [Q]) {
    for (q, elem) in out.iter_mut().zip(chunk.chunks_exact(W)) {
        *q = Q::from_grid(load_le::<W>(elem) & mask);
    }
}

/// Fold one chunk of zigzag deltas into the previous frame's quantized
/// coordinates. Wrapping on the grid: a corrupt delta still lands on a
/// valid (finite, in-box) coordinate.
fn fold_delta<const W: usize, Q: GridCoord>(chunk: &[u8], mask: u32, prev: &mut [Q]) {
    for (q, elem) in prev.iter_mut().zip(chunk.chunks_exact(W)) {
        let z = load_le::<W>(elem);
        let delta = (z >> 1) ^ (z & 1).wrapping_neg(); // un-zigzag, mod 2^32
        *q = q.wrapping_step(delta, mask);
    }
}

/// A payload kernel: folds one chunk of elements into grid coordinates.
pub(crate) type Fold<Q> = fn(&[u8], u32, &mut [Q]);

/// The kernel for a frame whose head says `width` (0: absolute) on a grid
/// of `qbytes`-byte coordinates, the width already validated.
pub(crate) fn kernel<Q: GridCoord>(width: usize, qbytes: usize) -> Fold<Q> {
    match (width, qbytes) {
        (0, 2) => fold_abs::<2, Q>,
        (0, _) => fold_abs::<4, Q>,
        (1, _) => fold_delta::<1, Q>,
        (2, _) => fold_delta::<2, Q>,
        _ => fold_delta::<4, Q>,
    }
}

/// Append `vals` to `out` as `W`-byte little-endian elements.
fn put_le<const W: usize>(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u64>) {
    let at = out.len();
    out.resize(at + W * vals.len(), 0);
    for (elem, v) in out[at..].chunks_exact_mut(W).zip(vals) {
        elem.copy_from_slice(&v.to_le_bytes()[..W]);
    }
}

/// Delta widths the format admits for a grid of `qbytes` bytes, narrowest
/// first. Deltas that fit none of these force an absolute (width 0) frame.
fn allowed_widths(qbytes: usize) -> &'static [usize] {
    if qbytes == 4 {
        &[1, 2, 4]
    } else {
        &[1, 2]
    }
}

/// Uniform quantization grid over a box: `q = round((x-lo)/ext * maxq)`.
#[derive(Debug, Clone)]
pub(crate) struct Quantizer {
    lo: [f64; 3],
    hi: [f64; 3],
    ext: [f64; 3],
    maxq: f64,
    /// Largest grid coordinate: `2^16 - 1` or `2^32 - 1`.
    mask: u32,
}

impl Quantizer {
    fn new(qbox: &Aabb, qbytes: usize) -> Quantizer {
        let mask = ((1u64 << (8 * qbytes)) - 1) as u32;
        Quantizer {
            lo: [qbox.min.x, qbox.min.y, qbox.min.z],
            hi: [qbox.max.x, qbox.max.y, qbox.max.z],
            ext: [
                qbox.max.x - qbox.min.x,
                qbox.max.y - qbox.min.y,
                qbox.max.z - qbox.min.z,
            ],
            maxq: mask as f64,
            mask,
        }
    }

    /// Largest grid coordinate.
    pub(crate) fn mask(&self) -> u32 {
        self.mask
    }

    /// Whether every grid coordinate dequantizes to a finite value. True
    /// when no box corner exceeds `1e300` in magnitude: both lerp terms
    /// then stay below `1e300` and their sum below `f64::MAX`.
    pub(crate) fn finite_everywhere(&self) -> bool {
        self.lo.iter().chain(&self.hi).all(|c| c.abs() <= 1e300)
    }

    #[inline]
    fn quant(&self, axis: usize, x: f64) -> u32 {
        if self.ext[axis] <= 0.0 {
            return 0;
        }
        let t = ((x - self.lo[axis]) / self.ext[axis] * self.maxq).round();
        if t <= 0.0 {
            0
        } else if t >= self.maxq {
            self.mask
        } else {
            t as u32
        }
    }

    /// One pass over every coordinate of a 16-bit grid: per axis, whether
    /// dequantizing keeps the grid's order strictly (the smallest
    /// coordinate dequantizes to the smallest position), and with
    /// `tabulate` the dequantized value of every coordinate, so a read
    /// looks a position up instead of computing it. A degenerate axis has
    /// one position and keeps its order trivially. A 32-bit grid is too
    /// large to survey: it keeps order only on degenerate axes and has no
    /// table.
    pub(crate) fn lookup(&self, tabulate: bool) -> Lookup {
        let narrow = self.mask <= u16::MAX as u32;
        let tabulate = tabulate && narrow;
        let mut table = Vec::with_capacity(if tabulate { TABLE_LEN } else { 0 });
        let ordered = std::array::from_fn(|axis| {
            let degenerate = self.ext[axis] <= 0.0;
            if !narrow {
                return degenerate;
            }
            let values: Vec<f64> = (0..=self.mask).map(|q| self.dequant(axis, q)).collect();
            let ordered = degenerate || values.windows(2).all(|w| w[0] < w[1]);
            if tabulate {
                table.extend(values);
            }
            ordered
        });
        Lookup {
            ordered,
            table: tabulate.then(|| table.into_boxed_slice()),
        }
    }

    #[inline]
    pub(crate) fn dequant(&self, axis: usize, q: u32) -> f64 {
        if self.ext[axis] <= 0.0 {
            self.lo[axis]
        } else {
            // Two-sided lerp hits both endpoints exactly, so the tight box
            // of a decoded trace equals the quantization box bit-for-bit
            // and re-encoding an already-quantized trace is byte-identical.
            let f = q as f64 / self.maxq;
            self.lo[axis] * (1.0 - f) + self.hi[axis] * f
        }
    }

    /// Quantize one frame's positions into `out` (x, y, z interleaved).
    fn quantize_into(&self, positions: &[Vec3], out: &mut Vec<u32>) {
        out.resize(3 * positions.len(), 0);
        for (q, p) in out.chunks_exact_mut(3).zip(positions) {
            q[0] = self.quant(0, p.x);
            q[1] = self.quant(1, p.y);
            q[2] = self.quant(2, p.z);
        }
    }

    /// Positions of one frame of quantized coordinates, allocated once at
    /// exact length (the coordinates are backed by bytes already read, or
    /// resident in a [`ParticleTrace`]).
    pub(crate) fn dequant_frame<Q: Copy + Into<u32>>(&self, q: &[Q]) -> Vec<Vec3> {
        q.chunks_exact(3)
            .map(|c| {
                Vec3::new(
                    self.dequant(0, c[0].into()),
                    self.dequant(1, c[1].into()),
                    self.dequant(2, c[2].into()),
                )
            })
            .collect()
    }
}

/// Entries of a 16-bit grid's dequantization table: 65 536 per axis.
pub(crate) const TABLE_LEN: usize = 3 << 16;

/// What [`Quantizer::lookup`] learned of a grid: per axis whether it keeps
/// its order, and on a tabulated 16-bit grid every position it holds.
#[derive(Debug, Clone)]
pub(crate) struct Lookup {
    /// Per axis: dequantizing keeps the grid's order strictly.
    pub(crate) ordered: [bool; 3],
    /// `dequant(axis, q)` at `(axis << 16) + q`, bit for bit.
    pub(crate) table: Option<Box<[f64]>>,
}

impl Lookup {
    /// [`Quantizer::dequant_frame`], through the table where there is one.
    pub(crate) fn dequant_frame<Q: GridCoord>(&self, quant: &Quantizer, q: &[Q]) -> Vec<Vec3> {
        let Some(table) = &self.table else {
            return quant.dequant_frame(q);
        };
        let axis = |a: usize| -> &[f64; 1 << 16] {
            table[a << 16..(a + 1) << 16]
                .try_into()
                .expect("65 536 entries per axis")
        };
        let (x, y, z) = (axis(0), axis(1), axis(2));
        let at = |q: Q| q.into() as usize;
        (q.chunks_exact(3))
            .map(|c| Vec3::new(x[at(c[0])], y[at(c[1])], z[at(c[2])]))
            .collect()
    }
}

/// Validate a quantization box read at stream offset `base`: every corner
/// finite, per-axis `min <= max` (a degenerate axis is legal — it
/// dequantizes to the single coordinate).
fn validate_qbox(corners: &[f64; 6], base: u64) -> Result<Aabb> {
    for (axis, (&lo, &hi)) in corners[..3].iter().zip(&corners[3..]).enumerate() {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(header_err(
                TraceErrorKind::BadHeader,
                format!(
                    "quantization box corners on axis {axis} are not finite and ordered: [{lo}, {hi}]"
                ),
                base + (8 * axis) as u64,
            ));
        }
    }
    Ok(Aabb {
        min: Vec3::new(corners[0], corners[1], corners[2]),
        max: Vec3::new(corners[3], corners[4], corners[5]),
    })
}

/// The tight quantization box of a trace: the AABB of every position in
/// every sample. Falls back to the unit box for a trace holding no
/// positions (nothing to quantize, but the box section must be finite).
pub fn quantization_box(trace: &ParticleTrace) -> Aabb {
    let mut b = Aabb::empty();
    for s in trace.samples() {
        s.positions.iter().for_each(|&p| b.expand(p));
    }
    if b.min.x.is_finite() {
        b
    } else {
        Aabb::unit()
    }
}

/// Pick the delta width (bytes per element) for one frame, or `None` when
/// some delta overflows every admissible width and the frame must be
/// stored absolute. `qvals`/`prev` hold the current and previous frames'
/// quantized coordinates.
fn frame_width<Q: GridCoord>(qvals: &[Q], prev: &[Q], qbytes: usize) -> Option<usize> {
    let mut max_z = 0u64;
    for (&q, &p) in qvals.iter().zip(prev) {
        let z = zigzag(q.into() as i64 - p.into() as i64);
        if z > max_z {
            max_z = z;
        }
    }
    allowed_widths(qbytes)
        .iter()
        .copied()
        .find(|&w| max_z < (1u64 << (8 * w)))
}

/// Append the payload of one frame's grid coordinates `qvals` to `out`:
/// deltas against `prev` at the narrowest width that fits, or absolute
/// coordinates for the first frame (`prev` is `None`) and for deltas that
/// fit no width. Returns the frame's width byte (0: absolute).
pub(crate) fn encode_payload<Q: GridCoord>(
    qvals: &[Q],
    prev: Option<&[Q]>,
    qbytes: usize,
    out: &mut Vec<u8>,
) -> u8 {
    let width = prev.and_then(|prev| frame_width(qvals, prev, qbytes));
    let absolute = qvals.iter().map(|&q| q.into() as u64);
    let deltas = (qvals.iter())
        .zip(prev.unwrap_or_default())
        .map(|(&q, &p)| zigzag(q.into() as i64 - p.into() as i64));
    match (width, qbytes) {
        (None, 2) => put_le::<2>(out, absolute),
        (None, _) => put_le::<4>(out, absolute),
        (Some(1), _) => put_le::<1>(out, deltas),
        (Some(2), _) => put_le::<2>(out, deltas),
        (Some(_), _) => put_le::<4>(out, deltas),
    }
    width.unwrap_or(0) as u8
}

/// Streaming compact writer: emits the header and quantization box on
/// construction, then one delta/absolute frame per
/// [`CompactWriter::write_sample`] call.
pub struct CompactWriter<W: Write> {
    sink: W,
    particle_count: usize,
    qbytes: usize,
    quant: Quantizer,
    /// Previous frame's quantized coordinates (empty before frame 0).
    prev: Vec<u32>,
    /// Current frame's quantized coordinates (reused scratch).
    qvals: Vec<u32>,
    frames_written: usize,
    bytes_written: u64,
    scratch: Vec<u8>,
}

impl<W: Write> CompactWriter<W> {
    /// Write the header and quantization box and return the writer.
    /// `qbox` must be finite with `min <= max` per axis and should bound
    /// every position that will be written (out-of-box positions clamp to
    /// the box edge).
    pub fn new(
        mut sink: W,
        meta: &TraceMeta,
        precision: Precision,
        qbox: Aabb,
    ) -> Result<CompactWriter<W>> {
        let corners = [
            qbox.min.x, qbox.min.y, qbox.min.z, qbox.max.x, qbox.max.y, qbox.max.z,
        ];
        validate_qbox(&corners, 0).map_err(|_| {
            PicError::trace(format!(
                "quantization box must be finite and ordered, got {qbox:?}"
            ))
        })?;
        let mut header = encode_header_with_magic(meta, precision, COMPACT_MAGIC);
        for c in corners {
            header.put_f64_le(c);
        }
        sink.write_all(&header)?;
        let qbytes = quant_bytes(precision);
        Ok(CompactWriter {
            sink,
            particle_count: meta.particle_count,
            qbytes,
            quant: Quantizer::new(&qbox, qbytes),
            prev: Vec::new(),
            qvals: Vec::new(),
            frames_written: 0,
            bytes_written: header.len() as u64,
            scratch: Vec::new(),
        })
    }

    /// Append one sample frame (absolute for the first sample, narrowest
    /// delta width that fits afterwards).
    pub fn write_sample(&mut self, sample: &TraceSample) -> Result<()> {
        if sample.positions.len() != self.particle_count {
            return Err(PicError::trace(format!(
                "frame has {} positions, header says {}",
                sample.positions.len(),
                self.particle_count
            )));
        }
        self.quant.quantize_into(&sample.positions, &mut self.qvals);
        let prev = (self.frames_written > 0).then_some(&self.prev[..]);
        self.scratch.clear();
        self.scratch.put_u64_le(sample.iteration);
        self.scratch.put_slice(&[0u8; 4]);
        let width = encode_payload(&self.qvals, prev, self.qbytes, &mut self.scratch);
        self.scratch[8] = width;
        self.sink.write_all(&self.scratch)?;
        std::mem::swap(&mut self.prev, &mut self.qvals);
        self.frames_written += 1;
        self.bytes_written += self.scratch.len() as u64;
        Ok(())
    }

    /// Number of frames written so far.
    pub fn frames_written(&self) -> usize {
        self.frames_written
    }

    /// Bytes emitted so far, header and quantization box included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flush and return the underlying sink.
    pub fn finish(mut self) -> Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// What [`TraceReader`](crate::TraceReader) keeps of a compact stream
/// between frames: the quantization grid, and the previous frame's
/// quantized coordinates that the next frame's deltas fold into.
pub(crate) struct DeltaDecoder {
    quant: Quantizer,
    /// Bytes per grid coordinate (see [`quant_bytes`]).
    qbytes: usize,
    /// Previous frame's quantized coordinates; grows chunk by chunk with
    /// the bytes read during the first (absolute) frame, never
    /// preallocated from the header's particle count.
    prev: Vec<u32>,
    /// The current frame's width byte (0: absolute).
    width: usize,
}

impl DeltaDecoder {
    /// Read and validate the quantization box that follows a header
    /// ending at stream offset `base`.
    pub(crate) fn read_qbox<R: Read>(
        source: &mut R,
        base: u64,
        precision: Precision,
    ) -> Result<DeltaDecoder> {
        let mut raw = [0u8; QBOX_LEN];
        let got = read_fully(source, &mut raw).map_err(|e| {
            TraceError::new(TraceErrorKind::Io, "quantization box read failed")
                .at_offset(base)
                .with_source(e)
        })?;
        if got < QBOX_LEN {
            return Err(header_err(
                TraceErrorKind::TruncatedHeader,
                format!("stream ends {got} bytes into the {QBOX_LEN}-byte quantization box"),
                base + got as u64,
            ));
        }
        let mut corners = [0.0f64; 6];
        for (i, c) in corners.iter_mut().enumerate() {
            *c = f64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8-byte corner"));
        }
        let qbox = validate_qbox(&corners, base)?;
        let qbytes = quant_bytes(precision);
        Ok(DeltaDecoder {
            quant: Quantizer::new(&qbox, qbytes),
            qbytes,
            prev: Vec::new(),
            width: 0,
        })
    }

    /// Validate the head of frame `frame`, which starts at stream offset
    /// `at`, and record its width, which picks the kernel. Returns the payload's bytes
    /// per element.
    pub(crate) fn begin_frame(
        &mut self,
        head: &[u8; FRAME_HEAD_LEN],
        frame: u64,
        at: u64,
    ) -> Result<usize> {
        let width = head[8] as usize;
        let bad_head = |message: String, offset: u64| -> PicError {
            TraceError::new(TraceErrorKind::BadHeader, message)
                .at_offset(at + offset)
                .at_frame(frame)
                .into()
        };
        if head[9..] != [0u8; 3] {
            return Err(bad_head("frame head padding is not zero".to_string(), 9));
        }
        let elem = if width == 0 {
            self.qbytes
        } else if allowed_widths(self.qbytes).contains(&width) {
            width
        } else {
            return Err(bad_head(
                format!(
                    "invalid delta width {width} for a {}-byte grid",
                    self.qbytes
                ),
                8,
            ));
        };
        if frame == 0 && width != 0 {
            return Err(bad_head(
                format!("first frame must store absolute coordinates (width 0), got {width}"),
                8,
            ));
        }
        self.width = width;
        Ok(elem)
    }

    /// Fold a payload chunk of `take` elements into coordinates
    /// `at..at + take` of the current frame.
    pub(crate) fn fold_chunk(&mut self, chunk: &[u8], at: usize, take: usize) {
        // Only the first frame grows `prev`, by the chunk just read.
        if self.prev.len() < at + take {
            self.prev.resize(at + take, 0);
        }
        let fold = kernel::<u32>(self.width, self.qbytes);
        fold(chunk, self.quant.mask, &mut self.prev[at..at + take]);
    }

    /// The current frame's width byte (0: absolute).
    pub(crate) fn width(&self) -> u8 {
        self.width as u8
    }

    /// The current frame's grid coordinates, once its `total` are folded.
    pub(crate) fn coords(&self, total: usize) -> &[u32] {
        &self.prev[..total]
    }

    /// The current frame's positions, once its `total` coordinates are
    /// folded.
    pub(crate) fn positions(&self, total: usize) -> Vec<Vec3> {
        self.quant.dequant_frame(self.coords(total))
    }

    /// The stream's quantization grid.
    pub(crate) fn quantizer(&self) -> &Quantizer {
        &self.quant
    }
}

/// Encode a whole trace into compact bytes, quantizing onto the tight
/// bounding box of its positions.
///
/// The transform is lossy once (to the grid) and stable thereafter:
/// re-encoding a decoded trace reproduces the bytes bit-for-bit.
pub fn encode_compact(trace: &ParticleTrace, precision: Precision) -> Result<Vec<u8>> {
    let qbox = quantization_box(trace);
    let mut w = CompactWriter::new(Vec::new(), trace.meta(), precision, qbox)?;
    for s in trace.samples() {
        w.write_sample(&s)?;
    }
    w.finish()
}

/// Write a trace to a compact file.
pub fn save_file(
    trace: &ParticleTrace,
    path: impl AsRef<Path>,
    precision: Precision,
) -> Result<u64> {
    let file = std::fs::File::create(path)?;
    let qbox = quantization_box(trace);
    let mut w = CompactWriter::new(std::io::BufWriter::new(file), trace.meta(), precision, qbox)?;
    for s in trace.samples() {
        w.write_sample(&s)?;
    }
    let bytes = w.bytes_written();
    w.finish()?;
    Ok(bytes)
}

/// [`codec::load_file`], which reads either format. Kept because the
/// end-to-end benchmark pins this name (`benchmark/src/calls.rs`) until
/// ROADMAP item 1 unpins it.
pub fn load_file_any(path: impl AsRef<Path>) -> Result<ParticleTrace> {
    codec::load_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_trace, encode_trace, parse_header, READ_CHUNK_BYTES};
    use crate::TraceReader;

    fn drifting_trace(np: usize, t: usize, step: f64) -> ParticleTrace {
        let meta = TraceMeta::new(np, 10, Aabb::unit(), "compact-test");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let positions = (0..np)
                .map(|i| {
                    Vec3::new(
                        (0.1 + i as f64 * 0.007 + k as f64 * step).fract().abs(),
                        (0.2 + i as f64 * 0.003 + k as f64 * step * 0.5)
                            .fract()
                            .abs(),
                        0.5,
                    )
                })
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    #[test]
    fn round_trip_is_stable_and_bounded() {
        let tr = drifting_trace(40, 8, 1e-4);
        for precision in [Precision::F64, Precision::F32] {
            let bytes = encode_compact(&tr, precision).unwrap();
            let back = decode_trace(&bytes).unwrap();
            assert_eq!(back.meta(), tr.meta());
            assert_eq!(back.sample_count(), tr.sample_count());
            let qbox = quantization_box(&tr);
            let bits = 8 * quant_bytes(precision) as u32;
            let maxq = ((1u128 << bits) - 1) as f64;
            for (a, b) in tr.samples().zip(back.samples()) {
                assert_eq!(a.iteration, b.iteration);
                for (pa, pb) in a.positions.iter().zip(&b.positions) {
                    for (va, vb, lo, hi) in [
                        (pa.x, pb.x, qbox.min.x, qbox.max.x),
                        (pa.y, pb.y, qbox.min.y, qbox.max.y),
                        (pa.z, pb.z, qbox.min.z, qbox.max.z),
                    ] {
                        let step = (hi - lo) / maxq;
                        assert!(
                            (va - vb).abs() <= step * 0.5 + f64::EPSILON,
                            "quantization error {} exceeds half-step {}",
                            (va - vb).abs(),
                            step * 0.5
                        );
                    }
                }
            }
            // Idempotent after the first (lossy) pass.
            let again = encode_compact(&back, precision).unwrap();
            assert_eq!(again, bytes);
        }
    }

    #[test]
    fn slow_drift_compresses_well() {
        // Per-sample drift of ~4300 grid units on a 32-bit grid: deltas fit
        // two bytes where raw f64 frames spend 24 bytes per particle.
        let tr = drifting_trace(200, 20, 1e-6);
        let compact = encode_compact(&tr, Precision::F64).unwrap();
        let raw = encode_trace(&tr, Precision::F64).unwrap();
        assert!(
            (compact.len() as f64) < raw.len() as f64 / 3.0,
            "compact {} vs raw {}",
            compact.len(),
            raw.len()
        );
    }

    #[test]
    fn a_box_past_1e300_is_checked_frame_by_frame() {
        // Too large to rule out an overflowing dequantization up front, so
        // `read_all` dequantizes each frame for the finiteness check, and
        // keeps the same coordinates as ever.
        let meta = TraceMeta::new(2, 1, Aabb::unit(), "huge");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..3 {
            let x = 1e301 * (1.0 + k as f64);
            tr.push_positions(vec![Vec3::splat(x), Vec3::splat(-x)])
                .unwrap();
        }
        for precision in [Precision::F64, Precision::F32] {
            let bytes = encode_compact(&tr, precision).unwrap();
            let quant = Quantizer::new(&quantization_box(&tr), quant_bytes(precision));
            assert!(!quant.finite_everywhere());
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let back = decode_trace(&bytes).unwrap();
            for s in back.samples() {
                assert_eq!(Some(s.into_owned()), reader.read_sample().unwrap());
            }
        }
    }

    #[test]
    fn large_jumps_fall_back_to_absolute_frames() {
        // Jumps across the whole box overflow every delta width.
        let meta = TraceMeta::new(2, 1, Aabb::unit(), "jumpy");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..4 {
            let x = if k % 2 == 0 { 0.0 } else { 1.0 };
            tr.push_positions(vec![Vec3::new(x, 0.0, 0.0), Vec3::new(1.0 - x, 1.0, 1.0)])
                .unwrap();
        }
        let bytes = encode_compact(&tr, Precision::F64).unwrap();
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.sample_count(), 4);
        // every frame absolute: head + 3*2*4 payload each
        let header =
            encode_header_with_magic(tr.meta(), Precision::F64, COMPACT_MAGIC).len() + QBOX_LEN;
        assert_eq!(bytes.len(), header + 4 * (12 + 24));
        for (a, b) in tr.samples().zip(back.samples()) {
            for (pa, pb) in a.positions.iter().zip(&b.positions) {
                assert!((pa.x - pb.x).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sniffing_reader_accepts_both_formats_and_rejects_unknown() {
        let tr = drifting_trace(5, 3, 1e-3);
        let raw = encode_trace(&tr, Precision::F64).unwrap();
        let compact = encode_compact(&tr, Precision::F64).unwrap();
        assert_eq!(TraceReader::new(&raw[..]).unwrap().read_all().unwrap(), tr);
        let r = TraceReader::new(&compact[..]).unwrap();
        assert_eq!(r.meta(), tr.meta());
        assert_eq!(r.precision(), Precision::F64);
        // The quantization box belongs to the header.
        let header =
            encode_header_with_magic(tr.meta(), Precision::F64, COMPACT_MAGIC).len() + QBOX_LEN;
        assert_eq!(r.bytes_read(), header as u64);
        let back = r.read_all().unwrap();
        assert_eq!(back.iterations(), tr.iterations());
        assert_eq!(encode_compact(&back, Precision::F64).unwrap(), compact);

        let err = TraceReader::new(&b"NOTATRC0rest-of-stream"[..]).unwrap_err();
        let d = err.trace_details().expect("structured");
        assert_eq!(d.kind, TraceErrorKind::BadMagic);
        assert_eq!(d.offset, Some(0));
        assert!(err.to_string().contains("PICTRC01"), "{err}");
        assert!(err.to_string().contains("PICTRC02"), "{err}");
    }

    #[test]
    fn empty_and_degenerate_traces_round_trip() {
        // zero samples
        let empty = ParticleTrace::new(TraceMeta::new(3, 1, Aabb::unit(), "empty"));
        let bytes = encode_compact(&empty, Precision::F64).unwrap();
        assert_eq!(decode_trace(&bytes).unwrap().sample_count(), 0);
        // all particles on one plane (degenerate z axis)
        let meta = TraceMeta::new(2, 1, Aabb::unit(), "flat");
        let mut tr = ParticleTrace::new(meta);
        tr.push_positions(vec![Vec3::new(0.1, 0.2, 0.5), Vec3::new(0.9, 0.4, 0.5)])
            .unwrap();
        let bytes = encode_compact(&tr, Precision::F32).unwrap();
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.samples().next().unwrap().positions[0].z, 0.5);
    }

    #[test]
    fn first_frame_must_be_absolute() {
        let tr = drifting_trace(2, 2, 1e-4);
        let mut bytes = encode_compact(&tr, Precision::F64).unwrap();
        let header =
            encode_header_with_magic(tr.meta(), Precision::F64, COMPACT_MAGIC).len() + QBOX_LEN;
        // Forge the first frame's width byte to a delta width.
        bytes[header + 8] = 1;
        let err = decode_trace(&bytes).unwrap_err();
        let d = err.trace_details().expect("structured");
        assert_eq!(d.kind, TraceErrorKind::BadHeader);
        assert_eq!(d.frame, Some(0));
        assert!(err.to_string().contains("absolute"), "{err}");
    }

    // ---------------------------------------------------------- oracles
    //
    // The per-element codec loops as they stood before the
    // width-monomorphised kernels, kept verbatim (state that was a field
    // then is a parameter now) so the kernels are held to them bit for
    // bit: positions, iterations, encoded bytes, and on malformed input
    // the error kind, byte offset and frame.

    /// The compact reader's state as the reference decoder reads it: the
    /// stream past the quantization box and the grid its header set up.
    struct OracleReader<R: Read> {
        source: R,
        meta: TraceMeta,
        qbytes: usize,
        quant: Quantizer,
        frames_read: usize,
        offset: u64,
        chunk: Vec<u8>,
    }

    impl<R: Read> OracleReader<R> {
        fn new(mut source: R) -> Result<OracleReader<R>> {
            let h = parse_header(&mut source)?;
            assert!(h.compact, "the oracle corpus is compact");
            let d = DeltaDecoder::read_qbox(&mut source, h.offset, h.precision)?;
            Ok(OracleReader {
                source,
                meta: h.meta,
                qbytes: d.qbytes,
                quant: d.quant,
                frames_read: 0,
                offset: h.offset + QBOX_LEN as u64,
                chunk: Vec::new(),
            })
        }

        fn positioned(&self, e: PicError) -> PicError {
            match e {
                PicError::TraceFormat(mut t) => {
                    if t.offset.is_none() {
                        t.offset = Some(self.offset);
                    }
                    if t.frame.is_none() {
                        t.frame = Some((self.frames_read.saturating_sub(1)) as u64);
                    }
                    PicError::TraceFormat(t)
                }
                other => other,
            }
        }
    }

    fn unzigzag(z: u64) -> i64 {
        ((z >> 1) as i64) ^ -((z & 1) as i64)
    }

    fn dequant_reference(quant: &Quantizer, axis: usize, q: u64) -> f64 {
        if quant.ext[axis] <= 0.0 {
            quant.lo[axis]
        } else {
            let f = q as f64 / quant.maxq;
            quant.lo[axis] * (1.0 - f) + quant.hi[axis] * f
        }
    }

    fn read_sample_reference<R: Read>(
        r: &mut OracleReader<R>,
        prev: &mut Vec<u64>,
    ) -> Result<Option<TraceSample>> {
        let mask = r.quant.mask as u64;
        let frame = r.frames_read as u64;
        let mut head = [0u8; FRAME_HEAD_LEN];
        let got = read_fully(&mut r.source, &mut head).map_err(|e| {
            TraceError::new(TraceErrorKind::Io, "frame head read failed")
                .at_offset(r.offset)
                .at_frame(frame)
                .with_source(e)
        })?;
        if got == 0 {
            return Ok(None); // clean end-of-stream
        }
        if got < FRAME_HEAD_LEN {
            return Err(TraceError::new(
                TraceErrorKind::TruncatedFrame,
                format!("stream ends {got} bytes into the {FRAME_HEAD_LEN}-byte frame head"),
            )
            .at_offset(r.offset + got as u64)
            .at_frame(frame)
            .into());
        }
        let iteration = u64::from_le_bytes(head[..8].try_into().expect("8-byte word"));
        let width = head[8] as usize;
        if head[9..] != [0u8; 3] {
            return Err(TraceError::new(
                TraceErrorKind::BadHeader,
                "frame head padding is not zero".to_string(),
            )
            .at_offset(r.offset + 9)
            .at_frame(frame)
            .into());
        }
        let elem = if width == 0 {
            r.qbytes
        } else if allowed_widths(r.qbytes).contains(&width) {
            width
        } else {
            return Err(TraceError::new(
                TraceErrorKind::BadHeader,
                format!("invalid delta width {width} for a {}-byte grid", r.qbytes),
            )
            .at_offset(r.offset + 8)
            .at_frame(frame)
            .into());
        };
        if r.frames_read == 0 && width != 0 {
            return Err(TraceError::new(
                TraceErrorKind::BadHeader,
                format!("first frame must store absolute coordinates (width 0), got {width}"),
            )
            .at_offset(r.offset + 8)
            .at_frame(frame)
            .into());
        }
        r.offset += FRAME_HEAD_LEN as u64;

        let total = 3 * r.meta.particle_count;
        let per_chunk = (READ_CHUNK_BYTES / elem).max(1);
        let mut positions: Vec<Vec3> = Vec::new();
        let mut pending = [0.0f64; 3];
        let mut decoded = 0usize;
        while decoded < total {
            let take = per_chunk.min(total - decoded);
            let want = take * elem;
            r.chunk.resize(want, 0);
            let got = read_fully(&mut r.source, &mut r.chunk[..want]).map_err(|e| {
                TraceError::new(
                    TraceErrorKind::Io,
                    format!("frame payload read failed at iteration {iteration}"),
                )
                .at_offset(r.offset)
                .at_frame(frame)
                .with_source(e)
            })?;
            if got < want {
                let missing = (total - decoded) * elem - got;
                return Err(TraceError::new(
                    TraceErrorKind::TruncatedFrame,
                    format!(
                        "truncated frame at iteration {iteration}: stream ends {missing} byte(s) short"
                    ),
                )
                .at_offset(r.offset + got as u64)
                .at_frame(frame)
                .into());
            }
            r.offset += got as u64;
            for k in 0..take {
                let mut raw = [0u8; 8];
                raw[..elem].copy_from_slice(&r.chunk[k * elem..(k + 1) * elem]);
                let v = u64::from_le_bytes(raw);
                let e = decoded + k;
                let q = if width == 0 {
                    v & mask
                } else {
                    // Wrapping on the grid: a corrupt delta still lands on
                    // a valid (finite, in-box) coordinate.
                    prev[e].wrapping_add(unzigzag(v) as u64) & mask
                };
                if e < prev.len() {
                    prev[e] = q;
                } else {
                    prev.push(q);
                }
                let axis = e % 3;
                pending[axis] = dequant_reference(&r.quant, axis, q);
                if axis == 2 {
                    positions.push(Vec3::new(pending[0], pending[1], pending[2]));
                }
            }
            decoded += take;
        }
        r.frames_read += 1;
        Ok(Some(TraceSample {
            iteration,
            positions,
        }))
    }

    fn decode_reference(bytes: &[u8]) -> Result<ParticleTrace> {
        let mut r = OracleReader::new(bytes)?;
        let mut prev = Vec::new();
        let mut trace = ParticleTrace::new(r.meta.clone());
        while let Some(s) = read_sample_reference(&mut r, &mut prev)? {
            trace.push_sample(s).map_err(|e| r.positioned(e))?;
        }
        Ok(trace)
    }

    fn encode_reference(trace: &ParticleTrace, precision: Precision) -> Vec<u8> {
        let qbox = quantization_box(trace);
        let qbytes = quant_bytes(precision);
        let quant = Quantizer::new(&qbox, qbytes);
        let mut out = encode_header_with_magic(trace.meta(), precision, COMPACT_MAGIC);
        for c in [
            qbox.min.x, qbox.min.y, qbox.min.z, qbox.max.x, qbox.max.y, qbox.max.z,
        ] {
            out.put_f64_le(c);
        }
        let mut prev: Vec<u64> = Vec::new();
        let mut qvals: Vec<u64> = Vec::new();
        for (k, sample) in trace.samples().enumerate() {
            qvals.clear();
            for p in &sample.positions {
                qvals.push(quant.quant(0, p.x) as u64);
                qvals.push(quant.quant(1, p.y) as u64);
                qvals.push(quant.quant(2, p.z) as u64);
            }
            let width = if k == 0 {
                None
            } else {
                let mut max_z = 0u64;
                for (&q, &p) in qvals.iter().zip(&prev) {
                    let z = zigzag(q as i64 - p as i64);
                    if z > max_z {
                        max_z = z;
                    }
                }
                allowed_widths(qbytes)
                    .iter()
                    .copied()
                    .find(|&w| max_z < (1u64 << (8 * w)))
            };
            out.put_u64_le(sample.iteration);
            out.put_u8(width.unwrap_or(0) as u8);
            out.put_slice(&[0u8; 3]);
            match width {
                None => {
                    for &q in &qvals {
                        out.extend_from_slice(&q.to_le_bytes()[..qbytes]);
                    }
                }
                Some(w) => {
                    for (&q, &p) in qvals.iter().zip(&prev) {
                        let z = zigzag(q as i64 - p as i64);
                        out.extend_from_slice(&z.to_le_bytes()[..w]);
                    }
                }
            }
            std::mem::swap(&mut prev, &mut qvals);
        }
        out
    }

    /// Both decoders on the same bytes: the same trace down to the last
    /// position bit, or the same positioned error.
    fn assert_decoders_agree(bytes: &[u8], what: &str) {
        match (decode_trace(bytes), decode_reference(bytes)) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.meta(), old.meta(), "{what}");
                assert_eq!(new.sample_count(), old.sample_count(), "{what}");
                for (a, b) in new.samples().zip(old.samples()) {
                    assert_eq!(a.iteration, b.iteration, "{what}");
                    assert_eq!(a.positions.len(), b.positions.len(), "{what}");
                    for (pa, pb) in a.positions.iter().zip(&b.positions) {
                        let bits = |p: &Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
                        assert_eq!(bits(pa), bits(pb), "{what}: {pa:?} vs {pb:?}");
                    }
                }
            }
            (Err(new), Err(old)) => {
                let (n, o) = (new.trace_details(), old.trace_details());
                let (n, o) = (n.expect("structured"), o.expect("structured"));
                assert_eq!(
                    (n.kind, n.offset, n.frame, &n.message),
                    (o.kind, o.offset, o.frame, &o.message),
                    "{what}"
                );
            }
            (new, old) => panic!(
                "{what}: decoders disagree: new {:?}, reference {:?}",
                new.map(|t| t.sample_count()),
                old.map(|t| t.sample_count())
            ),
        }
    }

    /// Per-frame motions of the oracle corpus, chosen to land on each
    /// encoding: no motion, drifts of 1e-8, 1e-6, 1e-3 and 3e-2 of the box
    /// (delta widths 1, 2 and 4 on the 32-bit grid; 1 and 2 on the 16-bit
    /// grid), and — motion `DRIFTS.len()` — a reflection through the box
    /// centre, which overflows every delta width and forces an absolute
    /// frame mid-stream.
    const DRIFTS: [f64; 5] = [0.0, 1e-8, 1e-6, 1e-3, 3e-2];
    const MOTIONS: usize = DRIFTS.len() + 1;

    /// A trace whose frame `k >= 1` moves every free particle by
    /// `motions[k]`. With three or more particles the first two are pinned
    /// to opposite box corners so the quantization box is the unit box
    /// (`flat` pins every z to one plane: a degenerate axis).
    fn oracle_trace(np: usize, motions: &[usize], flat: bool, seed: u64) -> ParticleTrace {
        let mut rng = pic_types::rng::SplitMix64::new(seed);
        let z_of = |z: f64| if flat { 0.5 } else { z };
        let pinned = if np >= 3 { 2 } else { 0 };
        let mut cur: Vec<Vec3> = (0..np)
            .map(|i| match i {
                0 if pinned > 0 => Vec3::new(0.0, 0.0, z_of(0.0)),
                1 if pinned > 0 => Vec3::new(1.0, 1.0, z_of(1.0)),
                _ => Vec3::new(rng.next_f64(), rng.next_f64(), z_of(rng.next_f64())),
            })
            .collect();
        let mut tr = ParticleTrace::new(TraceMeta::new(np, 7, Aabb::unit(), "oracle"));
        for (k, &motion) in motions.iter().enumerate() {
            if k > 0 {
                for p in cur.iter_mut().skip(pinned) {
                    *p = match DRIFTS.get(motion) {
                        Some(&step) => {
                            let mut next =
                                |x: f64| (x + step * rng.next_range(-1.0, 1.0)).clamp(0.0, 1.0);
                            Vec3::new(next(p.x), next(p.y), z_of(next(p.z)))
                        }
                        None => Vec3::new(1.0 - p.x, 1.0 - p.y, z_of(1.0 - p.z)),
                    };
                }
            }
            tr.push_positions(cur.clone()).unwrap();
        }
        tr
    }

    /// The width byte of every frame of an encoding of `tr`.
    fn frame_widths(tr: &ParticleTrace, precision: Precision, bytes: &[u8]) -> Vec<u8> {
        let mut at = encode_header_with_magic(tr.meta(), precision, COMPACT_MAGIC).len() + QBOX_LEN;
        let mut widths = Vec::new();
        while at < bytes.len() {
            let w = bytes[at + 8];
            widths.push(w);
            let elem = if w == 0 {
                quant_bytes(precision)
            } else {
                w as usize
            };
            at += FRAME_HEAD_LEN + 3 * tr.particle_count() * elem;
        }
        widths
    }

    #[test]
    fn oracle_corpus_reaches_every_frame_encoding() {
        // One particle far from the centre, so the reflection is a jump of
        // most of the box.
        let motions = [0, 1, 2, 3, 4, 5, 0, 1];
        for (precision, expect) in [
            (Precision::F64, vec![0u8, 1, 2, 4, 4, 0, 1, 1]),
            (Precision::F32, vec![0u8, 1, 1, 1, 2, 0, 1, 1]),
        ] {
            let tr = oracle_trace(9, &motions, false, 3);
            let bytes = encode_compact(&tr, precision).unwrap();
            assert_eq!(
                frame_widths(&tr, precision, &bytes),
                expect,
                "{precision:?}"
            );
            assert_eq!(bytes, encode_reference(&tr, precision));
            assert_decoders_agree(&bytes, "every encoding");
        }
    }

    #[test]
    fn payload_crossing_a_chunk_edge_mid_particle_matches_the_reference() {
        // 21 846 particles are 65 538 width-1 elements: the 64 KiB chunk
        // ends after the x of the last particle but one.
        let np = READ_CHUNK_BYTES / 3 + 1;
        let tr = oracle_trace(np, &[0, 1, 1], false, 5);
        let bytes = encode_compact(&tr, Precision::F64).unwrap();
        assert_eq!(frame_widths(&tr, Precision::F64, &bytes), [0, 1, 1]);
        assert_eq!(bytes, encode_reference(&tr, Precision::F64));
        assert_decoders_agree(&bytes, "whole stream");
        // Truncation on either side of the edge, in the last frame.
        let last = bytes.len() - 3 * np;
        for cut in [
            last + READ_CHUNK_BYTES - 1,
            last + READ_CHUNK_BYTES,
            last + READ_CHUNK_BYTES + 1,
        ] {
            assert_decoders_agree(&bytes[..cut], "cut at the chunk edge");
        }
    }

    #[test]
    fn corrupt_deltas_wrap_the_grid_like_the_reference() {
        for (precision, motion) in [(Precision::F64, 3), (Precision::F32, 4)] {
            let tr = oracle_trace(6, &[0, motion, motion], false, 9);
            let qbox = quantization_box(&tr);
            let mut bytes = encode_compact(&tr, precision).unwrap();
            let w = quant_bytes(precision);
            assert_eq!(
                *frame_widths(&tr, precision, &bytes).last().unwrap(),
                w as u8
            );
            // The widest deltas in both directions, over the whole of the
            // last frame: every coordinate leaves the grid and wraps.
            let payload = bytes.len() - 3 * 6 * w;
            for (e, elem) in bytes[payload..].chunks_exact_mut(w).enumerate() {
                elem.fill(0xff);
                elem[0] -= (e & 1) as u8;
            }
            assert_decoders_agree(&bytes, "wrapping deltas");
            let back = decode_trace(&bytes).unwrap();
            for p in &back.samples().last().unwrap().positions {
                assert!(qbox.contains_closed(*p), "{p:?} left {qbox:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn kernels_match_the_reference_on_valid_and_damaged_streams(
            np in 0usize..6,
            motions in proptest::collection::vec(0usize..MOTIONS, 0..6),
            flat in proptest::prelude::any::<bool>(),
            narrow in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let precision = if narrow { Precision::F32 } else { Precision::F64 };
            let tr = oracle_trace(np, &motions, flat, seed);
            let bytes = encode_compact(&tr, precision).unwrap();
            proptest::prop_assert_eq!(&bytes, &encode_reference(&tr, precision));
            assert_decoders_agree(&bytes, "intact");
            for cut in 0..bytes.len() {
                assert_decoders_agree(&bytes[..cut], &format!("cut at {cut}"));
            }
            for bit in 0..8 * bytes.len() as u64 {
                let mut damaged = bytes.clone();
                crate::fault::flip_bit(&mut damaged, bit);
                assert_decoders_agree(&damaged, &format!("bit {bit} flipped"));
            }
        }
    }
}
