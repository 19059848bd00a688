//! Binary trace codec and streaming IO.
//!
//! Layout (all little-endian):
//!
//! ```text
//! header:  magic "PICTRC01" | precision u8 | pad [u8;3] | sample_interval u32
//!          | particle_count u64 | domain min/max 6×f64
//!          | desc_len u32 | desc utf-8 bytes
//! frame:   iteration u64 | particle_count × (x y z)   (f64 or f32 each)
//! ```
//!
//! Frames repeat until end-of-stream. A trace with millions of particles and
//! thousands of samples easily reaches hundreds of gigabytes at `f64`
//! precision (the paper's key practical limitation), so the codec supports
//! `f32` storage which halves the file at ~1e-7 relative position error —
//! far below an element edge length, hence workload-neutral.
//!
//! [`TraceReader`] also reads the [`compact`](crate::compact) format: the
//! header is shared and the magic selects the frame layout.

use crate::compact::{DeltaDecoder, DeltaEncoder, COMPACT_MAGIC, FRAME_HEAD_LEN, QBOX_LEN};
use crate::trace::{check_order, check_sample, ParticleTrace, TraceMeta, TraceSample};
use pic_types::{Aabb, PicError, Result, TraceError, TraceErrorKind, Vec3};
use std::io::{Read, Write};
use std::path::Path;

/// File magic for trace format version 1.
pub const MAGIC: &[u8; 8] = b"PICTRC01";

/// Hard cap on the header's description length. A corrupt `desc_len` must
/// never drive an allocation larger than this.
pub const MAX_DESC_LEN: usize = 1 << 20; // 1 MiB

/// Hard cap on the header's particle count. Far above any real trace
/// (the paper's full-scale run is ~6e5 particles) while keeping the frame
/// byte length comfortably inside `u64` arithmetic.
pub const MAX_PARTICLE_COUNT: u64 = 1 << 44;

/// Frame bodies are read in chunks of at most this many bytes; decoder
/// memory beyond the decoded positions themselves is bounded by this
/// constant no matter what the header claims.
pub const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Floating-point width used for stored positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 8-byte positions (lossless).
    F64,
    /// 4-byte positions (half the file size, ~1e-7 relative error).
    F32,
}

impl Precision {
    fn tag(self) -> u8 {
        match self {
            Precision::F64 => 0,
            Precision::F32 => 1,
        }
    }

    fn from_tag(t: u8) -> Option<Precision> {
        match t {
            0 => Some(Precision::F64),
            1 => Some(Precision::F32),
            _ => None,
        }
    }

    /// Bytes per scalar coordinate.
    pub fn scalar_bytes(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
        }
    }
}

/// The header of either format: identical layout, the magic alone
/// distinguishes the two.
pub(crate) fn encode_header_with_magic(
    meta: &TraceMeta,
    precision: Precision,
    magic: &[u8; 8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FIXED_HEADER_LEN + meta.description.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&[precision.tag(), 0, 0, 0]);
    buf.extend_from_slice(&meta.sample_interval.to_le_bytes());
    buf.extend_from_slice(&(meta.particle_count as u64).to_le_bytes());
    for v in [meta.domain.min, meta.domain.max] {
        put_f64s(&mut buf, [v.x, v.y, v.z]);
    }
    buf.extend_from_slice(&(meta.description.len() as u32).to_le_bytes());
    buf.extend_from_slice(meta.description.as_bytes());
    buf
}

/// Append `vals` to `buf` as little-endian `f64`s.
pub(crate) fn put_f64s(buf: &mut Vec<u8>, vals: impl IntoIterator<Item = f64>) {
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// The little-endian word at `bytes[at..at + N]`.
pub(crate) fn le<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N]
        .try_into()
        .expect("in-bounds header field")
}

/// Fill as much of `buf` as the stream provides: retries
/// `ErrorKind::Interrupted`, tolerates short reads, and returns the number
/// of bytes actually read (`< buf.len()` only at end-of-stream). Unlike
/// `read_exact`, a partial fill is distinguishable from a zero-byte EOF.
pub(crate) fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Validate the header's domain corners: no NaNs, and per-axis ordered
/// finite `min <= max` — except the canonical empty box (`Aabb::empty`,
/// all-`+inf` min / all-`-inf` max), which legitimately round-trips.
/// Corrupt corners would otherwise trip `debug_assert`s (or silently
/// poison geometry) far downstream of the decode.
fn validate_domain(corners: &[f64; 6]) -> Result<Aabb> {
    let empty = Aabb::empty();
    let canonical_empty = corners[..3].iter().all(|&c| c == empty.min.x)
        && corners[3..].iter().all(|&c| c == empty.max.x);
    if canonical_empty {
        return Ok(empty);
    }
    check_corners("domain", corners, 24)
}

/// The box of `corners` (min x y z, max x y z) when every corner is finite
/// with `min <= max` per axis (a degenerate axis is legal); otherwise a
/// `BadHeader` naming `what`, at the failing axis's offset from `base`.
pub(crate) fn check_corners(what: &str, corners: &[f64; 6], base: u64) -> Result<Aabb> {
    for (axis, (&lo, &hi)) in corners[..3].iter().zip(&corners[3..]).enumerate() {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(header_err(
                TraceErrorKind::BadHeader,
                format!("{what} corners on axis {axis} are not finite and ordered: [{lo}, {hi}]"),
                base + (8 * axis) as u64,
            ));
        }
    }
    Ok(Aabb {
        min: Vec3::new(corners[0], corners[1], corners[2]),
        max: Vec3::new(corners[3], corners[4], corners[5]),
    })
}

/// Streaming writer of either on-disk format: emits the header on
/// construction — raw from [`TraceWriter::new`], compact ([`crate::compact`])
/// from [`TraceWriter::compact`] — then one frame per
/// [`TraceWriter::write_sample`] call. It admits exactly the samples a
/// [`TraceReader`] admits, so every file it writes loads again.
pub struct TraceWriter<W: Write> {
    sink: W,
    precision: Precision,
    encoder: Encoder,
    particle_count: usize,
    /// Iteration of the last frame written, for the increasing-iteration check.
    last_iteration: Option<u64>,
    bytes_written: u64,
    scratch: Vec<u8>,
}

/// The frame layout a writer emits, as [`Layout`] is the one a reader decodes.
enum Encoder {
    /// `PICTRC01`: an iteration word, then `f64` or `f32` positions.
    Raw,
    /// `PICTRC02`: a 12-byte head, then absolute or delta grid coordinates.
    Compact(DeltaEncoder),
}

impl<W: Write> TraceWriter<W> {
    /// Write the raw format's header for `meta` and return the writer.
    pub fn new(sink: W, meta: &TraceMeta, precision: Precision) -> Result<TraceWriter<W>> {
        TraceWriter::start(sink, meta, precision, None)
    }

    /// Write the compact format's header and quantization box and return
    /// the writer. `qbox` must be finite with `min <= max` per axis and
    /// should bound every position that will be written (out-of-box
    /// positions clamp to the box edge).
    pub fn compact(
        sink: W,
        meta: &TraceMeta,
        precision: Precision,
        qbox: Aabb,
    ) -> Result<TraceWriter<W>> {
        TraceWriter::start(sink, meta, precision, Some(qbox))
    }

    /// Write the header of the raw format, or with a quantization box of
    /// the compact one, and return the writer.
    fn start(
        mut sink: W,
        meta: &TraceMeta,
        precision: Precision,
        qbox: Option<Aabb>,
    ) -> Result<Self> {
        let magic = if qbox.is_some() { COMPACT_MAGIC } else { MAGIC };
        let mut header = encode_header_with_magic(meta, precision, magic);
        let encoder = match qbox {
            Some(qbox) => Encoder::Compact(DeltaEncoder::new(&qbox, precision, &mut header)?),
            None => Encoder::Raw,
        };
        sink.write_all(&header)?;
        Ok(TraceWriter {
            sink,
            precision,
            encoder,
            particle_count: meta.particle_count,
            last_iteration: None,
            bytes_written: header.len() as u64,
            scratch: Vec::new(),
        })
    }

    /// Append one sample frame (compact: absolute for the first sample,
    /// the narrowest delta width that fits afterwards). A sample the
    /// trace invariants refuse — wrong position count, an iteration not
    /// after the previous one, a non-finite coordinate — is an error and
    /// writes nothing.
    pub fn write_sample(&mut self, sample: &TraceSample) -> Result<()> {
        check_sample(sample, self.particle_count, self.last_iteration)?;
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&sample.iteration.to_le_bytes());
        match &mut self.encoder {
            Encoder::Raw => encode_raw(sample, self.precision, &mut self.scratch)?,
            Encoder::Compact(delta) => delta.encode_frame(&sample.positions, &mut self.scratch),
        }
        self.sink.write_all(&self.scratch)?;
        self.last_iteration = Some(sample.iteration);
        self.bytes_written += self.scratch.len() as u64;
        Ok(())
    }

    /// Bytes emitted so far, header (and quantization box) included.
    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flush and return the underlying sink.
    pub fn finish(mut self) -> Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Append one raw frame's positions to `out`. At `F32` a coordinate past
/// `f32`'s range is refused: it would be stored as an infinity, which no
/// reader admits.
fn encode_raw(sample: &TraceSample, precision: Precision, out: &mut Vec<u8>) -> Result<()> {
    let positions = &sample.positions;
    out.reserve(3 * precision.scalar_bytes() * positions.len());
    match precision {
        Precision::F64 => put_f64s(out, positions.iter().flat_map(|p| [p.x, p.y, p.z])),
        Precision::F32 => {
            for (i, p) in positions.iter().enumerate() {
                for v in [p.x as f32, p.y as f32, p.z as f32] {
                    if v.is_infinite() {
                        return Err(PicError::trace(format!(
                            "particle {i} at iteration {} is outside f32 range",
                            sample.iteration
                        )));
                    }
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    Ok(())
}

/// Write every sample of `trace` through `w`, flush it, and return the
/// sink and the bytes written.
pub(crate) fn write_trace<W: Write>(
    mut w: TraceWriter<W>,
    trace: &ParticleTrace,
) -> Result<(W, u64)> {
    for s in trace.samples() {
        w.write_sample(&s)?;
    }
    let bytes = w.bytes_written();
    Ok((w.finish()?, bytes))
}

/// Streaming reader of either on-disk format: parses and validates the
/// header on construction, sniffing the magic — raw `PICTRC01` or compact
/// `PICTRC02` ([`crate::compact`]) — then yields one frame per
/// [`TraceReader::read_sample`] call.
///
/// Robustness contract (the ingestion layer's load-bearing guarantees):
///
/// * every header field is bounds-checked before it drives an allocation —
///   a corrupt `desc_len` or `particle_count` can cost at most
///   [`MAX_DESC_LEN`] / [`READ_CHUNK_BYTES`] bytes of scratch, never a
///   multi-GiB reserve or a capacity-overflow abort;
/// * frame bodies are read in [`READ_CHUNK_BYTES`] chunks, so decoded
///   memory grows only with bytes actually present in the stream;
/// * every error is a positioned [`TraceError`] carrying the byte offset
///   (and frame index once past the header);
/// * `ErrorKind::Interrupted` and short reads are retried transparently.
pub struct TraceReader<R: Read> {
    source: R,
    meta: TraceMeta,
    precision: Precision,
    layout: Layout,
    frames_read: usize,
    /// Iteration of the last frame read, for the increasing-iteration check.
    last_iteration: Option<u64>,
    /// Bytes consumed from the stream so far (header included).
    offset: u64,
    /// Reusable chunk buffer for frame bodies (capacity ≤ READ_CHUNK_BYTES).
    chunk: Vec<u8>,
}

/// The frame layout the header's magic selected.
enum Layout {
    /// `PICTRC01`: an iteration word, then `f64` or `f32` positions.
    Raw,
    /// `PICTRC02`: a 12-byte head, then absolute or delta grid coordinates.
    Compact(DeltaDecoder),
}

impl<R: Read> std::fmt::Debug for TraceReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("meta", &self.meta)
            .field("precision", &self.precision)
            .field("compact", &matches!(self.layout, Layout::Compact(_)))
            .field("frames_read", &self.frames_read)
            .field("offset", &self.offset)
            .finish_non_exhaustive()
    }
}

/// Fixed-size part of the header, before the description bytes.
pub(crate) const FIXED_HEADER_LEN: usize = 8 + 4 + 4 + 8 + 48 + 4;

pub(crate) fn header_err(kind: TraceErrorKind, msg: String, offset: u64) -> PicError {
    TraceError::new(kind, msg).at_offset(offset).into()
}

/// A parsed and validated codec header (the two formats share it).
pub(crate) struct ParsedHeader {
    pub(crate) meta: TraceMeta,
    pub(crate) precision: Precision,
    /// The magic was the compact format's.
    pub(crate) compact: bool,
    /// Bytes consumed from the stream (fixed header + description).
    pub(crate) offset: u64,
}

/// Parse and validate a codec header of either format, consuming exactly
/// the header bytes from `source`.
pub(crate) fn parse_header<R: Read>(source: &mut R) -> Result<ParsedHeader> {
    let mut head = [0u8; FIXED_HEADER_LEN];
    let read_failed = |e| {
        TraceError::new(TraceErrorKind::Io, "header read failed")
            .at_offset(0)
            .with_source(e)
    };
    // The magic is judged as soon as its eight bytes are in: a short
    // stream of some other format is a bad magic, not a truncated header.
    let mut got = read_fully(source, &mut head[..8]).map_err(read_failed)?;
    let compact = &head[..8] == COMPACT_MAGIC;
    if got == 8 {
        if !compact && &head[..8] != MAGIC {
            return Err(header_err(
                TraceErrorKind::BadMagic,
                format!(
                    "unrecognized trace magic: expected {:?} (raw) or {:?} (compact)",
                    std::str::from_utf8(MAGIC).expect("ascii magic"),
                    std::str::from_utf8(COMPACT_MAGIC).expect("ascii magic"),
                ),
                0,
            ));
        }
        got += read_fully(source, &mut head[8..]).map_err(read_failed)?;
    }
    if got < FIXED_HEADER_LEN {
        return Err(header_err(
            TraceErrorKind::TruncatedHeader,
            format!("stream ends {got} bytes into the {FIXED_HEADER_LEN}-byte fixed header"),
            got as u64,
        ));
    }
    let tag = head[8];
    let precision = Precision::from_tag(tag).ok_or_else(|| {
        let message = format!("unknown precision tag {tag}");
        header_err(TraceErrorKind::BadHeader, message, 8)
    })?;
    let sample_interval = u32::from_le_bytes(le(&head, 12));
    let particle_count_raw = u64::from_le_bytes(le(&head, 16));
    if particle_count_raw > MAX_PARTICLE_COUNT {
        return Err(header_err(
            TraceErrorKind::BadHeader,
            format!("particle count {particle_count_raw} exceeds the {MAX_PARTICLE_COUNT} cap"),
            16,
        ));
    }
    let particle_count = particle_count_raw as usize;
    let corners = std::array::from_fn(|i| f64::from_le_bytes(le(&head, 24 + 8 * i)));
    let domain = validate_domain(&corners)?;
    let desc_len = u32::from_le_bytes(le(&head, FIXED_HEADER_LEN - 4)) as usize;
    if desc_len > MAX_DESC_LEN {
        return Err(header_err(
            TraceErrorKind::BadHeader,
            format!("description length {desc_len} exceeds the {MAX_DESC_LEN}-byte cap"),
            (FIXED_HEADER_LEN - 4) as u64,
        ));
    }
    let mut desc_bytes = vec![0u8; desc_len];
    let got = read_fully(source, &mut desc_bytes).map_err(|e| {
        TraceError::new(TraceErrorKind::Io, "description read failed")
            .at_offset(FIXED_HEADER_LEN as u64)
            .with_source(e)
    })?;
    if got < desc_len {
        return Err(header_err(
            TraceErrorKind::TruncatedHeader,
            format!("stream ends {got} bytes into the {desc_len}-byte description"),
            (FIXED_HEADER_LEN + got) as u64,
        ));
    }
    let description = String::from_utf8(desc_bytes).map_err(|_| {
        header_err(
            TraceErrorKind::BadHeader,
            "description is not valid UTF-8".to_string(),
            FIXED_HEADER_LEN as u64,
        )
    })?;
    let offset = (FIXED_HEADER_LEN + desc_len) as u64;
    let meta = TraceMeta {
        particle_count,
        sample_interval,
        domain,
        description,
    };
    Ok(ParsedHeader {
        meta,
        precision,
        compact,
        offset,
    })
}

/// Append the positions of one chunk of whole raw particles to `out`.
fn decode_raw(chunk: &[u8], precision: Precision, out: &mut Vec<Vec3>) {
    match precision {
        Precision::F64 => out.extend(chunk.chunks_exact(24).map(|p| {
            let f = |at| f64::from_le_bytes(le(p, at));
            Vec3::new(f(0), f(8), f(16))
        })),
        Precision::F32 => out.extend(chunk.chunks_exact(12).map(|p| {
            let f = |at| f32::from_le_bytes(le(p, at)) as f64;
            Vec3::new(f(0), f(4), f(8))
        })),
    }
}

impl<R: Read> TraceReader<R> {
    /// Parse and validate the header (and, for a compact stream, its
    /// quantization box) and return the reader.
    pub fn new(mut source: R) -> Result<TraceReader<R>> {
        let h = parse_header(&mut source)?;
        let (layout, offset) = if h.compact {
            let delta = DeltaDecoder::read_qbox(&mut source, h.offset, h.precision)?;
            (Layout::Compact(delta), h.offset + QBOX_LEN as u64)
        } else {
            (Layout::Raw, h.offset)
        };
        Ok(TraceReader {
            source,
            meta: h.meta,
            precision: h.precision,
            layout,
            frames_read: 0,
            last_iteration: None,
            offset,
            chunk: Vec::new(),
        })
    }

    /// Trace metadata from the header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Storage precision of the file (for a compact file, the grid width).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes consumed from the stream so far, header included.
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }

    /// Read the next frame; `Ok(None)` only at a *clean* end-of-stream
    /// (exactly zero bytes past the previous frame). A stream that ends
    /// anywhere inside a frame — including inside its head — is a
    /// positioned [`TraceError`] of kind [`TraceErrorKind::TruncatedFrame`];
    /// a real I/O failure surfaces as [`TraceErrorKind::Io`] with the
    /// source error preserved. A frame that breaks a trace invariant
    /// (non-finite position, iteration not after the previous frame's) is
    /// a [`TraceErrorKind::Malformed`] error positioned at its end,
    /// exactly as [`read_all`](Self::read_all) reports it.
    pub fn read_sample(&mut self) -> Result<Option<TraceSample>> {
        let mut positions = Vec::new();
        let Some(iteration) = self.read_frame(&mut positions, None)? else {
            return Ok(None);
        };
        if let Layout::Compact(delta) = &self.layout {
            positions = delta.positions(3 * self.meta.particle_count);
        }
        let sample = TraceSample {
            iteration,
            positions,
        };
        self.admit(&sample)?;
        Ok(Some(sample))
    }

    /// Run the trace invariants on the frame just read, positioning a
    /// violation at its end.
    fn admit(&mut self, sample: &TraceSample) -> Result<()> {
        let n = self.meta.particle_count;
        check_sample(sample, n, self.last_iteration).map_err(|e| self.positioned(e))?;
        self.last_iteration = Some(sample.iteration);
        Ok(())
    }

    /// Read the next frame and return its iteration; `Ok(None)` at a clean
    /// end-of-stream. A raw frame's positions are appended to `positions`;
    /// a compact frame's grid coordinates are left in the delta decoder,
    /// and its payload bytes appended to `payload` when one is given.
    fn read_frame(
        &mut self,
        positions: &mut Vec<Vec3>,
        mut payload: Option<&mut Vec<u8>>,
    ) -> Result<Option<u64>> {
        let frame = self.frames_read as u64;
        let compact = matches!(self.layout, Layout::Compact(_));
        // The head: the iteration word, then (compact) width and padding.
        let head_len = if compact { FRAME_HEAD_LEN } else { 8 };
        let mut head = [0u8; FRAME_HEAD_LEN];
        let got = read_fully(&mut self.source, &mut head[..head_len]).map_err(|e| {
            let what = if compact { "head" } else { "header" };
            TraceError::new(TraceErrorKind::Io, format!("frame {what} read failed"))
                .at_offset(self.offset)
                .at_frame(frame)
                .with_source(e)
        })?;
        if got == 0 {
            return Ok(None); // clean end-of-stream
        }
        if got < head_len {
            let message = if compact {
                format!("stream ends {got} bytes into the {head_len}-byte frame head")
            } else {
                format!("stream ends {got} bytes into the frame's iteration word")
            };
            return Err(TraceError::new(TraceErrorKind::TruncatedFrame, message)
                .at_offset(self.offset + got as u64)
                .at_frame(frame)
                .into());
        }
        let iteration = u64::from_le_bytes(head[..8].try_into().expect("8-byte word"));
        let n = self.meta.particle_count;
        // The payload: `units` elements of `unit` bytes each.
        let (unit, units) = match &mut self.layout {
            Layout::Raw => (3 * self.precision.scalar_bytes(), n),
            Layout::Compact(delta) => (delta.begin_frame(&head, frame, self.offset)?, 3 * n),
        };
        self.offset += head_len as u64;
        // Whole elements per chunk: none straddles a chunk edge.
        let per_chunk = (READ_CHUNK_BYTES / unit).max(1);
        let mut decoded = 0usize;
        while decoded < units {
            let take = per_chunk.min(units - decoded);
            let want = take * unit;
            self.chunk.resize(want, 0);
            let got = read_fully(&mut self.source, &mut self.chunk[..want]).map_err(|e| {
                let what = if compact { "payload" } else { "body" };
                TraceError::new(
                    TraceErrorKind::Io,
                    format!("frame {what} read failed at iteration {iteration}"),
                )
                .at_offset(self.offset)
                .at_frame(frame)
                .with_source(e)
            })?;
            if got < want {
                let missing = (units - decoded) * unit - got;
                return Err(TraceError::new(
                    TraceErrorKind::TruncatedFrame,
                    format!(
                        "truncated frame at iteration {iteration}: stream ends {missing} byte(s) short"
                    ),
                )
                .at_offset(self.offset + got as u64)
                .at_frame(frame)
                .into());
            }
            self.offset += got as u64;
            let chunk = &self.chunk[..want];
            match &mut self.layout {
                Layout::Raw => decode_raw(chunk, self.precision, positions),
                Layout::Compact(delta) => {
                    delta.fold_chunk(chunk, decoded, take);
                    if let Some(payload) = payload.as_deref_mut() {
                        payload.extend_from_slice(chunk);
                    }
                }
            }
            decoded += take;
        }
        self.frames_read += 1;
        Ok(Some(iteration))
    }

    /// Number of frames read so far.
    pub fn frames_read(&self) -> usize {
        self.frames_read
    }

    /// Read every remaining frame into a [`ParticleTrace`]. Trace-model
    /// invariant violations (non-monotone iterations, non-finite decoded
    /// positions) are positioned at the offending frame.
    ///
    /// A compact stream's trace keeps each frame as the file encodes it
    /// ([`ParticleTrace`] decodes on read), but every frame is still folded
    /// here, so a stream fails at load with the same positioned error as
    /// frame by frame. No frame is dequantized unless the grid's box is so
    /// large that a position could overflow, and then one frame at a time
    /// for the finiteness check.
    pub fn read_all(mut self) -> Result<ParticleTrace> {
        let Layout::Compact(delta) = &self.layout else {
            let mut trace = ParticleTrace::new(self.meta.clone());
            while let Some(s) = self.read_sample()? {
                trace.push_checked(s);
            }
            return Ok(trace);
        };
        let quant = delta.quantizer().clone();
        let mut trace = ParticleTrace::encoded(self.meta.clone(), quant.clone());
        loop {
            let mut payload = Vec::new();
            let Some(iteration) = self.read_frame(&mut Vec::new(), Some(&mut payload))? else {
                break;
            };
            if quant.finite_everywhere() {
                check_order(iteration, self.last_iteration).map_err(|e| self.positioned(e))?;
                self.last_iteration = Some(iteration);
            } else {
                let positions = quant.dequant_frame(self.compact_frame().1);
                self.admit(&TraceSample {
                    iteration,
                    positions,
                })?;
            }
            let (width, coords) = self.compact_frame();
            trace.push_frame(iteration, width, payload.into(), coords);
        }
        Ok(trace)
    }

    /// The width byte and grid coordinates of the compact frame just read
    /// (nothing for a raw stream).
    fn compact_frame(&self) -> (u8, &[u32]) {
        match &self.layout {
            Layout::Compact(delta) => (delta.width(), delta.coords(3 * self.meta.particle_count)),
            Layout::Raw => (0, &[]),
        }
    }

    /// Stamp an unpositioned trace error with the current stream position
    /// (the end of the most recently decoded frame).
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

/// Encode a whole trace into a byte vector.
///
/// ```
/// use pic_trace::{ParticleTrace, TraceMeta};
/// use pic_trace::codec::{encode_trace, decode_trace, Precision};
/// use pic_types::{Aabb, Vec3};
///
/// let mut trace = ParticleTrace::new(TraceMeta::new(1, 10, Aabb::unit(), "demo"));
/// trace.push_positions(vec![Vec3::splat(0.5)])?;
/// let bytes = encode_trace(&trace, Precision::F64)?;
/// assert_eq!(decode_trace(&bytes)?, trace); // lossless at f64
/// # Ok::<(), pic_types::PicError>(())
/// ```
pub fn encode_trace(trace: &ParticleTrace, precision: Precision) -> Result<Vec<u8>> {
    let w = TraceWriter::new(Vec::new(), trace.meta(), precision)?;
    Ok(write_trace(w, trace)?.0)
}

/// Decode a trace in either format from bytes.
pub fn decode_trace(bytes: &[u8]) -> Result<ParticleTrace> {
    TraceReader::new(bytes)?.read_all()
}

/// Write a trace to a file.
pub fn save_file(
    trace: &ParticleTrace,
    path: impl AsRef<Path>,
    precision: Precision,
) -> Result<()> {
    let f = std::fs::File::create(path)?;
    let w = TraceWriter::new(std::io::BufWriter::new(f), trace.meta(), precision)?;
    write_trace(w, trace)?;
    Ok(())
}

/// Read a trace file in either format.
pub fn load_file(path: impl AsRef<Path>) -> Result<ParticleTrace> {
    let f = std::fs::File::open(path)?;
    TraceReader::new(std::io::BufReader::new(f))?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(np: usize, t: usize) -> ParticleTrace {
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "codec-test");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let positions = (0..np)
                .map(|i| Vec3::new(i as f64 * 0.01, k as f64 * 0.02, 0.5))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    #[test]
    fn f64_roundtrip_is_lossless() {
        let tr = sample_trace(17, 5);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    fn f32_roundtrip_is_close() {
        let tr = sample_trace(8, 3);
        let bytes = encode_trace(&tr, Precision::F32).unwrap();
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.sample_count(), tr.sample_count());
        for t in 0..tr.sample_count() {
            for (a, b) in tr.positions_at(t).iter().zip(back.positions_at(t).iter()) {
                assert!(a.distance(*b) < 1e-6);
            }
        }
        // and smaller on disk
        let f64_bytes = encode_trace(&tr, Precision::F64).unwrap();
        assert!(bytes.len() < f64_bytes.len());
    }

    #[test]
    fn header_metadata_roundtrips() {
        let tr = sample_trace(4, 1);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let r = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(r.meta(), tr.meta());
        assert_eq!(r.precision(), Precision::F64);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let tr = sample_trace(2, 1);
        let mut bytes = encode_trace(&tr, Precision::F64).unwrap();
        bytes[0] = b'X';
        assert!(decode_trace(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let tr = sample_trace(5, 2);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        // cut into the middle of the second frame
        let cut = bytes.len() - 10;
        let err = decode_trace(&bytes[..cut]);
        assert!(err.is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let tr = sample_trace(3, 0);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.sample_count(), 0);
        assert_eq!(back.meta(), tr.meta());
    }

    #[test]
    fn streaming_reader_yields_frames_in_order() {
        let tr = sample_trace(3, 4);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut n = 0;
        while let Some(s) = r.read_sample().unwrap() {
            assert_eq!(s, *tr.sample(n));
            n += 1;
            assert_eq!(r.frames_read(), n);
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn writer_rejects_wrong_particle_count() {
        let tr = sample_trace(3, 1);
        let mut w = TraceWriter::new(Vec::new(), tr.meta(), Precision::F64).unwrap();
        let header = w.bytes_written();
        let bad = TraceSample {
            iteration: 0,
            positions: vec![Vec3::ZERO; 2],
        };
        assert!(w.write_sample(&bad).is_err());
        assert_eq!(w.bytes_written(), header);
    }

    #[test]
    fn writer_refuses_what_the_reader_refuses() {
        let tr = sample_trace(3, 1);
        let first = tr.samples().next().unwrap().into_owned();
        let with = |iteration, coord: f64| {
            let mut s = TraceSample {
                iteration,
                ..first.clone()
            };
            s.positions[1].y = coord;
            s
        };
        let refused = [
            with(100, f64::NAN),
            with(100, f64::INFINITY),
            with(0, 0.5),
            TraceSample {
                iteration: 100,
                positions: vec![Vec3::ZERO; 2],
            },
        ];
        for precision in [Precision::F64, Precision::F32] {
            for compact in [false, true] {
                let mut w = if compact {
                    TraceWriter::compact(Vec::new(), tr.meta(), precision, Aabb::unit())
                } else {
                    TraceWriter::new(Vec::new(), tr.meta(), precision)
                }
                .unwrap();
                w.write_sample(&first).unwrap();
                let written = w.bytes_written();
                for bad in &refused {
                    let err = w.write_sample(bad).unwrap_err();
                    assert!(err.trace_details().is_some(), "{err}");
                    assert_eq!(w.bytes_written(), written);
                }
                // A refusal leaves the stream as it was: the next good
                // sample follows the first and the file loads.
                // Past f32's range a raw f32 coordinate would store as an
                // infinity; a compact one clamps to the box like any other.
                let huge = w.write_sample(&with(50, 1e39));
                let f32_raw = !compact && precision == Precision::F32;
                assert_eq!(huge.is_err(), f32_raw, "compact {compact} {precision:?}");
                w.write_sample(&with(100, 0.25)).unwrap();
                let back = decode_trace(&w.finish().unwrap()).unwrap();
                let kept = if f32_raw {
                    vec![0, 100]
                } else {
                    vec![0, 50, 100]
                };
                assert_eq!(back.iterations(), kept, "compact {compact} {precision:?}");
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let tr = sample_trace(6, 3);
        let dir = std::env::temp_dir().join("pic_trace_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pictrace");
        save_file(&tr, &path, Precision::F64).unwrap();
        let back = load_file(&path).unwrap();
        assert_eq!(back, tr);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_particle_trace_roundtrips() {
        let tr = sample_trace(0, 4);
        for precision in [Precision::F64, Precision::F32] {
            let bytes = encode_trace(&tr, precision).unwrap();
            let back = decode_trace(&bytes).unwrap();
            assert_eq!(back.sample_count(), 4);
            assert_eq!(back.particle_count(), 0);
            assert_eq!(back.iterations(), tr.iterations());
        }
    }

    #[test]
    fn empty_description_roundtrips() {
        let meta = TraceMeta::new(2, 10, Aabb::unit(), "");
        let mut tr = ParticleTrace::new(meta);
        tr.push_positions(vec![Vec3::splat(0.25); 2]).unwrap();
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.meta().description, "");
        assert_eq!(back, tr);
    }

    #[test]
    fn multi_chunk_frames_roundtrip_both_precisions() {
        // More particles than fit one READ_CHUNK_BYTES chunk, so the
        // chunked body reader crosses chunk boundaries mid-frame.
        let np = READ_CHUNK_BYTES / (3 * 4) + 211;
        let tr = sample_trace(np, 2);
        let f64_bytes = encode_trace(&tr, Precision::F64).unwrap();
        assert_eq!(decode_trace(&f64_bytes).unwrap(), tr);
        let f32_bytes = encode_trace(&tr, Precision::F32).unwrap();
        let back = decode_trace(&f32_bytes).unwrap();
        assert_eq!(back.sample_count(), 2);
        for t in 0..2 {
            for (a, b) in tr.positions_at(t).iter().zip(back.positions_at(t).iter()) {
                assert!(a.distance(*b) < 1e-3);
            }
        }
    }

    #[test]
    fn partial_iteration_word_is_truncated_frame_not_clean_eof() {
        // The doc-comment promise: a stream ending 1–7 bytes into the
        // iteration word must NOT be reported as Ok(None).
        let tr = sample_trace(3, 2);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let frame_len = 8 + 3 * 3 * 8;
        let header_len = bytes.len() - 2 * frame_len;
        for extra in 1..8usize {
            let cut = header_len + frame_len + extra;
            let mut r = TraceReader::new(&bytes[..cut]).unwrap();
            r.read_sample().unwrap().unwrap(); // frame 0 intact
            let err = r.read_sample().unwrap_err();
            let d = err.trace_details().expect("structured trace error");
            assert_eq!(
                d.kind,
                pic_types::TraceErrorKind::TruncatedFrame,
                "extra={extra}"
            );
            assert_eq!(d.offset, Some(cut as u64));
            assert_eq!(d.frame, Some(1));
        }
    }

    #[test]
    fn body_io_error_preserves_source_kind() {
        use crate::fault::FailAt;
        let tr = sample_trace(8, 2);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        // hard-fail mid-body of frame 0, well past the header
        let frame_len = 8 + 8 * 3 * 8;
        let fail_at = (bytes.len() - 2 * frame_len + frame_len / 2) as u64;
        let mut r = TraceReader::new(FailAt::new(
            &bytes[..],
            fail_at,
            std::io::ErrorKind::PermissionDenied,
        ))
        .unwrap();
        let err = r.read_sample().unwrap_err();
        let d = err.trace_details().expect("structured trace error");
        assert_eq!(d.kind, pic_types::TraceErrorKind::Io);
        let src = d.source.as_ref().expect("source IO error preserved");
        assert_eq!(src.kind(), std::io::ErrorKind::PermissionDenied);
        assert!(src.to_string().contains("injected fault"));
    }

    #[test]
    fn absurd_particle_count_is_rejected_without_allocating() {
        // A header claiming ~1.8e19 particles previously drove
        // Vec::with_capacity into a capacity-overflow abort (or an OOM).
        let tr = sample_trace(2, 1);
        let mut bytes = encode_trace(&tr, Precision::F64).unwrap();
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_trace(&bytes).unwrap_err();
        let d = err.trace_details().unwrap();
        assert_eq!(d.kind, pic_types::TraceErrorKind::BadHeader);
        assert_eq!(d.offset, Some(16));
    }

    #[test]
    fn large_claimed_count_with_tiny_body_errors_fast() {
        // In-cap but far beyond the actual body: must error as truncation
        // after reading what exists, never pre-reserve the claimed size.
        let tr = sample_trace(2, 1);
        let mut bytes = encode_trace(&tr, Precision::F64).unwrap();
        bytes[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = decode_trace(&bytes).unwrap_err();
        let d = err.trace_details().unwrap();
        assert_eq!(d.kind, pic_types::TraceErrorKind::TruncatedFrame);
        assert_eq!(d.frame, Some(0));
        assert!(d.offset.is_some());
    }

    #[test]
    fn oversized_desc_len_is_rejected() {
        let tr = sample_trace(2, 1);
        let mut bytes = encode_trace(&tr, Precision::F64).unwrap();
        bytes[72..76].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_trace(&bytes).unwrap_err();
        assert_eq!(
            err.trace_details().unwrap().kind,
            pic_types::TraceErrorKind::BadHeader
        );
    }

    #[test]
    fn non_finite_or_unordered_domain_is_rejected() {
        let tr = sample_trace(2, 1);
        let good = encode_trace(&tr, Precision::F64).unwrap();
        // NaN min.x
        let mut bytes = good.clone();
        bytes[24..32].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            decode_trace(&bytes)
                .unwrap_err()
                .trace_details()
                .unwrap()
                .kind,
            pic_types::TraceErrorKind::BadHeader
        );
        // min.y > max.y
        let mut bytes = good.clone();
        bytes[32..40].copy_from_slice(&5.0f64.to_le_bytes());
        let err = decode_trace(&bytes).unwrap_err();
        let d = err.trace_details().unwrap();
        assert_eq!(d.kind, pic_types::TraceErrorKind::BadHeader);
        assert_eq!(d.offset, Some(32));
        // the canonical empty box stays decodable
        let meta = TraceMeta::new(0, 10, Aabb::empty(), "empty-domain");
        let tr = ParticleTrace::new(meta);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        assert!(decode_trace(&bytes).unwrap().meta().domain.is_empty());
    }

    #[test]
    fn truncated_header_errors_carry_offset() {
        let tr = sample_trace(2, 1);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        for cut in [0usize, 1, 7, 8, 40, 75] {
            let err = TraceReader::new(&bytes[..cut]).unwrap_err();
            let d = err.trace_details().expect("structured error");
            assert_eq!(
                d.kind,
                pic_types::TraceErrorKind::TruncatedHeader,
                "cut={cut}"
            );
            assert_eq!(d.offset, Some(cut as u64));
        }
        // mid-description cut
        let cut = 76 + 3; // description is "codec-test" (10 bytes)
        let err = TraceReader::new(&bytes[..cut]).unwrap_err();
        let d = err.trace_details().unwrap();
        assert_eq!(d.kind, pic_types::TraceErrorKind::TruncatedHeader);
        assert_eq!(d.offset, Some(cut as u64));
    }

    #[test]
    fn bytes_read_tracks_stream_position() {
        let tr = sample_trace(3, 2);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let header = 76 + "codec-test".len() as u64;
        assert_eq!(r.bytes_read(), header);
        let frame_len = 8 + 3 * 3 * 8;
        r.read_sample().unwrap().unwrap();
        assert_eq!(r.bytes_read(), header + frame_len);
        r.read_sample().unwrap().unwrap();
        assert!(r.read_sample().unwrap().is_none());
        assert_eq!(r.bytes_read(), bytes.len() as u64);
    }

    #[test]
    fn writer_counts_bytes() {
        let tr = sample_trace(3, 2);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let mut w = TraceWriter::new(Vec::new(), tr.meta(), Precision::F64).unwrap();
        for s in tr.samples() {
            w.write_sample(&s).unwrap();
        }
        assert_eq!(w.bytes_written(), bytes.len() as u64);
    }

    #[test]
    fn unicode_description_roundtrips() {
        let meta = TraceMeta::new(1, 10, Aabb::unit(), "Hele-Shaw ∅→💥");
        let mut tr = ParticleTrace::new(meta);
        tr.push_positions(vec![Vec3::splat(0.5)]).unwrap();
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        assert_eq!(
            decode_trace(&bytes).unwrap().meta().description,
            "Hele-Shaw ∅→💥"
        );
    }
}
