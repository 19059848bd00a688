//! Fault-injection corpus for trace ingestion (the robustness contract):
//!
//! decoding any byte stream — truncations at every structural boundary,
//! random bit flips, arbitrary garbage, `Interrupted` storms, 1-byte
//! short reads — must never panic, never allocate beyond the fixed chunk
//! budget, and on failure must return a *positioned* error naming the
//! byte offset. Run in CI under `--release` too, so `debug_assert!`-off
//! paths are exercised.

use pic_trace::codec::{decode_trace, encode_trace, Precision, MAX_PARTICLE_COUNT};
use pic_trace::fault::{flip_bit, truncation_points, FailAt, InterruptEvery, ShortReads};
use pic_trace::{ParticleTrace, TraceMeta, TraceReader};
use pic_types::{Aabb, PicError, TraceErrorKind, Vec3};
use proptest::prelude::*;
use std::io::Read;

fn small_trace(np: usize, t: usize) -> ParticleTrace {
    let meta = TraceMeta::new(np, 50, Aabb::unit(), "fault");
    let mut tr = ParticleTrace::new(meta);
    for k in 0..t {
        let positions = (0..np)
            .map(|i| Vec3::new((i as f64 * 0.01) % 1.0, (k as f64 * 0.1) % 1.0, 0.5))
            .collect();
        tr.push_positions(positions).unwrap();
    }
    tr
}

/// Every codec error must name a byte offset (the acceptance criterion).
fn assert_positioned(err: &PicError) {
    let d = err
        .trace_details()
        .unwrap_or_else(|| panic!("unstructured codec error: {err}"));
    assert!(d.offset.is_some(), "error without byte offset: {err}");
    assert!(
        err.to_string().contains("at byte"),
        "display misses offset: {err}"
    );
}

#[test]
fn truncation_at_every_boundary_is_clean_eof_or_positioned_error() {
    let tr = small_trace(5, 3);
    let desc_len = tr.meta().description.len();
    for precision in [Precision::F64, Precision::F32] {
        let bytes = encode_trace(&tr, precision).unwrap();
        let frame_len = 8 + 5 * 3 * precision.scalar_bytes();
        let header_len = 76 + desc_len;
        for cut in truncation_points(bytes.len(), desc_len, frame_len) {
            match decode_trace(&bytes[..cut]) {
                Ok(back) => {
                    // only exact frame boundaries decode cleanly
                    assert!(cut >= header_len, "cut {cut} decoded without a header");
                    assert_eq!((cut - header_len) % frame_len, 0, "cut {cut} is mid-frame");
                    assert_eq!(back.sample_count(), (cut - header_len) / frame_len);
                }
                Err(e) => assert_positioned(&e),
            }
        }
    }
}

#[test]
fn exhaustive_byte_truncation_of_a_tiny_trace() {
    // Small enough to cut at EVERY byte, not just structural boundaries.
    let tr = small_trace(2, 2);
    let bytes = encode_trace(&tr, Precision::F32).unwrap();
    for cut in 0..=bytes.len() {
        if let Err(e) = decode_trace(&bytes[..cut]) {
            assert_positioned(&e);
        }
    }
}

#[test]
fn interrupted_and_short_reads_still_roundtrip() {
    let tr = small_trace(7, 4);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    // one-byte reads
    let back = TraceReader::new(ShortReads::new(&bytes[..], 1))
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(back, tr);
    // interrupt storm: every other call fails with Interrupted
    let back = TraceReader::new(InterruptEvery::new(&bytes[..], 2))
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(back, tr);
    // both at once
    let r = InterruptEvery::new(ShortReads::new(&bytes[..], 3), 2);
    assert_eq!(TraceReader::new(r).unwrap().read_all().unwrap(), tr);
}

#[test]
fn hard_io_fault_is_not_mislabeled_as_truncation() {
    let tr = small_trace(6, 3);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    for fail_at in [5u64, 30, 90, 150, 250] {
        let r = FailAt::new(&bytes[..], fail_at, std::io::ErrorKind::BrokenPipe);
        let err = match TraceReader::new(r) {
            Err(e) => e,
            Ok(mut reader) => loop {
                match reader.read_sample() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("fault at {fail_at} swallowed"),
                    Err(e) => break e,
                }
            },
        };
        assert_positioned(&err);
        let d = err.trace_details().unwrap();
        assert_eq!(d.kind, TraceErrorKind::Io, "fail_at={fail_at}: {err}");
        assert_eq!(
            d.source.as_ref().unwrap().kind(),
            std::io::ErrorKind::BrokenPipe
        );
    }
}

#[test]
fn allocation_stays_bounded_for_adversarial_headers() {
    // Headers claiming up to the particle-count cap with (almost) no body:
    // decode must fail fast via bounded chunk reads. If the old
    // Vec::with_capacity(header_n) path were still live, the largest of
    // these would try to reserve ~760 TiB and abort.
    let tr = small_trace(1, 1);
    let good = encode_trace(&tr, Precision::F64).unwrap();
    for claimed in [1u64 << 20, 1 << 32, MAX_PARTICLE_COUNT] {
        let mut bytes = good.clone();
        bytes[16..24].copy_from_slice(&claimed.to_le_bytes());
        let err = decode_trace(&bytes).unwrap_err();
        assert_positioned(&err);
        assert_eq!(
            err.trace_details().unwrap().kind,
            TraceErrorKind::TruncatedFrame
        );
    }
    // over the cap: rejected at the header, before any body read
    let mut bytes = good;
    bytes[16..24].copy_from_slice(&(MAX_PARTICLE_COUNT + 1).to_le_bytes());
    let err = decode_trace(&bytes).unwrap_err();
    assert_eq!(err.trace_details().unwrap().kind, TraceErrorKind::BadHeader);
}

/// The production decode of a whole byte slice, and of a reader.
fn decode_bytes(bytes: &[u8]) -> pic_types::Result<ParticleTrace> {
    decode_trace(bytes)
}

fn decode_reader(r: impl std::io::Read) -> pic_types::Result<ParticleTrace> {
    TraceReader::new(r)?.read_all()
}

/// One line per decode: the sample count and a digest of every iteration
/// and position bit, or the error's kind, offset, frame and message.
fn render(result: pic_types::Result<ParticleTrace>) -> String {
    match result {
        Ok(tr) => {
            let mut bits = pic_types::hash::Fnv128::new();
            for s in tr.samples() {
                bits.update(&s.iteration.to_le_bytes());
                for p in &s.positions {
                    for v in [p.x, p.y, p.z] {
                        bits.update(&v.to_bits().to_le_bytes());
                    }
                }
            }
            format!("Ok({}, {})", tr.sample_count(), bits.hex())
        }
        Err(e) => match e.trace_details() {
            Some(d) => format!(
                "Err({:?}, {:?}, {:?}, {})",
                d.kind, d.offset, d.frame, d.message
            ),
            None => format!("Err(unstructured: {e})"),
        },
    }
}

/// The whole error surface of the decoder, pinned by line count and
/// FNV-1a-128 digest: every prefix of a 3-particle x 3-sample trace in
/// both formats at both precisions, every single-bit flip of its compact
/// F32 encoding, a hard I/O fault at five offsets into each format, and
/// an unknown magic with trailing bytes. Any change to what is accepted,
/// to a decoded bit, or to an error's kind, position or wording moves it.
#[test]
fn error_surface_matches_the_golden_digest() {
    let tr = small_trace(3, 3);
    let mut lines = Vec::new();
    let mut compact_f32 = Vec::new();
    for precision in [Precision::F64, Precision::F32] {
        let raw = encode_trace(&tr, precision).unwrap();
        let compact = pic_trace::compact::encode_compact(&tr, precision).unwrap();
        for bytes in [&raw, &compact] {
            for cut in 0..=bytes.len() {
                lines.push(render(decode_bytes(&bytes[..cut])));
            }
        }
        if precision == Precision::F32 {
            compact_f32 = compact;
        }
    }
    for bit in 0..8 * compact_f32.len() as u64 {
        let mut damaged = compact_f32.clone();
        flip_bit(&mut damaged, bit);
        lines.push(render(decode_bytes(&damaged)));
    }
    let raw = encode_trace(&tr, Precision::F64).unwrap();
    let compact = pic_trace::compact::encode_compact(&tr, Precision::F64).unwrap();
    for bytes in [&raw, &compact] {
        for fail_at in [5u64, 60, 120, 170, 250] {
            let r = FailAt::new(&bytes[..], fail_at, std::io::ErrorKind::BrokenPipe);
            lines.push(render(decode_reader(r)));
        }
    }
    lines.push(render(decode_bytes(b"PICTRC99 some trailing bytes")));
    let text = lines.join("\n");
    let mut digest = pic_types::hash::Fnv128::new();
    digest.update(text.as_bytes());
    assert_eq!(
        (lines.len(), digest.hex().as_str()),
        ERROR_SURFACE_GOLDEN,
        "{text}"
    );
}

/// Captured from the decoder as it stood before the raw and compact
/// readers merged into one `TraceReader`.
const ERROR_SURFACE_GOLDEN: (usize, &str) = (2793, "da4f4aeda98f92f116ef0b2b38d282ab");

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..512)) {
        if let Err(e) = decode_trace(&bytes) {
            let d = e.trace_details();
            prop_assert!(d.is_some(), "unstructured error: {}", e);
            prop_assert!(d.unwrap().offset.is_some(), "unpositioned error: {}", e);
        }
    }

    #[test]
    fn garbage_after_valid_magic_never_panics(tail in collection::vec(any::<u8>(), 0..256)) {
        let mut bytes = b"PICTRC01".to_vec();
        bytes.extend_from_slice(&tail);
        if let Err(e) = decode_trace(&bytes) {
            prop_assert!(e.trace_details().is_some(), "unstructured error: {}", e);
            prop_assert!(e.trace_details().unwrap().offset.is_some());
        }
    }

    #[test]
    fn bit_flips_never_panic(
        np in 1usize..9,
        t in 1usize..4,
        flips in collection::vec(any::<u64>(), 1..6),
    ) {
        let tr = small_trace(np, t);
        for precision in [Precision::F64, Precision::F32] {
            let mut bytes = encode_trace(&tr, precision).unwrap();
            for &f in &flips {
                flip_bit(&mut bytes, f);
            }
            // corrupt data may still parse (flips in position payloads are
            // invisible to the codec) — it must just never panic, and any
            // failure must carry a position.
            if let Err(e) = decode_trace(&bytes) {
                prop_assert!(e.trace_details().is_some(), "unstructured error: {}", e);
                prop_assert!(e.trace_details().unwrap().offset.is_some());
            }
        }
    }

    #[test]
    fn random_truncation_of_random_traces(
        np in 0usize..12,
        t in 0usize..5,
        cut_frac in 0.0..1.0f64,
    ) {
        let tr = small_trace(np, t);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as u64;
        match TraceReader::new((&bytes[..]).take(cut)) {
            Ok(r) => match r.read_all() {
                Ok(back) => prop_assert!(back.sample_count() <= tr.sample_count()),
                Err(e) => {
                    prop_assert!(e.trace_details().is_some(), "unstructured error: {}", e);
                    prop_assert!(e.trace_details().unwrap().offset.is_some());
                }
            },
            Err(e) => {
                prop_assert!(e.trace_details().is_some(), "unstructured error: {}", e);
                prop_assert!(e.trace_details().unwrap().offset.is_some());
            }
        }
    }
}
