//! Fault-injection corpus for the compact (`PICTRC02`) format read
//! through the magic-sniffing [`TraceReader`]: the same robustness
//! contract the raw codec carries. Decoding any byte stream — truncation
//! at every byte of a tiny trace, random bit flips, `Interrupted` storms,
//! 1-byte short reads, hard I/O faults — must never panic, stay within
//! the bounded chunk budget, and on failure return a byte-positioned
//! error. Corrupt delta payloads decode to finite in-box positions
//! (wrapping grid arithmetic), never to NaN or infinity. Run in CI under
//! `--release` too.

use pic_trace::codec::{decode_trace, encode_trace, Precision};
use pic_trace::compact::{encode_compact, quantization_box};
use pic_trace::fault::{flip_bit, FailAt, InterruptEvery, ShortReads};
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
fn exhaustive_byte_truncation_of_a_tiny_compact_trace() {
    let tr = small_trace(2, 3);
    for precision in [Precision::F64, Precision::F32] {
        let bytes = encode_compact(&tr, precision).unwrap();
        for cut in 0..=bytes.len() {
            match decode_trace(&bytes[..cut]) {
                Ok(back) => {
                    // only exact frame boundaries decode cleanly
                    assert!(back.sample_count() <= tr.sample_count(), "cut {cut}");
                }
                Err(e) => assert_positioned(&e),
            }
        }
    }
}

#[test]
fn interrupted_and_short_reads_still_roundtrip() {
    let tr = small_trace(7, 4);
    let bytes = encode_compact(&tr, Precision::F64).unwrap();
    let oracle = decode_trace(&bytes).unwrap();
    // one-byte reads
    let back = TraceReader::new(ShortReads::new(&bytes[..], 1))
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(back, oracle);
    // interrupt storm: every other call fails with Interrupted
    let back = TraceReader::new(InterruptEvery::new(&bytes[..], 2))
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(back, oracle);
    // both at once
    let r = InterruptEvery::new(ShortReads::new(&bytes[..], 3), 2);
    assert_eq!(TraceReader::new(r).unwrap().read_all().unwrap(), oracle);
}

#[test]
fn hard_io_fault_is_not_mislabeled_as_truncation() {
    let tr = small_trace(6, 3);
    let bytes = encode_compact(&tr, Precision::F64).unwrap();
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
fn sniffing_reader_dispatches_both_formats_under_faults() {
    let tr = small_trace(4, 3);
    let raw = encode_trace(&tr, Precision::F64).unwrap();
    let compact = encode_compact(&tr, Precision::F64).unwrap();
    // both formats survive 1-byte short reads through the sniffer
    let r = TraceReader::new(ShortReads::new(&raw[..], 1)).unwrap();
    assert_eq!(r.read_all().unwrap(), tr);
    let r = TraceReader::new(ShortReads::new(&compact[..], 1)).unwrap();
    let back = r.read_all().unwrap();
    assert_eq!(back.iterations(), tr.iterations());
    assert_eq!(encode_compact(&back, Precision::F64).unwrap(), compact);
    // truncation mid-stream stays positioned through the sniffer
    for cut in [3u64, 8, 40, 100] {
        match TraceReader::new((&compact[..]).take(cut)) {
            Ok(r) => {
                if let Err(e) = r.read_all() {
                    assert_positioned(&e);
                }
            }
            Err(e) => assert_positioned(&e),
        }
    }
}

#[test]
fn unknown_magic_is_a_positioned_bad_magic_error() {
    let err = decode_trace(b"PICTRC99 some trailing bytes").unwrap_err();
    let d = err.trace_details().expect("structured");
    assert_eq!(d.kind, TraceErrorKind::BadMagic);
    assert_eq!(d.offset, Some(0));
    assert!(err.to_string().contains("PICTRC01"), "{err}");
    assert!(err.to_string().contains("PICTRC02"), "{err}");
}

proptest! {
    #[test]
    fn arbitrary_bytes_after_compact_magic_never_panic(
        tail in collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = b"PICTRC02".to_vec();
        bytes.extend_from_slice(&tail);
        if let Err(e) = decode_trace(&bytes) {
            let d = e.trace_details();
            prop_assert!(d.is_some(), "unstructured error: {}", e);
            prop_assert!(d.unwrap().offset.is_some(), "unpositioned error: {}", e);
        }
    }

    #[test]
    fn bit_flips_never_panic_and_decode_stays_in_box(
        np in 1usize..9,
        t in 1usize..4,
        flips in collection::vec(any::<u64>(), 1..6),
    ) {
        let tr = small_trace(np, t);
        let qbox = quantization_box(&tr);
        for precision in [Precision::F64, Precision::F32] {
            let mut bytes = encode_compact(&tr, precision).unwrap();
            for &f in &flips {
                flip_bit(&mut bytes, f);
            }
            // Corrupt payloads may still parse; wrapping grid arithmetic
            // must keep every decoded position finite, and positions stay
            // inside the (possibly corrupted) box whenever the header
            // survived intact.
            match decode_trace(&bytes) {
                Ok(back) => {
                    for s in back.samples() {
                        for p in &s.positions {
                            prop_assert!(
                                p.x.is_finite() && p.y.is_finite() && p.z.is_finite(),
                                "non-finite decode {p:?} from box {qbox:?}"
                            );
                        }
                    }
                }
                Err(e) => {
                    prop_assert!(e.trace_details().is_some(), "unstructured error: {}", e);
                    prop_assert!(e.trace_details().unwrap().offset.is_some());
                }
            }
        }
    }

    #[test]
    fn random_truncation_of_random_compact_traces(
        np in 0usize..12,
        t in 0usize..5,
        cut_frac in 0.0..1.0f64,
    ) {
        let tr = small_trace(np, t);
        let bytes = encode_compact(&tr, Precision::F64).unwrap();
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
