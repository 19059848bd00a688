//! Byte-for-byte pins of the two trace encoders. One fixed trace is
//! encoded raw and compact at both precisions, and each encoding's length
//! and FNV-128 digest is held to the value recorded when the digests were
//! first taken, so a codec edit that changes a single byte fails here.

use pic_trace::codec::{encode_trace, Precision};
use pic_trace::compact::encode_compact;
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::hash::Fnv128;
use pic_types::{Aabb, Vec3};

/// Five particles over six frames in a box of uneven extents. Particle 0
/// sits on the box's min corner and particle 1 on its max corner, so their
/// coordinates take the quantizer's two clamping branches. The other three
/// drift by steps chosen to need every frame layout: an absolute first
/// frame, then delta widths 1, 2 and 4 on the 32-bit grid (1, 1 and 2 on
/// the 16-bit grid), a jump no delta width holds, and width 1 again.
fn golden_trace() -> ParticleTrace {
    let domain = Aabb {
        min: Vec3::new(-1.0, 0.0, 2.0),
        max: Vec3::new(3.0, 0.5, 2.25),
    };
    let ext = domain.max - domain.min;
    let at = |f: [f64; 3]| domain.min + Vec3::new(f[0] * ext.x, f[1] * ext.y, f[2] * ext.z);
    let meta = TraceMeta::new(5, 25, domain, "encoding golden");
    let mut trace = ParticleTrace::new(meta);
    // Particle 2 moves `shift` of the extent on every axis, particles 3
    // and 4 a quarter of it the other way.
    for shift in [0.0, 1e-8, 1e-6, 1e-2, 0.8, 0.8 + 1e-8] {
        let back = -shift / 4.0;
        let positions = vec![
            at([0.0; 3]),
            at([1.0; 3]),
            at([0.05 + shift, 0.1 + shift, 0.07 + shift]),
            at([0.6 + back, 0.5 + back, 0.9 + back]),
            at([0.3 + back, 0.95 + back, 0.4 + back]),
        ];
        trace.push_positions(positions).unwrap();
    }
    trace
}

/// The width byte of every frame of a compact encoding of `trace`.
fn compact_widths(bytes: &[u8], trace: &ParticleTrace, precision: Precision) -> Vec<u8> {
    let qbytes = match precision {
        Precision::F64 => 4,
        Precision::F32 => 2,
    };
    let coords = 3 * trace.particle_count();
    let mut at = 76 + trace.meta().description.len() + 48;
    let mut widths = Vec::new();
    while at < bytes.len() {
        let width = bytes[at + 8];
        let elem = if width == 0 { qbytes } else { width as usize };
        widths.push(width);
        at += 12 + coords * elem;
    }
    assert_eq!(at, bytes.len(), "frames tile the encoding");
    widths
}

fn pin(bytes: &[u8]) -> (usize, String) {
    let mut digest = Fnv128::new();
    digest.update(bytes);
    (bytes.len(), digest.hex())
}

#[test]
fn the_fixed_trace_exercises_every_frame_layout() {
    let trace = golden_trace();
    let f64_bytes = encode_compact(&trace, Precision::F64).unwrap();
    assert_eq!(
        compact_widths(&f64_bytes, &trace, Precision::F64),
        [0, 1, 2, 4, 0, 1]
    );
    let f32_bytes = encode_compact(&trace, Precision::F32).unwrap();
    assert_eq!(
        compact_widths(&f32_bytes, &trace, Precision::F32),
        [0, 1, 1, 2, 0, 1]
    );
}

#[test]
fn encodings_match_their_recorded_digests() {
    let trace = golden_trace();
    let got = [
        pin(&encode_trace(&trace, Precision::F64).unwrap()),
        pin(&encode_trace(&trace, Precision::F32).unwrap()),
        pin(&encode_compact(&trace, Precision::F64).unwrap()),
        pin(&encode_compact(&trace, Precision::F32).unwrap()),
    ];
    let got: Vec<(usize, &str)> = got.iter().map(|(n, h)| (*n, h.as_str())).collect();
    assert_eq!(got, ENCODING_GOLDEN);
}

/// `(length, FNV-128 hex)` of raw F64, raw F32, compact F64 and compact
/// F32, captured from the encoders as they stood before the raw and compact
/// writers merged into one `TraceWriter`.
const ENCODING_GOLDEN: [(usize, &str); 4] = [
    (859, "0692d722c4155b316a96eb670bb8a9e6"),
    (499, "f8f1b62412ec02e482bab1449330cbf3"),
    (451, "91bc392772be482ce004827e27289f0e"),
    (346, "c4087ff7c7c2c56bd93e2f1c481e9b3c"),
];
