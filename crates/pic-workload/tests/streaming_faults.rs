//! Streaming-pipeline shutdown under trace faults (the acceptance
//! criterion for ingestion hardening): feeding the streaming driver a
//! truncated or failing stream must return the decoder's *positioned*
//! error with every pipeline thread joined — never hang, never panic.
//! Each run executes on a watchdog thread with a hard timeout so a
//! shutdown regression fails the suite instead of wedging it. Every fault
//! case runs over both on-disk formats and two inputs: a single
//! configuration, and a two-group, two-stride grid whose merge folds
//! several members per frame.

use std::io::Read;
use std::sync::mpsc;
use std::time::Duration;

use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_trace::codec::{encode_trace, Precision};
use pic_trace::compact::encode_compact;
use pic_trace::fault::FailAt;
use pic_trace::{ParticleTrace, TraceMeta, TraceReader};
use pic_types::{Aabb, PicError, TraceErrorKind, Vec3};
use pic_workload::{sweep_streaming, DynamicWorkload, SweepPoint, WorkloadConfig};

/// Generous bound: a healthy run over these tiny traces finishes in
/// milliseconds, so hitting it can only mean a stuck pipeline thread.
const WATCHDOG: Duration = Duration::from_secs(60);

fn small_trace(np: usize, t: usize) -> ParticleTrace {
    let meta = TraceMeta::new(np, 50, Aabb::unit(), "stream-fault");
    let mut tr = ParticleTrace::new(meta);
    for k in 0..t {
        let positions = (0..np)
            .map(|i| Vec3::new((i as f64 * 0.013) % 1.0, (k as f64 * 0.11) % 1.0, 0.5))
            .collect();
        tr.push_positions(positions).unwrap();
    }
    tr
}

/// `tr` in both on-disk formats, labelled.
fn encodings(tr: &ParticleTrace, precision: Precision) -> [(&'static str, Vec<u8>); 2] {
    [
        ("raw", encode_trace(tr, precision).unwrap()),
        ("compact", encode_compact(tr, precision).unwrap()),
    ]
}

/// Where the header and each frame of `bytes` end, as the reader counts.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut r = TraceReader::new(bytes).unwrap();
    let mut ends = vec![r.bytes_read() as usize];
    while r.read_sample().unwrap().is_some() {
        ends.push(r.bytes_read() as usize);
    }
    ends
}

/// Cuts at every structural boundary of an encoding ending at `ends`:
/// header fields, and each frame's first byte, head and midpoint, with
/// one byte to either side of each end.
fn cut_points(ends: &[usize]) -> Vec<usize> {
    let mut cuts = vec![0, 4, 8, 9, 12, 16, 24, 48, 72, 76];
    for w in ends.windows(2) {
        let (at, end) = (w[0], w[1]);
        cuts.extend([at - 1, at, at + 1, at + 8, at + 12, (at + end) / 2]);
    }
    let last = *ends.last().unwrap();
    cuts.extend([last - 1, last]);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

fn cfg() -> WorkloadConfig {
    WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05)
}

/// The inputs every fault case streams: one point, and a grid of two
/// assignment groups read at two strides each.
fn inputs() -> [Vec<SweepPoint>; 2] {
    let coarse = WorkloadConfig::new(4, MappingAlgorithm::BinBased, 0.05);
    [
        vec![SweepPoint::new(cfg())],
        vec![
            SweepPoint::new(cfg()),
            SweepPoint::with_stride(cfg(), 2),
            SweepPoint::new(coarse.clone()),
            SweepPoint::with_stride(coarse, 2),
        ],
    ]
}

fn stream<R: std::io::Read + Send>(
    reader: TraceReader<R>,
    points: &[SweepPoint],
) -> pic_types::Result<Vec<DynamicWorkload>> {
    sweep_streaming(reader, points, None).map(|(workloads, _, _)| workloads)
}

/// Run the full open-reader-then-stream path on its own thread; panic if
/// it neither returns nor errors within the watchdog window.
fn stream_with_watchdog(
    bytes: Vec<u8>,
    points: Vec<SweepPoint>,
    label: String,
) -> pic_types::Result<Vec<DynamicWorkload>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = TraceReader::new(&bytes[..]).and_then(|r| stream(r, &points));
        // The watchdog may have given up; a dead receiver is fine.
        let _ = tx.send(result);
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("streaming pipeline hung on {label}"))
}

fn assert_positioned(err: &PicError, label: &str) {
    let details = err
        .trace_details()
        .unwrap_or_else(|| panic!("{label}: unstructured error: {err}"));
    assert!(
        details.offset.is_some(),
        "{label}: error without byte offset: {err}"
    );
    assert!(
        err.to_string().contains("at byte"),
        "{label}: display misses offset: {err}"
    );
}

#[test]
fn truncation_at_every_boundary_errors_or_yields_prefix_without_hanging() {
    let tr = small_trace(40, 4);
    for (format, bytes) in encodings(&tr, Precision::F64) {
        let ends = frame_ends(&bytes);
        for points in inputs() {
            for cut in cut_points(&ends) {
                let label = format!("{format} cut at byte {cut}, {} point(s)", points.len());
                match stream_with_watchdog(bytes[..cut].to_vec(), points.clone(), label) {
                    Ok(workloads) => {
                        // Only exact frame boundaries stream cleanly, and
                        // then each workload covers exactly the surviving
                        // prefix.
                        let prefix = (ends.iter().position(|&end| end == cut))
                            .unwrap_or_else(|| panic!("{format} cut {cut} is mid-frame"));
                        for (p, w) in points.iter().zip(&workloads) {
                            assert_eq!(w.samples(), prefix.div_ceil(p.stride));
                        }
                    }
                    Err(e) => assert_positioned(&e, &format!("{format} cut {cut}")),
                }
            }
        }
    }
}

#[test]
fn hard_io_fault_mid_stream_propagates_with_workers_joined() {
    let tr = small_trace(30, 5);
    for (format, bytes) in encodings(&tr, Precision::F64) {
        let fail_at = (bytes.len() / 2) as u64;
        for points in inputs() {
            let bytes = bytes.clone();
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let faulty = FailAt::new(&bytes[..], fail_at, std::io::ErrorKind::BrokenPipe);
                let result = TraceReader::new(faulty).and_then(|r| stream(r, &points));
                let _ = tx.send(result);
            });
            let err = rx
                .recv_timeout(WATCHDOG)
                .expect("streaming pipeline hung on a hard I/O fault")
                .expect_err("injected fault was swallowed");
            assert_positioned(&err, format);
            let details = err.trace_details().unwrap();
            assert_eq!(details.kind, TraceErrorKind::Io, "{format}: {err}");
            assert_eq!(
                details.source.as_ref().unwrap().kind(),
                std::io::ErrorKind::BrokenPipe
            );
        }
    }
}

#[test]
fn truncating_reader_mid_frame_is_a_positioned_error() {
    let tr = small_trace(25, 3);
    for (format, bytes) in encodings(&tr, Precision::F32) {
        // Cut inside the last frame's position payload.
        let cut = (bytes.len() - 10) as u64;
        for points in inputs() {
            let reader = TraceReader::new((&bytes[..]).take(cut)).unwrap();
            let err = stream(reader, &points).unwrap_err();
            assert_positioned(&err, format);
            assert_eq!(
                err.trace_details().unwrap().kind,
                TraceErrorKind::TruncatedFrame,
                "{format}"
            );
        }
    }
}

#[test]
fn clean_stream_reports_accurate_ingest_stats() {
    let tr = small_trace(120, 6);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    let reader = TraceReader::new(&bytes[..]).unwrap();
    let (workloads, _, stats) = sweep_streaming(reader, &inputs()[0], None).unwrap();
    assert_eq!(workloads[0].samples(), 6);
    assert_eq!(stats.frames_decoded, 6);
    assert_eq!(stats.bytes_read, bytes.len() as u64);
    assert!(stats.decode_seconds >= 0.0);
    assert!(
        stats.ghost_seconds > 0.0,
        "ghost kernel ran, timer stayed zero"
    );
    assert!(stats.merge_seconds >= 0.0);
}

#[test]
fn failed_stream_still_reports_no_stats_but_positions_error() {
    // Stats ride the Ok path only; the Err path must still carry the
    // decoder's position so operators can locate the corruption.
    let tr = small_trace(15, 4);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    let cut = bytes.len() - 3;
    let reader = TraceReader::new(&bytes[..cut]).unwrap();
    let err = sweep_streaming(reader, &inputs()[0], None).unwrap_err();
    assert_positioned(&err, "stats path");
}

/// A frame `read_all` refuses must fail a streamed replay the same way,
/// under the mapping that panics on it (bin-based: its cut comparator
/// expects finite coordinates) and the one that would count it
/// (element-based): a positioned error at frame 1, threads joined.
#[test]
fn frames_the_resident_path_rejects_fail_the_stream_positioned() {
    let tr = small_trace(64, 2);
    let bytes = encode_trace(&tr, Precision::F64).unwrap();
    let frame_len = 8 + 64 * 3 * 8;
    let frame1 = 76 + tr.meta().description.len() + frame_len;
    let mut nan = bytes.clone();
    nan[frame1 + 8..frame1 + 16].copy_from_slice(&f64::NAN.to_le_bytes());
    let mut repeat = bytes;
    repeat[frame1..frame1 + 8].copy_from_slice(&0u64.to_le_bytes());
    let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 3).unwrap();
    for (label, bytes) in [("non-finite", nan), ("repeated iteration", repeat)] {
        assert!(
            TraceReader::new(&bytes[..]).unwrap().read_all().is_err(),
            "{label}: resident path accepted the frame"
        );
        for mapping in [MappingAlgorithm::BinBased, MappingAlgorithm::ElementBased] {
            let points = vec![SweepPoint::new(WorkloadConfig::new(8, mapping, 0.05))];
            let (tx, rx) = mpsc::channel();
            let (bytes, mesh) = (bytes.clone(), mesh.clone());
            std::thread::spawn(move || {
                let result = TraceReader::new(&bytes[..])
                    .and_then(|r| sweep_streaming(r, &points, Some(&mesh)));
                let _ = tx.send(result.map(|_| ()));
            });
            let label = format!("{label}, {mapping:?}");
            let err = rx
                .recv_timeout(WATCHDOG)
                .unwrap_or_else(|_| panic!("{label}: pipeline hung or a worker panicked"))
                .expect_err("streamed replay accepted the frame");
            assert_positioned(&err, &label);
            assert_eq!(
                err.trace_details().unwrap().frame,
                Some(1),
                "{label}: {err}"
            );
        }
    }
}
