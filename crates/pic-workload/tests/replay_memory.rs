//! Peak live heap bytes of one resident replay of an explore-grid-shaped
//! grid (4 mappings × 2 rank counts × 3 filters), under a one-thread pool.
//!
//! This file holds the binary's only test, so nothing else allocates
//! beside the replay. A counting allocator forwards to `System` and keeps
//! the live byte count and its high-water mark. Under one thread the
//! replay's allocations come in a fixed order, so the peak is the same on
//! every run and in debug and release builds; glibc arenas and code layout,
//! which move RSS, do not move it.
//!
//! Run with `cargo test -p pic-workload --release --test replay_memory --
//! --nocapture` to print the figure.

use pic_grid::{ElementMesh, MeshDims};
use pic_mapping::MappingAlgorithm;
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::rng::SplitMix64;
use pic_types::{Aabb, Vec3};
use pic_workload::generator::WorkloadConfig;
use pic_workload::{replay, ReplayOptions, SweepPoint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak live bytes of the replay below, as first measured with the
/// owners freed at their diff and each diff set moved into its last
/// reader; the gate allows 5 % above it.
const PEAK_LIVE_BYTES: usize = 1_526_200;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting the bytes it hands out and takes back.
struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics and never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Counting::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A cloud of `np` particles that expands and drifts over `t` samples.
fn expanding_trace(np: usize, t: usize) -> ParticleTrace {
    let mut rng = SplitMix64::new(0x5eed);
    let dirs: Vec<Vec3> = (0..np)
        .map(|_| {
            let mut c = || rng.next_range(-1.0, 1.0);
            Vec3::new(c(), c(), c())
        })
        .collect();
    let mut trace = ParticleTrace::new(TraceMeta::new(np, 100, Aabb::unit(), "replay-memory"));
    for k in 0..t {
        let (scale, drift) = (0.05 + 0.04 * k as f64, Vec3::new(0.02 * k as f64, 0.0, 0.0));
        let positions = (dirs.iter())
            .map(|d| (Vec3::splat(0.4) + *d * scale + drift).clamp(Vec3::ZERO, Vec3::ONE))
            .collect();
        trace.push_positions(positions).unwrap();
    }
    trace
}

/// The grid's peak live bytes above what was live before it ran, with its
/// workloads still held.
fn replay_peak(trace: &ParticleTrace, points: &[SweepPoint], mesh: &ElementMesh) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let (workloads, _) =
        replay(trace, points, &ReplayOptions::new(Some(mesh), None, None)).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(workloads.len(), points.len());
    peak
}

#[test]
fn explore_grid_replay_peak_live_bytes_hold() {
    let trace = expanding_trace(2_000, 12);
    let mesh = ElementMesh::new(Aabb::unit(), MeshDims::cube(6), 3).unwrap();
    let mut points = Vec::new();
    for mapping in [
        MappingAlgorithm::ElementBased,
        MappingAlgorithm::BinBased,
        MappingAlgorithm::HilbertOrdered,
        MappingAlgorithm::LoadBalanced,
    ] {
        for ranks in [16, 64] {
            for filter in [0.02, 0.04, 0.08] {
                points.push(SweepPoint::new(WorkloadConfig::new(ranks, mapping, filter)));
            }
        }
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    // The first replay pays for what lives as long as the thread or the
    // process; the second and third are measured and must agree.
    let peaks: Vec<usize> = pool.install(|| {
        (0..3)
            .map(|_| replay_peak(&trace, &points, &mesh))
            .collect()
    });
    println!("replay peak live bytes: {peaks:?} (committed {PEAK_LIVE_BYTES})");
    assert_eq!(
        peaks[1], peaks[2],
        "a one-thread replay's peak is deterministic"
    );
    assert!(
        peaks[2] <= PEAK_LIVE_BYTES + PEAK_LIVE_BYTES / 20,
        "peak live bytes {} exceed the committed {PEAK_LIVE_BYTES} by more than 5 %",
        peaks[2]
    );
}
