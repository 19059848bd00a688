//! Exhaustive interleaving verification of the streaming workload
//! generator's pipeline model — the CI gate for the concurrency layer.
//! Every reachable schedule of channel sends, receives, closures, worker
//! exits, and the final join is explored for the whole configuration
//! matrix; any hang, frame loss, or broken error propagation fails with a
//! replayable schedule.
//!
//! The checker lives here, beside its only caller: [`sched`] is a minimal
//! loom-style schedule explorer and [`pipeline_model`] the state machine of
//! `pic_workload::sweep_streaming`'s decoder → workers → merge pipeline
//! that it explores.

mod pipeline_model;
mod sched;

use pipeline_model::{verify_pipeline, verify_streaming_shutdown, PipelineSpec};

#[test]
fn streaming_pipeline_shutdown_matrix_is_hang_and_leak_free() {
    let stats = verify_streaming_shutdown().unwrap_or_else(|e| panic!("{e}"));
    // The matrix is 5 frame counts × 3 pool sizes × 2×2 capacities × 2
    // endings = 120 configurations; the aggregate state count documents
    // the exploration actually did work.
    assert!(
        stats.states > 10_000,
        "suspiciously small exploration: {stats:?}"
    );
    assert!(
        stats.terminal_states >= 120,
        "every config reaches at least one terminal state"
    );
}

#[test]
fn deeper_single_configuration_with_more_frames() {
    // One deeper configuration past the CI matrix: more frames than the
    // combined channel capacity, forcing every backpressure path.
    let r = verify_pipeline(PipelineSpec {
        frames: 6,
        fail: true,
        workers: 2,
        frame_cap: 2,
        out_cap: 1,
    })
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(r.states > 100);
}
