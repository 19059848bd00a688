//! Mutation-style tests for the workload invariant checker: start from a
//! genuinely generated workload (so the baseline is exactly what the DWG
//! produces), seed single-entry corruptions, and assert that every
//! corruption class is detected *with the right coordinates*. This is the
//! evidence that the checker catches real corruption, not just that it
//! stays quiet on good data.

use pic_analysis::{check_workload, WorkloadViolation};
use pic_mapping::MappingAlgorithm;
use pic_trace::{ParticleTrace, TraceMeta};
use pic_types::{Aabb, Rank, Vec3};
use pic_workload::{
    replay, CompMatrix, DynamicWorkload, ReplayOptions, SweepPoint, WorkloadConfig,
};

const PARTICLES: usize = 40;
const SAMPLES: usize = 6;
const RANKS: usize = 4;

/// A deterministic drifting-cloud trace: particles sweep across the unit
/// box so every sample has migrations and ghost exchange.
fn workload() -> DynamicWorkload {
    let mut trace = ParticleTrace::new(TraceMeta::new(
        PARTICLES,
        100,
        Aabb::unit(),
        "mutation-fixture",
    ));
    for s in 0..SAMPLES {
        let mut pos = Vec::with_capacity(PARTICLES);
        for p in 0..PARTICLES {
            let spread = (p as f64 * 0.618_034) % 1.0;
            let drift = (s as f64 + 1.0) / (SAMPLES as f64 + 1.0);
            let x = (spread * 0.4 + drift * 0.55).min(0.999);
            let y = ((p as f64 * 0.414_214) % 1.0) * 0.9 + 0.05;
            let z = ((p as f64 * 0.732_051 + s as f64 * 0.1) % 1.0) * 0.9 + 0.05;
            pos.push(Vec3::new(x, y, z));
        }
        trace.push_positions(pos).unwrap();
    }
    let point = SweepPoint::new(WorkloadConfig::new(RANKS, MappingAlgorithm::BinBased, 0.08));
    replay(&trace, &[point], &ReplayOptions::default())
        .unwrap()
        .0
        .remove(0)
}

fn rows(m: &CompMatrix) -> Vec<Vec<u32>> {
    (0..m.samples()).map(|t| m.sample_row(t).to_vec()).collect()
}

/// Rebuild a comp matrix with one cell changed.
fn patch(m: &CompMatrix, rank: usize, sample: usize, f: impl Fn(u32) -> u32) -> CompMatrix {
    let mut r = rows(m);
    r[sample][rank] = f(r[sample][rank]);
    CompMatrix::from_rows(m.ranks(), r)
}

/// A (rank, sample) cell that is nonzero in the matrix, searching from the
/// last sample backwards so flow checks upstream are unaffected.
fn nonzero_cell(m: &CompMatrix) -> (usize, usize) {
    for t in (0..m.samples()).rev() {
        for r in 0..m.ranks() {
            if m.get(Rank::from_index(r), t) > 0 {
                return (r, t);
            }
        }
    }
    panic!("matrix is all zeros");
}

fn codes(v: &[WorkloadViolation]) -> Vec<&'static str> {
    v.iter().map(|x| x.code).collect()
}

#[test]
fn generated_workload_is_clean() {
    let w = workload();
    assert!(w.comm.total() > 0, "fixture should have migrations");
    assert!(w.ghost_recv.peak() > 0, "fixture should have ghosts");
    let v = check_workload(&w, Some(PARTICLES as u64));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn bumped_real_count_breaks_conservation_at_the_cell() {
    let w0 = workload();
    let (r, t) = nonzero_cell(&w0.real);
    let w = DynamicWorkload {
        real: patch(&w0.real, r, t, |c| c + 1),
        ..w0
    };
    let v = check_workload(&w, Some(PARTICLES as u64));
    let conservation: Vec<_> = v.iter().filter(|x| x.code == "conservation").collect();
    assert_eq!(conservation.len(), 1, "{v:?}");
    assert_eq!(conservation[0].sample, Some(t));
    // and the unexplained delta is pinned to the exact rank
    assert!(
        v.iter()
            .any(|x| x.code == "comm-flow" && x.rank == Some(r as u32) && x.sample == Some(t)),
        "{v:?}"
    );
}

#[test]
fn altered_comm_count_breaks_flow_at_both_endpoints() {
    let mut w = workload();
    let t = (1..w.samples())
        .find(|&t| !w.comm.entries[t].is_empty())
        .expect("fixture has migrations");
    let (from, to, _) = w.comm.entries[t][0];
    w.comm.entries[t][0].2 += 3;
    let v = check_workload(&w, Some(PARTICLES as u64));
    for rank in [from, to] {
        assert!(
            v.iter()
                .any(|x| x.code == "comm-flow" && x.rank == Some(rank) && x.sample == Some(t)),
            "missing comm-flow for rank {rank}: {v:?}"
        );
    }
}

#[test]
fn removed_comm_triple_breaks_flow() {
    let mut w = workload();
    let t = (1..w.samples())
        .find(|&t| !w.comm.entries[t].is_empty())
        .expect("fixture has migrations");
    w.comm.entries[t].remove(0);
    let v = check_workload(&w, Some(PARTICLES as u64));
    assert!(codes(&v).contains(&"comm-flow"), "{v:?}");
    assert!(v.iter().all(|x| x.sample == Some(t)), "{v:?}");
}

#[test]
fn self_loop_migration_is_detected() {
    let mut w = workload();
    let t = 1;
    w.comm.entries[t].insert(0, (0, 0, 2));
    let v = check_workload(&w, Some(PARTICLES as u64));
    let hit = v
        .iter()
        .find(|x| x.code == "comm-self")
        .expect("self-loop detected");
    assert_eq!((hit.rank, hit.sample), (Some(0), Some(t)));
}

#[test]
fn unsorted_and_duplicate_triples_are_detected() {
    let mut w = workload();
    let t = (1..w.samples())
        .find(|&t| !w.comm.entries[t].is_empty())
        .expect("fixture has migrations");
    // duplicate the first triple: equal (from, to) keys violate strict order
    let first = w.comm.entries[t][0];
    w.comm.entries[t].insert(1, first);
    let v = check_workload(&w, None);
    assert!(codes(&v).contains(&"comm-order"), "{v:?}");

    // out-of-order arrangement
    let mut w2 = workload();
    w2.comm.entries[t].insert(0, (u32::MAX - 1, 0, 1));
    let v2 = check_workload(&w2, None);
    assert!(
        codes(&v2).contains(&"comm-order") || codes(&v2).contains(&"comm-rank"),
        "{v2:?}"
    );
}

#[test]
fn out_of_range_rank_is_detected() {
    let mut w = workload();
    let t = 2;
    w.comm.entries[t].push((RANKS as u32, RANKS as u32 + 1, 1));
    let v = check_workload(&w, None);
    let hit = v
        .iter()
        .find(|x| x.code == "comm-rank")
        .expect("rank range detected");
    assert_eq!(hit.sample, Some(t));
    assert_eq!(hit.rank, Some(RANKS as u32));
}

#[test]
fn nonempty_first_comm_sample_is_detected() {
    let mut w = workload();
    w.comm.entries[0].push((0, 1, 1));
    let v = check_workload(&w, Some(PARTICLES as u64));
    let hit = v
        .iter()
        .find(|x| x.code == "comm-first")
        .expect("first-sample detected");
    assert_eq!(hit.sample, Some(0));
}

#[test]
fn bumped_ghost_recv_breaks_balance() {
    let w0 = workload();
    let (r, t) = nonzero_cell(&w0.ghost_recv);
    let w = DynamicWorkload {
        ghost_recv: patch(&w0.ghost_recv, r, t, |c| c + 1),
        ..w0
    };
    let v = check_workload(&w, Some(PARTICLES as u64));
    let hit = v
        .iter()
        .find(|x| x.code == "ghost-balance")
        .expect("balance detected");
    assert_eq!(hit.sample, Some(t));
}

#[test]
fn impossible_ghost_recv_breaks_bound() {
    let w0 = workload();
    let (r, t) = nonzero_cell(&w0.ghost_recv);
    let w = DynamicWorkload {
        ghost_recv: patch(&w0.ghost_recv, r, t, |_| PARTICLES as u32 + 5),
        ..w0
    };
    let v = check_workload(&w, Some(PARTICLES as u64));
    let hit = v
        .iter()
        .find(|x| x.code == "ghost-recv")
        .expect("bound detected");
    assert_eq!((hit.rank, hit.sample), (Some(r as u32), Some(t)));
}

#[test]
fn non_monotonic_iterations_are_detected() {
    let mut w = workload();
    let t = w.samples() - 1;
    w.iterations[t] = w.iterations[t - 1];
    let v = check_workload(&w, Some(PARTICLES as u64));
    let hit = v
        .iter()
        .find(|x| x.code == "iterations")
        .expect("monotonicity detected");
    assert_eq!(hit.sample, Some(t));
}

#[test]
fn truncated_matrix_is_a_shape_violation() {
    let mut w = workload();
    let r = rows(&w.real);
    w.real = CompMatrix::from_rows(RANKS, r[..SAMPLES - 1].to_vec());
    let v = check_workload(&w, Some(PARTICLES as u64));
    assert!(codes(&v).contains(&"shape"), "{v:?}");
}

#[test]
fn every_corruption_also_fails_the_hard_gate() {
    let mut w = workload();
    w.iterations[1] = 0;
    assert!(pic_analysis::assert_workload_valid(&w, Some(PARTICLES as u64)).is_err());
}
