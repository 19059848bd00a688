//! Reference implementations the production engine is checked against.
//!
//! Nothing here runs on a production path. The sequential replay
//! [`generate_reference`], which asks `pic-sim`'s ground-truth
//! [`RegionIndex`] which ranks each particle's filter reaches, is the
//! determinism oracle of every proptest; [`migration_pairs_sorted`] is the
//! comparison-sort diff the radix-sorted `migration_pairs` replaced.

use crate::generator::{DynamicWorkload, WorkloadConfig};
use crate::matrices::{CommMatrix, CompMatrix};
use pic_grid::ElementMesh;
use pic_mapping::{RegionIndex, RegionQueryScratch};
use pic_trace::ParticleTrace;
use pic_types::{Rank, Result};

/// Straight-line sequential replay used as the determinism oracle and
/// speedup baseline for the parallel paths: no rayon, no chunking, no
/// channels — one thread walks samples in order querying a
/// [`RegionIndex`] per particle, where the replay engine joins trees.
/// Tests assert every adapter of the replay engine equals this exactly.
#[doc(hidden)]
pub fn generate_reference(
    trace: &ParticleTrace,
    cfg: &WorkloadConfig,
    mesh: Option<&ElementMesh>,
) -> Result<DynamicWorkload> {
    let mapper = cfg.mapping.mapper(mesh, cfg.ranks, cfg.projection_filter)?;
    let mut real = CompMatrix::new(cfg.ranks);
    let mut ghost_recv = CompMatrix::new(cfg.ranks);
    let mut ghost_sent = CompMatrix::new(cfg.ranks);
    let mut bin_counts = Vec::new();
    let mut comm_entries: Vec<Vec<(u32, u32, u32)>> = Vec::new();
    let mut prev_owners: Option<Vec<Rank>> = None;
    for sample in trace.samples() {
        let outcome = mapper.assign(&sample.positions);
        let mut r = vec![0u32; cfg.ranks];
        for rank in &outcome.ranks {
            r[rank.index()] += 1;
        }
        let mut recv = vec![0u32; cfg.ranks];
        let mut sent = vec![0u32; cfg.ranks];
        if cfg.compute_ghosts {
            let index = RegionIndex::build(&outcome.rank_regions);
            let mut scratch = RegionQueryScratch::new();
            for (&p, &home) in sample.positions.iter().zip(&outcome.ranks) {
                index.for_each_rank_touching_sphere(p, cfg.projection_filter, &mut scratch, |t| {
                    if t != home {
                        recv[t.index()] += 1;
                        sent[home.index()] += 1;
                    }
                });
            }
        }
        real.push_sample(&r);
        ghost_recv.push_sample(&recv);
        ghost_sent.push_sample(&sent);
        bin_counts.push(outcome.bin_count);
        comm_entries.push(match &prev_owners {
            Some(prev) => migration_pairs_sorted(prev, &outcome.ranks),
            None => Vec::new(),
        });
        prev_owners = Some(outcome.ranks);
    }
    Ok(DynamicWorkload {
        ranks: cfg.ranks,
        iterations: trace.iterations(),
        real,
        ghost_recv,
        ghost_sent,
        comm: CommMatrix {
            entries: comm_entries,
        },
        bin_counts,
    })
}

/// `migration_pairs` as it was before it radix-sorted the moves, kept
/// verbatim so that [`generate_reference`] diffs ownership independently
/// of the production diff: one comparison sort of `(from, to)` pairs.
pub fn migration_pairs_sorted(prev: &[Rank], cur: &[Rank]) -> Vec<(u32, u32, u32)> {
    assert_eq!(prev.len(), cur.len(), "ownership snapshots must align");
    let mut moves: Vec<(u32, u32)> = prev
        .iter()
        .zip(cur)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.0, b.0))
        .collect();
    moves.sort_unstable();
    let mut out: Vec<(u32, u32, u32)> = Vec::new();
    for (from, to) in moves {
        match out.last_mut() {
            Some(last) if last.0 == from && last.1 == to => last.2 += 1,
            _ => out.push((from, to, 1)),
        }
    }
    out
}
