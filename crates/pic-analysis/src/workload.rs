//! Static invariant checking of generated [`DynamicWorkload`]s.
//!
//! The Dynamic Workload Generator's output obeys a catalog of structural
//! invariants that follow from its construction (particles are conserved,
//! migrations explain per-rank count deltas, ghost copies balance, ...).
//! A workload that violates any of them is corrupt — truncated on disk,
//! hand-edited, produced by a buggy generator build — and feeding it to
//! the simulator yields silently wrong predictions. This module checks the
//! whole catalog and reports every violation with `(rank, sample)`
//! coordinates.
//!
//! Invariant catalog (codes):
//!
//! | code | invariant |
//! |------|-----------|
//! | `shape` | all matrices agree on `R` and `T` and hold `R × T` counts; `R > 0` |
//! | `iterations` | sample iteration numbers strictly increase |
//! | `conservation` | per-sample real-particle total equals `N_p` |
//! | `comm-first` | `comm.entries[0]` is empty (no predecessor sample) |
//! | `comm-rank` | migration endpoints lie in `0..R` |
//! | `comm-self` | no self-loop migrations |
//! | `comm-zero` | no zero-count migration triples |
//! | `comm-order` | triples sorted strictly by `(from, to)` (no dups) |
//! | `comm-flow` | `real[r][t] − real[r][t−1]` equals inflow − outflow |
//! | `comm-volume` | migrations per sample never exceed `N_p` |
//! | `ghost-balance` | total ghost copies sent equals total received |
//! | `ghost-recv` | a rank receives at most one ghost per foreign particle |
//! | `ghost-sent` | a rank sends at most `R−1` copies per owned particle |

use pic_types::PicError;
use pic_workload::DynamicWorkload;
use serde::Serialize;

/// One violated invariant, positioned as precisely as the invariant allows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadViolation {
    /// Invariant code from the catalog (`conservation`, `comm-flow`, ...).
    pub code: &'static str,
    /// Explanation with the offending values.
    pub message: String,
    /// Offending rank, when the invariant is per-rank.
    pub rank: Option<u32>,
    /// Offending sample, when the invariant is per-sample.
    pub sample: Option<usize>,
}

impl std::fmt::Display for WorkloadViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code)?;
        match (self.rank, self.sample) {
            (Some(r), Some(t)) => write!(f, " at (rank {r}, sample {t})")?,
            (Some(r), None) => write!(f, " at rank {r}")?,
            (None, Some(t)) => write!(f, " at sample {t}")?,
            (None, None) => {}
        }
        write!(f, ": {}", self.message)
    }
}

struct Checker {
    violations: Vec<WorkloadViolation>,
}

impl Checker {
    fn push(
        &mut self,
        code: &'static str,
        rank: Option<u32>,
        sample: Option<usize>,
        message: String,
    ) {
        self.violations.push(WorkloadViolation {
            code,
            message,
            rank,
            sample,
        });
    }
}

/// Check every catalog invariant, returning all violations (empty = valid).
///
/// `expected_particles` pins the conservation total to the trace's `N_p`;
/// without it, sample 0's total is used as the reference, so a workload
/// that is *internally* consistent but truncated in particle count still
/// passes — pass the trace metadata when available.
pub fn check_workload(
    w: &DynamicWorkload,
    expected_particles: Option<u64>,
) -> Vec<WorkloadViolation> {
    let mut c = Checker {
        violations: Vec::new(),
    };
    let ranks = w.ranks;
    let samples = w.iterations.len();

    // -- shape: everything else indexes by (rank, sample), so stop early
    // on disagreement rather than panicking on out-of-bounds access.
    if ranks == 0 {
        c.push("shape", None, None, "workload declares zero ranks".into());
    }
    for (name, m) in [
        ("real", &w.real),
        ("ghost_recv", &w.ghost_recv),
        ("ghost_sent", &w.ghost_sent),
    ] {
        if m.ranks() != ranks {
            c.push(
                "shape",
                None,
                None,
                format!(
                    "{name} matrix has {} ranks, workload declares {ranks}",
                    m.ranks()
                ),
            );
        }
        if m.samples() != samples {
            c.push(
                "shape",
                None,
                None,
                format!(
                    "{name} matrix has {} samples, iterations list {samples}",
                    m.samples()
                ),
            );
        } else if m.cells() != m.ranks() * samples {
            c.push(
                "shape",
                None,
                None,
                format!(
                    "{name} matrix holds {} counts, not {} ranks x {samples} samples",
                    m.cells(),
                    m.ranks()
                ),
            );
        }
    }
    if w.comm.entries.len() != samples {
        c.push(
            "shape",
            None,
            None,
            format!(
                "comm matrix has {} samples, iterations list {samples}",
                w.comm.entries.len()
            ),
        );
    }
    if w.bin_counts.len() != samples {
        c.push(
            "shape",
            None,
            None,
            format!(
                "bin_counts has {} samples, iterations list {samples}",
                w.bin_counts.len()
            ),
        );
    }
    if !c.violations.is_empty() {
        return c.violations;
    }

    // -- iterations strictly increasing
    for t in 1..samples {
        if w.iterations[t] <= w.iterations[t - 1] {
            c.push(
                "iterations",
                None,
                Some(t),
                format!(
                    "iteration numbers not strictly increasing: {} after {}",
                    w.iterations[t],
                    w.iterations[t - 1]
                ),
            );
        }
    }

    // -- conservation: every sample holds exactly N_p real particles
    let reference = expected_particles.or_else(|| (samples > 0).then(|| w.real.sample_total(0)));
    if let Some(n_p) = reference {
        for t in 0..samples {
            let total = w.real.sample_total(t);
            if total != n_p {
                c.push(
                    "conservation",
                    None,
                    Some(t),
                    format!("real-particle total {total} ≠ expected {n_p}"),
                );
            }
        }
    }

    // -- communication matrix hygiene
    if samples > 0 && !w.comm.entries[0].is_empty() {
        c.push(
            "comm-first",
            None,
            Some(0),
            format!(
                "sample 0 has {} migration triple(s) but no predecessor sample",
                w.comm.entries[0].len()
            ),
        );
    }
    for (t, entries) in w.comm.entries.iter().enumerate() {
        let mut prev: Option<(u32, u32)> = None;
        for &(from, to, count) in entries {
            for endpoint in [from, to] {
                if endpoint as usize >= ranks {
                    c.push(
                        "comm-rank",
                        Some(endpoint),
                        Some(t),
                        format!("migration ({from}→{to}, ×{count}) references rank {endpoint} outside 0..{ranks}"),
                    );
                }
            }
            if from == to {
                c.push(
                    "comm-self",
                    Some(from),
                    Some(t),
                    format!("self-loop migration ({from}→{to}, ×{count})"),
                );
            }
            if count == 0 {
                c.push(
                    "comm-zero",
                    Some(from),
                    Some(t),
                    format!("zero-count migration triple ({from}→{to})"),
                );
            }
            if let Some(p) = prev {
                if p >= (from, to) {
                    c.push(
                        "comm-order",
                        Some(from),
                        Some(t),
                        format!(
                            "triples not sorted strictly by (from, to): ({},{}) then ({from},{to})",
                            p.0, p.1
                        ),
                    );
                }
            }
            prev = Some((from, to));
        }
        // volume: at most one migration per particle per sample step
        if let Some(n_p) = reference {
            let moved = w.comm.sample_total(t);
            if moved > n_p {
                c.push(
                    "comm-volume",
                    None,
                    Some(t),
                    format!("{moved} migrations exceed particle count {n_p}"),
                );
            }
        }
    }

    // -- flow: migrations fully explain per-rank count deltas
    for t in 1..samples {
        let mut delta = vec![0i64; ranks];
        for &(from, to, count) in &w.comm.entries[t] {
            if (from as usize) < ranks {
                delta[from as usize] -= count as i64;
            }
            if (to as usize) < ranks {
                delta[to as usize] += count as i64;
            }
        }
        for (r, &net) in delta.iter().enumerate() {
            let prev = w.real.get(pic_types::Rank::from_index(r), t - 1) as i64;
            let cur = w.real.get(pic_types::Rank::from_index(r), t) as i64;
            if cur - prev != net {
                c.push(
                    "comm-flow",
                    Some(r as u32),
                    Some(t),
                    format!(
                        "count delta {} (from {prev} to {cur}) not explained by migrations (net {net})",
                        cur - prev,
                    ),
                );
            }
        }
    }

    // -- ghost sanity
    for t in 0..samples {
        let sent: u64 = w.ghost_sent.sample_total(t);
        let recv: u64 = w.ghost_recv.sample_total(t);
        if sent != recv {
            c.push(
                "ghost-balance",
                None,
                Some(t),
                format!("{sent} ghost copies sent but {recv} received"),
            );
        }
        let total = w.real.sample_total(t);
        for r in 0..ranks {
            let rank = pic_types::Rank::from_index(r);
            let real = w.real.get(rank, t) as u64;
            let g_recv = w.ghost_recv.get(rank, t) as u64;
            let g_sent = w.ghost_sent.get(rank, t) as u64;
            let foreign = total.saturating_sub(real);
            if g_recv > foreign {
                c.push(
                    "ghost-recv",
                    Some(r as u32),
                    Some(t),
                    format!("{g_recv} ghosts received exceed the {foreign} foreign particles"),
                );
            }
            let max_sent = real * (ranks as u64 - 1);
            if g_sent > max_sent {
                c.push(
                    "ghost-sent",
                    Some(r as u32),
                    Some(t),
                    format!(
                        "{g_sent} ghost copies sent exceed {real} particles × {} peers",
                        ranks - 1
                    ),
                );
            }
        }
    }

    c.violations
}

/// [`check_workload`] as a hard gate: formats the violations into one
/// [`PicError`] for pipeline call sites.
pub fn assert_workload_valid(
    w: &DynamicWorkload,
    expected_particles: Option<u64>,
) -> Result<(), PicError> {
    let violations = check_workload(w, expected_particles);
    if violations.is_empty() {
        return Ok(());
    }
    let shown: Vec<String> = violations.iter().take(5).map(|v| v.to_string()).collect();
    let suffix = if violations.len() > 5 {
        format!(" (+{} more)", violations.len() - 5)
    } else {
        String::new()
    };
    Err(PicError::model(format!(
        "workload failed invariant check with {} violation(s): {}{suffix}",
        violations.len(),
        shown.join("; ")
    )))
}

/// One violated invariant inside a sweep grid, positioned by grid point on
/// top of the invariant's own `(rank, sample)` coordinates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepViolation {
    /// Index of the offending workload in the sweep's point list.
    pub point: usize,
    /// The underlying invariant violation.
    pub violation: WorkloadViolation,
}

impl std::fmt::Display for SweepViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {}: {}", self.point, self.violation)
    }
}

/// Run the full invariant catalog over every grid point a sweep emitted —
/// one call, `(point, rank, sample)`-positioned diagnostics.
///
/// `expected_particles` pins every point's conservation total to the
/// trace's `N_p`; the sweep engine replays one trace for the whole grid,
/// so a single reference count applies to every point.
pub fn check_sweep(
    workloads: &[DynamicWorkload],
    expected_particles: Option<u64>,
) -> Vec<SweepViolation> {
    workloads
        .iter()
        .enumerate()
        .flat_map(|(point, w)| {
            check_workload(w, expected_particles)
                .into_iter()
                .map(move |violation| SweepViolation { point, violation })
        })
        .collect()
}

/// [`check_sweep`] as a hard gate: formats the violations into one
/// [`PicError`] for sweep call sites (`picpredict sweep` refuses to emit a
/// grid that fails it).
pub fn assert_sweep_valid(
    workloads: &[DynamicWorkload],
    expected_particles: Option<u64>,
) -> Result<(), PicError> {
    let violations = check_sweep(workloads, expected_particles);
    if violations.is_empty() {
        return Ok(());
    }
    let shown: Vec<String> = violations.iter().take(5).map(|v| v.to_string()).collect();
    let suffix = if violations.len() > 5 {
        format!(" (+{} more)", violations.len() - 5)
    } else {
        String::new()
    };
    Err(PicError::model(format!(
        "sweep failed invariant check with {} violation(s) across {} grid point(s): {}{suffix}",
        violations.len(),
        workloads.len(),
        shown.join("; ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_workload::{CommMatrix, CompMatrix};

    /// A small hand-built workload satisfying every invariant:
    /// 3 ranks, 3 samples, 10 particles.
    fn valid() -> DynamicWorkload {
        let real = CompMatrix::from_rows(3, vec![vec![4, 3, 3], vec![3, 4, 3], vec![3, 3, 4]]);
        let ghost_recv =
            CompMatrix::from_rows(3, vec![vec![1, 1, 0], vec![0, 1, 1], vec![1, 0, 1]]);
        let ghost_sent =
            CompMatrix::from_rows(3, vec![vec![0, 1, 1], vec![1, 1, 0], vec![1, 1, 0]]);
        let mut comm = CommMatrix::with_samples(3);
        comm.entries[1] = vec![(0, 1, 1)];
        comm.entries[2] = vec![(1, 2, 1)];
        DynamicWorkload {
            ranks: 3,
            iterations: vec![0, 10, 20],
            real,
            ghost_recv,
            ghost_sent,
            comm,
            bin_counts: vec![None, None, None],
        }
    }

    #[test]
    fn valid_workload_passes() {
        let w = valid();
        assert_eq!(check_workload(&w, Some(10)), vec![]);
        assert_eq!(check_workload(&w, None), vec![]);
        assert!(assert_workload_valid(&w, Some(10)).is_ok());
    }

    #[test]
    fn conservation_pins_to_expected_count() {
        let w = valid();
        // internally consistent, but the trace says 11 particles
        let v = check_workload(&w, Some(11));
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.code == "conservation"));
        assert_eq!(v[0].sample, Some(0));
    }

    #[test]
    fn shape_mismatch_short_circuits() {
        let mut w = valid();
        w.iterations.push(30); // now 4 iterations vs 3-sample matrices
        let v = check_workload(&w, None);
        assert!(!v.is_empty());
        assert!(v.iter().all(|x| x.code == "shape"), "{v:?}");
    }

    #[test]
    fn ragged_matrix_is_shape_violation() {
        let mut w = valid();
        // a tenth count: three whole 3-rank rows plus a tail `samples()`
        // floors away
        w.real = serde_json::from_str(r#"{"ranks":3,"data":[4,3,3,3,4,3,3,3,4,1]}"#).unwrap();
        let v = check_workload(&w, Some(10));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].code, "shape");
        assert!(
            v[0].message.contains("real matrix holds 10 counts"),
            "{v:?}"
        );
    }

    #[test]
    fn zero_ranks_is_shape_violation() {
        let w = DynamicWorkload {
            ranks: 0,
            iterations: vec![],
            real: CompMatrix::new(0),
            ghost_recv: CompMatrix::new(0),
            ghost_sent: CompMatrix::new(0),
            comm: CommMatrix::with_samples(0),
            bin_counts: vec![],
        };
        let v = check_workload(&w, None);
        assert!(v.iter().any(|x| x.code == "shape"));
    }

    #[test]
    fn ghost_bounds_catch_impossible_counts() {
        let mut w = valid();
        // rank 0 at sample 0 claims 7 ghosts but only 6 foreign particles
        w.ghost_recv = CompMatrix::from_rows(3, vec![vec![7, 1, 0], vec![0, 1, 1], vec![1, 0, 1]]);
        let v = check_workload(&w, Some(10));
        let codes: Vec<_> = v.iter().map(|x| x.code).collect();
        assert!(codes.contains(&"ghost-recv"), "{v:?}");
        assert!(codes.contains(&"ghost-balance"), "{v:?}");
        let gr = v.iter().find(|x| x.code == "ghost-recv").unwrap();
        assert_eq!((gr.rank, gr.sample), (Some(0), Some(0)));
    }

    #[test]
    fn sweep_check_positions_by_grid_point() {
        let good = valid();
        let mut bad = valid();
        bad.comm.entries[1][0].2 = 2; // comm-flow violations at point 2
        let grid = vec![good.clone(), good, bad];
        let v = check_sweep(&grid, Some(10));
        assert!(!v.is_empty());
        assert!(v.iter().all(|x| x.point == 2), "{v:?}");
        assert!(v.iter().any(|x| x.violation.code == "comm-flow"));
        let s = v[0].to_string();
        assert!(s.starts_with("point 2:"), "{s}");
        let err = assert_sweep_valid(&grid, Some(10)).unwrap_err();
        assert!(err.to_string().contains("point 2"), "{err}");
        assert!(err.to_string().contains("3 grid point(s)"), "{err}");
    }

    #[test]
    fn sweep_check_accepts_clean_grids() {
        let grid = vec![valid(), valid()];
        assert_eq!(check_sweep(&grid, Some(10)), vec![]);
        assert!(assert_sweep_valid(&grid, Some(10)).is_ok());
        assert!(assert_sweep_valid(&[], None).is_ok());
    }

    #[test]
    fn display_carries_coordinates() {
        let mut w = valid();
        w.comm.entries[1][0].2 = 2; // breaks flow at ranks 0 and 1, sample 1
        let v = check_workload(&w, Some(10));
        assert!(v.iter().any(|x| x.code == "comm-flow"));
        let s = v[0].to_string();
        assert!(s.contains("sample 1"), "{s}");
        let err = assert_workload_valid(&w, Some(10)).unwrap_err();
        assert!(err.to_string().contains("comm-flow"), "{err}");
    }
}
