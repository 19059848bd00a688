//! Explicit-state model of the `picpredict serve` concurrency layer.
//!
//! One protocol, checked by the [`crate::sched`] explorer with ample-set
//! partial-order reduction and lasso liveness: [`shutdown`] — the flag +
//! condvar + accept-poke + drain handshake
//! (`ServerState::{begin_shutdown, wait_shutdown}`, the accept loop in
//! `Server::start`, and the drain in `Server::cleanup`).
//!
//! The registry's byte-budgeted LRU accounting is a sequential property
//! and has no model here: `tests/registry_props.rs` checks it on the real
//! `TraceRegistry` and `AssignmentCache` over random op sequences.
//!
//! [`verify_serve_protocols`] runs the model over a configuration
//! matrix, both reduced and (for reporting) fully expanded, so the
//! reduction factor is visible. [`serve_mutant_corpus`] runs the seeded
//! bugs — one per bug class the checker claims to catch — and reports
//! whether each was *caught*; CI fails if any slips through.

pub mod shutdown;

use crate::sched::{explore_with, Exploration, ExploreOptions, ScheduleError};
use shutdown::{SdMutant, ShutdownModel, ShutdownSpec};

/// State bound for any single configuration; exceeding it is a checker
/// bug (the matrix is sized to stay far below).
const MAX_STATES: usize = 500_000;

/// Skip the full (unreduced) comparison run when the reduced exploration
/// already visited this many states — the full run is for reporting the
/// reduction factor, not for soundness.
const FULL_RUN_CEILING: usize = 60_000;

/// Result of verifying one model configuration.
#[derive(Debug, Clone)]
pub struct ProtocolVerdict {
    /// Which protocol model (`"shutdown"`).
    pub model: &'static str,
    /// Debug rendering of the configuration explored.
    pub config: String,
    /// Statistics of the reduced (ample-set + liveness) exploration.
    pub reduced: Exploration,
    /// Statistics of the full exploration, when it was cheap enough to
    /// also run for comparison.
    pub full: Option<Exploration>,
}

impl ProtocolVerdict {
    /// `full states / reduced states`, when both were run.
    pub fn reduction_factor(&self) -> Option<f64> {
        self.full
            .map(|f| f.states as f64 / self.reduced.states.max(1) as f64)
    }
}

/// Outcome of one seeded mutant.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// Corpus name of the mutant.
    pub name: &'static str,
    /// Did exploration report the seeded bug?
    pub caught: bool,
    /// First line of the checker's error (or a note that nothing fired).
    pub detail: String,
}

fn verify_one<M: crate::sched::Model>(
    model: &M,
    name: &'static str,
    config: String,
) -> Result<ProtocolVerdict, ScheduleError> {
    let reduced = explore_with(
        model,
        ExploreOptions::new(MAX_STATES)
            .with_reduction()
            .with_liveness(),
    )
    .map_err(|mut e| {
        e.message = format!("[{name} {config}] {}", e.message);
        e
    })?;
    let full = if reduced.states <= FULL_RUN_CEILING {
        Some(
            explore_with(model, ExploreOptions::new(MAX_STATES).with_liveness()).map_err(
                |mut e| {
                    e.message = format!("[{name} {config} full] {}", e.message);
                    e
                },
            )?,
        )
    } else {
        None
    };
    Ok(ProtocolVerdict {
        model: name,
        config,
        reduced,
        full,
    })
}

/// The shutdown configuration matrix: handler counts and work steps.
fn shutdown_matrix() -> Vec<ShutdownSpec> {
    let mut specs = Vec::new();
    for handlers in 0..=2 {
        for &handler_steps in &[0u8, 2] {
            specs.push(ShutdownSpec {
                handlers,
                handler_steps,
                mutant: SdMutant::None,
            });
        }
    }
    specs
}

/// Exhaustively verify the serve shutdown protocol over its config
/// matrix: deadlock-free, lost-wakeup-free (liveness lassos), leak-free
/// (terminal invariants), with per-config reduced-vs-full state counts.
pub fn verify_serve_protocols() -> Result<Vec<ProtocolVerdict>, ScheduleError> {
    let mut verdicts = Vec::new();
    for spec in shutdown_matrix() {
        verdicts.push(verify_one(
            &ShutdownModel { spec },
            "shutdown",
            format!("handlers={} steps={}", spec.handlers, spec.handler_steps),
        )?);
    }
    Ok(verdicts)
}

fn run_mutant<M: crate::sched::Model>(model: &M, name: &'static str) -> MutantOutcome {
    match explore_with(
        model,
        ExploreOptions::new(MAX_STATES)
            .with_reduction()
            .with_liveness(),
    ) {
        Ok(stats) => MutantOutcome {
            name,
            caught: false,
            detail: format!(
                "NOT CAUGHT: exploration passed ({} states, {} terminal)",
                stats.states, stats.terminal_states
            ),
        },
        Err(e) => MutantOutcome {
            name,
            caught: true,
            detail: e.message.lines().next().unwrap_or("").to_string(),
        },
    }
}

/// Run the seeded-mutant corpus: one representative bug per class the
/// checker claims to catch (dropped notify, dropped accept poke, lost
/// wakeup, skipped connection-count decrement). Every entry must come
/// back `caught` — CI enforces it.
pub fn serve_mutant_corpus() -> Vec<MutantOutcome> {
    let sd = |mutant| ShutdownModel {
        spec: ShutdownSpec {
            handlers: 2,
            handler_steps: 1,
            mutant,
        },
    };
    vec![
        run_mutant(&sd(SdMutant::DropNotify), "shutdown-drop-notify"),
        run_mutant(&sd(SdMutant::DropPoke), "shutdown-drop-poke"),
        run_mutant(&sd(SdMutant::FlagOutsideLock), "shutdown-flag-outside-lock"),
        run_mutant(
            &sd(SdMutant::SkipActiveDecrement),
            "shutdown-skip-active-decrement",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_protocols_verify_clean() {
        let verdicts = verify_serve_protocols().unwrap();
        assert_eq!(verdicts.len(), 6);
        for v in &verdicts {
            assert!(
                v.reduced.states > 0,
                "{} {}: empty exploration",
                v.model,
                v.config
            );
            if let Some(full) = v.full {
                assert!(
                    v.reduced.states <= full.states,
                    "{} {}: reduction grew the state space",
                    v.model,
                    v.config
                );
                assert_eq!(
                    v.reduced.terminal_states, full.terminal_states,
                    "{} {}: reduction changed the terminal-state set",
                    v.model, v.config
                );
            }
        }
        // The reduction must actually bite somewhere in the matrix.
        assert!(
            verdicts.iter().any(|v| v.reduced.ample_states > 0),
            "ample-set reduction never applied"
        );
        assert!(
            verdicts
                .iter()
                .any(|v| v.reduction_factor().is_some_and(|f| f > 1.5)),
            "no configuration showed a meaningful reduction factor"
        );
    }

    #[test]
    fn every_seeded_mutant_is_caught() {
        let outcomes = serve_mutant_corpus();
        assert_eq!(outcomes.len(), 4);
        let escaped: Vec<_> = outcomes.iter().filter(|o| !o.caught).collect();
        assert!(escaped.is_empty(), "mutants escaped: {escaped:#?}");
    }

    #[test]
    fn dropped_notify_deadlock_reports_replayable_schedule() {
        let m = ShutdownModel {
            spec: ShutdownSpec {
                handlers: 1,
                handler_steps: 0,
                mutant: SdMutant::DropNotify,
            },
        };
        let err = explore_with(&m, ExploreOptions::new(10_000)).unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
        assert!(!err.trace.is_empty());
    }

    #[test]
    fn skipped_decrement_is_a_liveness_not_safety_bug() {
        let m = ShutdownModel {
            spec: ShutdownSpec {
                handlers: 1,
                handler_steps: 0,
                mutant: SdMutant::SkipActiveDecrement,
            },
        };
        // Safety-only exploration is blind to the spin.
        explore_with(&m, ExploreOptions::new(10_000)).unwrap();
        // The lasso check sees the waiter starving around the drain loop.
        let err = explore_with(&m, ExploreOptions::new(10_000).with_liveness()).unwrap_err();
        assert!(err.message.contains("liveness violation"), "{err}");
        assert!(err.trace.iter().any(|l| l == "-- cycle --"), "{err}");
    }
}
