//! CI gate for the serve-layer protocol models (ISSUE 8).
//!
//! Through the public `pic-analysis` API: the single-flight and shutdown
//! configuration matrices must verify clean (deadlock-, lost-wakeup-, and
//! leak-free), the ample-set reduction must demonstrably shrink the state
//! space without changing the terminal-state set, and every seeded mutant
//! in the corpus must be caught.

use pic_analysis::sched::{explore_with, ExploreOptions};
use pic_analysis::serve_model::single_flight::{SfMutant, SingleFlightModel, SingleFlightSpec};
use pic_analysis::{serve_mutant_corpus, verify_serve_protocols};

#[test]
fn serve_protocol_matrix_verifies_clean() {
    let verdicts = verify_serve_protocols().expect("all serve protocols must verify");
    let mut by_model = std::collections::BTreeMap::new();
    for v in &verdicts {
        *by_model.entry(v.model).or_insert(0usize) += 1;
        assert!(v.reduced.states > 0);
    }
    assert_eq!(by_model["single-flight"], 12);
    assert_eq!(by_model["shutdown"], 6);
    assert_eq!(by_model.len(), 2);
}

#[test]
fn reduction_shrinks_without_losing_terminals() {
    let verdicts = verify_serve_protocols().unwrap();
    let mut best = 1.0f64;
    for v in &verdicts {
        if let Some(full) = v.full {
            assert!(
                v.reduced.states <= full.states,
                "{} {}: reduced {} > full {}",
                v.model,
                v.config,
                v.reduced.states,
                full.states
            );
            assert_eq!(v.reduced.terminal_states, full.terminal_states);
        }
        if let Some(f) = v.reduction_factor() {
            best = best.max(f);
        }
    }
    assert!(best > 1.5, "best reduction factor only {best:.2}");
}

#[test]
fn mutant_corpus_is_fully_caught() {
    let outcomes = serve_mutant_corpus();
    assert_eq!(outcomes.len(), 8);
    for o in outcomes {
        assert!(o.caught, "mutant {} escaped: {}", o.name, o.detail);
    }
}

#[test]
fn pre_fix_abandonment_hangs_followers() {
    // The exact bug satellite 1 fixes, demonstrated on the model: a
    // panicking leader with no drop guard deadlocks its followers.
    let model = SingleFlightModel {
        spec: SingleFlightSpec {
            threads: 3,
            compute_steps: 1,
            leader_panics: true,
            abandonment_guard: false,
            mutant: SfMutant::None,
        },
    };
    let err = explore_with(&model, ExploreOptions::new(100_000)).unwrap_err();
    assert!(err.message.contains("deadlock"), "{err}");
    // And the guard (the fix) makes the same configuration verify clean.
    let fixed = SingleFlightModel {
        spec: SingleFlightSpec {
            abandonment_guard: true,
            ..model.spec
        },
    };
    explore_with(&fixed, ExploreOptions::new(100_000)).unwrap();
}
