//! CI gate for the serve-layer protocol models (ISSUE 8).
//!
//! Through the public `pic-analysis` API: the shutdown configuration
//! matrix must verify clean (deadlock-, lost-wakeup-, and leak-free), the
//! ample-set reduction must demonstrably shrink the state space without
//! changing the terminal-state set, and every seeded mutant in the corpus
//! must be caught.

use pic_analysis::{serve_mutant_corpus, verify_serve_protocols};

#[test]
fn serve_protocol_matrix_verifies_clean() {
    let verdicts = verify_serve_protocols().expect("all serve protocols must verify");
    let mut by_model = std::collections::BTreeMap::new();
    for v in &verdicts {
        *by_model.entry(v.model).or_insert(0usize) += 1;
        assert!(v.reduced.states > 0);
    }
    assert_eq!(by_model["shutdown"], 6);
    assert_eq!(by_model.len(), 1);
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
    assert_eq!(outcomes.len(), 4);
    for o in outcomes {
        assert!(o.caught, "mutant {} escaped: {}", o.name, o.detail);
    }
}
