//! Deterministic schedule exploration for message-passing state machines.
//!
//! A minimal in-tree model checker in the spirit of loom: a concurrent
//! system is modelled as a [`Model`] — an initial state, a set of enabled
//! atomic actions per state, and a deterministic transition function. The
//! explorer walks **every** reachable interleaving by depth-first search
//! over the state graph (deduplicating states, so confluent interleavings
//! are visited once) and checks:
//!
//! * the state invariant holds in every reachable state;
//! * no non-terminal state is stuck (deadlock-freedom: some action is
//!   always enabled until the system terminates);
//! * every terminal state satisfies the model's terminal checks.
//!
//! On failure the explorer reports a minimal-by-construction action trace
//! from the initial state to the offending state, which is a replayable
//! schedule — the property that makes the harness useful in CI.

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;

/// A concurrent system with explicitly enumerated atomic steps.
pub trait Model {
    /// Global system state. States are deduplicated by `Eq + Hash`, so the
    /// state must capture everything the transition function reads.
    type State: Clone + Eq + Hash + Debug;
    /// One atomic step some thread can take.
    type Action: Copy + Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;
    /// All actions enabled in `s`. Empty for terminal states; empty for a
    /// non-terminal state means deadlock.
    fn enabled(&self, s: &Self::State) -> Vec<Self::Action>;
    /// Apply one enabled action. Must be deterministic.
    fn step(&self, s: &Self::State, a: Self::Action) -> Self::State;
    /// Is `s` a legitimate end state (all threads exited)?
    fn is_terminal(&self, s: &Self::State) -> bool;
    /// Invariant checked on every reachable state (including terminal
    /// ones). Return `Err` with a description to fail exploration.
    fn check(&self, s: &Self::State) -> Result<(), String>;
}

/// Statistics from a completed exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct states visited.
    pub states: usize,
    /// Distinct terminal states reached.
    pub terminal_states: usize,
    /// Transitions taken (edges in the state graph).
    pub transitions: usize,
}

/// A schedule that violates a property, with the action trace leading to it.
#[derive(Debug, Clone)]
pub struct ScheduleError {
    /// What went wrong (invariant message, deadlock, state-space overflow).
    pub message: String,
    /// Debug-formatted actions from the initial state to the failure.
    pub trace: Vec<String>,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        writeln!(f, "schedule ({} steps):", self.trace.len())?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}: {a}")?;
        }
        Ok(())
    }
}

/// One suspended node of the iterative DFS.
struct Frame<M: Model> {
    state: M::State,
    actions: Vec<M::Action>,
    next: usize,
}

/// Exhaustively explore every reachable interleaving of `model`.
///
/// `max_states` bounds the state space: exceeding it is an error (the
/// model is bigger than the harness is prepared to prove things about),
/// never a silent truncation.
pub fn explore<M: Model>(model: &M, max_states: usize) -> Result<Exploration, ScheduleError> {
    let mut seen: HashSet<M::State> = HashSet::new();
    let mut stats = Exploration {
        states: 0,
        terminal_states: 0,
        transitions: 0,
    };
    // Labels of the edges from the root to the top frame — the replayable
    // schedule for any failure discovered at the top of the stack.
    let mut labels: Vec<String> = Vec::new();
    let mut stack: Vec<Frame<M>> = Vec::new();
    if let Some(frame) = admit(
        model,
        model.initial(),
        max_states,
        &mut seen,
        &mut stats,
        &labels,
    )? {
        stack.push(frame);
    }
    while let Some(top) = stack.last_mut() {
        if top.next >= top.actions.len() {
            stack.pop();
            // The root frame has no incoming edge label.
            if !stack.is_empty() {
                labels.pop();
            }
            continue;
        }
        let a = top.actions[top.next];
        top.next += 1;
        stats.transitions += 1;
        let next_state = model.step(&top.state, a);
        labels.push(format!("{a:?}"));
        match admit(
            model, next_state, max_states, &mut seen, &mut stats, &labels,
        )? {
            Some(frame) => stack.push(frame),
            None => {
                labels.pop();
            }
        }
    }
    Ok(stats)
}

/// First-visit processing of a state: dedup, bound check, invariant,
/// deadlock/terminal checks and stats. `None` for a state already seen.
/// `labels` is the schedule that reached this state.
fn admit<M: Model>(
    model: &M,
    state: M::State,
    max_states: usize,
    seen: &mut HashSet<M::State>,
    stats: &mut Exploration,
    labels: &[String],
) -> Result<Option<Frame<M>>, ScheduleError> {
    if seen.contains(&state) {
        return Ok(None);
    }
    let fail = |message: String| ScheduleError {
        message,
        trace: labels.to_vec(),
    };
    if seen.len() >= max_states {
        return Err(fail(format!("state space exceeds {max_states} states")));
    }
    (model.check(&state)).map_err(|message| {
        fail(format!(
            "invariant violated: {message}\n  in state: {state:?}"
        ))
    })?;
    let actions = model.enabled(&state);
    let terminal = model.is_terminal(&state);
    if actions.is_empty() && !terminal {
        return Err(fail(format!(
            "deadlock: no action enabled in non-terminal state\n  {state:?}"
        )));
    }
    if terminal && !actions.is_empty() {
        return Err(fail(format!(
            "terminal state still has enabled actions {actions:?}\n  {state:?}"
        )));
    }
    seen.insert(state.clone());
    stats.states += 1;
    if terminal {
        stats.terminal_states += 1;
    }
    Ok(Some(Frame {
        state,
        actions,
        next: 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two workers increment a shared counter twice each, atomically.
    /// Terminal: counter == 4 regardless of interleaving.
    struct Counter;

    impl Model for Counter {
        type State = (u8, u8, u8); // (worker A remaining, worker B remaining, counter)
        type Action = u8; // 0 = A steps, 1 = B steps

        fn initial(&self) -> Self::State {
            (2, 2, 0)
        }
        fn enabled(&self, s: &Self::State) -> Vec<u8> {
            let mut v = Vec::new();
            if s.0 > 0 {
                v.push(0);
            }
            if s.1 > 0 {
                v.push(1);
            }
            v
        }
        fn step(&self, s: &Self::State, a: u8) -> Self::State {
            match a {
                0 => (s.0 - 1, s.1, s.2 + 1),
                _ => (s.0, s.1 - 1, s.2 + 1),
            }
        }
        fn is_terminal(&self, s: &Self::State) -> bool {
            s.0 == 0 && s.1 == 0
        }
        fn check(&self, s: &Self::State) -> Result<(), String> {
            if self.is_terminal(s) && s.2 != 4 {
                return Err(format!("terminal counter {} ≠ 4", s.2));
            }
            Ok(())
        }
    }

    #[test]
    fn counter_explores_all_interleavings() {
        let r = explore(&Counter, 1000).unwrap();
        // states: (a, b) remaining pairs × counter is determined → 3×3 = 9
        assert_eq!(r.states, 9);
        assert_eq!(r.terminal_states, 1);
        // transitions = edges of the 3×3 grid DAG: 2·3·2 = 12
        assert_eq!(r.transitions, 12);
    }

    /// A model with a buried deadlock: B can only step after A has fully
    /// finished, but A's second step requires B to have started.
    struct Deadlocky;

    impl Model for Deadlocky {
        type State = (u8, u8);
        type Action = u8;

        fn initial(&self) -> Self::State {
            (0, 0)
        }
        fn enabled(&self, s: &Self::State) -> Vec<u8> {
            let mut v = Vec::new();
            if s.0 == 0 || (s.0 == 1 && s.1 >= 1) {
                v.push(0);
            }
            if s.1 == 0 && s.0 == 2 {
                v.push(1);
            }
            v
        }
        fn step(&self, s: &Self::State, a: u8) -> Self::State {
            match a {
                0 => (s.0 + 1, s.1),
                _ => (s.0, s.1 + 1),
            }
        }
        fn is_terminal(&self, s: &Self::State) -> bool {
            s.0 == 2 && s.1 == 1
        }
        fn check(&self, _: &Self::State) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn deadlock_is_reported_with_schedule() {
        let err = explore(&Deadlocky, 1000).unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
        // the schedule that reaches the stuck state: A once, then nothing
        assert_eq!(err.trace.len(), 1);
        assert!(err.to_string().contains("schedule"));
    }

    #[test]
    fn state_space_overflow_is_loud() {
        let err = explore(&Counter, 3).unwrap_err();
        assert!(err.message.contains("exceeds 3 states"), "{}", err.message);
    }
}
