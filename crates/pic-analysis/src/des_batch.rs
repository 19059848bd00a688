//! Soundness of replacing the DES event loop with a dataflow fold.
//!
//! `pic_des::simulate` runs no event loop. Per step it computes every
//! rank's compute-done time `start[r] + scale·compute[r]`, folds every
//! message's arrival `done[from] + delay(from,to)` into its receiver with a
//! `max`, and takes `ready[r] = max(done[r], last_arrival[r])`. Under a
//! barrier the next step starts at `max_r ready[r]` plus the collective
//! cost; under neighbour synchronisation each rank starts at its own
//! `ready[r]`. The event-per-message engine it is tested against
//! (`pic_des::reference::simulate_reference`) reaches the same numbers by
//! popping events in time order. This module checks the claim underneath
//! that agreement: the outcome does not depend on the order at all.
//!
//! **Barrier steps.** Every causal order of processing one step's
//! compute-completions and message-deliveries yields the same barrier
//! time, where "causal" means only that a message is delivered after its
//! sender's compute is processed. The heap's time order is one such order
//! and the fold (all computes, then all messages) is another.
//! [`BarrierStepModel`] encodes the per-event bookkeeping an event engine
//! performs (a `max` fold into `last_arrival`, an arrival counter, a
//! completion-guarded barrier countdown, and a completion probe that any
//! event touching a rank may repeat) and the model checker in
//! [`crate::sched`] walks **every** causal interleaving, checking in each
//! terminal state that the incrementally accumulated barrier time equals
//! the closed form. Release time and per-rank idle are functions of the
//! barrier time (`release = barrier + collective_cost`,
//! `idle[r] = release − done[r]`), so agreement on the barrier time carries
//! the whole `SimTimeline` row.
//!
//! **Neighbour-synchronised run-ahead.** Without a barrier the steps are
//! not independent: a fast sender may finish step 1 while its receiver is
//! still computing step 0, so step-1 arrivals are buffered against a rank
//! that has not got there yet. [`NeighborRunAheadModel`] is two steps with
//! ranks allowed to be a step apart; its actions are the same two events,
//! constrained only by causality (a rank computes step 1 after it is ready
//! with step 0; a message is delivered after its sender's compute of that
//! step), and every recorded `ready` time, in every reachable state, must
//! equal the fold's. Per-rank idle and the step finish times are functions
//! of `done` and `ready`, so they follow.
//!
//! Deadlock-freedom of both explorations doubles as a liveness proof: no
//! processing order can wedge a step.
//!
//! [`des_batch_mutants`] shows the harness has teeth by checking
//! deliberately broken disciplines, all of which the explorer must refute:
//! for the barrier step, ignoring message arrival times, releasing the
//! barrier one rank early, and dropping the completion guard (a re-probed
//! rank counted twice); for run-ahead, folding an arrival into whichever
//! step its receiver happens to be on, and a `ready` that ignores
//! `last_arrival`.

use crate::sched::{explore, Exploration, Model, ScheduleError};

/// A deliberately broken batching discipline, used to demonstrate the
/// model checker actually distinguishes sound from unsound designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesBatchMutant {
    /// Rank readiness ignores `last_arrival` (messages never delay the
    /// barrier) — the "vectorized max over compute only" shortcut.
    IgnoreArrival,
    /// The barrier releases when one rank is still outstanding.
    EarlyRelease,
    /// Completion is not idempotent: a rank re-probed after completing
    /// decrements the barrier countdown again.
    NoCompletionGuard,
}

/// One bulk-synchronous step as a concurrent system: compute-completions
/// and message-deliveries are the atomic actions, constrained only by
/// causality (a delivery needs its sender's compute processed first).
#[derive(Debug)]
pub struct BarrierStepModel {
    /// Config label for reports.
    pub name: &'static str,
    /// Integer compute-done ticks per rank (≤ 16 ranks).
    pub compute: Vec<u32>,
    /// Messages `(from, to, delay)`: arrival tick = `compute[from] + delay`.
    pub msgs: Vec<(u8, u8, u32)>,
    /// Broken discipline to emulate, if any.
    pub mutant: Option<DesBatchMutant>,
}

/// Explorer state: which events have been processed plus the exact
/// accumulators an event engine maintains. The accumulators are part of the
/// state on purpose — if two interleavings could drive them apart, they
/// would surface as distinct (and separately checked) states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BarrierStepState {
    /// Ranks whose compute-done event has been processed.
    done: u16,
    /// Messages whose delivery has been processed.
    delivered: u16,
    /// Ranks whose completion has been counted toward the barrier.
    counted: u16,
    /// `max` fold of processed arrival ticks, per rank.
    last_arrival: Vec<u32>,
    /// `max` fold of counted ranks' ready ticks.
    barrier_time: u32,
    /// Ranks still outstanding at the barrier.
    remaining: u8,
    /// Barrier released.
    released: bool,
}

/// One atomic processing step.
#[derive(Debug, Clone, Copy)]
pub enum BarrierStepAction {
    /// Process rank `r`'s compute-done event.
    Compute(u8),
    /// Process message `m`'s delivery (requires the sender's compute).
    Deliver(u8),
    /// Redundantly re-probe rank `r`'s completion. An event engine calls
    /// `try_ready` once per event *touching* a rank and nothing bounds
    /// how often that is, so the model allows probes beyond the one each
    /// event carries. Under the sound (idempotent) discipline this is a
    /// no-op self-loop; it is exactly what refutes
    /// [`DesBatchMutant::NoCompletionGuard`].
    Probe(u8),
}

impl BarrierStepModel {
    fn ranks(&self) -> usize {
        self.compute.len()
    }

    /// Bitmask of messages inbound to rank `r`.
    fn inbound_mask(&self, r: u8) -> u16 {
        let mut mask = 0u16;
        for (i, &(_, to, _)) in self.msgs.iter().enumerate() {
            if to == r {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// The fold's closed form: the barrier fires at
    /// `max_r max(compute[r], max_{m→r} compute[from] + delay)`.
    pub fn closed_form_barrier(&self) -> u32 {
        let mut barrier = 0u32;
        for (r, &c) in self.compute.iter().enumerate() {
            let mut ready = c;
            for &(from, to, delay) in &self.msgs {
                if to as usize == r {
                    ready = ready.max(self.compute[from as usize] + delay);
                }
            }
            barrier = barrier.max(ready);
        }
        barrier
    }

    /// The completion probe every event touching rank `r` performs —
    /// the model-level transcription of the reference engine's
    /// `try_ready`.
    fn probe(&self, s: &mut BarrierStepState, r: u8) {
        let bit = 1u16 << r;
        let guard = self.mutant != Some(DesBatchMutant::NoCompletionGuard);
        if guard && s.counted & bit != 0 {
            return;
        }
        if s.done & bit == 0 {
            return;
        }
        let inbound = self.inbound_mask(r);
        if s.delivered & inbound != inbound {
            return;
        }
        s.counted |= bit;
        let ready = if self.mutant == Some(DesBatchMutant::IgnoreArrival) {
            self.compute[r as usize]
        } else {
            self.compute[r as usize].max(s.last_arrival[r as usize])
        };
        s.barrier_time = s.barrier_time.max(ready);
        s.remaining = s.remaining.saturating_sub(1);
        let threshold = u8::from(self.mutant == Some(DesBatchMutant::EarlyRelease));
        if s.remaining <= threshold {
            s.released = true;
        }
    }
}

impl Model for BarrierStepModel {
    type State = BarrierStepState;
    type Action = BarrierStepAction;

    fn initial(&self) -> BarrierStepState {
        BarrierStepState {
            done: 0,
            delivered: 0,
            counted: 0,
            last_arrival: vec![0; self.ranks()],
            barrier_time: 0,
            remaining: self.ranks() as u8,
            released: false,
        }
    }

    fn enabled(&self, s: &BarrierStepState) -> Vec<BarrierStepAction> {
        if s.released {
            return Vec::new();
        }
        let mut v = Vec::new();
        for r in 0..self.ranks() as u8 {
            if s.done & (1 << r) == 0 {
                v.push(BarrierStepAction::Compute(r));
            }
        }
        for (i, &(from, _, _)) in self.msgs.iter().enumerate() {
            if s.delivered & (1 << i) == 0 && s.done & (1 << from) != 0 {
                v.push(BarrierStepAction::Deliver(i as u8));
            }
        }
        for r in 0..self.ranks() as u8 {
            v.push(BarrierStepAction::Probe(r));
        }
        v
    }

    fn step(&self, s: &BarrierStepState, a: BarrierStepAction) -> BarrierStepState {
        let mut next = s.clone();
        match a {
            BarrierStepAction::Compute(r) => {
                next.done |= 1 << r;
                self.probe(&mut next, r);
            }
            BarrierStepAction::Deliver(m) => {
                let (from, to, delay) = self.msgs[m as usize];
                next.delivered |= 1 << m;
                let arrive = self.compute[from as usize] + delay;
                next.last_arrival[to as usize] = next.last_arrival[to as usize].max(arrive);
                self.probe(&mut next, to);
            }
            BarrierStepAction::Probe(r) => {
                self.probe(&mut next, r);
            }
        }
        next
    }

    fn is_terminal(&self, s: &BarrierStepState) -> bool {
        s.released
    }

    fn check(&self, s: &BarrierStepState) -> Result<(), String> {
        let closed = self.closed_form_barrier();
        // Monotone safety: the accumulator can never exceed the closed
        // form (each counted rank contributes exactly its closed-form
        // term, because counting requires all inbound deliveries).
        if s.barrier_time > closed {
            return Err(format!(
                "accumulated barrier time {} exceeds closed form {closed}",
                s.barrier_time
            ));
        }
        if s.released {
            if s.barrier_time != closed {
                return Err(format!(
                    "released at barrier time {}, the fold computes {closed}",
                    s.barrier_time
                ));
            }
            let all_ranks = (1u16 << self.ranks()) - 1;
            let all_msgs = if self.msgs.is_empty() {
                0
            } else {
                (1u16 << self.msgs.len()) - 1
            };
            if s.done != all_ranks || s.delivered != all_msgs || s.remaining != 0 {
                return Err(format!(
                    "released with work outstanding: done={:#b} delivered={:#b} remaining={}",
                    s.done, s.delivered, s.remaining
                ));
            }
        }
        Ok(())
    }
}

/// The configurations the soundness run explores: ties, self-messages,
/// zero delays, fan-in, fan-out, duplicate sender→receiver pairs, and a
/// message-free step.
fn soundness_configs() -> Vec<BarrierStepModel> {
    let cfg = |name, compute: Vec<u32>, msgs: Vec<(u8, u8, u32)>| BarrierStepModel {
        name,
        compute,
        msgs,
        mutant: None,
    };
    vec![
        cfg("no-messages", vec![3, 1, 2], vec![]),
        cfg(
            "tied-computes-ring",
            vec![2, 2, 2],
            vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)],
        ),
        cfg("self-message", vec![2], vec![(0, 0, 1)]),
        cfg(
            "zero-delay-exchange",
            vec![1, 2],
            vec![(0, 1, 0), (1, 0, 0)],
        ),
        cfg("fan-in", vec![1, 4, 2], vec![(1, 0, 1), (2, 0, 3)]),
        cfg("fan-out", vec![3, 1, 1], vec![(0, 1, 2), (0, 2, 0)]),
        // two messages from one sender to one receiver: rank 1 is touched
        // twice. rank 2 dominates so double-counting rank 1 releases early
        // with an observably wrong barrier time.
        cfg("duplicate-pair", vec![1, 1, 9], vec![(0, 1, 1), (0, 1, 3)]),
        cfg(
            "mixed-irregular",
            vec![0, 3, 3],
            vec![(0, 1, 0), (1, 2, 2), (2, 2, 1), (0, 2, 5)],
        ),
    ]
}

/// A deliberately broken run-ahead discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborMutant {
    /// An arrival is folded (time and count) into whichever step its
    /// receiver is on when it is delivered, not the step it was sent in:
    /// right only as long as no sender runs ahead.
    ArrivalIntoCurrentStep,
    /// `ready` is the rank's own compute-done time; `last_arrival` is
    /// ignored.
    ReadyIgnoresArrival,
}

/// Two neighbour-synchronised steps as a concurrent system. A rank
/// computes step 1 once it is ready with step 0, whatever the others are
/// doing, so ranks may be a step apart and step-1 messages may reach a
/// rank still on step 0.
#[derive(Debug)]
pub struct NeighborRunAheadModel {
    /// Config label for reports.
    pub name: &'static str,
    /// Integer compute ticks `[step][rank]` (≤ 8 ranks).
    pub compute: [Vec<u32>; 2],
    /// Messages `(from, to, delay)` per step (≤ 16 each): arrival tick =
    /// the sender's compute-done tick of that step + `delay`.
    pub msgs: [Vec<(u8, u8, u32)>; 2],
    /// Broken discipline to emulate, if any.
    pub mutant: Option<NeighborMutant>,
}

/// Explorer state of [`NeighborRunAheadModel`]: the event engine's
/// per-`[step][rank]` bookkeeping. A rank is on the first step it has no
/// `ready` time for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NeighborState {
    /// Compute-done tick, once that event has been processed.
    done: [Vec<Option<u32>>; 2],
    /// Messages whose delivery has been processed, per step.
    delivered: [u16; 2],
    /// Deliveries counted toward each rank.
    arrived: [Vec<u8>; 2],
    /// `max` fold of the counted arrival ticks.
    last_arrival: [Vec<u32>; 2],
    /// Tick the rank completed the step at, once it has.
    ready: [Vec<Option<u32>>; 2],
}

/// One atomic processing step of [`NeighborRunAheadModel`].
#[derive(Debug, Clone, Copy)]
pub enum NeighborAction {
    /// Process rank `r`'s compute-done event for the step it is on.
    Compute(u8),
    /// Process the delivery of message `m` of step `s`.
    Deliver(u8, u8),
}

impl NeighborRunAheadModel {
    fn ranks(&self) -> usize {
        self.compute[0].len()
    }

    /// The step rank `r` is on (2 = finished).
    fn step_of(s: &NeighborState, r: usize) -> usize {
        s.ready
            .iter()
            .take_while(|ready| ready[r].is_some())
            .count()
    }

    /// The fold, as `pic_des::simulate` runs it: per-`[step][rank]` ready
    /// ticks, each step's start being the previous step's ready.
    fn fold_ready(&self) -> [Vec<u32>; 2] {
        let mut start = vec![0u32; self.ranks()];
        [0, 1].map(|s| {
            let done: Vec<u32> = start
                .iter()
                .zip(&self.compute[s])
                .map(|(a, c)| a + c)
                .collect();
            let mut ready = done.clone();
            for &(from, to, delay) in &self.msgs[s] {
                ready[to as usize] = ready[to as usize].max(done[from as usize] + delay);
            }
            start.clone_from(&ready);
            ready
        })
    }

    /// The reference engine's `try_ready`: rank `r` completes the step it
    /// is on once its compute is processed and its inbound messages of
    /// that step are all counted.
    fn probe(&self, s: &mut NeighborState, r: usize) {
        let step = Self::step_of(s, r);
        let Some(done) = s.done.get(step).and_then(|done| done[r]) else {
            return;
        };
        let expected = self.msgs[step].iter().filter(|m| m.1 as usize == r).count();
        if (s.arrived[step][r] as usize) < expected {
            return;
        }
        s.ready[step][r] = Some(match self.mutant {
            Some(NeighborMutant::ReadyIgnoresArrival) => done,
            _ => done.max(s.last_arrival[step][r]),
        });
    }
}

impl Model for NeighborRunAheadModel {
    type State = NeighborState;
    type Action = NeighborAction;

    fn initial(&self) -> NeighborState {
        let n = self.ranks();
        NeighborState {
            done: [vec![None; n], vec![None; n]],
            delivered: [0; 2],
            arrived: [vec![0; n], vec![0; n]],
            last_arrival: [vec![0; n], vec![0; n]],
            ready: [vec![None; n], vec![None; n]],
        }
    }

    fn enabled(&self, s: &NeighborState) -> Vec<NeighborAction> {
        let mut v = Vec::new();
        for r in 0..self.ranks() {
            let step = Self::step_of(s, r);
            if step < 2 && s.done[step][r].is_none() {
                v.push(NeighborAction::Compute(r as u8));
            }
        }
        for step in 0..2 {
            for (m, &(from, _, _)) in self.msgs[step].iter().enumerate() {
                if s.delivered[step] & (1 << m) == 0 && s.done[step][from as usize].is_some() {
                    v.push(NeighborAction::Deliver(step as u8, m as u8));
                }
            }
        }
        v
    }

    fn step(&self, s: &NeighborState, a: NeighborAction) -> NeighborState {
        let mut next = s.clone();
        match a {
            NeighborAction::Compute(r) => {
                let r = r as usize;
                let step = Self::step_of(s, r);
                let start = if step == 0 {
                    Some(0)
                } else {
                    s.ready[step - 1][r]
                };
                next.done[step][r] = Some(start.expect("enabled") + self.compute[step][r]);
                self.probe(&mut next, r);
            }
            NeighborAction::Deliver(step, m) => {
                let step = step as usize;
                let (from, to, delay) = self.msgs[step][m as usize];
                let to = to as usize;
                next.delivered[step] |= 1 << m;
                let arrive = s.done[step][from as usize].expect("enabled") + delay;
                let into = match self.mutant {
                    Some(NeighborMutant::ArrivalIntoCurrentStep) => Self::step_of(s, to).min(1),
                    _ => step,
                };
                next.arrived[into][to] += 1;
                next.last_arrival[into][to] = next.last_arrival[into][to].max(arrive);
                self.probe(&mut next, to);
            }
        }
        next
    }

    fn is_terminal(&self, s: &NeighborState) -> bool {
        s.ready[1].iter().all(Option::is_some)
    }

    fn check(&self, s: &NeighborState) -> Result<(), String> {
        let fold = self.fold_ready();
        for (step, (ready, fold)) in s.ready.iter().zip(&fold).enumerate() {
            for (r, (ready, fold)) in ready.iter().zip(fold).enumerate() {
                if let Some(t) = ready.filter(|t| t != fold) {
                    return Err(format!(
                        "rank {r} ready with step {step} at {t}, the fold computes {fold}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The run-ahead configurations: a sender that finishes both steps while
/// its receiver is on the first, a message that outlasts its receiver's
/// compute, a ring, self-messages and repeated pairs, all-zero compute
/// with zero delays (every `max` ties), and ranks that only send or only
/// receive.
fn run_ahead_configs() -> Vec<NeighborRunAheadModel> {
    type Msgs = Vec<(u8, u8, u32)>;
    let cfg = |name, compute: [Vec<u32>; 2], msgs: [Msgs; 2]| NeighborRunAheadModel {
        name,
        compute,
        msgs,
        mutant: None,
    };
    vec![
        cfg(
            "ns-sender-runs-ahead",
            [vec![1, 9], vec![1, 2]],
            [vec![(0, 1, 1)], vec![(0, 1, 4)]],
        ),
        cfg(
            "ns-late-message",
            [vec![5, 1], vec![1, 1]],
            [vec![(0, 1, 3)], vec![(1, 0, 2)]],
        ),
        cfg(
            "ns-ring",
            [vec![2, 1, 3], vec![1, 3, 1]],
            [
                vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)],
                vec![(0, 1, 2), (1, 2, 0), (2, 0, 1)],
            ],
        ),
        cfg(
            "ns-self-and-repeat",
            [vec![2, 1], vec![1, 1]],
            [
                vec![(0, 0, 3), (1, 0, 1), (1, 0, 4)],
                vec![(0, 1, 0), (0, 1, 2)],
            ],
        ),
        cfg(
            "ns-all-zero",
            [vec![0, 0, 0], vec![0, 0, 0]],
            [vec![(0, 1, 0), (1, 2, 0)], vec![(2, 0, 0), (0, 2, 0)]],
        ),
        cfg(
            "ns-send-only-receive-only",
            [vec![3, 0, 1], vec![0, 2, 1]],
            [vec![(0, 1, 1), (0, 1, 1)], vec![(0, 1, 2), (2, 1, 0)]],
        ),
    ]
}

/// Verdict for one explored configuration.
#[derive(Debug, Clone)]
pub struct DesBatchVerdict {
    /// Configuration label.
    pub config: &'static str,
    /// Exploration statistics (states, terminals, transitions).
    pub exploration: Exploration,
}

/// Explore one configuration, labelling a failure with its name.
fn verdict<M: Model>(name: &'static str, model: &M) -> Result<DesBatchVerdict, ScheduleError> {
    let exploration = explore(model, 200_000).map_err(|e| ScheduleError {
        message: format!("config '{name}': {}", e.message),
        trace: e.trace,
    })?;
    Ok(DesBatchVerdict {
        config: name,
        exploration,
    })
}

/// Exhaustively verify that the fold is what every causal event order
/// computes: the barrier step on every soundness configuration, then the
/// neighbour-synchronised run-ahead on its own. Errors carry the refuting
/// schedule.
pub fn verify_des_batching() -> Result<Vec<DesBatchVerdict>, ScheduleError> {
    let barrier = soundness_configs();
    let run_ahead = run_ahead_configs();
    barrier
        .iter()
        .map(|m| verdict(m.name, m))
        .chain(run_ahead.iter().map(|m| verdict(m.name, m)))
        .collect()
}

/// Run the broken disciplines; each entry reports whether the explorer
/// refuted it on some configuration (all must be `true` for the harness to
/// mean anything).
pub fn des_batch_mutants() -> Vec<(String, bool)> {
    fn any_refuted<M: Model>(models: impl IntoIterator<Item = M>) -> bool {
        models
            .into_iter()
            .any(|model| explore(&model, 200_000).is_err())
    }
    let barrier = [
        DesBatchMutant::IgnoreArrival,
        DesBatchMutant::EarlyRelease,
        DesBatchMutant::NoCompletionGuard,
    ]
    .map(|mutant| {
        let models = soundness_configs()
            .into_iter()
            .map(|model| BarrierStepModel {
                mutant: Some(mutant),
                ..model
            });
        (format!("{mutant:?}"), any_refuted(models))
    });
    let run_ahead = [
        NeighborMutant::ArrivalIntoCurrentStep,
        NeighborMutant::ReadyIgnoresArrival,
    ]
    .map(|mutant| {
        let models = run_ahead_configs()
            .into_iter()
            .map(|model| NeighborRunAheadModel {
                mutant: Some(mutant),
                ..model
            });
        (format!("{mutant:?}"), any_refuted(models))
    });
    barrier.into_iter().chain(run_ahead).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_causal_orders_match_closed_form() {
        let verdicts = verify_des_batching().expect("batching discipline is sound");
        assert_eq!(
            verdicts.len(),
            soundness_configs().len() + run_ahead_configs().len()
        );
        for v in &verdicts {
            assert!(v.exploration.states > 0, "{}", v.config);
            assert!(v.exploration.terminal_states >= 1, "{}", v.config);
        }
        // the irregular config genuinely has many interleavings
        let mixed = verdicts
            .iter()
            .find(|v| v.config == "mixed-irregular")
            .unwrap();
        assert!(mixed.exploration.transitions > 50, "{mixed:?}");
    }

    #[test]
    fn broken_disciplines_are_refuted() {
        for (name, caught) in des_batch_mutants() {
            assert!(caught, "mutant {name} escaped the model checker");
        }
    }

    #[test]
    fn closed_form_matches_hand_computation() {
        let m = &soundness_configs()[4]; // fan-in: compute [1,4,2], (1,0,1),(2,0,3)
                                         // rank0 ready = max(1, 4+1, 2+3) = 5; rank1 = 4; rank2 = 2
        assert_eq!(m.closed_form_barrier(), 5);
    }

    #[test]
    fn duplicate_pair_exercises_double_probe() {
        // the NoCompletionGuard mutant must be refuted by the
        // duplicate-pair config specifically
        let mut model = soundness_configs()
            .into_iter()
            .find(|m| m.name == "duplicate-pair")
            .unwrap();
        explore(&model, 10_000).expect("sound discipline passes");
        model.mutant = Some(DesBatchMutant::NoCompletionGuard);
        let err = explore(&model, 10_000).unwrap_err();
        assert!(
            err.message.contains("released") || err.message.contains("outstanding"),
            "{err}"
        );
    }

    #[test]
    fn run_ahead_reaches_the_fold_and_really_runs_ahead() {
        let model = &run_ahead_configs()[0]; // ns-sender-runs-ahead
        assert_eq!(model.fold_ready(), [vec![1, 9], vec![2, 11]]);
        let stats = explore(model, 10_000).expect("sound discipline passes");
        assert!(stats.transitions > stats.states, "{stats:?}");
        // the schedule the mutant trips on: rank 0 done with both steps
        // and its step-1 message delivered while rank 1 is on step 0
        let mut s = model.initial();
        for a in [
            NeighborAction::Compute(0),
            NeighborAction::Compute(0),
            NeighborAction::Deliver(1, 0),
        ] {
            assert!(model
                .enabled(&s)
                .iter()
                .any(|e| format!("{e:?}") == format!("{a:?}")));
            s = model.step(&s, a);
        }
        assert_eq!(NeighborRunAheadModel::step_of(&s, 0), 2);
        assert_eq!(NeighborRunAheadModel::step_of(&s, 1), 0);
        assert_eq!(s.last_arrival[1][1], 6);
        model.check(&s).unwrap();
    }

    #[test]
    fn each_run_ahead_mutant_is_refuted_by_a_wrong_time_or_a_wedge() {
        let with = |name: &str, mutant| {
            let mut model = run_ahead_configs()
                .into_iter()
                .find(|m| m.name == name)
                .unwrap();
            model.mutant = Some(mutant);
            explore(&model, 10_000).unwrap_err().message
        };
        let err = with("ns-late-message", NeighborMutant::ReadyIgnoresArrival);
        assert!(err.contains("the fold computes"), "{err}");
        // an arrival counted into the wrong step either makes a `ready`
        // wrong or leaves its own step waiting for ever
        let err = with(
            "ns-sender-runs-ahead",
            NeighborMutant::ArrivalIntoCurrentStep,
        );
        assert!(
            err.contains("the fold computes") || err.contains("deadlock"),
            "{err}"
        );
        // where causality keeps the receiver from lagging (rank 0 cannot
        // send in step 1 before rank 1 is through step 0) the two
        // disciplines coincide, which is why the mutant needs run-ahead
        let lockstep = NeighborRunAheadModel {
            name: "lockstep",
            compute: [vec![1, 4], vec![1, 1]],
            msgs: [vec![(1, 0, 5)], vec![(0, 1, 5)]],
            mutant: Some(NeighborMutant::ArrivalIntoCurrentStep),
        };
        explore(&lockstep, 10_000).expect("no run-ahead, no divergence");
    }
}
