//! The PIC schedule and its system-level simulation, as a dataflow fold.
//!
//! Components are ranks; the schedule is a list of *steps* (one per
//! trace-sample interval), each carrying per-rank compute times and the
//! point-to-point messages implied by the communication matrix.
//!
//! This machine model has no contention: a message arrives at the
//! sender's compute-done time plus the pure
//! [`MachineSpec::message_time_between`], and every place two events meet
//! is a `max` or a counter. The discrete-event run therefore has one
//! outcome whatever order its events fire in, and [`simulate`] computes it
//! directly, step by step, with the event engine's IEEE operations in the
//! same operand order (see `DESIGN.md` §16). The event-per-message
//! engine survives as [`crate::reference::simulate_reference`]; random and
//! fixed corner-case schedules in both sync modes, and a 16 384-rank test,
//! assert exact [`SimTimeline`] equality between the two.

use crate::machine::MachineSpec;
use pic_types::{PicError, Result};
use serde::{Deserialize, Serialize};

/// One super-step of the PIC schedule: per-rank modelled compute seconds
/// plus the messages sent at the end of the step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepWorkload {
    /// Modelled compute seconds for each rank during this step.
    pub compute_seconds: Vec<f64>,
    /// Messages `(from, to, bytes)` sent after the step's compute.
    pub messages: Vec<(u32, u32, u64)>,
}

/// Synchronization semantics between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum SyncMode {
    /// Global barrier: no rank starts step `s+1` before every rank has
    /// finished step `s` (including message delivery).
    BulkSynchronous,
    /// A rank starts step `s+1` once its own compute is done and all its
    /// inbound step-`s` messages have arrived. Senders may run ahead of
    /// slow receivers.
    NeighborSync,
}

/// `barrier` / `neighbor`, the names flags, requests and responses use.
impl std::fmt::Display for SyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SyncMode::BulkSynchronous => "barrier",
            SyncMode::NeighborSync => "neighbor",
        })
    }
}

/// The inverse of `Display`.
impl std::str::FromStr for SyncMode {
    type Err = PicError;

    fn from_str(s: &str) -> Result<SyncMode> {
        match s {
            "barrier" => Ok(SyncMode::BulkSynchronous),
            "neighbor" => Ok(SyncMode::NeighborSync),
            _ => Err(PicError::config(format!("unknown sync mode '{s}'"))),
        }
    }
}

/// Simulation output: the predicted execution timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimTimeline {
    /// Predicted total application seconds.
    pub total_seconds: f64,
    /// Time each rank finished its final step.
    pub rank_finish: Vec<f64>,
    /// Per-rank idle seconds (waiting at barriers / for messages).
    pub rank_idle: Vec<f64>,
    /// Per-step completion time (when the last rank finished the step and
    /// its messages were delivered).
    pub step_finish: Vec<f64>,
    /// Number of discrete events the run stands for: one compute-done
    /// per rank per step plus one arrival per message.
    pub events_processed: u64,
}

impl SimTimeline {
    /// Mean idle fraction across ranks (a load-imbalance signature).
    pub fn mean_idle_fraction(&self) -> f64 {
        if self.rank_idle.is_empty() || self.total_seconds == 0.0 {
            return 0.0;
        }
        let mean_idle: f64 = self.rank_idle.iter().sum::<f64>() / self.rank_idle.len() as f64;
        mean_idle / self.total_seconds
    }
}

/// The all-zero timeline for an empty schedule.
pub(crate) fn empty_timeline() -> SimTimeline {
    SimTimeline {
        total_seconds: 0.0,
        rank_finish: vec![],
        rank_idle: vec![],
        step_finish: vec![],
        events_processed: 0,
    }
}

/// Admission validation: every quantity that could produce a NaN or
/// infinite event time is rejected here with a positioned error, so the
/// fold never produces one and the reference engine's `(time, seq)`
/// comparison never sees one (it would panic mid-simulation in
/// `Event::cmp`).
///
/// Returns the rank count.
pub(crate) fn validate_schedule(steps: &[StepWorkload]) -> Result<usize> {
    let ranks = steps[0].compute_seconds.len();
    if ranks == 0 {
        return Err(PicError::sim("schedule has zero ranks"));
    }
    for (s, st) in steps.iter().enumerate() {
        if st.compute_seconds.len() != ranks {
            return Err(PicError::sim(format!(
                "step {s} has {} ranks, expected {ranks}",
                st.compute_seconds.len()
            )));
        }
        for (r, &c) in st.compute_seconds.iter().enumerate() {
            if !c.is_finite() || c < 0.0 {
                return Err(PicError::sim(format!(
                    "step {s} rank {r}: compute_seconds is {c}, must be finite and non-negative"
                )));
            }
        }
        for (i, &(from, to, _)) in st.messages.iter().enumerate() {
            if from as usize >= ranks || to as usize >= ranks {
                return Err(PicError::sim(format!(
                    "step {s} message {i} ({from} -> {to}): endpoint out of range for {ranks} ranks"
                )));
            }
        }
    }
    Ok(ranks)
}

/// Simulate the PIC schedule on a target machine.
///
/// `steps[s].compute_seconds` must have one entry per rank (consistent
/// across steps). Compute times are scaled by the machine's
/// `compute_scale`; message times come from its latency/bandwidth model.
///
/// One pass per step: every rank's compute-done time, a `max`-fold of the
/// step's message arrivals onto their receivers, then each rank's ready
/// time. Under [`SyncMode::NeighborSync`] a rank starts its next step when
/// it is ready; under [`SyncMode::BulkSynchronous`] every rank starts at
/// the latest ready time plus the barrier cost. Nothing else differs.
pub fn simulate(
    steps: &[StepWorkload],
    machine: &MachineSpec,
    mode: SyncMode,
) -> Result<SimTimeline> {
    machine.validate()?;
    if steps.is_empty() {
        return Ok(empty_timeline());
    }
    let ranks = validate_schedule(steps)?;
    let barrier_cost = machine.barrier_time(ranks);
    let mut start = vec![0.0f64; ranks];
    let mut done = vec![0.0f64; ranks];
    let mut last_arrival = vec![0.0f64; ranks];
    let mut idle = vec![0.0f64; ranks];
    let mut step_finish = Vec::with_capacity(steps.len());
    let mut events = 0u64;
    for st in steps {
        for ((d, &s), &c) in done.iter_mut().zip(&start).zip(&st.compute_seconds) {
            *d = s + machine.compute_scale * c;
        }
        last_arrival.fill(0.0);
        for &(from, to, bytes) in &st.messages {
            let arrive = done[from as usize] + machine.message_time_between(from, to, bytes);
            let la = &mut last_arrival[to as usize];
            *la = la.max(arrive);
        }
        // `start` now becomes each rank's ready time for this step.
        let mut finish = 0.0f64;
        for ((s, d), la) in start.iter_mut().zip(&done).zip(&last_arrival) {
            *s = d.max(*la);
            finish = finish.max(*s);
        }
        step_finish.push(finish);
        if mode == SyncMode::BulkSynchronous {
            start.fill(finish + barrier_cost);
        }
        // idle covers message wait and, at a barrier, the barrier wait
        for ((i, s), d) in idle.iter_mut().zip(&start).zip(&done) {
            *i += (s - d).max(0.0);
        }
        events += ranks as u64 + st.messages.len() as u64;
    }
    Ok(SimTimeline {
        total_seconds: start.iter().copied().fold(0.0f64, f64::max),
        rank_finish: start,
        rank_idle: idle,
        step_finish,
        events_processed: events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::simulate_reference;

    #[test]
    fn sync_mode_from_str_inverts_display() {
        for (mode, name) in [
            (SyncMode::BulkSynchronous, "barrier"),
            (SyncMode::NeighborSync, "neighbor"),
        ] {
            assert_eq!(mode.to_string(), name);
            assert_eq!(name.parse::<SyncMode>().unwrap(), mode);
        }
        for bad in ["neighbour", "bulk-synchronous", "Barrier", ""] {
            let err = bad.parse::<SyncMode>().unwrap_err().to_string();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }

    fn machine() -> MachineSpec {
        MachineSpec {
            name: "test".into(),
            nodes: 1,
            cores_per_node: 4,
            compute_scale: 1.0,
            link_latency: 0.5,
            link_bandwidth: 10.0,
            topology: Default::default(),
            collective_latency: 0.0,
        }
    }

    fn steps_uniform(ranks: usize, steps: usize, secs: f64) -> Vec<StepWorkload> {
        (0..steps)
            .map(|_| StepWorkload {
                compute_seconds: vec![secs; ranks],
                messages: vec![],
            })
            .collect()
    }

    /// Assert the fold agrees bit-for-bit with the event-per-message
    /// reference engine.
    fn assert_identical(steps: &[StepWorkload], m: &MachineSpec, mode: SyncMode) -> SimTimeline {
        let t = simulate(steps, m, mode).expect("fold");
        let oracle = simulate_reference(steps, m, mode).expect("reference");
        assert_eq!(t, oracle, "fold diverged from reference ({mode:?})");
        t
    }

    #[test]
    fn empty_schedule() {
        let t = simulate(&[], &machine(), SyncMode::BulkSynchronous).unwrap();
        assert_eq!(t.total_seconds, 0.0);
        assert_eq!(t.events_processed, 0);
    }

    #[test]
    fn uniform_compute_no_messages() {
        let steps = steps_uniform(4, 3, 2.0);
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let t = assert_identical(&steps, &machine(), mode);
            assert!((t.total_seconds - 6.0).abs() < 1e-12, "{mode:?}");
            assert!(t.rank_idle.iter().all(|&i| i.abs() < 1e-12));
            assert_eq!(t.step_finish, vec![2.0, 4.0, 6.0]);
        }
    }

    #[test]
    fn barrier_takes_per_step_max() {
        // rank loads alternate: step0 = [3,1], step1 = [1,3].
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![3.0, 1.0],
                messages: vec![],
            },
            StepWorkload {
                compute_seconds: vec![1.0, 3.0],
                messages: vec![],
            },
        ];
        let t = assert_identical(&steps, &machine(), SyncMode::BulkSynchronous);
        // barrier: step0 ends at 3, step1 ends at 3+3=6
        assert!((t.total_seconds - 6.0).abs() < 1e-12);
        // rank1 idled 2s at the first barrier; rank0 none before its finish
        assert!((t.rank_idle[1] - 2.0).abs() < 1e-12);
        // neighbor sync: rank1 runs 1+3 = 4, rank0 runs 3+1 = 4
        let t = assert_identical(&steps, &machine(), SyncMode::NeighborSync);
        assert!((t.total_seconds - 4.0).abs() < 1e-12);
    }

    #[test]
    fn message_delays_receiver() {
        // rank0 computes 2s then sends 10 bytes to rank1 (msg time = 0.5 + 1.0).
        // rank1 computes 0.5s, then must wait for the message.
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![2.0, 0.5],
                messages: vec![(0, 1, 10)],
            },
            StepWorkload {
                compute_seconds: vec![0.1, 0.1],
                messages: vec![],
            },
        ];
        let t = assert_identical(&steps, &machine(), SyncMode::NeighborSync);
        // message arrives at 2 + 1.5 = 3.5; rank1 starts step1 at 3.5,
        // finishes at 3.6. rank0 finishes at 2.1.
        assert!((t.rank_finish[1] - 3.6).abs() < 1e-12);
        assert!((t.rank_finish[0] - 2.1).abs() < 1e-12);
        // rank1 idled 3.0 seconds waiting
        assert!((t.rank_idle[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sender_runs_ahead_of_slow_receiver() {
        // rank0 is fast and sends to rank1 every step; rank1 is slow. In
        // neighbor-sync mode rank0 must be able to finish all steps while
        // rank1 is still on step 0 — messages for future steps arrive early
        // and are buffered.
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![0.1, 10.0],
                messages: vec![(0, 1, 1)]
            };
            4
        ];
        let t = assert_identical(&steps, &machine(), SyncMode::NeighborSync);
        // rank0: 4 × 0.1 = 0.4 total, unaffected by rank1
        assert!(
            (t.rank_finish[0] - 0.4).abs() < 1e-12,
            "{}",
            t.rank_finish[0]
        );
        // rank1: messages always arrive before its compute ends → 40s
        assert!(
            (t.rank_finish[1] - 40.0).abs() < 1e-12,
            "{}",
            t.rank_finish[1]
        );
        assert!(t.rank_idle[1].abs() < 1e-12);
    }

    #[test]
    fn barrier_never_faster_than_neighbor() {
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0, 4.0, 2.0],
                messages: vec![(1, 0, 100)],
            },
            StepWorkload {
                compute_seconds: vec![3.0, 1.0, 1.0],
                messages: vec![(0, 2, 10)],
            },
            StepWorkload {
                compute_seconds: vec![2.0, 2.0, 5.0],
                messages: vec![],
            },
        ];
        let b = assert_identical(&steps, &machine(), SyncMode::BulkSynchronous);
        let n = assert_identical(&steps, &machine(), SyncMode::NeighborSync);
        assert!(b.total_seconds >= n.total_seconds - 1e-12);
    }

    #[test]
    fn compute_scale_multiplies_time() {
        let steps = steps_uniform(2, 2, 1.0);
        let mut m = machine();
        m.compute_scale = 3.0;
        let t = assert_identical(&steps, &m, SyncMode::BulkSynchronous);
        assert!((t.total_seconds - 6.0).abs() < 1e-12);
    }

    #[test]
    fn simulation_is_deterministic() {
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0, 1.0, 1.0, 1.0],
                messages: vec![(0, 1, 5), (2, 3, 7), (1, 0, 3), (3, 2, 9)],
            };
            5
        ];
        let a = simulate(&steps, &machine(), SyncMode::NeighborSync).unwrap();
        let b = simulate(&steps, &machine(), SyncMode::NeighborSync).unwrap();
        assert_eq!(a, b);
        assert!(a.events_processed > 0);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        // inconsistent rank counts
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0, 1.0],
                messages: vec![],
            },
            StepWorkload {
                compute_seconds: vec![1.0],
                messages: vec![],
            },
        ];
        assert!(simulate(&steps, &machine(), SyncMode::NeighborSync).is_err());
        // message endpoint out of range
        let steps = vec![StepWorkload {
            compute_seconds: vec![1.0],
            messages: vec![(0, 5, 1)],
        }];
        assert!(simulate(&steps, &machine(), SyncMode::NeighborSync).is_err());
        // zero ranks
        let steps = vec![StepWorkload {
            compute_seconds: vec![],
            messages: vec![],
        }];
        assert!(simulate(&steps, &machine(), SyncMode::NeighborSync).is_err());
    }

    #[test]
    fn non_finite_and_negative_compute_rejected_not_panicking() {
        // regression: these previously reached Event::cmp's
        // partial_cmp(...).expect("event times are finite") and panicked
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let steps = vec![StepWorkload {
                compute_seconds: vec![1.0, bad],
                messages: vec![],
            }];
            for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
                let err = simulate(&steps, &machine(), mode).unwrap_err();
                let msg = err.to_string();
                assert!(
                    msg.contains("step 0") && msg.contains("rank 1"),
                    "unpositioned error: {msg}"
                );
            }
        }
    }

    #[test]
    fn invalid_machines_are_rejected() {
        use crate::topology::Topology;
        let good = machine();
        assert!(good.validate().is_ok());
        type Mutation = Box<dyn Fn(&mut MachineSpec)>;
        let cases: Vec<Mutation> = vec![
            Box::new(|m| m.link_latency = -1.0),
            Box::new(|m| m.link_latency = f64::NAN),
            Box::new(|m| m.link_bandwidth = 0.0),
            Box::new(|m| m.link_bandwidth = -5.0),
            Box::new(|m| m.link_bandwidth = f64::INFINITY),
            Box::new(|m| m.compute_scale = f64::NAN),
            Box::new(|m| m.compute_scale = -1.0),
            Box::new(|m| m.collective_latency = f64::INFINITY),
            Box::new(|m| m.topology = Topology::Torus3D { x: 0, y: 4, z: 4 }),
        ];
        let steps = steps_uniform(2, 1, 1.0);
        for mutate in cases {
            let mut m = machine();
            mutate(&mut m);
            assert!(m.validate().is_err(), "{m:?}");
            assert!(simulate(&steps, &m, SyncMode::BulkSynchronous).is_err());
        }
    }

    #[test]
    fn idle_fraction_reflects_imbalance() {
        // one hot rank, three idle ranks, barrier mode
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![10.0, 1.0, 1.0, 1.0],
                messages: vec![]
            };
            3
        ];
        let t = assert_identical(&steps, &machine(), SyncMode::BulkSynchronous);
        assert!((t.total_seconds - 30.0).abs() < 1e-9);
        assert!(t.mean_idle_fraction() > 0.6, "{}", t.mean_idle_fraction());
    }

    #[test]
    fn collective_latency_charges_each_barrier() {
        let steps = steps_uniform(4, 3, 1.0);
        let mut m = machine();
        m.collective_latency = 0.5;
        // 4 ranks → ceil(log2 4) = 2 stages → 1.0 s per barrier, 3 barriers
        let with = assert_identical(&steps, &m, SyncMode::BulkSynchronous);
        let without = assert_identical(&steps, &machine(), SyncMode::BulkSynchronous);
        assert!((with.total_seconds - (without.total_seconds + 3.0)).abs() < 1e-12);
        // neighbor sync pays no barriers
        let n = assert_identical(&steps, &m, SyncMode::NeighborSync);
        assert!((n.total_seconds - without.total_seconds).abs() < 1e-12);
    }

    #[test]
    fn torus_topology_slows_distant_messages() {
        use crate::topology::Topology;
        // one message between torus-opposite ranks vs adjacent ranks
        let mk = |to: u32| {
            vec![
                StepWorkload {
                    compute_seconds: vec![1.0; 8],
                    messages: vec![(0, to, 0)],
                },
                StepWorkload {
                    compute_seconds: vec![0.0; 8],
                    messages: vec![],
                },
            ]
        };
        let mut m = machine();
        m.topology = Topology::Torus3D { x: 2, y: 2, z: 2 };
        // rank 7 = (1,1,1): 3 hops from rank 0; rank 1: 1 hop
        let near = assert_identical(&mk(1), &m, SyncMode::BulkSynchronous);
        let far = assert_identical(&mk(7), &m, SyncMode::BulkSynchronous);
        assert!(
            (far.total_seconds - near.total_seconds - 2.0 * m.link_latency).abs() < 1e-12,
            "far {} near {}",
            far.total_seconds,
            near.total_seconds
        );
    }

    #[test]
    fn self_messages_are_delivered() {
        // a rank "sending to itself" (possible if a comm matrix kept a
        // diagonal entry) must not deadlock
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0],
                messages: vec![(0, 0, 10)],
            },
            StepWorkload {
                compute_seconds: vec![1.0],
                messages: vec![],
            },
        ];
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            assert_identical(&steps, &machine(), mode);
        }
        let t = simulate(&steps, &machine(), SyncMode::NeighborSync).unwrap();
        // step0 ready at max(1.0, 1.0 + 1.5) = 2.5; finish = 2.5 + 1.0
        assert!((t.total_seconds - 3.5).abs() < 1e-12);
    }

    #[test]
    fn engines_agree_on_irregular_schedule() {
        // a gnarly mix: ties, zero compute, self-messages, fan-in/fan-out,
        // collective latency, torus topology
        use crate::topology::Topology;
        let mut m = machine();
        m.collective_latency = 0.25;
        m.topology = Topology::Torus3D { x: 2, y: 2, z: 2 };
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![1.0, 1.0, 0.0, 2.5, 1.0, 1.0, 0.5, 3.0],
                messages: vec![(0, 1, 10), (0, 7, 5), (3, 3, 1), (7, 0, 100), (2, 4, 0)],
            },
            StepWorkload {
                compute_seconds: vec![0.0; 8],
                messages: vec![(1, 2, 7), (2, 1, 7), (5, 6, 9), (6, 5, 9)],
            },
            StepWorkload {
                compute_seconds: vec![2.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
                messages: vec![(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 0, 1)],
            },
        ];
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            assert_identical(&steps, &m, mode);
        }
    }

    #[test]
    fn tightly_coupled_steps_count_every_event() {
        // 2 ranks exchanging a message each way for 50 steps: one
        // compute-done per rank per step plus one arrival per message,
        // and each step ends one message time after the slower rank
        let steps = vec![
            StepWorkload {
                compute_seconds: vec![0.5, 0.6],
                messages: vec![(0, 1, 4), (1, 0, 4)],
            };
            50
        ];
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let t = assert_identical(&steps, &machine(), mode);
            assert_eq!(t.events_processed, 2 * 50 + 100);
            assert_eq!(t.step_finish.len(), 50);
            assert!((t.step_finish[0] - (0.6 + 0.5 + 0.4)).abs() < 1e-12);
        }
    }
}
