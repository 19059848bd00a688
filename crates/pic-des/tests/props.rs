//! Property-based tests: discrete-event simulation invariants over random
//! PIC-shaped schedules.

use pic_des::reference::simulate_reference;
use pic_des::{simulate, MachineSpec, StepWorkload, SyncMode};
use proptest::prelude::*;

fn machine() -> MachineSpec {
    MachineSpec {
        name: "prop".into(),
        nodes: 1,
        cores_per_node: 8,
        compute_scale: 1.0,
        link_latency: 1e-3,
        link_bandwidth: 1e6,
        topology: Default::default(),
        collective_latency: 0.0,
    }
}

/// One step's compute column: positive seconds with exact zeros mixed
/// in and, one time in four, every rank at exactly zero (the zero-idle
/// regime where every `max` ties).
fn compute_strategy(ranks: usize) -> impl Strategy<Value = Vec<f64>> {
    let mixed = || {
        proptest::collection::vec(
            prop_oneof![0.0..2.0f64, 0.0..2.0f64, Just(0.0)],
            ranks..=ranks,
        )
    };
    prop_oneof![mixed(), mixed(), mixed(), Just(vec![0.0; ranks])]
}

/// One step's messages. Endpoints are drawn from a random non-empty
/// subset of senders and one of receivers, so schedules have send-only
/// and receive-only ranks; the small endpoint sets make self-messages and
/// repeated `(from, to)` pairs common; a third of the messages carry
/// zero bytes.
fn messages_strategy(ranks: usize) -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    let subset = || proptest::collection::vec(0..ranks as u32, 1..=ranks);
    let picks = proptest::collection::vec(
        (
            0..ranks,
            0..ranks,
            prop_oneof![0u64..10_000, 0u64..10_000, Just(0u64)],
        ),
        0..8,
    );
    (subset(), subset(), picks).prop_map(|(senders, receivers, picks)| {
        picks
            .into_iter()
            .map(|(f, t, bytes)| {
                (
                    senders[f % senders.len()],
                    receivers[t % receivers.len()],
                    bytes,
                )
            })
            .collect()
    })
}

fn schedule_strategy() -> impl Strategy<Value = Vec<StepWorkload>> {
    (1usize..6, 1usize..8).prop_flat_map(|(ranks, steps)| {
        proptest::collection::vec(
            (compute_strategy(ranks), messages_strategy(ranks)).prop_map(
                |(compute_seconds, messages)| StepWorkload {
                    compute_seconds,
                    messages,
                },
            ),
            steps..=steps,
        )
    })
}

proptest! {
    #[test]
    fn total_time_at_least_critical_path(sched in schedule_strategy()) {
        // lower bound: sum over steps of the per-step max compute
        let lb: f64 = sched
            .iter()
            .map(|s| s.compute_seconds.iter().cloned().fold(0.0f64, f64::max))
            .sum();
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let t = simulate(&sched, &machine(), mode).unwrap();
            // neighbor-sync's true lower bound is the max single-rank chain,
            // but bulk-sync must meet the per-step-max bound exactly or above
            if mode == SyncMode::BulkSynchronous {
                prop_assert!(t.total_seconds >= lb - 1e-9, "{mode:?}: {} < {lb}", t.total_seconds);
            }
            // and never below the busiest single rank's own compute
            let rank_lb = (0..sched[0].compute_seconds.len())
                .map(|r| sched.iter().map(|s| s.compute_seconds[r]).sum::<f64>())
                .fold(0.0f64, f64::max);
            prop_assert!(t.total_seconds >= rank_lb - 1e-9);
        }
    }

    #[test]
    fn barrier_dominates_neighbor(sched in schedule_strategy()) {
        let b = simulate(&sched, &machine(), SyncMode::BulkSynchronous).unwrap();
        let n = simulate(&sched, &machine(), SyncMode::NeighborSync).unwrap();
        prop_assert!(b.total_seconds >= n.total_seconds - 1e-9);
    }

    #[test]
    fn simulation_is_deterministic(sched in schedule_strategy()) {
        let a = simulate(&sched, &machine(), SyncMode::NeighborSync).unwrap();
        let b = simulate(&sched, &machine(), SyncMode::NeighborSync).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn step_finish_is_monotone(sched in schedule_strategy()) {
        let t = simulate(&sched, &machine(), SyncMode::BulkSynchronous).unwrap();
        for w in t.step_finish.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        prop_assert!(t.total_seconds >= *t.step_finish.last().unwrap() - 1e-9);
    }

    #[test]
    fn slower_network_never_speeds_things_up(sched in schedule_strategy()) {
        let fast = machine();
        let mut slow = machine();
        slow.link_latency *= 100.0;
        slow.link_bandwidth /= 100.0;
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let tf = simulate(&sched, &fast, mode).unwrap();
            let ts = simulate(&sched, &slow, mode).unwrap();
            prop_assert!(ts.total_seconds >= tf.total_seconds - 1e-9, "{mode:?}");
        }
    }

    #[test]
    fn compute_scale_scales_compute_only_runs(sched in schedule_strategy(), scale in 1.0..5.0f64) {
        // strip messages: then total time scales exactly with compute_scale
        let stripped: Vec<StepWorkload> = sched
            .iter()
            .map(|s| StepWorkload { compute_seconds: s.compute_seconds.clone(), messages: vec![] })
            .collect();
        let base = simulate(&stripped, &machine(), SyncMode::BulkSynchronous).unwrap();
        let mut m = machine();
        m.compute_scale = scale;
        let scaled = simulate(&stripped, &m, SyncMode::BulkSynchronous).unwrap();
        prop_assert!(
            (scaled.total_seconds - scale * base.total_seconds).abs()
                <= 1e-9 * scaled.total_seconds.max(1.0)
        );
    }

    #[test]
    fn idle_times_are_bounded(sched in schedule_strategy()) {
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let t = simulate(&sched, &machine(), mode).unwrap();
            for &idle in &t.rank_idle {
                prop_assert!(idle >= -1e-12);
                prop_assert!(idle <= t.total_seconds + 1e-9);
            }
        }
    }

    #[test]
    fn events_count_matches_schedule(sched in schedule_strategy()) {
        let t = simulate(&sched, &machine(), SyncMode::NeighborSync).unwrap();
        let ranks = sched[0].compute_seconds.len() as u64;
        let msgs: u64 = sched.iter().map(|s| s.messages.len() as u64).sum();
        prop_assert_eq!(t.events_processed, ranks * sched.len() as u64 + msgs);
    }

    #[test]
    fn all_engines_bit_identical(sched in schedule_strategy()) {
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            assert_engines_identical(&sched, &machine(), mode)?;
        }
    }

    #[test]
    fn mapping_shaped_schedules_agree_and_order(
        sched in mapping_shaped_strategy(),
        shape_idx in 0usize..4,
    ) {
        let _ = shape_idx; // shape already baked into `sched`; kept for shrink diversity
        let m = machine();
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            assert_engines_identical(&sched, &m, mode)?;
        }
        // NeighborSync can only relax the barrier's constraints
        let b = simulate(&sched, &m, SyncMode::BulkSynchronous).unwrap();
        let n = simulate(&sched, &m, SyncMode::NeighborSync).unwrap();
        prop_assert!(n.total_seconds <= b.total_seconds + 1e-9);
        for t in [&b, &n] {
            for &idle in &t.rank_idle {
                prop_assert!(idle >= 0.0);
            }
        }
    }
}

/// Require exact `SimTimeline` equality between the fold and the
/// event-per-message oracle: same times, same idle seconds, same event
/// count, bit for bit.
fn assert_engines_identical(
    sched: &[StepWorkload],
    m: &MachineSpec,
    mode: SyncMode,
) -> std::result::Result<(), TestCaseError> {
    let oracle = simulate_reference(sched, m, mode).unwrap();
    let t = simulate(sched, m, mode).unwrap();
    prop_assert_eq!(&t, &oracle, "fold diverged from oracle in {:?}", mode);
    Ok(())
}

/// One step in ticks: compute per rank, and messages `(from, to, delay)`.
type TickStep = (&'static [u32], &'static [(u32, u32, u64)]);

/// Fixed schedules at the corners where event order could matter if the
/// fold were wrong: one-step barrier cases (ties, a self-message, zero
/// delays, fan-in, fan-out, a duplicate pair, an irregular mix) and
/// two-step run-ahead cases (a sender a step ahead of its receiver, a
/// message outlasting its receiver's compute, a ring, self-messages with
/// repeated pairs, all-zero compute and delays, send-only and
/// receive-only ranks).
const ORDER_CASES: &[(&str, &[TickStep])] = &[
    ("no-messages", &[(&[3, 1, 2], &[])]),
    (
        "tied-computes-ring",
        &[(&[2, 2, 2], &[(0, 1, 1), (1, 2, 1), (2, 0, 1)])],
    ),
    ("self-message", &[(&[2], &[(0, 0, 1)])]),
    ("zero-delay-exchange", &[(&[1, 2], &[(0, 1, 0), (1, 0, 0)])]),
    ("fan-in", &[(&[1, 4, 2], &[(1, 0, 1), (2, 0, 3)])]),
    ("fan-out", &[(&[3, 1, 1], &[(0, 1, 2), (0, 2, 0)])]),
    ("duplicate-pair", &[(&[1, 1, 9], &[(0, 1, 1), (0, 1, 3)])]),
    (
        "mixed-irregular",
        &[(&[0, 3, 3], &[(0, 1, 0), (1, 2, 2), (2, 2, 1), (0, 2, 5)])],
    ),
    (
        "sender-runs-ahead",
        &[(&[1, 9], &[(0, 1, 1)]), (&[1, 2], &[(0, 1, 4)])],
    ),
    (
        "late-message",
        &[(&[5, 1], &[(0, 1, 3)]), (&[1, 1], &[(1, 0, 2)])],
    ),
    (
        "ring",
        &[
            (&[2, 1, 3], &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]),
            (&[1, 3, 1], &[(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
        ],
    ),
    (
        "self-and-repeat",
        &[
            (&[2, 1], &[(0, 0, 3), (1, 0, 1), (1, 0, 4)]),
            (&[1, 1], &[(0, 1, 0), (0, 1, 2)]),
        ],
    ),
    (
        "all-zero",
        &[
            (&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]),
            (&[0, 0, 0], &[(2, 0, 0), (0, 2, 0)]),
        ],
    ),
    (
        "send-only-receive-only",
        &[
            (&[3, 0, 1], &[(0, 1, 1), (0, 1, 1)]),
            (&[0, 2, 1], &[(0, 1, 2), (2, 1, 0)]),
        ],
    ),
];

/// A schedule of [`ORDER_CASES`] for a machine where a tick is a second:
/// compute ticks become seconds, and a delay of `d` ticks becomes `d` MB
/// on a zero-latency 1 MB/s link, so every time is an exact integer.
fn tick_schedule(steps: &[TickStep]) -> Vec<StepWorkload> {
    steps
        .iter()
        .map(|(compute, msgs)| StepWorkload {
            compute_seconds: compute.iter().map(|&c| f64::from(c)).collect(),
            messages: msgs
                .iter()
                .map(|&(from, to, delay)| (from, to, delay * 1_000_000))
                .collect(),
        })
        .collect()
}

#[test]
fn event_order_cases_agree_with_the_oracle() {
    let m = MachineSpec {
        link_latency: 0.0,
        link_bandwidth: 1e6,
        ..machine()
    };
    for (name, steps) in ORDER_CASES {
        let sched = tick_schedule(steps);
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let agreed = assert_engines_identical(&sched, &m, mode);
            assert!(agreed.is_ok(), "{name}: {agreed:?}");
        }
    }
    // by hand: fan-in's barrier is rank 0's latest arrival, max(1, 4+1, 2+3)
    let fan_in = tick_schedule(ORDER_CASES[4].1);
    let t = simulate(&fan_in, &m, SyncMode::BulkSynchronous).unwrap();
    assert_eq!(t.step_finish, vec![5.0]);
    // rank 0 finishes both steps at 2 while rank 1 is still on its first
    // (its step-0 message, arriving at 2, does not delay rank 1's 9)
    let ahead = tick_schedule(ORDER_CASES[8].1);
    let t = simulate(&ahead, &m, SyncMode::NeighborSync).unwrap();
    assert_eq!(t.rank_finish, vec![2.0, 11.0]);
}

/// Comm-matrix shapes matching the four particle-mapping algorithms:
/// element-based → halo exchange with the ±1 neighbours; bin-based →
/// fan-in to a few bin-owner ranks; hilbert-ordered → a ring along the
/// curve order; load-balanced → seeded scatter pairs (work moves to
/// arbitrary underloaded ranks).
fn shaped_messages(shape: usize, ranks: u32, step: usize, bytes: u64) -> Vec<(u32, u32, u64)> {
    let mut msgs = Vec::new();
    match shape {
        // element-based: symmetric nearest-neighbour halo
        0 => {
            for r in 0..ranks {
                if r + 1 < ranks {
                    msgs.push((r, r + 1, bytes));
                    msgs.push((r + 1, r, bytes));
                }
            }
        }
        // bin-based: everyone sends to the (few) bin owners
        1 => {
            let owners = (ranks / 3).max(1);
            for r in 0..ranks {
                msgs.push((r, r % owners, bytes));
            }
        }
        // hilbert-ordered: directed ring along the curve
        2 => {
            for r in 0..ranks {
                msgs.push((r, (r + 1) % ranks, bytes));
            }
        }
        // load-balanced: step-dependent scatter (offset permutation)
        _ => {
            let off = 1 + (step as u32 % ranks.max(1));
            for r in 0..ranks {
                msgs.push((r, (r + off) % ranks, bytes / 2 + 1));
            }
        }
    }
    msgs
}

fn mapping_shaped_strategy() -> impl Strategy<Value = Vec<StepWorkload>> {
    (2usize..8, 1usize..6, 0usize..4, 1u64..20_000).prop_flat_map(|(ranks, steps, shape, bytes)| {
        proptest::collection::vec(
            proptest::collection::vec(0.0..2.0f64, ranks..=ranks),
            steps..=steps,
        )
        .prop_map(move |computes| {
            computes
                .into_iter()
                .enumerate()
                .map(|(s, compute_seconds)| StepWorkload {
                    messages: shaped_messages(shape, ranks as u32, s, bytes),
                    compute_seconds,
                })
                .collect()
        })
    })
}
