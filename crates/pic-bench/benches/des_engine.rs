//! Discrete-event simulation platform throughput: events per second on
//! PIC-shaped schedules (the coarse-grained-simulation speed that lets
//! BE-SST-style studies sweep large design spaces).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_des::reference::simulate_reference;
use pic_des::{simulate, MachineSpec, StepWorkload, SyncMode};
use pic_types::rng::SplitMix64;

/// A synthetic bulk-synchronous schedule with neighbour messages.
fn schedule(ranks: usize, steps: usize, msgs_per_rank: usize, seed: u64) -> Vec<StepWorkload> {
    let mut rng = SplitMix64::new(seed);
    (0..steps)
        .map(|_| {
            let compute_seconds: Vec<f64> =
                (0..ranks).map(|_| rng.next_range(1e-4, 5e-3)).collect();
            let mut messages = Vec::with_capacity(ranks * msgs_per_rank);
            for from in 0..ranks as u32 {
                for _ in 0..msgs_per_rank {
                    let to = rng.next_below(ranks as u64) as u32;
                    messages.push((from, to, 800));
                }
            }
            StepWorkload {
                compute_seconds,
                messages,
            }
        })
        .collect()
}

/// The production fold against the event-per-message oracle on the same
/// schedules, at the benchmark's two rank scales: what replacing the
/// event queue with a dataflow fold buys, in events per second.
fn des_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_events");
    group.sample_size(10);
    let machine = MachineSpec::quartz_like();
    for &(ranks, steps, msgs) in &[(2048usize, 20usize, 2usize), (16384, 8, 1)] {
        let sched = schedule(ranks, steps, msgs, 3);
        // one compute-done per rank per step plus one arrival per message
        let events = (ranks * steps * (1 + msgs)) as u64;
        group.throughput(Throughput::Elements(events));
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            let id = format!("{mode:?}/r{ranks}_s{steps}");
            group.bench_with_input(BenchmarkId::new("fold", &id), &sched, |b, sched| {
                b.iter(|| simulate(sched, &machine, mode).unwrap());
            });
            group.bench_with_input(BenchmarkId::new("reference", &id), &sched, |b, sched| {
                b.iter(|| simulate_reference(sched, &machine, mode).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, des_events);
criterion_main!(benches);
