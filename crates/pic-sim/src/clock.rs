//! The application clock: what the run would take on a machine, priced
//! every iteration instead of at trace samples.
//!
//! The predictor folds *sampled* kernel seconds: one schedule step per
//! trace sample, its compute multiplied by the sample interval, its
//! messages the sample-to-sample ownership diff, one max over ranks per
//! sample. The clock prices the run that fold stands for. It shares
//! nothing with `pic-des`'s engine, only the [`MachineSpec`] numbers and
//! their pricing of one message and one barrier:
//!
//! - every iteration, each rank's six kernel seconds come from the cost
//!   oracle at that iteration's real and ghost counts, scaled by
//!   `compute_scale`;
//! - ownership is diffed iteration to iteration, so a particle that goes
//!   A → B → A between two samples costs two messages;
//! - each message of [`BYTES_PER_PARTICLE`] bytes per particle costs
//!   [`MachineSpec::message_time_between`], and arrives after its
//!   sender's compute;
//! - an iteration lasts the max over ranks of compute and message wait,
//!   then one [`MachineSpec::barrier_time`], as under the fold's
//!   `BulkSynchronous` mode.
//!
//! Under oracle timing every number is a function of the configuration,
//! so the clock is bit-deterministic.

use pic_des::MachineSpec;

/// Payload a migrating particle carries: position + velocity + scalar
/// properties, double precision (CMT-nek particles carry O(10) doubles).
/// The clock and the predictor's schedule both price a migration with it.
pub const BYTES_PER_PARTICLE: u64 = 10 * 8;

/// Seconds of one iteration on `machine`: each rank computes its kernels,
/// then receives the particles that left other ranks (`(from, to,
/// count)`), each message sent once its sender's compute is done; the
/// slowest rank and a barrier end the iteration.
pub(crate) fn iteration_seconds(
    machine: &MachineSpec,
    kernel_seconds: &[[f64; 6]],
    migrations: &[(u32, u32, u32)],
) -> f64 {
    let done: Vec<f64> = (kernel_seconds.iter())
        .map(|k| machine.compute_scale * k.iter().sum::<f64>())
        .collect();
    let mut ready = done.clone();
    for &(from, to, count) in migrations {
        let bytes = u64::from(count) * BYTES_PER_PARTICLE;
        let arrive = done[from as usize] + machine.message_time_between(from, to, bytes);
        let r = &mut ready[to as usize];
        *r = r.max(arrive);
    }
    ready.iter().copied().fold(0.0f64, f64::max) + machine.barrier_time(done.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_des::Topology;

    /// α 1 s, 40 B/s (2 s per particle), barrier stages of 0.5 s.
    fn machine() -> MachineSpec {
        MachineSpec {
            link_latency: 1.0,
            link_bandwidth: 40.0,
            collective_latency: 0.5,
            topology: Topology::FullyConnected,
            compute_scale: 1.0,
            ..MachineSpec::quartz_like()
        }
    }

    fn compute(seconds: f64) -> [f64; 6] {
        [seconds, 0.0, 0.0, 0.0, 0.0, 0.0]
    }

    #[test]
    fn an_iteration_is_the_slowest_rank_plus_a_barrier() {
        // Three ranks: ⌈log₂ 3⌉ = 2 barrier stages.
        let ks = [compute(1.0), compute(4.0), compute(2.0)];
        assert_eq!(iteration_seconds(&machine(), &ks, &[]), 4.0 + 2.0 * 0.5);
        assert_eq!(iteration_seconds(&machine(), &ks[..1], &[]), 1.0);
        let slow = MachineSpec {
            compute_scale: 2.0,
            ..machine()
        };
        assert_eq!(iteration_seconds(&slow, &ks, &[]), 8.0 + 2.0 * 0.5);
    }

    #[test]
    fn a_message_arrives_after_its_senders_compute() {
        // 5 particles from rank 1 (done at 3) to rank 0 (done at 1):
        // 3 + α 1 + 5 · 80 B / 40 B/s = 14, past every rank's compute.
        let ks = [compute(1.0), compute(3.0)];
        assert_eq!(iteration_seconds(&machine(), &ks, &[(1, 0, 5)]), 14.0 + 0.5);
        // A message that lands before its receiver is done costs nothing.
        let ks = [compute(20.0), compute(3.0)];
        assert_eq!(iteration_seconds(&machine(), &ks, &[(1, 0, 5)]), 20.0 + 0.5);
        // Across a fat tree's spine α is paid per hop: 3 + 3 · 1 + 10.
        let tree = MachineSpec {
            topology: Topology::FatTree {
                radix: 1,
                spine_hops: 3,
            },
            ..machine()
        };
        let ks = [compute(1.0), compute(3.0)];
        assert_eq!(iteration_seconds(&tree, &ks, &[(1, 0, 5)]), 16.0 + 0.5);
    }
}
