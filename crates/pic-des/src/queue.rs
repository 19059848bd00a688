//! The events of the reference engine and their total order.
//!
//! [`crate::reference::simulate_reference`] keeps every pending event in
//! a `BinaryHeap` and fires them in `(time, seq)` order: ties on `time`
//! are broken by the monotonically assigned sequence number, which makes
//! equal-time events FIFO and the run deterministic. Production
//! simulation ([`crate::simulate`]) schedules no events at all.

use std::cmp::Ordering;

/// What a scheduled event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A rank finished its modelled compute for a step.
    ComputeDone {
        /// The computing rank.
        rank: u32,
        /// The step whose compute finished.
        step: u32,
    },
    /// A point-to-point message arrived at a rank.
    MsgArrive {
        /// The receiving rank.
        rank: u32,
        /// The step the message belongs to.
        step: u32,
    },
}

/// A scheduled simulation event, totally ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// Simulation time the event fires at. Always finite: schedules and
    /// machine specs are validated before any event is created.
    pub time: f64,
    /// Monotonically assigned sequence number; the deterministic
    /// tie-breaker for equal times.
    pub seq: u64,
    /// What happens when the event fires.
    pub kind: EventKind,
}

impl Event {
    /// Ascending `(time, seq)` order — the simulation's total order.
    #[inline]
    fn key_cmp(&self, other: &Event) -> Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are finite")
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison; ties broken by sequence number
        // for full determinism.
        other.key_cmp(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time: f64, seq: u64) -> Event {
        Event {
            time,
            seq,
            kind: EventKind::ComputeDone { rank: 0, step: 0 },
        }
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut q = BinaryHeap::new();
        q.push(ev(2.5, 100));
        for seq in (0..100u64).rev() {
            q.push(ev(1.5, seq));
        }
        for seq in 0..=100u64 {
            assert_eq!(q.pop().unwrap().seq, seq);
        }
        assert!(q.pop().is_none());
    }
}
