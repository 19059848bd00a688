//! A faithful state-machine model of `pic_workload::sweep_streaming`'s
//! concurrent pipeline — the one decoder → workers → merge pipeline the
//! workload crate has, and its one streamed entry point — checked
//! exhaustively with [`crate::sched`].
//!
//! The real pipeline is: a decoder thread reads frames and sends them into
//! a bounded channel; a pool of worker threads maps frames to per-sample
//! outcomes and sends them into a second bounded channel; the caller's
//! thread merges outcomes back into sample order through a reorder buffer.
//! Shutdown is driven purely by channel disconnection: the decoder drops
//! its sender when the stream ends (cleanly or with an error), workers
//! exit when the frame channel drains and disconnects, and the merger
//! finishes when the outcome channel disconnects — then joins the decoder
//! to learn whether the stream ended in an error.
//!
//! The model captures exactly the events that order-matter: sends into and
//! receives out of both bounded channels, channel closure (sender drop),
//! worker exit, and the decoder's terminal status. Exhaustive exploration
//! over every interleaving proves, for each configuration:
//!
//! * **no deadlock** — every non-terminal state has an enabled action;
//! * **no loss or duplication** — each decoded frame lives in exactly one
//!   place (channel, worker, reorder buffer, or merged output);
//! * **in-order delivery** — the merged output is always a prefix of the
//!   decoded sequence;
//! * **clean shutdown** — terminal states have all threads exited, both
//!   channels empty, and every decoded frame merged;
//! * **error propagation** — the merger reports an error if and only if
//!   the decoder ended with one.

use crate::sched::{explore, Exploration, Model, ScheduleError};

/// One pipeline configuration to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Frames the decoder produces before hitting end-of-stream.
    pub frames: u8,
    /// Whether the stream terminates with a decode error after the last
    /// good frame (the truncated-trace path) instead of clean EOF.
    pub fail: bool,
    /// Worker-pool size.
    pub workers: usize,
    /// Capacity of the decoder→workers frame channel.
    pub frame_cap: usize,
    /// Capacity of the workers→merger outcome channel.
    pub out_cap: usize,
}

/// What the decoder thread is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Decoder {
    /// Still reading; `next` frames already sent downstream.
    Reading { next: u8 },
    /// Sender dropped; `err` records whether the stream ended in error,
    /// `sent` how many frames went downstream before that.
    Done { err: bool, sent: u8 },
}

/// What one worker thread is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    /// Blocked on (or about to call) frame-channel `recv`.
    Idle,
    /// Processed a frame, waiting to send it downstream.
    Holding(u8),
    /// Observed frame-channel disconnect and returned.
    Exited,
}

/// Global pipeline state. Everything the transition function reads is in
/// here, so state-graph deduplication is sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PipeState {
    decoder: Decoder,
    frame_chan: Vec<u8>,
    workers: Vec<Worker>,
    out_chan: Vec<u8>,
    /// Reorder buffer: out-of-order frames parked by the merger (sorted).
    pending: Vec<u8>,
    /// Frames merged so far — always the in-order prefix `0..merged`.
    merged: u8,
    merger_done: bool,
    /// Terminal verdict: did the merger observe a decoder error?
    result_err: Option<bool>,
}

/// One atomic step of some pipeline thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeAction {
    /// Decoder sends the next frame into the frame channel.
    DecoderSend,
    /// Decoder hits end-of-stream and drops its sender.
    DecoderClose,
    /// Decoder's blocked send fails because every worker already exited.
    DecoderSendFail,
    /// Worker `i` receives a frame.
    WorkerRecv(usize),
    /// Worker `i` sends its processed outcome downstream.
    WorkerSend(usize),
    /// Worker `i` observes frame-channel disconnect and exits.
    WorkerExit(usize),
    /// Merger receives one outcome and drains its reorder buffer.
    MergerRecv,
    /// Merger observes outcome-channel disconnect and joins the decoder.
    MergerFinish,
}

/// The model driving [`crate::sched::explore`].
pub struct PipelineModel {
    spec: PipelineSpec,
}

impl PipelineModel {
    /// Model one configuration.
    pub fn new(spec: PipelineSpec) -> PipelineModel {
        PipelineModel { spec }
    }
}

impl Model for PipelineModel {
    type State = PipeState;
    type Action = PipeAction;

    fn initial(&self) -> PipeState {
        PipeState {
            decoder: Decoder::Reading { next: 0 },
            frame_chan: Vec::new(),
            workers: vec![Worker::Idle; self.spec.workers],
            out_chan: Vec::new(),
            pending: Vec::new(),
            merged: 0,
            merger_done: false,
            result_err: None,
        }
    }

    fn enabled(&self, s: &PipeState) -> Vec<PipeAction> {
        let mut v = Vec::new();
        let all_workers_exited = s.workers.iter().all(|w| *w == Worker::Exited);
        if let Decoder::Reading { next } = s.decoder {
            if next < self.spec.frames {
                if all_workers_exited {
                    // a send into a channel with no receivers errors out
                    v.push(PipeAction::DecoderSendFail);
                } else if s.frame_chan.len() < self.spec.frame_cap {
                    v.push(PipeAction::DecoderSend);
                }
                // else: the bounded send blocks — no decoder action
            } else {
                v.push(PipeAction::DecoderClose);
            }
        }
        for (i, w) in s.workers.iter().enumerate() {
            match w {
                Worker::Idle => {
                    if !s.frame_chan.is_empty() {
                        v.push(PipeAction::WorkerRecv(i));
                    } else if matches!(s.decoder, Decoder::Done { .. }) {
                        v.push(PipeAction::WorkerExit(i));
                    }
                    // else: blocked in recv on a live, empty channel
                }
                Worker::Holding(_) => {
                    if s.out_chan.len() < self.spec.out_cap && !s.merger_done {
                        v.push(PipeAction::WorkerSend(i));
                    }
                }
                Worker::Exited => {}
            }
        }
        if !s.merger_done {
            if !s.out_chan.is_empty() {
                v.push(PipeAction::MergerRecv);
            } else if all_workers_exited {
                v.push(PipeAction::MergerFinish);
            }
            // else: blocked in recv on a live, empty outcome channel
        }
        v
    }

    fn step(&self, s: &PipeState, a: PipeAction) -> PipeState {
        let mut n = s.clone();
        match a {
            PipeAction::DecoderSend => {
                let Decoder::Reading { next } = n.decoder else {
                    unreachable!()
                };
                n.frame_chan.push(next);
                n.decoder = Decoder::Reading { next: next + 1 };
            }
            PipeAction::DecoderClose => {
                let Decoder::Reading { next } = n.decoder else {
                    unreachable!()
                };
                n.decoder = Decoder::Done {
                    err: self.spec.fail,
                    sent: next,
                };
            }
            PipeAction::DecoderSendFail => {
                // the real decoder treats a failed send as "receivers gone,
                // stop early" and exits without an error of its own
                let Decoder::Reading { next } = n.decoder else {
                    unreachable!()
                };
                n.decoder = Decoder::Done {
                    err: false,
                    sent: next,
                };
            }
            PipeAction::WorkerRecv(i) => {
                let f = n.frame_chan.remove(0);
                n.workers[i] = Worker::Holding(f);
            }
            PipeAction::WorkerSend(i) => {
                let Worker::Holding(f) = n.workers[i] else {
                    unreachable!()
                };
                n.out_chan.push(f);
                n.workers[i] = Worker::Idle;
            }
            PipeAction::WorkerExit(i) => {
                n.workers[i] = Worker::Exited;
            }
            PipeAction::MergerRecv => {
                let f = n.out_chan.remove(0);
                let pos = n.pending.binary_search(&f).unwrap_err();
                n.pending.insert(pos, f);
                while n.pending.first() == Some(&n.merged) {
                    n.pending.remove(0);
                    n.merged += 1;
                }
            }
            PipeAction::MergerFinish => {
                n.merger_done = true;
                let Decoder::Done { err, .. } = n.decoder else {
                    // workers only exit after the decoder closed; enforced
                    // again by check()
                    unreachable!("merger finished while decoder alive")
                };
                n.result_err = Some(err);
            }
        }
        n
    }

    fn is_terminal(&self, s: &PipeState) -> bool {
        s.merger_done
    }

    fn check(&self, s: &PipeState) -> Result<(), String> {
        // conservation: every sent frame lives in exactly one place
        let sent = match s.decoder {
            Decoder::Reading { next } => next,
            Decoder::Done { sent, .. } => sent,
        };
        let mut alive: Vec<u8> = Vec::new();
        alive.extend(0..s.merged);
        alive.extend(&s.frame_chan);
        alive.extend(&s.out_chan);
        alive.extend(&s.pending);
        for w in &s.workers {
            if let Worker::Holding(f) = w {
                alive.push(*f);
            }
        }
        alive.sort_unstable();
        let expect: Vec<u8> = (0..sent).collect();
        if alive != expect {
            return Err(format!(
                "frame loss/duplication: have {alive:?}, expect {expect:?}"
            ));
        }
        // in-order delivery: reorder buffer never holds already-merged ids
        if s.pending.first().is_some_and(|&f| f < s.merged) {
            return Err(format!(
                "reorder buffer holds already-merged frame: {:?}",
                s.pending
            ));
        }
        if s.merger_done {
            // clean shutdown: nothing in flight, everything merged
            if !s.workers.iter().all(|w| *w == Worker::Exited) {
                return Err("merger finished with live workers".into());
            }
            if !s.frame_chan.is_empty() || !s.out_chan.is_empty() || !s.pending.is_empty() {
                return Err("terminal state leaks frames in channels or buffers".into());
            }
            if s.merged != self.spec.frames {
                return Err(format!(
                    "terminal merged {} of {} frames",
                    s.merged, self.spec.frames
                ));
            }
            // error propagation: merger verdict mirrors the decoder's end
            if s.result_err != Some(self.spec.fail) {
                return Err(format!(
                    "error propagation broken: decoder fail={}, merger saw {:?}",
                    self.spec.fail, s.result_err
                ));
            }
        }
        Ok(())
    }
}

/// Exhaustively verify one configuration.
pub fn verify_pipeline(spec: PipelineSpec) -> Result<Exploration, ScheduleError> {
    explore(&PipelineModel::new(spec), 2_000_000)
}

/// The configuration matrix verified in CI: frame counts around the
/// channel capacities, both pool sizes the scheduler distinguishes, both
/// stream endings. Returns aggregate statistics over all configurations.
pub fn verify_streaming_shutdown() -> Result<Exploration, ScheduleError> {
    let mut total = Exploration {
        states: 0,
        terminal_states: 0,
        transitions: 0,
    };
    for frames in 0..=4u8 {
        for &workers in &[1usize, 2, 3] {
            for &frame_cap in &[1usize, 2] {
                for &out_cap in &[1usize, 2] {
                    for &fail in &[false, true] {
                        let spec = PipelineSpec {
                            frames,
                            fail,
                            workers,
                            frame_cap,
                            out_cap,
                        };
                        let r = verify_pipeline(spec).map_err(|mut e| {
                            e.message = format!("{spec:?}: {}", e.message);
                            e
                        })?;
                        total.states += r.states;
                        total.terminal_states += r.terminal_states;
                        total.transitions += r.transitions;
                    }
                }
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_clean_shutdown() {
        let r = verify_pipeline(PipelineSpec {
            frames: 2,
            fail: false,
            workers: 1,
            frame_cap: 1,
            out_cap: 1,
        })
        .unwrap();
        assert!(r.states > 0);
        assert!(r.terminal_states >= 1);
    }

    #[test]
    fn error_path_propagates() {
        verify_pipeline(PipelineSpec {
            frames: 1,
            fail: true,
            workers: 2,
            frame_cap: 1,
            out_cap: 1,
        })
        .unwrap();
    }

    #[test]
    fn zero_frames_still_shuts_down() {
        // the empty stream: decoder closes immediately, workers must all
        // exit, merger must still finish
        for &fail in &[false, true] {
            verify_pipeline(PipelineSpec {
                frames: 0,
                fail,
                workers: 2,
                frame_cap: 2,
                out_cap: 2,
            })
            .unwrap();
        }
    }

    #[test]
    fn broken_model_is_caught() {
        // Sanity that the harness can fail: a model variant whose merger
        // finishes while a worker still holds a frame would violate the
        // terminal checks. We simulate by checking a corrupted state
        // directly.
        let m = PipelineModel::new(PipelineSpec {
            frames: 1,
            fail: false,
            workers: 1,
            frame_cap: 1,
            out_cap: 1,
        });
        let mut s = m.initial();
        s.merger_done = true; // workers never exited, nothing merged
        assert!(m.check(&s).is_err());
    }
}
