//! Fault-injection readers for exercising the codec's robustness
//! contract.
//!
//! Trace ingestion is the foundation the whole prediction stack stands on
//! (full-scale traces reach hundreds of gigabytes, §II-D), so its failure
//! modes are tested as first-class behavior: these adapters wrap any
//! [`Read`] and inject the faults a long-running ingest actually sees —
//! short reads, `Interrupted` storms, hard I/O errors at a byte position,
//! and bit corruption; mid-frame truncation is std's [`Read::take`] at each
//! of [`truncation_points`]. They are deterministic, dependency-free, and
//! shared by the property tests in `pic-trace` and the streaming-shutdown
//! tests in `pic-workload`.

use std::io::{Error, ErrorKind, Read};

/// Serves at most `max_per_read` bytes per `read` call, cycling the
/// actual grant through `1..=max_per_read` so every partial-fill size is
/// exercised. Models slow pipes and line-buffered sources.
pub struct ShortReads<R> {
    inner: R,
    max_per_read: usize,
    next: usize,
}

impl<R: Read> ShortReads<R> {
    /// Wrap `inner`, limiting each read to at most `max_per_read` bytes.
    pub fn new(inner: R, max_per_read: usize) -> ShortReads<R> {
        assert!(max_per_read > 0, "short reads must still make progress");
        ShortReads {
            inner,
            max_per_read,
            next: 1,
        }
    }
}

impl<R: Read> Read for ShortReads<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let grant = self.next.min(buf.len());
        self.next = if self.next >= self.max_per_read {
            1
        } else {
            self.next + 1
        };
        self.inner.read(&mut buf[..grant])
    }
}

/// Returns `ErrorKind::Interrupted` on every `period`-th call (then lets
/// the retried call through). A correct reader loop must treat these as
/// retryable, never as data corruption.
pub struct InterruptEvery<R> {
    inner: R,
    period: u32,
    calls: u32,
}

impl<R: Read> InterruptEvery<R> {
    /// Wrap `inner`, interrupting every `period`-th read call.
    pub fn new(inner: R, period: u32) -> InterruptEvery<R> {
        assert!(period > 0, "period must be positive");
        InterruptEvery {
            inner,
            period,
            calls: 0,
        }
    }
}

impl<R: Read> Read for InterruptEvery<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(self.period) {
            return Err(Error::new(ErrorKind::Interrupted, "injected interrupt"));
        }
        self.inner.read(buf)
    }
}

/// Serves bytes normally until byte offset `fail_at`, then fails every
/// subsequent read with `kind`. Models a disk error or revoked permission
/// mid-stream — a *hard* fault the decoder must surface verbatim, not
/// mislabel as truncation.
pub struct FailAt<R> {
    inner: R,
    fail_at: u64,
    served: u64,
    kind: ErrorKind,
}

impl<R: Read> FailAt<R> {
    /// Wrap `inner`, failing with `kind` once `fail_at` bytes were served.
    pub fn new(inner: R, fail_at: u64, kind: ErrorKind) -> FailAt<R> {
        FailAt {
            inner,
            fail_at,
            served: 0,
            kind,
        }
    }
}

impl<R: Read> Read for FailAt<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.served >= self.fail_at {
            return Err(Error::new(self.kind, "injected fault"));
        }
        let cap = ((self.fail_at - self.served).min(buf.len() as u64)) as usize;
        let n = self.inner.read(&mut buf[..cap])?;
        self.served += n as u64;
        Ok(n)
    }
}

/// Flip one bit of `bytes` in place (`bit` indexes bits, LSB-first within
/// each byte). No-op on an empty slice.
pub fn flip_bit(bytes: &mut [u8], bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let bit = bit % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
}

/// Every "interesting" truncation length of an encoded trace: each
/// structural boundary (header fields, description end, every frame's
/// iteration word and body edges) plus one byte to either side, clamped
/// and deduplicated. Used to enumerate the deterministic truncation
/// corpus without testing every byte of a large encoding.
pub fn truncation_points(encoded_len: usize, desc_len: usize, frame_len: usize) -> Vec<usize> {
    let header = 76 + desc_len;
    let mut cuts = vec![0, 4, 8, 9, 12, 16, 24, 48, 72, 76, header];
    let mut at = header;
    while at <= encoded_len {
        for c in [at.saturating_sub(1), at, at + 1, at + 8, at + frame_len / 2] {
            cuts.push(c);
        }
        if frame_len == 0 {
            break;
        }
        at += frame_len;
    }
    cuts.retain(|&c| c <= encoded_len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_reads_deliver_everything() {
        let data: Vec<u8> = (0..=255).collect();
        let mut r = ShortReads::new(&data[..], 7);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn interrupts_are_transparent_to_read_to_end() {
        let data = vec![3u8; 500];
        let mut r = InterruptEvery::new(&data[..], 3);
        let mut out = Vec::new();
        // read_to_end retries Interrupted per std contract
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn fail_at_serves_then_fails() {
        let data = [1u8; 64];
        let mut r = FailAt::new(&data[..], 10, ErrorKind::PermissionDenied);
        let mut buf = [0u8; 64];
        let mut total = 0;
        loop {
            match r.read(&mut buf) {
                Ok(n) => total += n,
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::PermissionDenied);
                    break;
                }
            }
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn flip_bit_round_trips() {
        let mut b = vec![0u8; 4];
        flip_bit(&mut b, 9);
        assert_eq!(b, vec![0, 2, 0, 0]);
        flip_bit(&mut b, 9);
        assert_eq!(b, vec![0; 4]);
        flip_bit(&mut [], 3); // no-op, no panic
    }

    #[test]
    fn truncation_points_cover_boundaries() {
        let pts = truncation_points(76 + 4 + 2 * 32, 4, 32);
        assert!(pts.contains(&0));
        assert!(pts.contains(&80)); // header end
        assert!(pts.contains(&81)); // one byte into frame 0
        assert!(pts.contains(&112)); // frame boundary
        assert!(pts.iter().all(|&c| c <= 76 + 4 + 64));
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
    }
}
