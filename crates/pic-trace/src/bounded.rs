//! Bounded, digesting readers for untrusted byte streams.
//!
//! The serve-side ingestion path wraps a network socket in these adapters
//! before handing it to [`crate::TraceReader`]: [`BoundedReader`] caps how
//! many bytes the decoder can pull (a declared `Content-Length`, or a hard
//! server limit), so a malicious or confused client can never stream the
//! server past its budget; [`DigestReader`] fingerprints exactly the bytes
//! the decoder consumed, producing the registry's content address without
//! buffering the body. Both retry [`std::io::ErrorKind::Interrupted`]
//! never, deliberately — the inner reader (the codec's chunked reader sits
//! *above* these) already owns that policy.

use pic_types::hash::Fnv128;
use std::io::Read;

/// A reader that yields at most `limit` bytes from the inner reader, then
/// reports a clean EOF. The truncation is silent by design: the codec's
/// framing discovers a short body and reports a *positioned*
/// `UnexpectedEof`, which is a far better error than a raw I/O failure
/// mid-socket.
#[derive(Debug)]
pub struct BoundedReader<R> {
    inner: R,
    remaining: u64,
}

impl<R: Read> BoundedReader<R> {
    /// Wrap `inner`, allowing at most `limit` bytes through.
    pub fn new(inner: R, limit: u64) -> BoundedReader<R> {
        BoundedReader {
            inner,
            remaining: limit,
        }
    }

    /// Bytes still allowed through.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Consume the adapter, returning the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for BoundedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let cap = buf
            .len()
            .min(self.remaining.min(usize::MAX as u64) as usize);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// A reader that feeds every byte it passes through into an incremental
/// 128-bit FNV-1a digest. After the consumer (e.g. [`crate::TraceReader`])
/// finishes, [`DigestReader::digest`] is the content address of precisely
/// the bytes decoded.
#[derive(Debug)]
pub struct DigestReader<R> {
    inner: R,
    digest: Fnv128,
}

impl<R: Read> DigestReader<R> {
    /// Wrap `inner` with a fresh digest.
    pub fn new(inner: R) -> DigestReader<R> {
        DigestReader {
            inner,
            digest: Fnv128::new(),
        }
    }

    /// The digest state over all bytes read so far.
    pub fn digest(&self) -> &Fnv128 {
        &self.digest
    }

    /// Bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.digest.len()
    }
}

impl<R: Read> Read for DigestReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_trace, Precision};
    use crate::{ParticleTrace, TraceMeta, TraceReader};
    use pic_types::hash::fnv1a_128;
    use pic_types::{Aabb, Vec3};

    fn sample_trace() -> ParticleTrace {
        let meta = TraceMeta::new(3, 10, Aabb::unit(), "bounded-test");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..4 {
            let s = 0.1 * (k + 1) as f64;
            tr.push_positions(vec![Vec3::splat(s); 3]).unwrap();
        }
        tr
    }

    #[test]
    fn bounded_reader_caps_and_reports_clean_eof() {
        let data = vec![42u8; 1000];
        let mut r = BoundedReader::new(&data[..], 700);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 700);
        assert_eq!(r.remaining(), 0);
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn bounded_decode_fails_positioned_not_hanging() {
        let bytes = encode_trace(&sample_trace(), Precision::F64).unwrap();
        // Allow fewer bytes than the stream holds: the decoder must see a
        // positioned truncation error, not an I/O error or a hang.
        let limited = BoundedReader::new(&bytes[..], bytes.len() as u64 - 9);
        let mut reader = TraceReader::new(limited).unwrap();
        let mut err = None;
        loop {
            match reader.read_sample() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("truncated stream must error");
        let msg = format!("{err}");
        assert!(msg.contains("at byte"), "unpositioned error: {msg}");
    }

    #[test]
    fn digest_reader_addresses_exactly_the_consumed_bytes() {
        let bytes = encode_trace(&sample_trace(), Precision::F32).unwrap();
        let mut digesting = DigestReader::new(&bytes[..]);
        let mut out = Vec::new();
        digesting.read_to_end(&mut out).unwrap();
        assert_eq!(out, bytes);
        assert_eq!(digesting.digest().digest(), fnv1a_128(&bytes));
        assert_eq!(digesting.bytes_read(), bytes.len() as u64);
    }

    #[test]
    fn stacked_adapters_digest_only_admitted_bytes() {
        let bytes = encode_trace(&sample_trace(), Precision::F64).unwrap();
        let cap = bytes.len() as u64; // exact-length body, the serve case
        let bounded = BoundedReader::new(&bytes[..], cap);
        let mut digesting = DigestReader::new(bounded);
        let mut reader = TraceReader::new(&mut digesting).unwrap();
        let mut frames = 0;
        while reader.read_sample().unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(frames, 4);
        assert_eq!(digesting.digest().digest(), fnv1a_128(&bytes));
    }
}
