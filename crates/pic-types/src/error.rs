//! Workspace error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, PicError>;

/// What went wrong while decoding a particle trace.
///
/// Trace files reach hundreds of gigabytes (paper §II-D), so ingestion
/// failures must be *diagnosable from the error alone*: every decoder
/// error carries the byte offset where it was detected and, once past the
/// header, the index of the frame being decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The stream does not start with the trace magic.
    BadMagic,
    /// A header field is out of bounds or inconsistent (unknown precision
    /// tag, absurd particle count or description length, non-finite or
    /// unordered domain corners, invalid UTF-8 description).
    BadHeader,
    /// The stream ended before the header was complete.
    TruncatedHeader,
    /// The stream ended mid-frame (partial iteration word or body).
    TruncatedFrame,
    /// A real I/O failure (permissions, disk error, …) interrupted the
    /// decode; the underlying [`std::io::Error`] is preserved as the
    /// source.
    Io,
    /// The decoded data violates a trace invariant (wrong position count,
    /// non-increasing iterations, …).
    Malformed,
}

impl fmt::Display for TraceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceErrorKind::BadMagic => "bad magic",
            TraceErrorKind::BadHeader => "bad header",
            TraceErrorKind::TruncatedHeader => "truncated header",
            TraceErrorKind::TruncatedFrame => "truncated frame",
            TraceErrorKind::Io => "I/O failure",
            TraceErrorKind::Malformed => "malformed trace",
        };
        f.write_str(s)
    }
}

/// A positioned trace-format error: kind, message, byte offset, frame
/// index, and (for [`TraceErrorKind::Io`]) the underlying I/O error.
#[derive(Debug)]
pub struct TraceError {
    /// Failure category.
    pub kind: TraceErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Byte offset into the stream where the error was detected, when the
    /// failing layer tracks stream position (the codec always does).
    pub offset: Option<u64>,
    /// Zero-based index of the frame being decoded, when past the header.
    pub frame: Option<u64>,
    /// The I/O error that caused this, when one did.
    pub source: Option<std::io::Error>,
}

impl TraceError {
    /// Build an error with a kind and message; position via
    /// [`TraceError::at_offset`] / [`TraceError::at_frame`].
    pub fn new(kind: TraceErrorKind, message: impl Into<String>) -> TraceError {
        TraceError {
            kind,
            message: message.into(),
            offset: None,
            frame: None,
            source: None,
        }
    }

    /// Attach the byte offset the error was detected at.
    pub fn at_offset(mut self, offset: u64) -> TraceError {
        self.offset = Some(offset);
        self
    }

    /// Attach the index of the frame being decoded.
    pub fn at_frame(mut self, frame: u64) -> TraceError {
        self.frame = Some(frame);
        self
    }

    /// Attach the underlying I/O error.
    pub fn with_source(mut self, source: std::io::Error) -> TraceError {
        self.source = Some(source);
        self
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message, self.kind)?;
        if let Some(off) = self.offset {
            write!(f, " at byte {off}")?;
        }
        if let Some(fr) = self.frame {
            write!(f, " in frame {fr}")?;
        }
        if let Some(src) = &self.source {
            write!(f, ": {src}")?;
        }
        Ok(())
    }
}

impl From<TraceError> for PicError {
    fn from(e: TraceError) -> PicError {
        PicError::TraceFormat(Box::new(e))
    }
}

/// Errors produced anywhere in the pic-predict framework.
#[derive(Debug)]
pub enum PicError {
    /// A configuration value is out of range or inconsistent.
    Config(String),
    /// A particle trace file is malformed, truncated, or unreadable; see
    /// [`TraceError`] for the position and failure taxonomy.
    TraceFormat(Box<TraceError>),
    /// An I/O failure while reading or writing traces / configs / results.
    Io(std::io::Error),
    /// A model could not be fitted (singular system, empty training set, …).
    ModelFit(String),
    /// The discrete-event simulation reached an inconsistent state.
    Simulation(String),
    /// A geometric query failed (point outside domain, empty grid, …).
    Geometry(String),
}

impl fmt::Display for PicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PicError::Config(m) => write!(f, "configuration error: {m}"),
            PicError::TraceFormat(e) => write!(f, "trace format error: {e}"),
            PicError::Io(e) => write!(f, "I/O error: {e}"),
            PicError::ModelFit(m) => write!(f, "model fitting error: {m}"),
            PicError::Simulation(m) => write!(f, "simulation error: {m}"),
            PicError::Geometry(m) => write!(f, "geometry error: {m}"),
        }
    }
}

impl std::error::Error for PicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PicError::Io(e) => Some(e),
            PicError::TraceFormat(t) => t
                .source
                .as_ref()
                .map(|e| e as &(dyn std::error::Error + 'static)),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PicError {
    fn from(e: std::io::Error) -> Self {
        PicError::Io(e)
    }
}

impl PicError {
    /// Shorthand for a [`PicError::Config`] error.
    pub fn config(msg: impl Into<String>) -> PicError {
        PicError::Config(msg.into())
    }

    /// Shorthand for an unpositioned [`TraceErrorKind::Malformed`] trace
    /// error (trace-model invariant violations; the codec builds positioned
    /// [`TraceError`]s directly).
    pub fn trace(msg: impl Into<String>) -> PicError {
        TraceError::new(TraceErrorKind::Malformed, msg).into()
    }

    /// The structured trace error, when this is one.
    pub fn trace_details(&self) -> Option<&TraceError> {
        match self {
            PicError::TraceFormat(e) => Some(e),
            _ => None,
        }
    }

    /// Shorthand for a [`PicError::ModelFit`] error.
    pub fn model(msg: impl Into<String>) -> PicError {
        PicError::ModelFit(msg.into())
    }

    /// Shorthand for a [`PicError::Simulation`] error.
    pub fn sim(msg: impl Into<String>) -> PicError {
        PicError::Simulation(msg.into())
    }

    /// Shorthand for a [`PicError::Geometry`] error.
    pub fn geometry(msg: impl Into<String>) -> PicError {
        PicError::Geometry(msg.into())
    }
}

/// Sizes below which [`check_reservable`] does not probe: any host that
/// runs at all holds them, and glibc raises its mmap threshold to the size
/// of a freed mapping up to 32 MiB, so a smaller probe would change how
/// every later allocation of the process is served (measured: +14 % peak
/// RSS on a 16 384-rank replay). Larger probes leave it alone.
pub const RESERVE_PROBE_FLOOR: usize = 32 << 20;

/// Refuse an input-sized allocation of `bytes` (`None` when the size
/// overflowed `usize`) before anything is sized by it: a size this host
/// cannot reserve in one `try_reserve_exact`, released at once, is a
/// [`PicError::Config`] worded by `message` from the size ("`N`" or
/// "`more than usize::MAX`"), not an allocation abort. The probe is best
/// effort: whether `try_reserve_exact` refuses depends on the host's
/// overcommit mode, so only an overflowing size is refused everywhere.
pub fn check_reservable(bytes: Option<usize>, message: impl FnOnce(&str) -> String) -> Result<()> {
    let reserved = bytes
        .is_some_and(|b| b < RESERVE_PROBE_FLOOR || Vec::<u8>::new().try_reserve_exact(b).is_ok());
    if reserved {
        return Ok(());
    }
    let size = bytes.map_or("more than usize::MAX".to_string(), |b| b.to_string());
    Err(PicError::config(message(&size)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = PicError::config("bad rank count");
        assert!(e.to_string().contains("bad rank count"));
        let e = PicError::trace("truncated frame");
        assert!(e.to_string().contains("truncated frame"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: PicError = io.into();
        assert!(matches!(e, PicError::Io(_)));
        assert!(e.source().is_some());
        assert!(PicError::config("x").source().is_none());
    }

    #[test]
    fn trace_error_display_carries_position() {
        let e: PicError = TraceError::new(TraceErrorKind::TruncatedFrame, "stream ends early")
            .at_offset(1234)
            .at_frame(7)
            .into();
        let s = e.to_string();
        assert!(s.contains("at byte 1234"), "{s}");
        assert!(s.contains("in frame 7"), "{s}");
        assert!(s.contains("truncated frame"), "{s}");
        let d = e.trace_details().unwrap();
        assert_eq!(d.kind, TraceErrorKind::TruncatedFrame);
        assert_eq!(d.offset, Some(1234));
        assert_eq!(d.frame, Some(7));
    }

    #[test]
    fn trace_io_error_preserves_source() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no access");
        let e: PicError = TraceError::new(TraceErrorKind::Io, "read failed")
            .at_offset(99)
            .with_source(io)
            .into();
        let src = e.source().expect("source preserved");
        assert!(src.to_string().contains("no access"));
        assert_eq!(
            e.trace_details().unwrap().source.as_ref().unwrap().kind(),
            std::io::ErrorKind::PermissionDenied
        );
    }

    #[test]
    fn kind_display_names_are_stable() {
        for (k, s) in [
            (TraceErrorKind::BadMagic, "bad magic"),
            (TraceErrorKind::BadHeader, "bad header"),
            (TraceErrorKind::TruncatedHeader, "truncated header"),
            (TraceErrorKind::TruncatedFrame, "truncated frame"),
            (TraceErrorKind::Io, "I/O failure"),
            (TraceErrorKind::Malformed, "malformed trace"),
        ] {
            assert_eq!(k.to_string(), s);
        }
    }
}
