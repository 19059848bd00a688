//! Minimal, hardened HTTP/1.1 framing for the resident prediction
//! service.
//!
//! The workspace is offline and vendored, so this is a hand-rolled
//! single-request-per-connection server protocol ("Connection: close"),
//! built directly on `std::net::TcpStream` with three defenses that the
//! fault-corpus tests exercise end to end:
//!
//! * **Read deadlines** — the socket carries `set_read_timeout` /
//!   `set_write_timeout` before a single byte is parsed, so a slow-loris
//!   client that dribbles header bytes is cut off with `408 Request
//!   Timeout` instead of pinning a thread.
//! * **Bounded headers** — the request head (request line + headers) may
//!   not exceed [`MAX_HEAD_BYTES`]; one byte past that is `431`.
//! * **Bounded bodies** — `POST` requires `Content-Length` (`411`
//!   otherwise), the declared length is capped by the server's body
//!   limit (`413` over it), and the handler reads the body through
//!   [`Read::take`] so a lying client cannot stream past its declaration.
//!
//! Every rejection is a *positioned* JSON error — the parser reports the
//! byte offset in the request head where framing broke down — and never a
//! panic: all inputs arrive from the network and are assumed adversarial.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Cap on the request head (request line + all headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request head plus the buffered stream positioned at the body.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// Request path (`/sweep`, ...), no query parsing — the API is JSON.
    pub path: String,
    /// Declared `Content-Length`, when present.
    pub content_length: Option<u64>,
}

/// A framing-level rejection: HTTP status plus a positioned message.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Human-readable, byte-positioned diagnostic.
    pub message: String,
}

impl HttpError {
    /// Build an error.
    pub fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Reason phrases for the statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn timeoutish(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read and parse one request head from `stream`. Returns the parsed
/// head; body bytes (if any) remain in `stream`'s buffer, ready to be
/// read next. Every failure is an [`HttpError`]; the socket deadline
/// surfaces as `408`.
pub(crate) fn read_head(stream: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut head: Vec<u8> = Vec::with_capacity(512);
    loop {
        let buf = stream.fill_buf().map_err(|e| {
            if timeoutish(&e) {
                HttpError::new(408, "read deadline expired while reading request head")
            } else {
                HttpError::new(400, format!("connection error while reading head: {e}"))
            }
        })?;
        if buf.is_empty() {
            return Err(HttpError::new(
                400,
                format!(
                    "connection closed inside request head at byte {}",
                    head.len()
                ),
            ));
        }
        // Scan for the CRLFCRLF terminator across the chunk boundary.
        let start = head.len().saturating_sub(3);
        head.extend_from_slice(buf);
        let consumed_now = buf.len();
        if let Some(pos) = find_terminator(&head[start..]).map(|p| p + start) {
            // Only the bytes through the terminator belong to the head;
            // everything after stays buffered for the body.
            let over = head.len() - (pos + 4);
            stream.consume(consumed_now - over);
            head.truncate(pos + 4);
            break;
        }
        stream.consume(consumed_now);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(
                431,
                format!(
                    "request head exceeds {MAX_HEAD_BYTES} bytes (no terminator within bound, \
                     at byte {})",
                    head.len()
                ),
            ));
        }
    }
    parse_head(&head)
}

fn find_terminator(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let text = std::str::from_utf8(head).map_err(|e| {
        HttpError::new(
            400,
            format!("request head is not UTF-8 at byte {}", e.valid_up_to()),
        )
    })?;
    let mut offset = 0usize;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(
            400,
            format!(
                "malformed request line {request_line:?} at byte 0 \
                 (expected 'METHOD /path HTTP/1.x')"
            ),
        ));
    }
    if !path.starts_with('/') {
        return Err(HttpError::new(
            400,
            format!(
                "request target {path:?} at byte {} must be origin-form (start with '/')",
                method.len() + 1
            ),
        ));
    }
    offset += request_line.len() + 2;
    let mut content_length: Option<u64> = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some(colon) = line.find(':') else {
            return Err(HttpError::new(
                400,
                format!("header line without ':' at byte {offset}: {line:?}"),
            ));
        };
        let name = line[..colon].trim();
        let value = line[colon + 1..].trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n: u64 = value.parse().map_err(|_| {
                HttpError::new(
                    400,
                    format!("unparseable Content-Length {value:?} at byte {offset}"),
                )
            })?;
            if let Some(prev) = content_length {
                if prev != n {
                    return Err(HttpError::new(
                        400,
                        format!("conflicting Content-Length headers at byte {offset}"),
                    ));
                }
            }
            content_length = Some(n);
        }
        offset += line.len() + 2;
    }
    Ok(Request {
        method,
        path,
        content_length,
    })
}

/// Read an exact-length request body (already validated against the
/// server's cap) from the buffered stream, through [`Read::take`] so not
/// one byte past the declaration is consumed. Timeouts surface as `408`,
/// short bodies as `400`.
pub(crate) fn read_body(
    stream: &mut BufReader<TcpStream>,
    declared_len: u64,
) -> Result<Vec<u8>, HttpError> {
    let mut bounded = stream.take(declared_len);
    let mut body = Vec::with_capacity(declared_len.min(1 << 20) as usize);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match bounded.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if timeoutish(&e) => {
                return Err(HttpError::new(
                    408,
                    format!(
                        "read deadline expired inside request body at byte {} of {declared_len}",
                        body.len()
                    ),
                ))
            }
            Err(e) => {
                return Err(HttpError::new(
                    400,
                    format!(
                        "connection error at body byte {} of {declared_len}: {e}",
                        body.len()
                    ),
                ))
            }
        }
    }
    if (body.len() as u64) < declared_len {
        return Err(HttpError::new(
            400,
            format!(
                "request body ended at byte {} of declared {declared_len}",
                body.len()
            ),
        ));
    }
    Ok(body)
}

/// Write one `Connection: close` response; a `429` tells the client when
/// to retry. Write errors are swallowed — the client may have hung up, and
/// the connection is closing either way.
pub(crate) fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    let retry = if status == 429 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// Serialize an error as the service's JSON error envelope and send it.
pub(crate) fn write_error(stream: &mut TcpStream, err: &HttpError) {
    let body = format!(
        "{{\"error\":{{\"status\":{},\"message\":{}}}}}",
        err.status,
        json_escape(&err.message)
    );
    write_response(stream, err.status, "application/json", body.as_bytes());
}

/// Minimal JSON string escaping for error messages.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_happy_path() {
        let head = b"POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 42\r\n\r\n";
        let r = parse_head(head).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/sweep");
        assert_eq!(r.content_length, Some(42));
    }

    #[test]
    fn parse_head_rejections_are_positioned() {
        let garbage = parse_head(b"\x01\x02 garbage\r\n\r\n");
        assert!(garbage.is_err());
        let e = parse_head(b"GET /x HTTP/1.1\r\nBroken header line\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("byte 17"), "{}", e.message);
        let e = parse_head(b"GET /x HTTP/1.1\r\nContent-Length: lots\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("Content-Length"), "{}", e.message);
        let e = parse_head(b"GET x HTTP/1.1\r\n\r\n").unwrap_err();
        assert!(e.message.contains("origin-form"), "{}", e.message);
        let e = parse_head(b"SOMETHING\r\n\r\n").unwrap_err();
        assert!(e.message.contains("request line"), "{}", e.message);
        // conflicting lengths
        let e = parse_head(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n")
            .unwrap_err();
        assert!(e.message.contains("conflicting"), "{}", e.message);
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn terminator_finder() {
        assert_eq!(find_terminator(b"ab\r\n\r\ncd"), Some(2));
        assert_eq!(find_terminator(b"ab\r\n\r"), None);
    }
}
