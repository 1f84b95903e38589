//! The HTTP/1.1 wire layer: an incremental buffer-based request
//! parser, response encoding, and a client-side response reader for
//! tests and benchmark clients.
//!
//! This is deliberately not a general web server — it covers exactly
//! what the solve daemon needs: `GET`/`POST`, `Content-Length` bodies
//! (no chunked transfer encoding), persistent connections (HTTP/1.1
//! keep-alive, honoring `Connection: close`), request pipelining, and
//! JSON response helpers.
//!
//! The parser is **pull-based over a byte buffer** ([`parse_request`]):
//! callers append whatever bytes arrived and ask for the next complete
//! request, which is what the readiness loop in [`crate::event_loop`]
//! needs — it never blocks on a socket, and pipelining is just calling
//! it again on the leftover bytes.
//!
//! Limits: request head (request line + headers) ≤ 16 KiB (`400` past
//! it), body ≤ 8 MiB (`413` past it, distinguished from malformed so
//! clients can tell "shrink the payload" from "fix the syntax").

use serde::json::Value;

/// Maximum accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Maximum accepted request head (request line + headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (e.g. `/solve`).
    pub path: String,
    /// Raw query string after `?`, if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The tenant this request bills to: the `X-Tenant` header, or the
    /// anonymous tenant `""`.
    pub fn tenant(&self) -> &str {
        self.header("x-tenant").unwrap_or("")
    }
}

/// One HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code (200, 400, …).
    pub status: u16,
    /// Extra header `(name, value)` pairs (`Content-Length` and
    /// `Connection` are written automatically).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with `Content-Type: application/json`.
    pub fn json(status: u16, value: &Value) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: value.to_body_bytes(),
        }
    }

    /// Adds a response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

// ── Incremental request parsing ──────────────────────────────────────

/// Why a buffer could not be parsed into a request.
#[derive(Debug)]
pub enum ParseError {
    /// Syntactically invalid (or the head outgrew [`MAX_HEAD_BYTES`]);
    /// the message is safe to echo in a `400` body.
    Malformed(String),
    /// Well-formed head announcing a body over the cap — answered with
    /// `413` rather than `400`.
    BodyTooLarge {
        /// The announced `Content-Length`.
        length: usize,
    },
}

/// Attempts to parse one complete request off the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a full head + body is
/// present (the caller drains `consumed` bytes and may call again —
/// pipelining is exactly this loop), `Ok(None)` when more bytes are
/// needed, and `Err` when the connection should be answered with an
/// error and closed. Incomplete heads are bounded: once the buffer
/// exceeds `max_head` without a blank line, the request is rejected
/// rather than buffered indefinitely.
pub fn parse_request(
    buf: &[u8],
    max_head: usize,
    max_body: usize,
) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > max_head {
            return Err(ParseError::Malformed("request head too large".into()));
        }
        return Ok(None);
    };
    if head_end > max_head {
        return Err(ParseError::Malformed("request head too large".into()));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::Malformed("request head is not valid UTF-8".into()))?;

    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_uppercase(), t),
        _ => {
            return Err(ParseError::Malformed(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Malformed(format!("bad Content-Length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(ParseError::BodyTooLarge {
            length: content_length,
        });
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Request {
            method,
            path,
            query,
            headers,
            body: buf[head_end..total].to_vec(),
        },
        total,
    )))
}

/// Index one past the head-terminating blank line (`\r\n\r\n` or, for
/// lenient clients, `\n\n`), if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut at = 0;
    while let Some(rel) = buf[at..].iter().position(|&b| b == b'\n') {
        let nl = at + rel;
        // A line that is empty after stripping the optional '\r'
        // terminates the head.
        let rest = &buf[nl + 1..];
        if rest.first() == Some(&b'\r') && rest.get(1) == Some(&b'\n') {
            return Some(nl + 3);
        }
        if rest.first() == Some(&b'\n') {
            return Some(nl + 2);
        }
        at = nl + 1;
    }
    None
}

// ── Response encoding ────────────────────────────────────────────────

/// Serializes a response to its wire bytes, head and body in one
/// buffer: with `TCP_NODELAY` that is one segment, avoiding the Nagle +
/// delayed-ACK ~40ms stall that two writes would risk.
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status,
        status_text(response.status)
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", response.body.len()));
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    let mut message = head.into_bytes();
    message.extend_from_slice(&response.body);
    message
}

/// Reads one HTTP response from the client side of a connection:
/// `(status, headers, body)`, header names lower-cased. The counterpart
/// of [`encode_response`] — test clients parse the wire format through
/// this one function instead of re-implementing it.
pub fn read_response(
    reader: &mut impl std::io::BufRead,
) -> std::io::Result<(u16, Vec<(String, String)>, Vec<u8>)> {
    use std::io::{Error, ErrorKind};
    let bad = |message: String| Error::new(ErrorKind::InvalidData, message);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-headers".into()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header {line:?}")))?;
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim().to_string());
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| bad(format!("bad content-length {value:?}")))?;
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers, body))
}

/// The `413` answer for a body over the cap.
pub fn payload_too_large(length: usize) -> Response {
    Response::json(
        413,
        &serde::json::obj([(
            "error",
            Value::Str(format!(
                "body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )),
        )]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the one request `raw` holds, dropping the consumed count.
    fn parse(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        parse_request(raw, MAX_HEAD_BYTES, MAX_BODY_BYTES).map(|r| r.map(|(req, _)| req))
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req =
            parse(b"POST /solve?debug=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.query.as_deref(), Some("debug=1"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
        assert_eq!(req.tenant(), "");
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        // An empty buffer is a request not yet started, not an error.
        assert!(matches!(parse(b""), Ok(None)));
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_distinguished_from_malformed() {
        // An announced body over the cap is a 413-class rejection, not
        // a 400: the head is perfectly well-formed.
        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::BodyTooLarge { length: usize::MAX })
        ));
    }

    #[test]
    fn endless_head_without_newline_is_bounded() {
        // A newline-free request line must be rejected once it passes
        // the head budget — not buffered indefinitely, whether or not
        // its end has arrived yet.
        let mut raw = vec![b'A'; MAX_HEAD_BYTES + 64];
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
        raw.extend_from_slice(b" / HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
        // Same for an oversized header section of many small lines.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2_000 {
            raw.extend_from_slice(format!("x-h{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn parse_request_is_incremental_and_pipelines() {
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        // Every strict prefix that ends before the first request's last
        // byte parses to None (need more data), never to an error.
        let first_len = wire.iter().len() - b"GET /b HTTP/1.1\r\n\r\n".len();
        for cut in 0..first_len {
            assert!(matches!(parse(&wire[..cut]), Ok(None)), "cut {cut}");
        }
        // The full buffer yields the first request and its exact length;
        // the remainder parses as the pipelined second request.
        let (req, consumed) = parse_request(wire, MAX_HEAD_BYTES, MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(
            (req.path.as_str(), req.body.as_slice()),
            ("/a", &b"abc"[..])
        );
        assert_eq!(consumed, first_len);
        let (req2, consumed2) = parse_request(&wire[consumed..], MAX_HEAD_BYTES, MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(req2.path, "/b");
        assert_eq!(consumed + consumed2, wire.len());
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let body = serde::json::obj([("ok", Value::Bool(true))]);
        let wire = encode_response(&Response::json(200, &body), false);
        let raw = String::from_utf8(wire.clone()).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(raw.contains("Content-Type: application/json\r\n"));
        assert!(raw.contains("Content-Length: 11\r\n"));
        assert!(raw.contains("Connection: close\r\n"));
        assert!(raw.ends_with("{\"ok\":true}"));
        // The client-side reader takes the same bytes apart again.
        let (status, headers, read_body) = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!(status, 200);
        assert!(headers.contains(&("connection".into(), "close".into())));
        assert_eq!(read_body, b"{\"ok\":true}");
    }
}
