//! Minimal HTTP/1.1 message support: exactly the subset the narration
//! service needs (request line + headers + `Content-Length` bodies,
//! keep-alive, plain-status responses), implemented over
//! [`std::io::BufRead`] so it works on any stream.
//!
//! This is deliberately not a general HTTP implementation. Chunked
//! transfer encoding, continuation lines, trailers, and HTTP/2 are all
//! rejected with explicit statuses rather than half-supported.

use std::io::{self, BufRead};

/// Cap on the request line + header block, defending the serving core
/// against unbounded header streams.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the wire (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the request target (no query string).
    pub path: String,
    /// Query parameters in order of appearance. Keys and values are
    /// percent-decoded (`%XX` escapes and `+`-as-space), so
    /// `?style=bulleted%20` and `?style=bulleted+` both read back as
    /// `"bulleted "`.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` when it isn't valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be read off the wire. Each variant maps to
/// the HTTP status the server answers with before closing.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection cleanly between requests.
    ConnectionClosed,
    /// An I/O failure (including read timeouts on idle keep-alive
    /// connections).
    Io(io::Error),
    /// Malformed request line or header block → `400`.
    Malformed(String),
    /// Head grew beyond [`MAX_HEAD_BYTES`] → `431`.
    HeadTooLarge,
    /// Body advertised more than the configured cap → `413`.
    BodyTooLarge { advertised: usize, limit: usize },
    /// `POST` without a `Content-Length` → `411`.
    LengthRequired,
    /// `Transfer-Encoding` (chunked uploads) is not supported → `501`.
    UnsupportedTransferEncoding,
}

impl RequestError {
    /// The status code the server should answer with (`None` when the
    /// connection just ended and no answer is possible or needed).
    pub fn status(&self) -> Option<u16> {
        match self {
            RequestError::ConnectionClosed | RequestError::Io(_) => None,
            RequestError::Malformed(_) => Some(400),
            RequestError::HeadTooLarge => Some(431),
            RequestError::BodyTooLarge { .. } => Some(413),
            RequestError::LengthRequired => Some(411),
            RequestError::UnsupportedTransferEncoding => Some(501),
        }
    }

    /// Human-readable diagnostic for the error body.
    pub fn message(&self) -> String {
        match self {
            RequestError::ConnectionClosed => "connection closed".into(),
            RequestError::Io(e) => format!("i/o error: {e}"),
            RequestError::Malformed(m) => m.clone(),
            RequestError::HeadTooLarge => {
                format!("request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            RequestError::BodyTooLarge { advertised, limit } => {
                format!("request body of {advertised} bytes exceeds the {limit}-byte limit")
            }
            RequestError::LengthRequired => "POST requires a Content-Length header".into(),
            RequestError::UnsupportedTransferEncoding => {
                "Transfer-Encoding is not supported; send a Content-Length body".into()
            }
        }
    }
}

/// Read one request off a buffered stream.
///
/// `max_body_bytes` bounds the accepted `Content-Length`. Returns
/// [`RequestError::ConnectionClosed`] on clean EOF before any byte of a
/// new request (the normal end of a keep-alive connection).
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_body_bytes: usize,
) -> Result<Request, RequestError> {
    let mut head = Vec::with_capacity(512);
    // Accumulate up to the blank line separating head from body.
    loop {
        let n = read_line_into(reader, &mut head)?;
        if n == 0 {
            return if head.is_empty() {
                Err(RequestError::ConnectionClosed)
            } else {
                Err(RequestError::Malformed("truncated request head".into()))
            };
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
    }
    let head = std::str::from_utf8(&head)
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    // HTTP/1.0 defaults to close; 1.1 defaults to keep-alive.
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(RequestError::UnsupportedTransferEncoding);
    }

    // Request-smuggling guard: duplicate Content-Length headers that
    // *disagree* are ambiguous — two parsers picking different body
    // boundaries is exactly how smuggled requests hide behind
    // intermediaries — so they are rejected outright. Identical
    // repeats are tolerated (RFC 9110 §8.6 allows folding them).
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let parsed = v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed(format!("invalid Content-Length {v:?}")))?;
        match content_length {
            None => content_length = Some(parsed),
            Some(prev) if prev != parsed => {
                return Err(RequestError::Malformed(format!(
                    "conflicting Content-Length headers ({prev} vs {parsed})"
                )))
            }
            Some(_) => {}
        }
    }
    let body_len = match (method, content_length) {
        (_, Some(n)) if n > max_body_bytes => {
            return Err(RequestError::BodyTooLarge {
                advertised: n,
                limit: max_body_bytes,
            })
        }
        (_, Some(n)) => n,
        ("POST" | "PUT" | "PATCH", None) => return Err(RequestError::LengthRequired),
        (_, None) => 0,
    };
    let mut body = vec![0u8; body_len];
    if body_len > 0 {
        io::Read::read_exact(reader, &mut body).map_err(RequestError::Io)?;
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (decode_query_component(k), decode_query_component(v)),
            None => (decode_query_component(pair), String::new()),
        })
        .collect();

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body,
        keep_alive,
    })
}

/// Percent-decode one `application/x-www-form-urlencoded` query
/// component: `+` decodes to a space and `%XX` to a byte. Invalid
/// escapes pass through literally (lenient, like most servers), and a
/// decode that is not valid UTF-8 falls back to the raw component.
fn decode_query_component(raw: &str) -> String {
    fn hex(b: Option<&u8>) -> Option<u8> {
        (*b? as char).to_digit(16).map(|d| d as u8)
    }
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| raw.to_string())
}

/// Read one `\n`-terminated line, appending (terminator included) to
/// `buf`; returns the number of bytes read (0 on EOF).
fn read_line_into<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> Result<usize, RequestError> {
    let before = buf.len();
    // `take` bounds each line so a single unterminated line can't grow
    // past the head cap either.
    let mut limited = io::Read::take(&mut *reader, (MAX_HEAD_BYTES + 2) as u64);
    limited
        .read_until(b'\n', buf)
        .map_err(RequestError::Io)
        .map(|_| buf.len() - before)
}

/// An HTTP response about to be written to the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (reason phrase derived via [`status_reason`]).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the fixed `Content-Type`/`Content-Length`/
    /// `Connection` set (e.g. `Retry-After` on a load-shed `503`).
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response with the given status, content-typed as
    /// the Prometheus text exposition format (which is plain UTF-8
    /// text, versioned via the media-type parameter).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// First extra-header value with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Ensure the response carries the request-ID header exactly once.
    /// An already-present ID (e.g. echoed by a replica the request was
    /// forwarded to) wins — the ID must stay stable across hops.
    pub fn with_request_id(self, id: &str) -> Self {
        if self.header(REQUEST_ID_HEADER).is_some() {
            self
        } else {
            self.with_header(REQUEST_ID_HEADER, id)
        }
    }
}

/// The header that carries a request's ID from ingress to replica and
/// back to the client.
pub const REQUEST_ID_HEADER: &str = "x-lantern-request-id";

/// Canonical reason phrase for the statuses the service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `response` into `out`, flagging whether the connection
/// stays open. The serving core appends responses to per-connection
/// output buffers this way, so head and body leave in one write and
/// the response is one TCP segment when it fits — two small writes
/// would hand Nagle's algorithm a reason to stall the body behind a
/// delayed ACK.
pub fn encode_response(out: &mut Vec<u8>, response: &Response, keep_alive: bool) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    out.reserve(head.len() + response.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&response.body);
}

/// Where one request ends inside a buffer of accumulated connection
/// bytes — the serving core's incremental framing step. The scanner only
/// finds the *boundary* (head terminator + `Content-Length` body); the
/// framed slice is then handed to [`read_request`] so every semantic
/// check (smuggling guards, size caps, method rules) has exactly one
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// Not enough bytes for a complete request yet.
    Incomplete,
    /// One complete request (or one that [`read_request`] will reject
    /// from its head alone) occupies the first `len` bytes.
    Complete {
        /// Bytes of the frame, head terminator and body included.
        len: usize,
    },
}

/// Scan `buf` for the end of the first pipelined request.
///
/// A head larger than [`MAX_HEAD_BYTES`] and a body advertised past
/// `max_body_bytes` both report `Complete` at the point where
/// [`read_request`] can already produce the right error (431/413) —
/// the caller must not wait for bytes that will never be honoured.
pub fn frame_request(buf: &[u8], max_body_bytes: usize) -> FrameStatus {
    // Head terminator: the same two suffixes `read_request` accepts at
    // a line boundary.
    let mut head_end = None;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        if (i >= 1 && buf[i - 1] == b'\n') || (i >= 3 && &buf[i - 3..=i] == b"\r\n\r\n") {
            head_end = Some(i + 1);
            break;
        }
    }
    let Some(head_end) = head_end else {
        // No terminator yet: once past the head cap, stop waiting and
        // let `read_request` answer 431 with what accumulated.
        return if buf.len() > MAX_HEAD_BYTES {
            FrameStatus::Complete { len: buf.len() }
        } else {
            FrameStatus::Incomplete
        };
    };
    // Body length: first parseable Content-Length. Anything the parser
    // will reject from the head alone (non-UTF-8, conflicting lengths,
    // oversized body, Transfer-Encoding) frames at the head.
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return FrameStatus::Complete { len: head_end };
    };
    let mut body_len = 0usize;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            if let Ok(n) = value.trim().parse::<usize>() {
                body_len = n;
                break;
            }
        }
    }
    if body_len > max_body_bytes {
        return FrameStatus::Complete { len: head_end };
    }
    if buf.len() < head_end + body_len {
        return FrameStatus::Incomplete;
    }
    FrameStatus::Complete {
        len: head_end + body_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /narrate?style=bulleted&x HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/narrate");
        assert_eq!(req.query_param("style"), Some("bulleted"));
        assert_eq!(req.query_param("x"), Some(""));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body_and_close() {
        let req =
            parse("POST /narrate HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.body_utf8(), Some("body"));
        assert!(!req.keep_alive);
        assert_eq!(req.header("content-length"), Some("4"));
        assert_eq!(req.header("Content-Length"), Some("4"));
    }

    #[test]
    fn conflicting_content_lengths_are_400() {
        let err =
            parse("POST /narrate HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\nbody")
                .unwrap_err();
        assert_eq!(err.status(), Some(400));
        assert!(
            err.message().contains("conflicting Content-Length"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn identical_duplicate_content_lengths_are_tolerated() {
        let req =
            parse("POST /narrate HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.body_utf8(), Some("body"));
    }

    #[test]
    fn conflicting_content_length_beats_invalid_second_value() {
        // One valid + one unparseable value is still malformed.
        let err =
            parse("POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: nope\r\n\r\nbody")
                .unwrap_err();
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn query_params_are_percent_decoded() {
        let req = parse(
            "GET /narrate?style=bulleted%20&q=a%2Bb&plus=one+two HTTP/1.1\r\nHost: a\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.query_param("style"), Some("bulleted "));
        assert_eq!(req.query_param("q"), Some("a+b"));
        assert_eq!(req.query_param("plus"), Some("one two"));
    }

    #[test]
    fn encoded_query_keys_decode_too() {
        let req = parse("GET /x?no%63ache=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("nocache"), Some("1"));
    }

    #[test]
    fn invalid_percent_escapes_pass_through() {
        let req = parse("GET /x?a=100%&b=%zz&c=%4 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("a"), Some("100%"));
        assert_eq!(req.query_param("b"), Some("%zz"));
        assert_eq!(req.query_param("c"), Some("%4"));
    }

    #[test]
    fn http_10_defaults_to_close() {
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn clean_eof_is_connection_closed() {
        assert!(matches!(parse(""), Err(RequestError::ConnectionClosed)));
    }

    #[test]
    fn malformed_requests_are_400() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} → {err:?}");
        }
    }

    #[test]
    fn post_without_length_is_411_and_chunked_is_501() {
        assert_eq!(
            parse("POST /narrate HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(411)
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(501)
        );
    }

    #[test]
    fn oversized_body_is_413() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 2048\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(413));
        assert!(err.message().contains("2048"), "{}", err.message());
    }

    #[test]
    fn oversized_head_is_431() {
        let huge = format!(
            "GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(&huge).unwrap_err().status(), Some(431));
    }

    #[test]
    fn response_wire_form_is_exact() {
        let mut out = Vec::new();
        encode_response(&mut out, &Response::json(200, r#"{"ok":true}"#), true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn extra_headers_are_emitted() {
        let mut out = Vec::new();
        let resp = Response::json(503, r#"{"err":1}"#).with_header("Retry-After", "1");
        encode_response(&mut out, &resp, false);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"err\":1}"), "{text}");
    }

    #[test]
    fn frame_scanner_finds_request_boundaries() {
        let full = b"POST /narrate HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // Every strict prefix is incomplete; the exact frame completes.
        for cut in 0..full.len() {
            assert_eq!(
                frame_request(&full[..cut], 1024),
                FrameStatus::Incomplete,
                "cut at {cut}"
            );
        }
        assert_eq!(
            frame_request(full, 1024),
            FrameStatus::Complete { len: full.len() }
        );
        // Pipelined second request does not move the first boundary.
        let mut two = full.to_vec();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(
            frame_request(&two, 1024),
            FrameStatus::Complete { len: full.len() }
        );
        // Bare-LF terminators frame like read_request accepts them.
        let lf = b"GET /healthz HTTP/1.1\nHost: a\n\n";
        assert_eq!(
            frame_request(lf, 1024),
            FrameStatus::Complete { len: lf.len() }
        );
    }

    #[test]
    fn frame_scanner_does_not_wait_for_unhonoured_bytes() {
        // Oversized advertised body: frame at the head so the parser
        // can answer 413 without the body ever arriving.
        let big = b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        match frame_request(big, 1024) {
            FrameStatus::Complete { len } => assert_eq!(len, big.len()),
            other => panic!("expected head-only frame, got {other:?}"),
        }
        let mut reader = BufReader::new(&big[..]);
        assert_eq!(
            read_request(&mut reader, 1024).unwrap_err().status(),
            Some(413)
        );
        // Head overflow without a terminator frames once past the cap.
        let huge = vec![b'a'; MAX_HEAD_BYTES + 10];
        assert!(matches!(
            frame_request(&huge, 1024),
            FrameStatus::Complete { .. }
        ));
    }

    #[test]
    fn two_requests_on_one_connection() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        assert_eq!(read_request(&mut reader, 1024).unwrap().path, "/healthz");
        assert_eq!(read_request(&mut reader, 1024).unwrap().path, "/stats");
        assert!(matches!(
            read_request(&mut reader, 1024),
            Err(RequestError::ConnectionClosed)
        ));
    }
}
