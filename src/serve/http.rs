//! Hand-rolled HTTP/1.1 — just enough protocol for the capacity daemon.
//!
//! The server side parses a request line, headers, and a
//! `Content-Length` body from a buffered stream and writes framed
//! responses with explicit keep-alive handling. The client side
//! ([`Client`]) issues keep-alive requests over one connection; it
//! exists for the integration tests and the `bench_serve` load client,
//! so the daemon is exercised through the same wire format it serves.
//!
//! Deliberately out of scope (answered with `501`): chunked transfer
//! encoding, multipart bodies, TLS. The daemon speaks plain `HTTP/1.1`
//! and `HTTP/1.0` with `Content-Length` framing only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Default cap on request bodies; larger requests get `413`.
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 * 1024;
/// Cap on any single request/status/header line.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Cap on the number of headers per message.
const MAX_HEADERS: usize = 64;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Method verb, e.g. `GET`.
    pub method: String,
    /// Request target as sent, e.g. `/query?k=2&p=0.5`.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// Target path with any query string stripped.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Query-string portion of the target, if present.
    pub fn query_string(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Peer closed before sending a request line — a clean end of a
    /// keep-alive connection, not an error.
    Closed,
    /// Malformed request; respond `400` and close.
    Bad(String),
    /// Declared body exceeds the configured cap; respond `413`.
    TooLarge(usize),
    /// Valid HTTP the daemon does not speak; respond `501`.
    Unsupported(String),
    /// Transport failure (timeout, reset); close silently.
    Io(std::io::Error),
}

/// Reads one CRLF- (or LF-) terminated line, without the terminator.
/// `None` means clean EOF before any byte.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(HttpError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES {
        return Err(HttpError::Bad(format!(
            "line exceeds {MAX_LINE_BYTES} bytes"
        )));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else {
        // EOF mid-line.
        return Err(HttpError::Bad("truncated line".to_string()));
    }
    String::from_utf8(buf).map(Some).map_err(|_| {
        HttpError::Bad("line is not valid UTF-8".to_string())
    })
}

/// Reads and validates one request from the stream.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<Request, HttpError> {
    let line = match read_line(reader)? {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Bad(format!("malformed request line '{line}'")));
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Bad(format!("unsupported version '{version}'")));
    }
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(reader)? {
            None => return Err(HttpError::Bad("truncated headers".to_string())),
            Some(l) => l,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Bad(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Bad(format!("malformed header '{line}'")))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let mut req = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
        keep_alive: version == "HTTP/1.1",
    };
    match req.header("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => req.keep_alive = false,
        Some(c) if c == "keep-alive" => req.keep_alive = true,
        _ => {}
    }
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::Unsupported(
            "transfer-encoding is not supported; use content-length".to_string(),
        ));
    }
    if let Some(len) = req.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Bad(format!("bad content-length '{len}'")))?;
        if len > max_body {
            return Err(HttpError::TooLarge(max_body));
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::Bad("body shorter than content-length".to_string())
            } else {
                HttpError::Io(e)
            }
        })?;
        req.body = body;
    }
    Ok(req)
}

/// One response to write.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (already rendered).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers, e.g. `X-Banyan-Cache`.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            body,
            content_type: "application/json",
            extra_headers: Vec::new(),
        }
    }

    /// A Prometheus text-exposition response (`GET /metrics`).
    pub fn exposition(status: u16, body: String) -> Self {
        Response {
            status,
            body,
            content_type: banyan_obs::expo::CONTENT_TYPE,
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error response with a single `error` field.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!("{{\"error\": \"{}\"}}\n", banyan_obs::json::escape(message)),
        )
    }

    /// Attaches an extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Value of an attached extra header (case-insensitive name).
    pub fn extra_header(&self, name: &str) -> Option<&str> {
        self.extra_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Appends the decimal rendering of `v` to `buf` without going through
/// `core::fmt`: message heads and access-log lines are on the serve
/// request path, and formatter dispatch is measurable there.
pub(crate) fn push_u64(buf: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Writes `resp` with explicit framing; `keep_alive` selects the
/// `Connection` header.
///
/// The status line, headers and body go out in one `write_all` on one
/// buffer. On a `TCP_NODELAY` socket a separate head write leaves as a
/// segment of its own and wakes the reader twice per response.
pub fn write_response(
    stream: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = reason(resp.status);
    let extra: usize = resp
        .extra_headers
        .iter()
        .map(|(name, value)| name.len() + value.len() + 4)
        .sum();
    // 96 bytes hold the fixed text of the head and both numbers.
    let mut msg =
        String::with_capacity(96 + reason.len() + resp.content_type.len() + extra + resp.body.len());
    msg.push_str("HTTP/1.1 ");
    push_u64(&mut msg, u64::from(resp.status));
    msg.push(' ');
    msg.push_str(reason);
    msg.push_str("\r\ncontent-type: ");
    msg.push_str(resp.content_type);
    msg.push_str("\r\ncontent-length: ");
    push_u64(&mut msg, resp.body.len() as u64);
    msg.push_str(if keep_alive {
        "\r\nconnection: keep-alive\r\n"
    } else {
        "\r\nconnection: close\r\n"
    });
    for (name, value) in &resp.extra_headers {
        msg.push_str(name);
        msg.push_str(": ");
        msg.push_str(value);
        msg.push_str("\r\n");
    }
    msg.push_str("\r\n");
    msg.push_str(&resp.body);
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

/// Writes one request as [`Client`] frames it (`host` and
/// `content-length` headers, then the body) with a single `write_all`,
/// for the same reason as [`write_response`].
fn write_request(
    stream: &mut impl Write,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut msg = String::with_capacity(64 + method.len() + target.len() + body.len());
    msg.push_str(method);
    msg.push(' ');
    msg.push_str(target);
    msg.push_str(" HTTP/1.1\r\nhost: banyan\r\ncontent-length: ");
    push_u64(&mut msg, body.len() as u64);
    msg.push_str("\r\n\r\n");
    msg.push_str(body);
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

/// A minimal keep-alive HTTP client over one connection, used by the
/// integration tests and the `bench_serve` load generator.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

/// A response as seen by [`Client`].
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7070`).
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Issues one keep-alive request and reads the framed response.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        write_request(
            &mut self.reader.get_ref(),
            method,
            target,
            body.unwrap_or(""),
        )?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let status_line = match read_line(&mut self.reader) {
            Ok(Some(l)) => l,
            Ok(None) => return Err(bad("connection closed before status line")),
            Err(HttpError::Io(e)) => return Err(e),
            Err(e) => return Err(bad(&format!("{e:?}"))),
        };
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line '{status_line}'")))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let line = match read_line(&mut self.reader) {
                Ok(Some(l)) => l,
                Ok(None) => return Err(bad("connection closed in headers")),
                Err(HttpError::Io(e)) => return Err(e),
                Err(e) => return Err(bad(&format!("{e:?}"))),
            };
            if line.is_empty() {
                break;
            }
            if let Some((n, v)) = line.split_once(':') {
                headers.push((n.trim().to_ascii_lowercase(), v.trim().to_string()));
                if n.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            headers,
            body: String::from_utf8(body)
                .map_err(|_| bad("response body is not valid UTF-8"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        let mut reader = Cursor::new(raw.as_bytes().to_vec());
        read_request(&mut reader, DEFAULT_MAX_BODY_BYTES)
    }

    #[test]
    fn parses_get_with_query_string() {
        let req = parse("GET /query?k=2&p=0.5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/query");
        assert_eq!(req.query_string(), Some("k=2&p=0.5"));
        assert!(req.keep_alive());
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /query HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":2}").unwrap();
        assert_eq!(req.body, b"{\"k\":2}");
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            "BOGUS\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "GET  /  HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Bad(_))),
                "accepted {raw:?}"
            );
        }
    }

    #[test]
    fn clean_eof_is_closed_not_bad() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\n"),
            Err(HttpError::Bad(_))
        ));
    }

    #[test]
    fn oversized_body_is_too_large() {
        let raw = "POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn transfer_encoding_is_unsupported() {
        let raw = "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::Unsupported(_))));
    }

    #[test]
    fn short_body_is_bad() {
        let raw = "POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(parse(raw), Err(HttpError::Bad(_))));
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write_with_unchanged_framing() {
        let cases = [
            (
                Response::json(200, "{\"ok\": true}".to_string())
                    .with_header("X-Banyan-Cache", "hit")
                    .with_header("X-Banyan-Source", "analytic"),
                true,
            ),
            (Response::error(404, "unknown path '/nope'"), false),
            (Response::exposition(200, String::new()), true),
            (Response::json(413, "x".repeat(70_000)), false),
        ];
        for (resp, keep_alive) in cases {
            let mut head = format!(
                "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
                resp.status,
                reason(resp.status),
                resp.content_type,
                resp.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            );
            for (name, value) in &resp.extra_headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            let expected = format!("{head}\r\n{}", resp.body);
            let mut out = CountingWriter::default();
            write_response(&mut out, &resp, keep_alive).unwrap();
            assert_eq!(out.writes, 1, "status {}", resp.status);
            assert_eq!(out.bytes, expected.as_bytes(), "status {}", resp.status);
        }
    }

    #[test]
    fn each_request_is_one_write_with_unchanged_framing() {
        for (method, target, body) in [
            ("GET", "/query?k=2&p=0.5", ""),
            ("POST", "/query", "{\"k\": 2, \"p\": 0.5}"),
            ("POST", "/v1/batch", "[{\"p\": 0.1}, {\"p\": 0.2}]"),
        ] {
            let expected = format!(
                "{method} {target} HTTP/1.1\r\nhost: banyan\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            let mut out = CountingWriter::default();
            write_request(&mut out, method, target, body).unwrap();
            assert_eq!(out.writes, 1, "{method} {target}");
            assert_eq!(out.bytes, expected.as_bytes(), "{method} {target}");
            // The daemon's parser reads back what the client sent.
            let req = read_request(&mut Cursor::new(out.bytes), DEFAULT_MAX_BODY_BYTES).unwrap();
            assert_eq!((req.method.as_str(), req.target.as_str()), (method, target));
            assert_eq!(req.body, body.as_bytes());
        }
    }

    #[test]
    fn push_u64_renders_decimal() {
        for v in [0, 7, 10, 404, 65_536, u64::MAX] {
            let mut s = String::from("x");
            push_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
    }

    #[test]
    fn response_framing_round_trips() {
        let resp = Response::json(200, "{\"ok\": true}".to_string())
            .with_header("X-Banyan-Cache", "hit");
        let mut out = Vec::new();
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 12\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("X-Banyan-Cache: hit\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"), "{text}");
    }
}
