//! A deliberately small HTTP/1.1 implementation on `std::net`.
//!
//! The workspace builds offline from vendored stubs, so there is no
//! tokio/hyper to lean on; the control plane needs exactly this much
//! HTTP: parse one request (line + headers + `Content-Length` body),
//! write one response, or hold the socket open for a server-sent-event
//! stream. Connections are `Connection: close` — every request gets a
//! fresh socket, which keeps the server loop trivial and is plenty for
//! a control plane (the load benchmark measures this path as-is).

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Largest accepted request body (a scenario JSON is well under this).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request line or header line, newline included. A
/// client streaming an endless line is cut off here instead of growing
/// a `String` without bound while it occupies a worker.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (uppercase, e.g. `GET`).
    pub method: String,
    /// Decoded path without the query string (e.g. `/api/runs/3`).
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header names (lowercased) to values.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

impl Request {
    /// The last value of query parameter `name`, if present.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Query parameter `name` parsed as an integer, when present and
    /// well-formed.
    #[must_use]
    pub fn query_u64(&self, name: &str) -> Option<u64> {
        self.query_param(name).and_then(|v| v.parse().ok())
    }

    /// The path split into non-empty segments (`/api/runs/3` →
    /// `["api", "runs", "3"]`).
    #[must_use]
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be parsed. The server maps every variant to
/// a `400 Bad Request` (or closes the socket for an empty read).
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed before sending a request line.
    Eof,
    /// The request line or a header was malformed.
    Malformed(String),
    /// The declared body length exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// Transport error while reading.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Eof => f.write_str("connection closed before a request line"),
            Self::Malformed(what) => write!(f, "malformed request: {what}"),
            Self::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds the {MAX_BODY_BYTES} byte limit")
            }
            Self::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Decodes `%XX` escapes and `+` in a query component. Invalid escapes
/// pass through literally — a control plane should never 500 on a weird
/// query string.
fn percent_decode(s: &str) -> String {
    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    // Work on bytes throughout: slicing the &str by byte offsets would
    // panic when a `%` is followed by a multibyte UTF-8 character.
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                    out.push((hi << 4) | lo);
                    i += 2;
                } else {
                    out.push(b'%');
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes
/// (lossily decoded); `Ok(None)` on immediate EOF, `Malformed` when the
/// limit is hit before a newline.
fn read_line_capped<R: BufRead>(reader: &mut R) -> Result<Option<String>, ParseError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            break;
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos + 1 > MAX_LINE_BYTES {
                return Err(ParseError::Malformed(format!(
                    "line exceeds the {MAX_LINE_BYTES} byte limit"
                )));
            }
            buf.extend_from_slice(&chunk[..=pos]);
            reader.consume(pos + 1);
            break;
        }
        if buf.len() + chunk.len() > MAX_LINE_BYTES {
            return Err(ParseError::Malformed(format!(
                "line exceeds the {MAX_LINE_BYTES} byte limit"
            )));
        }
        let n = chunk.len();
        buf.extend_from_slice(chunk);
        reader.consume(n);
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Reads and parses one request from `reader`, with per-line and
/// header-count bounds so a hostile peer cannot grow memory unboundedly.
///
/// # Errors
///
/// See [`ParseError`]; an immediate EOF is [`ParseError::Eof`] so the
/// server can distinguish an idle probe (a port scanner, a
/// health-check TCP connect) from a malformed request.
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    let Some(line) = read_line_capped(reader)? else {
        return Err(ParseError::Eof);
    };
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1") => (m, t),
        _ => return Err(ParseError::Malformed(format!("bad request line `{line}`"))),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = BTreeMap::new();
    let mut header_lines = 0usize;
    loop {
        let Some(hline) = read_line_capped(reader)? else {
            return Err(ParseError::Malformed("EOF inside headers".to_string()));
        };
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADERS {
            return Err(ParseError::Malformed(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        let Some((name, value)) = hline.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header `{hline}`")));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let content_length = headers
        .get("content-length")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge(content_length));
    }
    let mut body_bytes = vec![0u8; content_length];
    if content_length > 0 {
        io::Read::read_exact(reader, &mut body_bytes)?;
    }
    let body = String::from_utf8_lossy(&body_bytes).into_owned();

    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body,
    })
}

/// One response ready to write: status, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self { status, content_type: "application/json", body: body.into() }
    }

    /// A `200 OK` JSON response.
    #[must_use]
    pub fn ok_json(body: impl Into<String>) -> Self {
        Self::json(200, body)
    }

    /// A JSON error envelope (`{"error": "..."}`) with the given status.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let message = serde_json::to_string(message).unwrap_or_default();
        Self::json(status, format!("{{\"error\":{message}}}"))
    }

    /// The standard `404` envelope.
    #[must_use]
    pub fn not_found(what: &str) -> Self {
        Self::error(404, &format!("not found: {what}"))
    }

    /// Writes the response (status line, headers, body) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
        )?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

/// Reason phrase for the handful of status codes the server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use super::*;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        parse_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_headers_and_body() {
        let req = parse(
            "POST /api/runs?cap=4&x=a%20b HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/api/runs");
        assert_eq!(req.segments(), vec!["api", "runs"]);
        assert_eq!(req.query_u64("cap"), Some(4));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
        assert_eq!(req.body, "{\"a\": 1}\n");
    }

    #[test]
    fn empty_connection_is_eof_not_malformed() {
        assert!(matches!(parse(""), Err(ParseError::Eof)));
    }

    #[test]
    fn garbage_request_line_is_malformed() {
        assert!(matches!(parse("nonsense\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse("GET /x\r\n\r\n"), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn percent_escape_followed_by_multibyte_utf8_does_not_panic() {
        // `%a` then `é`: i+3 would land inside the 2-byte char if the
        // decoder sliced the &str by byte index.
        let req = parse("GET /x?a=%aé&b=%e9&c=%%41 HTTP/1.1\r\n\r\n").expect("parses");
        assert_eq!(req.query_param("a"), Some("%aé"));
        assert_eq!(req.query_param("b"), Some("\u{fffd}")); // lone 0xe9 byte, lossily replaced
        assert_eq!(req.query_param("c"), Some("%A"));
    }

    #[test]
    fn endless_header_line_is_rejected_not_buffered() {
        let raw = format!("GET /x HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-H-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn oversized_body_is_rejected_without_reading_it() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(&raw), Err(ParseError::BodyTooLarge(_))));
    }

    #[test]
    fn response_renders_headers_and_body() {
        let mut out = Vec::new();
        Response::ok_json("{}").write_to(&mut out).expect("write");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn error_envelope_escapes_the_message() {
        let r = Response::error(400, "bad \"name\"");
        assert_eq!(r.body, "{\"error\":\"bad \\\"name\\\"\"}");
    }
}
