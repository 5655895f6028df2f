//! Minimal HTTP/1.1 wire handling, parser-first: request bytes accumulate in
//! a per-connection buffer and [`parse_request`] is re-run as chunks arrive,
//! so the reactor can feed it from a nonblocking socket without ever parking
//! a thread on I/O. The service speaks just enough HTTP for its endpoints:
//! request-line, headers, and optional `Content-Length` body in; status,
//! headers, and body out.
//!
//! Limits are enforced *by the parser*, so a misbehaving client cannot
//! balloon a connection's memory: headers are capped at [`MAX_HEADER_BYTES`],
//! bodies at [`MAX_BODY_BYTES`], and a request that smells like smuggling —
//! duplicate or non-numeric `Content-Length` — is rejected outright rather
//! than guessed at. The parser also reports exactly how many bytes the
//! request consumed, so a pipelined follow-up request is never swallowed
//! into the current body.

/// Hard caps on what we buffer from a socket.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, raw query string, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    pub query: Option<String>,
    pub body: String,
    /// Whether the client asked to reuse the connection after the response
    /// (HTTP/1.1 default unless `Connection: close`; HTTP/1.0 only with an
    /// explicit `Connection: keep-alive`).
    pub keep_alive: bool,
}

/// Why a request could not be parsed — each maps to one 4xx.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Malformed request line or headers (incl. duplicate/non-numeric
    /// `Content-Length`) → 400.
    BadRequest,
    /// Headers or declared body exceeded the fixed caps → 413.
    TooLarge,
}

impl WireError {
    /// The status code this parse failure answers with.
    pub fn status(self) -> u16 {
        match self {
            WireError::BadRequest => 400,
            WireError::TooLarge => 413,
        }
    }
}

/// One step of the incremental parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// Not enough bytes yet; read more and call again.
    Incomplete,
    /// A full request, plus exactly how many buffer bytes it used — the
    /// caller drains `consumed` and *only* `consumed`, so bytes of a
    /// pipelined next request stay in the buffer instead of being read
    /// into this request's body.
    Complete { request: HttpRequest, consumed: usize },
    /// Hopeless: answer with `err.status()` and close.
    Bad(WireError),
}

/// Find the end of the header block: the byte index just past the first
/// empty line. Tolerates bare-`\n` line endings.
fn headers_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0usize;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            let line = &buf[line_start..i];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.is_empty() && line_start > 0 {
                return Some(i + 1);
            }
            line_start = i + 1;
        }
    }
    None
}

/// Try to parse one request out of `buf`. Pure and restartable: callers
/// re-invoke it on the same (grown) buffer until it stops being
/// [`Parse::Incomplete`].
pub fn parse_request(buf: &[u8]) -> Parse {
    let Some(head_len) = headers_end(buf) else {
        // No terminator yet. A header block that has already outgrown the
        // cap will never become valid, so fail now instead of buffering
        // a drip-fed request-line forever.
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Bad(WireError::TooLarge);
        }
        return Parse::Incomplete;
    };
    if head_len > MAX_HEADER_BYTES {
        return Parse::Bad(WireError::TooLarge);
    }
    let head = String::from_utf8_lossy(&buf[..head_len]);
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parse::Bad(WireError::BadRequest);
    };
    if !version.starts_with("HTTP/1.") {
        return Parse::Bad(WireError::BadRequest);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        if line.is_empty() {
            continue; // the terminator line itself
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Bad(WireError::BadRequest);
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Two Content-Length headers is the classic request-smuggling
            // shape; even two *agreeing* copies get a 400, per RFC 9112's
            // "reject the message" option, instead of a silent guess.
            if content_length.is_some() {
                return Parse::Bad(WireError::BadRequest);
            }
            // digits only: `usize::from_str` tolerates a leading `+`,
            // which RFC 9110's 1*DIGIT grammar does not
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Parse::Bad(WireError::BadRequest);
            }
            match value.parse::<usize>() {
                Ok(n) if n <= MAX_BODY_BYTES => content_length = Some(n),
                _ => return Parse::Bad(WireError::TooLarge),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let content_length = content_length.unwrap_or(0);
    let consumed = head_len + content_length;
    if buf.len() < consumed {
        return Parse::Incomplete;
    }
    let body = String::from_utf8_lossy(&buf[head_len..consumed]).into_owned();
    Parse::Complete {
        request: HttpRequest {
            method: method.to_string(),
            path,
            query,
            body,
            keep_alive,
        },
        consumed,
    }
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers beyond the always-present set.
    pub headers: Vec<(&'static str, String)>,
    pub body: String,
}

impl HttpResponse {
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Prometheus exposition format.
    pub fn metrics(body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body,
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        HttpResponse::json(
            status,
            format!("{{\"error\":{}}}", crate::json::quote(message)),
        )
    }

    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Render the full wire bytes (status line + headers + body) in one
    /// buffer, the shape the reactor queues for nonblocking writes.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// Reason phrases for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Extract a query parameter's percent-decoded value.
pub fn query_param(query: Option<&str>, name: &str) -> Option<String> {
    for pair in query?.split('&') {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == name {
            return Some(percent_decode(v));
        }
    }
    None
}

/// Decode `%XX` escapes and `+` (form-style space). Invalid escapes pass
/// through verbatim — an audit of a malformed URL should see what was sent.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let hex_val = |b: u8| -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                    out.push(hi * 16 + lo);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("http%3A%2F%2Fe.org%2Fp%3Fx%3D1"), "http://e.org/p?x=1");
        assert_eq!(percent_decode("plain"), "plain");
        // invalid escape survives
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn query_param_extraction() {
        let q = Some("url=http%3A%2F%2Fe.org%2F&limit=3");
        assert_eq!(query_param(q, "url").as_deref(), Some("http://e.org/"));
        assert_eq!(query_param(q, "limit").as_deref(), Some("3"));
        assert_eq!(query_param(q, "missing"), None);
        assert_eq!(query_param(None, "url"), None);
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(reason(200), "OK");
        assert_eq!(reason(503), "Service Unavailable");
        assert_eq!(reason(418), "Unknown");
    }

    fn parse(raw: &str) -> Result<HttpRequest, WireError> {
        match parse_request(raw.as_bytes()) {
            Parse::Complete { request, .. } => Ok(request),
            Parse::Bad(e) => Err(e),
            Parse::Incomplete => panic!("incomplete request: {raw:?}"),
        }
    }

    #[test]
    fn request_parsing_roundtrip() {
        let req = parse("GET /check?url=x HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/check");
        assert_eq!(req.query.as_deref(), Some("url=x"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let req = parse("POST /batch HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn keep_alive_negotiation() {
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive);
        let old = parse("GET / HTTP/1.0\r\nHost: a\r\n\r\n").unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_ka = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn oversized_request_line_is_capped() {
        // one giant line with no newline at all must still hit the cap
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
        assert_eq!(parse(&raw), Err(WireError::TooLarge));
        let no_newline = "G".repeat(64 * 1024);
        assert_eq!(parse(&no_newline), Err(WireError::TooLarge));
    }

    #[test]
    fn oversized_headers_share_the_budget() {
        // many small header lines whose sum crosses the cap
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2048 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "v".repeat(16)));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw), Err(WireError::TooLarge));
    }

    // ------ the hostile-request sweep: smuggling-shaped Content-Length ------

    #[test]
    fn duplicate_content_length_is_rejected() {
        // disagreeing copies: the smuggling classic
        let raw = "POST /batch HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 1\r\n\r\nabcd";
        assert_eq!(parse(raw), Err(WireError::BadRequest));
        // even agreeing copies are refused rather than guessed at
        let raw = "POST /batch HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(parse(raw), Err(WireError::BadRequest));
    }

    #[test]
    fn nonnumeric_content_length_is_rejected() {
        for cl in ["abc", "-1", "4x", "0x10", "4 4", "+4"] {
            let raw = format!("POST /batch HTTP/1.1\r\nContent-Length: {cl}\r\n\r\nabcd");
            assert_eq!(parse(&raw), Err(WireError::BadRequest), "Content-Length: {cl}");
        }
    }

    #[test]
    fn oversized_declared_body_is_413_not_a_drop() {
        let raw = format!("POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse(&raw), Err(WireError::TooLarge));
        // exactly at the cap is still fine (parser waits for the body)
        let raw = format!("POST /batch HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        assert_eq!(parse_request(raw.as_bytes()), Parse::Incomplete);
    }

    #[test]
    fn garbage_header_line_is_bad_request() {
        assert_eq!(parse("GET / HTTP/1.1\r\nnot-a-header\r\n\r\n"), Err(WireError::BadRequest));
        assert_eq!(parse("GET /\r\n\r\n"), Err(WireError::BadRequest));
        assert_eq!(parse("GET / SPDY/3\r\n\r\n"), Err(WireError::BadRequest));
    }

    // ------ incremental parsing: the reactor's view ------

    #[test]
    fn incremental_byte_by_byte() {
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz";
        for cut in 0..raw.len() {
            assert_eq!(
                parse_request(&raw[..cut]),
                Parse::Incomplete,
                "premature completion at {cut} bytes"
            );
        }
        match parse_request(raw) {
            Parse::Complete { request, consumed } => {
                assert_eq!(request.body, "xyz");
                assert_eq!(consumed, raw.len());
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn consumed_stops_at_the_request_boundary() {
        // a pipelined second request must NOT be eaten as body bytes
        let raw = b"POST /batch HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /next HTTP/1.1\r\n\r\n";
        match parse_request(raw) {
            Parse::Complete { request, consumed } => {
                assert_eq!(request.body, "ok");
                let rest = &raw[consumed..];
                match parse_request(rest) {
                    Parse::Complete { request, consumed } => {
                        assert_eq!(request.path, "/next");
                        assert_eq!(consumed, rest.len());
                    }
                    other => panic!("second request unparsed: {other:?}"),
                }
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn wire_error_statuses() {
        assert_eq!(WireError::BadRequest.status(), 400);
        assert_eq!(WireError::TooLarge.status(), 413);
    }

    #[test]
    fn response_renders_headers() {
        let r = HttpResponse::text(503, "busy").with_header("Retry-After", "1");
        assert_eq!(r.status, 503);
        assert_eq!(r.headers, vec![("Retry-After", "1".to_string())]);
        let bytes = r.serialize(false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\nbusy"));
        let ka = String::from_utf8(r.serialize(true)).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"));
    }
}
