//! Minimal HTTP/1.1 over blocking sockets: just enough protocol for
//! the service's JSON API, hardened against the abuse the wire corpus
//! throws at it (oversized heads, absurd bodies, slowloris stalls,
//! pipelined garbage).
//!
//! Policy in one line: every defect has a *typed* outcome
//! ([`RecvError`]) that maps to exactly one status code, and none of
//! them can make a worker allocate more than the fixed limits below.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on request line + headers, bytes. A head larger than
/// this answers `431` — it is never buffered in full.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body, bytes. A `Content-Length` beyond
/// this answers `413` *before* any body byte is read.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target, query string included.
    pub target: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or an HTTP/1.0 default).
    pub close: bool,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (query string stripped).
    #[must_use]
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's raw query string, if any.
    #[must_use]
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// Why a request could not be read. Each variant maps to one response
/// (or to a silent close for the benign end-of-keep-alive cases).
#[derive(Debug)]
pub enum RecvError {
    /// Clean end of the connection between requests — not an error.
    Closed,
    /// The read timeout fired mid-request (slowloris or a stalled
    /// client): answer `408` and close.
    Timeout,
    /// Request line + headers exceeded [`MAX_HEAD_BYTES`]: `431`.
    HeadTooLarge,
    /// Declared body exceeds [`MAX_BODY_BYTES`]: `413`.
    BodyTooLarge,
    /// Anything else malformed (bad request line, bad version, broken
    /// `Content-Length`, chunked encoding): `400` with the reason.
    Malformed(String),
    /// A hard socket error; nothing sensible can be written back.
    Io(io::Error),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Finds the end of the head (`\r\n\r\n`, leniently also `\n\n`),
/// returning (head_end, body_start).
fn head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some((i, i + 4));
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some((i, i + 2));
        }
    }
    None
}

/// Reads one request from `stream`. `leftover` carries bytes read past
/// the previous request's end (pipelined clients), and is left holding
/// any bytes past this request's end.
///
/// The socket's read timeout must already be set by the caller; a
/// timeout with a partial request in the buffer is [`RecvError::
/// Timeout`], while a timeout (or EOF) on an empty buffer is the
/// benign [`RecvError::Closed`].
pub fn read_request(stream: &mut TcpStream, leftover: &mut Vec<u8>) -> Result<Request, RecvError> {
    let mut buf = std::mem::take(leftover);
    let mut chunk = [0u8; 4096];
    // Phase 1: accumulate the head.
    let (head_len, body_at) = loop {
        if let Some(found) = head_end(&buf) {
            // The limit binds even when the terminator arrived in the
            // same read chunk that crossed it.
            if found.0 > MAX_HEAD_BYTES {
                return Err(RecvError::HeadTooLarge);
            }
            break found;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RecvError::HeadTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Err(RecvError::Closed);
                }
                return Err(RecvError::Malformed(
                    "connection closed mid-request".to_string(),
                ));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() {
                    return Err(RecvError::Closed);
                }
                return Err(RecvError::Timeout);
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    };
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| RecvError::Malformed("head is not UTF-8".to_string()))?
        .to_string();
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(RecvError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RecvError::Malformed(format!("bad method {method:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(RecvError::Malformed(format!(
                "unsupported version {other:?}"
            )))
        }
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RecvError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
        close: false,
    };
    let connection = req.header("connection").map(str::to_ascii_lowercase);
    req.close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => !http11,
    };
    if req.header("transfer-encoding").is_some() {
        return Err(RecvError::Malformed(
            "chunked transfer encoding is not supported".to_string(),
        ));
    }
    let content_length = match req.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RecvError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(RecvError::BodyTooLarge);
    }
    // Phase 2: the body. Bytes already in `buf` past the head come
    // first; the rest is read from the socket.
    let mut body: Vec<u8> = buf[body_at..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(RecvError::Malformed(
                    "connection closed mid-body".to_string(),
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(RecvError::Timeout),
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    *leftover = body.split_off(content_length);
    req.body = body;
    Ok(req)
}

/// Upper bound on a response head and on its body, bytes, for the
/// clients in this crate (the load generator and a follower's fetches).
/// The WAL endpoint caps itself at [`crate::api::MAX_WAL_SHIPMENT`];
/// this guards the snapshot path and malformed peers.
pub(crate) const MAX_RESPONSE_BYTES: usize = 256 * 1024 * 1024;

/// One response as read by [`read_response`].
#[derive(Debug)]
pub(crate) struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
    /// Whether the server asked to close the connection
    /// (`connection: close`).
    pub close: bool,
}

impl Reply {
    /// First value of header `name` (lower-case), if present.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Header `name` parsed as a number, if present and numeric.
    pub(crate) fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name).and_then(|v| v.parse().ok())
    }
}

/// Reads one response from `stream`: the status line, the headers, and
/// a body of `content-length` bytes or, without a length, everything up
/// to EOF (a body the server ends by closing). The head and the body are
/// each bounded by [`MAX_RESPONSE_BYTES`].
pub(crate) fn read_response(stream: &mut impl Read) -> io::Result<Reply> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let eof = |msg: &str| io::Error::new(io::ErrorKind::UnexpectedEof, msg.to_string());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        if buf.len() > MAX_RESPONSE_BYTES {
            return Err(invalid("response head exceeds the fetch cap".to_string()));
        }
        match stream.read(&mut chunk)? {
            0 => return Err(eof("connection closed before response head")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    let mut reply = Reply {
        status,
        headers,
        body: buf.split_off(head_end + 4),
        close: false,
    };
    reply.close = reply
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let length = match reply.header("content-length") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| invalid(format!("bad content-length {v:?}")))?,
        ),
    };
    loop {
        if let Some(len) = length {
            if len > MAX_RESPONSE_BYTES {
                return Err(invalid("declared body exceeds the fetch cap".to_string()));
            }
            if reply.body.len() >= len {
                reply.body.truncate(len);
                return Ok(reply);
            }
        }
        if reply.body.len() > MAX_RESPONSE_BYTES {
            return Err(invalid("body exceeds the fetch cap".to_string()));
        }
        match stream.read(&mut chunk)? {
            0 if length.is_some() => return Err(eof("connection closed mid-body")),
            0 => return Ok(reply),
            n => reply.body.extend_from_slice(&chunk[..n]),
        }
    }
}

/// One response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Ask the client to close (and close ourselves) after writing.
    pub close: bool,
    /// `Retry-After` seconds, for `429`/`503` answers.
    pub retry_after: Option<u32>,
    /// Extra headers, written verbatim after the fixed set (e.g. the
    /// `Leader:` pointer on a follower's `421`, the `x-wal-*` offsets
    /// on replication answers). Names must be valid header tokens.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            retry_after: None,
            extra_headers: Vec::new(),
        }
    }

    /// A binary (`application/octet-stream`) response — snapshot and
    /// WAL bytes shipped to replication followers.
    #[must_use]
    pub fn octets(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/octet-stream",
            body,
            close: false,
            retry_after: None,
            extra_headers: Vec::new(),
        }
    }

    /// Marks the response as connection-closing.
    #[must_use]
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// Adds an extra response header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// The standard reason phrase for `status`.
    #[must_use]
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Content Too Large",
            416 => "Range Not Satisfiable",
            421 => "Misdirected Request",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialises the response to `w` (status line, headers, body).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("retry-after: {secs}\r\n"));
        }
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if self.close {
            head.push_str("connection: close\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Percent-decodes a URL query component (`%41` → `A`, `+` → space).
/// Invalid escapes are passed through literally rather than erroring:
/// the decoded text is parsed again downstream, which produces the
/// better diagnostic.
#[must_use]
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
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
    fn percent_decoding_handles_escapes_plus_and_junk() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%2D%2d"), "--");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("Visit%5B%CE%BB%5D"), "Visit[λ]");
    }

    #[test]
    fn head_end_finds_both_line_conventions() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some((14, 18)));
        assert_eq!(head_end(b"GET / HTTP/1.1\n\nrest"), Some((14, 16)));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn request_accessors_split_path_and_query() {
        let r = Request {
            method: "GET".to_string(),
            target: "/v1/a/cert?dep=x%20y".to_string(),
            headers: vec![("host".to_string(), "h".to_string())],
            body: Vec::new(),
            close: false,
        };
        assert_eq!(r.path(), "/v1/a/cert");
        assert_eq!(r.query(), Some("dep=x%20y"));
        assert_eq!(r.header("host"), Some("h"));
        assert_eq!(r.header("absent"), None);
    }

    #[test]
    fn responses_end_at_their_length_or_at_eof() {
        let mut sized = &b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-wal-end: 9\r\n\r\nokEXTRA"[..];
        let r = read_response(&mut sized).unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), r.close),
            (200, &b"ok"[..], false)
        );
        assert_eq!(r.header_u64("x-wal-end"), Some(9));
        let mut closing = &b"HTTP/1.1 500 X\r\nconnection: close\r\n\r\nto eof"[..];
        let r = read_response(&mut closing).unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), r.close),
            (500, &b"to eof"[..], true)
        );
        let mut short = &b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort"[..];
        let e = read_response(&mut short).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }
}
