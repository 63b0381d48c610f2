//! A minimal blocking HTTP/1.1 client on one keep-alive connection.
//!
//! The benchmark's own client (the daemon's loadgen client is private to
//! its crate): one `write_all` per request, `content-length` framing on
//! the way back, and buffers reused across requests so the load process
//! stays cheap next to the server on a small machine.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One request, rendered once at generation time.
#[derive(Debug, Clone)]
pub struct Wire {
    /// The full request bytes (head and body).
    pub bytes: Vec<u8>,
}

impl Wire {
    /// Renders `method target` with an optional JSON body.
    #[must_use]
    pub fn new(method: &str, target: &str, body: Option<&str>) -> Wire {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        Wire { bytes }
    }
}

/// A keep-alive connection. It never reconnects by itself: a dropped
/// connection is an I/O failure the benchmark counts.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    pub fn roundtrip(&mut self, wire: &Wire) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(&wire.bytes)?;
        self.read_response()
    }

    /// Convenience for set-up and checks: `(status, body as text)`.
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let (status, body) = self.roundtrip(&Wire::new(method, target, body))?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = find_head_end(&self.buf) {
                break i;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let (status, len, close) = parse_head(&self.buf[..head_end])?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[body_start..body_start + len].to_vec();
        self.buf.drain(..body_start + len);
        if close {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("server closed the connection after HTTP {status}"),
            ));
        }
        Ok((status, body))
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `(status, content-length, connection: close)` from a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let head = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value.parse().map_err(|_| bad("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    Ok((status, len, close))
}

/// Percent-encodes a query-string value.
#[must_use]
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse() {
        let (s, n, c) =
            parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nconnection: keep-alive").unwrap();
        assert_eq!((s, n, c), (200, 12, false));
        let (s, _, c) = parse_head(b"HTTP/1.1 503 x\r\nconnection: close").unwrap();
        assert_eq!((s, c), (503, true));
    }

    #[test]
    fn percent_encoding_round_trips_through_the_server_decoder() {
        let s = "L1(A0, L2[λ]) ->> L1(A3)";
        assert_eq!(nalist_serve::http::percent_decode(&percent_encode(s)), s);
    }
}
