//! Sending the generated requests: an open-loop phase that times every
//! request from its due time, and a closed-loop capacity phase.
//!
//! Each connection is one thread with its own schedule, so a slow reply
//! delays the requests queued behind it on that connection — and that
//! wait is part of their latency, because the clock starts at the due
//! time, not at the actual send.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::workload::Req;

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Connection index.
    pub conn: usize,
    /// Index into that connection's request list for the phase.
    pub ix: usize,
    /// Due time, nanoseconds after the phase origin.
    pub due_ns: u64,
    /// When the request was written.
    pub sent_ns: u64,
    /// When the whole response had arrived (or the I/O failed).
    pub done_ns: u64,
    /// HTTP status, `0` for an I/O failure.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// How late the generator issued the request: the send time minus
    /// the later of its due time and the previous completion on the
    /// connection.
    pub late_ns: u64,
}

impl Sample {
    /// Whether the server answered 2xx.
    #[must_use]
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Latency from the due time, microseconds.
    #[must_use]
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// A phase's samples, in connection order.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request sent.
    pub samples: Vec<Sample>,
    /// Wall time from the phase origin to the last completion.
    pub elapsed_ns: u64,
}

impl Phase {
    /// Requests answered 2xx.
    #[must_use]
    pub fn succeeded(&self) -> usize {
        self.samples.iter().filter(|s| s.ok()).count()
    }
}

/// Head start between spawning the connection threads and the first
/// due time.
const LEAD: Duration = Duration::from_millis(2);

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.checked_duration_since(origin)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Sends one request, reopening the connection first if the previous
/// exchange broke it.
fn exchange(conn: &mut Option<Conn>, addr: SocketAddr, req: &Req) -> (u16, Vec<u8>) {
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let Some(c) = conn.as_mut() else {
        return (0, Vec::new());
    };
    match c.roundtrip(&req.wire) {
        Ok(done) => done,
        Err(_) => {
            *conn = None;
            (0, Vec::new())
        }
    }
}

/// Runs one connection's list. `until` bounds a closed-loop phase; an
/// open-loop phase waits for each due time instead.
fn run_conn(
    conn_ix: usize,
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    reqs: &[Req],
    origin: Instant,
    until: Option<Instant>,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(reqs.len());
    let mut prev_done = 0u64;
    for (ix, req) in reqs.iter().enumerate() {
        let due_ns = match until {
            None => {
                let due = origin + Duration::from_nanos(req.due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                req.due_ns
            }
            Some(end) => {
                if Instant::now() >= end {
                    break;
                }
                ns_since(origin, Instant::now())
            }
        };
        let sent = Instant::now();
        let (status, body) = exchange(conn, addr, req);
        let done = Instant::now();
        let sent_ns = ns_since(origin, sent);
        let done_ns = ns_since(origin, done);
        out.push(Sample {
            conn: conn_ix,
            ix,
            due_ns,
            sent_ns,
            done_ns,
            status,
            body,
            late_ns: sent_ns.saturating_sub(due_ns.max(prev_done)),
        });
        prev_done = done_ns;
    }
    out
}

fn run_phase(
    conns: &mut [Option<Conn>],
    addr: SocketAddr,
    lists: &[&[Req]],
    closed_for: Option<Duration>,
) -> Phase {
    let origin = Instant::now() + LEAD;
    let until = closed_for.map(|d| origin + d);
    let mut parts: Vec<Vec<Sample>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lists)
            .enumerate()
            .map(|(i, (conn, reqs))| {
                s.spawn(move || {
                    let now = Instant::now();
                    if origin > now {
                        std::thread::sleep(origin - now);
                    }
                    run_conn(i, conn, addr, reqs, origin, until)
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("connection threads do not panic"));
        }
    });
    let samples: Vec<Sample> = parts.into_iter().flatten().collect();
    let elapsed_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
    Phase {
        samples,
        elapsed_ns,
    }
}

/// The fixed-rate phase: every connection follows its Poisson schedule.
pub fn open_loop(conns: &mut [Option<Conn>], addr: SocketAddr, lists: &[&[Req]]) -> Phase {
    run_phase(conns, addr, lists, None)
}

/// The capacity phase: every connection sends back to back for `for_`.
pub fn closed_loop(
    conns: &mut [Option<Conn>],
    addr: SocketAddr,
    lists: &[&[Req]],
    for_: Duration,
) -> Phase {
    run_phase(conns, addr, lists, Some(for_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Wire;
    use crate::workload::Op;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A one-connection server that answers each request after the
    /// given delay.
    fn stub(delays_ms: Vec<u64>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            for d in delays_ms {
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut chunk).unwrap();
                    buf.extend_from_slice(&chunk[..n]);
                }
                let end = buf.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
                buf.drain(..end + 4);
                std::thread::sleep(Duration::from_millis(d));
                s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, h)
    }

    fn req(due_ms: u64) -> Req {
        Req {
            due_ns: due_ms * 1_000_000,
            op: Op::Query { tenant: 0, ix: 0 },
            wire: Wire::new("GET", "/healthz", None),
        }
    }

    #[test]
    fn a_stalled_reply_raises_the_latency_of_requests_queued_behind_it() {
        // Due at 0, 10 and 20 ms; the first reply stalls for 100 ms.
        let (addr, server) = stub(vec![100, 0, 0]);
        let reqs = vec![req(0), req(10), req(20)];
        let mut conns = vec![Some(Conn::open(addr).unwrap())];
        let phase = open_loop(&mut conns, addr, &[&reqs]);
        server.join().unwrap();
        let lat: Vec<f64> = phase.samples.iter().map(Sample::latency_us).collect();
        assert!(lat[0] >= 100_000.0, "{lat:?}");
        // Timed from their due times, the queued requests carry the
        // stall: ~90 ms and ~80 ms, not the ~0 ms of their own exchange.
        assert!(lat[1] >= 85_000.0, "{lat:?}");
        assert!(lat[2] >= 75_000.0, "{lat:?}");
        let own = (phase.samples[1].done_ns - phase.samples[1].sent_ns) as f64 / 1e3;
        assert!(own < 50_000.0, "{own}");
        // The generator itself was not late: it sent each request as soon
        // as the connection was free.
        assert!(phase.samples.iter().all(|s| s.late_ns < 20_000_000));
    }
}
