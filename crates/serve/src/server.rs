//! The daemon: a blocking acceptor, a bounded admission queue, and a
//! fixed worker pool with keep-alive connection reuse.
//!
//! Admission control happens in two layers, both of which answer with
//! structured errors instead of queueing without bound:
//!
//! 1. **the accept queue** — accepted sockets wait in a bounded
//!    `VecDeque`; when it is full the acceptor answers `503` and
//!    closes, counting `admission_rejects`. Queue depth at each
//!    admission is recorded in the `queue_depth` histogram, so the
//!    overload point is visible in `/metrics` before it is hit.
//! 2. **per-request budgets** — each request runs under a fresh
//!    [`Budget`](nalist_guard::Budget) built from the server-wide
//!    fuel/deadline caps ([`ServiceState::request_budget`]); an
//!    exhausted budget answers `429`.
//!
//! A request that panics is confined by `catch_unwind`: the worker
//! answers `500`, counts `request_panics`, and moves on. Locks the
//! panicking request may have poisoned are re-entered via
//! `PoisonError::into_inner` throughout the crate, matching the
//! recorder's own policy.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use nalist_obs::{Counter, Hist, Recorder};

use crate::api::{self, ApiError, ServiceState};
use crate::http::{read_request, RecvError, Response};
use crate::replica::ReplStatus;
use crate::tenant::Registry;

/// Spans the daemon's recorder keeps
/// ([`nalist_obs::MetricsRecorder::with_span_cap`]): the reasoner opens
/// spans on every request (a cache lookup per query, worklist and batch
/// spans on misses), so an uncapped buffer would grow with uptime and
/// with it every `GET /metrics` document. Later spans are counted in
/// `spans_dropped`.
pub const SPAN_CAP: usize = 4096;

/// Server configuration; [`ServerConfig::default`] is a sane local
/// setup (ephemeral port, 4 workers, queue of 64).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7070` (`:0` for ephemeral).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this the
    /// acceptor sheds with `503`.
    pub queue_cap: usize,
    /// Per-request fuel cap (`None` = unlimited).
    pub fuel: Option<u64>,
    /// Per-request deadline in milliseconds (`None` = unlimited).
    pub deadline_ms: Option<u64>,
    /// Socket read timeout in milliseconds: how long a worker waits
    /// for a slow client before answering `408` (mid-request) or
    /// recycling the connection (idle keep-alive).
    pub read_timeout_ms: u64,
    /// Durability directory: tenant snapshots + WALs. `None` runs
    /// in-memory.
    pub wal_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            fuel: None,
            deadline_ms: Some(10_000),
            read_timeout_ms: 5_000,
            wal_dir: None,
        }
    }
}

/// The bounded admission queue.
#[derive(Debug)]
struct Queue {
    inner: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    cap: usize,
    stop: AtomicBool,
}

impl Queue {
    fn push(&self, stream: TcpStream) -> Result<usize, TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() >= self.cap {
            return Err(stream);
        }
        q.push_back(stream);
        let depth = q.len();
        drop(q);
        self.ready.notify_one();
        Ok(depth)
    }

    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    queue: Arc<Queue>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Starts a server. The recorder receives every counter and histogram
/// the daemon produces and backs `GET /metrics` (via
/// [`Recorder::try_snapshot`]); pass a
/// [`nalist_obs::MetricsRecorder`] unless you want the endpoint empty.
pub fn start(cfg: &ServerConfig, rec: Arc<dyn Recorder>) -> Result<Server, ApiError> {
    start_with_replication(cfg, rec, None)
}

/// [`start`] with a replication status attached: the follower entry
/// point ([`crate::replica::start_follower`]) passes `Some`, turning
/// the routes into their read-only replica variants.
pub fn start_with_replication(
    cfg: &ServerConfig,
    rec: Arc<dyn Recorder>,
    replication: Option<Arc<ReplStatus>>,
) -> Result<Server, ApiError> {
    let registry = Registry::open(cfg.wal_dir.clone(), Arc::clone(&rec))?;
    let state = Arc::new(ServiceState {
        registry,
        fuel: cfg.fuel,
        deadline: cfg.deadline_ms.map(Duration::from_millis),
        batch_threads: nalist_membership::default_batch_threads(),
        replication,
    });
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| ApiError::internal(format!("cannot bind {}: {e}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ApiError::internal(format!("no local addr: {e}")))?;
    let queue = Arc::new(Queue {
        inner: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        cap: cfg.queue_cap.max(1),
        stop: AtomicBool::new(false),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    let read_timeout = Duration::from_millis(cfg.read_timeout_ms.max(1));
    for _ in 0..cfg.workers.max(1) {
        let queue = Arc::clone(&queue);
        let state = Arc::clone(&state);
        let rec = Arc::clone(&rec);
        threads.push(std::thread::spawn(move || {
            while let Some(stream) = queue.pop() {
                handle_connection(stream, &state, rec.as_ref(), read_timeout);
            }
        }));
    }
    {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let rec = Arc::clone(&rec);
        threads.push(std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Small request/response pairs on keep-alive connections
                // hit the Nagle + delayed-ACK stall (~40 ms per round
                // trip) unless we disable coalescing.
                let _ = stream.set_nodelay(true);
                rec.add(Counter::ConnsAccepted, 1);
                match queue.push(stream) {
                    Ok(depth) => rec.observe(Hist::QueueDepth, depth as u64),
                    Err(mut rejected) => {
                        rec.add(Counter::AdmissionRejects, 1);
                        let resp = ApiError {
                            status: 503,
                            kind: "overloaded",
                            message: "admission queue is full; retry later".to_string(),
                        }
                        .to_response()
                        .closing();
                        let _ = resp.write_to(&mut rejected);
                        let _ = rejected.flush();
                    }
                }
            }
            // Unblock any workers still waiting on the queue.
            queue.stop.store(true, Ordering::SeqCst);
            queue.ready.notify_all();
        }));
    }
    Ok(Server {
        addr,
        state,
        queue,
        stop,
        threads,
    })
}

impl Server {
    /// The actually-bound address (resolves `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (tests compare serve-path answers
    /// against direct reasoner calls through this).
    #[must_use]
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Graceful stop: no new connections, workers drain the queue and
    /// exit. In-flight requests finish; established idle keep-alive
    /// connections are *not* waited for beyond the read timeout.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() so the acceptor sees the flag.
        let _ = TcpStream::connect(self.addr);
        self.queue.ready.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn recv_error_response(e: &RecvError) -> Option<Response> {
    let err = match e {
        RecvError::Closed | RecvError::Io(_) => return None,
        RecvError::Timeout => ApiError {
            status: 408,
            kind: "timeout",
            message: "request not received within the read timeout".to_string(),
        },
        RecvError::HeadTooLarge => ApiError {
            status: 431,
            kind: "head_too_large",
            message: format!("request head exceeds {} bytes", crate::http::MAX_HEAD_BYTES),
        },
        RecvError::BodyTooLarge => ApiError {
            status: 413,
            kind: "body_too_large",
            message: format!("request body exceeds {} bytes", crate::http::MAX_BODY_BYTES),
        },
        RecvError::Malformed(detail) => ApiError {
            status: 400,
            kind: "malformed",
            message: detail.clone(),
        },
    };
    Some(err.to_response().closing())
}

/// Serves one connection until the client closes, errors, or asks to.
fn handle_connection(
    mut stream: TcpStream,
    state: &ServiceState,
    rec: &dyn Recorder,
    read_timeout: Duration,
) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return;
    }
    let mut leftover = Vec::new();
    let mut first = true;
    loop {
        let req = match read_request(&mut stream, &mut leftover) {
            Ok(req) => req,
            Err(e) => {
                if let Some(resp) = recv_error_response(&e) {
                    let _ = resp.write_to(&mut stream);
                }
                return;
            }
        };
        if !first {
            rec.add(Counter::KeepaliveReuses, 1);
        }
        first = false;
        rec.add(Counter::HttpRequests, 1);
        let t0 = Instant::now();
        // Panic isolation: a crashing handler answers 500 and the
        // worker lives on. The state is safe to reuse because every
        // lock in the crate re-enters poisoned guards.
        let mut resp = match catch_unwind(AssertUnwindSafe(|| api::handle(state, &req))) {
            Ok(resp) => resp,
            Err(_) => {
                rec.add(Counter::RequestPanics, 1);
                ApiError::internal("request handler panicked".to_string()).to_response()
            }
        };
        rec.observe(Hist::RequestNs, t0.elapsed().as_nanos() as u64);
        if req.close {
            resp.close = true;
        }
        if resp.write_to(&mut stream).is_err() {
            return;
        }
        if resp.close {
            return;
        }
    }
}
