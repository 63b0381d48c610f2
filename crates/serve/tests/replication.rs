//! Leader/follower replication, end to end.
//!
//! The oracle throughout is the strongest one available: the follower's
//! in-memory state serialised with [`nalist_membership::snapshot_payload`]
//! must be *byte-identical* to the leader's — not merely answer-equal.
//! On top of that the suite checks byte-identical query and Σ answers,
//! write rejection (`421` + a `leader:` pointer), certificate answers
//! that pass the independent trusted checker, and the three fault paths:
//! a shipment corrupted in flight (typed reject + re-fetch), a follower
//! restart (fresh bootstrap, identical catch-up), and a leader restart
//! whose compaction forces the re-snapshot handshake. A proptest drives
//! random edit scripts through the same convergence check.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use common::request;
use nalist_membership::snapshot_payload;
use nalist_obs::MetricsRecorder;
use nalist_serve::{ApiError, Follower, FollowerConfig, Server, ServerConfig, ServiceState};
use nalist_types::json::{escape, parse as parse_json, Json};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generous bound on every wait: the loops below poll every 20 ms and
/// normally finish in well under a second.
const CATCHUP: Duration = Duration::from_secs(30);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nalist-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal dir");
    dir
}

fn try_boot_leader(dir: &Path, addr: &str) -> Result<Server, ApiError> {
    let cfg = ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        wal_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    nalist_serve::server::start(&cfg, Arc::new(MetricsRecorder::new()))
}

fn boot_leader(dir: &Path) -> Server {
    try_boot_leader(dir, "127.0.0.1:0").expect("start leader")
}

fn boot_follower(leader: SocketAddr) -> Follower {
    let cfg = FollowerConfig {
        server: ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        leader: leader.to_string(),
        poll_wait_ms: 100,
    };
    nalist_serve::start_follower(&cfg, Arc::new(MetricsRecorder::new())).expect("start follower")
}

fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while t0.elapsed() < CATCHUP {
        if ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out after {CATCHUP:?} waiting for {what}");
}

fn create_tenant(addr: SocketAddr, tenant: &str, schema: &str, deps: &[String]) {
    let items: Vec<String> = deps.iter().map(|d| escape(d)).collect();
    let (status, body) = request(
        addr,
        "POST",
        &format!("/v1/{tenant}/create"),
        Some(&format!(
            "{{\"schema\": {}, \"deps\": [{}]}}",
            escape(schema),
            items.join(", ")
        )),
    );
    assert_eq!(status, 201, "{body}");
}

fn edit(addr: SocketAddr, tenant: &str, op: &str, dep: &str) {
    let (status, body) = request(
        addr,
        "POST",
        &format!("/v1/{tenant}/edit"),
        Some(&format!("{{\"op\": \"{op}\", \"dep\": {}}}", escape(dep))),
    );
    assert_eq!(status, 200, "{op} {dep}: {body}");
}

fn query_exchange(addr: SocketAddr, tenant: &str, dep: &str) -> (u16, String) {
    request(
        addr,
        "POST",
        &format!("/v1/{tenant}/query"),
        Some(&format!("{{\"query\": {}}}", escape(dep))),
    )
}

/// The Σ-listing part of the sigma document (session-local cache
/// counters stripped).
fn sigma_part(body: &str) -> &str {
    &body[body.find("\"sigma\"").expect("sigma")..body.find("\"cache\"").expect("cache")]
}

/// The bit-identical oracle: the tenant's whole state as the snapshot
/// writer would serialise it. `None` until the tenant exists.
fn state_bytes(state: &Arc<ServiceState>, name: &str) -> Option<Vec<u8>> {
    let t = state.registry.get(name)?;
    let r = t.reasoner.read().unwrap_or_else(PoisonError::into_inner);
    Some(snapshot_payload(&r))
}

fn converged(leader: &Arc<ServiceState>, follower: &Arc<ServiceState>, name: &str) -> bool {
    match (state_bytes(leader, name), state_bytes(follower, name)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

fn assert_bit_identical(leader: &Server, follower: &Follower, name: &str) {
    wait_until(&format!("tenant {name} to converge"), || {
        converged(leader.state(), follower.state(), name)
    });
    assert_eq!(
        state_bytes(leader.state(), name),
        state_bytes(follower.state(), name),
        "tenant {name}: follower state is not bit-identical"
    );
}

/// A raw round trip that keeps the response head, for header asserts.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("write");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read");
    String::from_utf8_lossy(&raw).into_owned()
}

fn percent_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Up to `want` pairwise-distinct rendered dependencies over a fresh
/// random schema (rendering is canonical, so string-distinct implies
/// compiled-distinct).
fn schema_and_pool(rng: &mut StdRng, want: usize) -> (String, Vec<String>) {
    let atoms = rng.gen_range(4..=6);
    let n = nalist_gen::attr_with_atoms(rng, atoms);
    let alg = nalist_algebra::Algebra::new(&n);
    let mut pool: Vec<String> = Vec::new();
    for _ in 0..(want * 8) {
        if pool.len() == want {
            break;
        }
        let dep = nalist_gen::random_dep(rng, &alg, 0.3, 0.3).render(&alg);
        if !pool.contains(&dep) {
            pool.push(dep);
        }
    }
    (n.to_string(), pool)
}

fn deps(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

#[test]
fn follower_converges_bit_identically_and_rejects_writes() {
    let dir = temp_dir("e2e");
    let leader = boot_leader(&dir);
    let laddr = leader.local_addr();
    create_tenant(
        laddr,
        "t",
        "L(A, B, C)",
        &deps(&["L(A) -> L(B)", "L(B) ->> L(C)"]),
    );
    create_tenant(laddr, "u", "M(X, Y)", &deps(&["M(X) -> M(Y)"]));
    edit(laddr, "t", "add", "L(C) -> L(A)");

    let follower = boot_follower(laddr);
    let faddr = follower.local_addr();

    // The readiness latch: 503 until every discovered tenant caught up.
    wait_until("follower readiness", || {
        request(faddr, "GET", "/healthz", None).0 == 200
    });
    let (_, health) = request(faddr, "GET", "/healthz", None);
    assert!(health.contains("\"role\": \"follower\""), "{health}");
    assert!(health.contains("\"ready\": true"), "{health}");
    assert!(health.contains("\"tenants\": 2"), "{health}");

    // Churn after catch-up: the tailers keep following.
    edit(laddr, "t", "remove", "L(B) ->> L(C)");
    edit(laddr, "t", "add", "L(A) ->> L(C)");
    edit(laddr, "u", "add", "M(Y) -> M(X)");
    assert_bit_identical(&leader, &follower, "t");
    assert_bit_identical(&leader, &follower, "u");

    // Byte-identical answers: Σ (modulo session-local cache counters)
    // and every query exchange.
    let probes = [
        ("t", "L(A) -> L(B)"),
        ("t", "L(A) -> L(C)"),
        ("t", "L(B) ->> L(C)"),
        ("t", "L(C) ->> L(B)"),
        ("u", "M(X) -> M(Y)"),
        ("u", "M(Y) ->> M(X)"),
    ];
    for name in ["t", "u"] {
        let (ls, lb) = request(laddr, "GET", &format!("/v1/{name}/sigma"), None);
        let (fs, fb) = request(faddr, "GET", &format!("/v1/{name}/sigma"), None);
        assert_eq!((ls, sigma_part(&lb)), (fs, sigma_part(&fb)));
    }
    for (name, dep) in probes {
        assert_eq!(
            query_exchange(laddr, name, dep),
            query_exchange(faddr, name, dep),
            "query {dep} diverged between leader and follower"
        );
    }

    // Writes are rejected with 421 and a pointer at the leader.
    for (path, body) in [
        ("/v1/t/edit", r#"{"op": "add", "dep": "L(A) -> L(B)"}"#),
        ("/v1/w/create", r#"{"schema": "L(A)", "deps": []}"#),
        ("/v1/t/reload", "L(A) -> L(B)\n"),
    ] {
        let raw = raw_request(faddr, "POST", path, Some(body));
        assert!(raw.contains(" 421 "), "{path}: {raw}");
        assert!(raw.contains("follower_read_only"), "{path}: {raw}");
        assert!(
            raw.to_ascii_lowercase().contains("\r\nleader: "),
            "{path}: no leader header in {raw}"
        );
    }

    // The follower's /metrics carries the replication object.
    let (status, metrics) = request(faddr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(metrics.contains("\"replication\""), "{metrics}");
    assert!(metrics.contains("\"role\": \"follower\""), "{metrics}");

    // Follower certificates pass the independent trusted checker,
    // verified against the leader's authoritative schema + Σ.
    let (_, sigma_body) = request(laddr, "GET", "/v1/t/sigma", None);
    let doc = parse_json(&sigma_body).expect("sigma JSON");
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .expect("schema field")
        .to_string();
    let deps_src: String = doc
        .get("sigma")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|d| d.get("dep").and_then(Json::as_str))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .expect("sigma array");
    let budget = nalist_guard::Budget::unlimited();
    for dep in ["L(A) -> L(C)", "L(C) ->> L(B)", "L(B) -> L(A)"] {
        let (status, cert_body) = request(
            faddr,
            "GET",
            &format!("/v1/t/cert?dep={}", percent_encode(dep)),
            None,
        );
        assert_eq!(status, 200, "{cert_body}");
        let cert_src = parse_json(&cert_body)
            .expect("cert JSON")
            .get("certificate")
            .map(Json::render)
            .expect("certificate field");
        let cert = nalist_check::Certificate::from_json(&cert_src).expect("parsable certificate");
        nalist_check::verify(&schema, &deps_src, &cert, &budget)
            .unwrap_or_else(|e| panic!("follower certificate for {dep} rejected: {e}"));
    }

    follower.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-process TCP proxy that, once armed, flips one byte in the body
/// of the next non-empty `/wal` response — corruption in flight between
/// leader and follower.
struct FlipProxy {
    addr: SocketAddr,
    armed: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl FlipProxy {
    fn start(upstream: SocketAddr) -> FlipProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let armed = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let armed = Arc::clone(&armed);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut client) = conn else { continue };
                    let armed = Arc::clone(&armed);
                    std::thread::spawn(move || {
                        let _ = relay(&mut client, upstream, &armed);
                    });
                }
            })
        };
        FlipProxy {
            addr,
            armed,
            stop,
            handle,
        }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.handle.join();
    }
}

fn relay(client: &mut TcpStream, upstream: SocketAddr, armed: &AtomicBool) -> std::io::Result<()> {
    client.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    // Replication requests are bodyless GETs: the head is the request.
    while !req.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = client.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        req.extend_from_slice(&buf[..n]);
    }
    let is_wal = req.starts_with(b"GET ") && req.windows(5).any(|w| w == b"/wal?");
    let mut server = TcpStream::connect(upstream)?;
    server.set_read_timeout(Some(Duration::from_secs(10)))?;
    server.write_all(&req)?;
    let mut resp = Vec::new();
    loop {
        let n = server.read(&mut buf)?;
        if n == 0 {
            break;
        }
        resp.extend_from_slice(&buf[..n]);
    }
    if is_wal && armed.load(Ordering::SeqCst) {
        if let Some(split) = resp.windows(4).position(|w| w == b"\r\n\r\n") {
            let body_start = split + 4;
            if resp.len() > body_start && armed.swap(false, Ordering::SeqCst) {
                let mid = body_start + (resp.len() - body_start) / 2;
                resp[mid] ^= 0xFF;
            }
        }
    }
    client.write_all(&resp)?;
    Ok(())
}

#[test]
fn corrupt_shipment_in_flight_is_rejected_and_refetched() {
    let dir = temp_dir("flip");
    let leader = boot_leader(&dir);
    let laddr = leader.local_addr();
    create_tenant(laddr, "c", "L(A, B, C)", &deps(&["L(A) -> L(B)"]));

    let proxy = FlipProxy::start(laddr);
    let follower = boot_follower(proxy.addr);
    let faddr = follower.local_addr();
    wait_until("follower readiness", || {
        request(faddr, "GET", "/healthz", None).0 == 200
    });

    // Arm the proxy, then ship records through it: the first non-empty
    // WAL response arrives with one byte flipped.
    proxy.armed.store(true, Ordering::SeqCst);
    edit(laddr, "c", "add", "L(B) ->> L(C)");
    edit(laddr, "c", "add", "L(C) -> L(A)");

    // The corrupt shipment is a typed reject — counted, never applied —
    // and the re-fetch of the same offsets converges to identical state.
    wait_until("the corrupt shipment to be rejected", || {
        follower.status().rejected_segments() >= 1
    });
    assert_bit_identical(&leader, &follower, "c");
    assert_eq!(
        query_exchange(laddr, "c", "L(A) -> L(C)"),
        query_exchange(faddr, "c", "L(A) -> L(C)"),
    );

    follower.shutdown();
    proxy.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_follower_bootstraps_fresh_and_catches_up_bit_identically() {
    let dir = temp_dir("fkill");
    let leader = boot_leader(&dir);
    let laddr = leader.local_addr();
    create_tenant(laddr, "r", "L(A, B, C)", &deps(&["L(A) -> L(B)"]));

    let first = boot_follower(laddr);
    wait_until("first follower readiness", || {
        request(first.local_addr(), "GET", "/healthz", None).0 == 200
    });
    // Kill the follower right after a burst of edits — mid-replay from
    // its perspective. A follower keeps no durable state, so "restart"
    // means a fresh process bootstrapping from scratch.
    edit(laddr, "r", "add", "L(B) ->> L(C)");
    edit(laddr, "r", "add", "L(C) -> L(A)");
    first.shutdown();

    edit(laddr, "r", "remove", "L(B) ->> L(C)");
    let second = boot_follower(laddr);
    wait_until("second follower readiness", || {
        request(second.local_addr(), "GET", "/healthz", None).0 == 200
    });
    assert_bit_identical(&leader, &second, "r");
    assert!(second.status().bootstraps() >= 1);

    second.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leader_restart_compaction_forces_the_resnapshot_handshake() {
    let dir = temp_dir("compact");
    let leader = boot_leader(&dir);
    let laddr = leader.local_addr();
    create_tenant(laddr, "k", "L(A, B, C)", &deps(&["L(A) -> L(B)"]));
    edit(laddr, "k", "add", "L(B) ->> L(C)");

    let follower = boot_follower(laddr);
    let faddr = follower.local_addr();
    wait_until("follower readiness", || {
        request(faddr, "GET", "/healthz", None).0 == 200
    });
    assert_bit_identical(&leader, &follower, "k");
    assert_eq!(follower.status().bootstraps(), 1);

    // Leader goes away. The ready latch holds: the follower keeps
    // serving its last consistent state while it retries.
    leader.shutdown();
    assert_eq!(request(faddr, "GET", "/healthz", None).0, 200);
    let (status, _) = query_exchange(faddr, "k", "L(A) -> L(C)");
    assert_eq!(status, 200);

    // Reopening the same wal-dir compacts every tenant's log: same
    // state, fresh wal_id. The follower's offsets are now meaningless —
    // the handshake must notice and re-snapshot, not blindly tail.
    let restarted = {
        let addr = laddr.to_string();
        let t0 = Instant::now();
        loop {
            match try_boot_leader(&dir, &addr) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(
                        t0.elapsed() < CATCHUP,
                        "cannot rebind {addr} after leader shutdown: {}",
                        e.message
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    edit(laddr, "k", "add", "L(C) -> L(A)");
    wait_until("the follower to re-snapshot", || {
        follower.status().bootstraps() >= 2
    });
    assert_bit_identical(&restarted, &follower, "k");
    assert_eq!(
        query_exchange(laddr, "k", "L(A) -> L(C)"),
        query_exchange(faddr, "k", "L(A) -> L(C)"),
    );

    follower.shutdown();
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Random edit scripts at the leader; the follower must converge to
    /// byte-identical state and byte-identical answers, every time.
    #[test]
    fn random_edit_scripts_converge_bit_identically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (schema, pool) = schema_and_pool(&mut rng, 10);
        prop_assert!(pool.len() >= 4);
        let dir = temp_dir(&format!("prop-{seed}"));
        let leader = boot_leader(&dir);
        let laddr = leader.local_addr();
        let half = pool.len() / 2;
        create_tenant(laddr, "p", &schema, &pool[..half]);

        let follower = boot_follower(laddr);
        let faddr = follower.local_addr();
        wait_until("follower readiness", || {
            request(faddr, "GET", "/healthz", None).0 == 200
        });

        let mut present: Vec<String> = pool[..half].to_vec();
        for _ in 0..24 {
            let add = present.is_empty() || (present.len() < pool.len() && rng.gen_bool(0.6));
            if add {
                let absent: Vec<&String> =
                    pool.iter().filter(|d| !present.contains(d)).collect();
                let dep = absent[rng.gen_range(0..absent.len())].clone();
                edit(laddr, "p", "add", &dep);
                present.push(dep);
            } else {
                let dep = present.swap_remove(rng.gen_range(0..present.len()));
                edit(laddr, "p", "remove", &dep);
            }
        }

        assert_bit_identical(&leader, &follower, "p");
        let (ls, lb) = request(laddr, "GET", "/v1/p/sigma", None);
        let (fs, fb) = request(faddr, "GET", "/v1/p/sigma", None);
        prop_assert_eq!((ls, sigma_part(&lb)), (fs, sigma_part(&fb)));
        for dep in &pool {
            prop_assert_eq!(
                query_exchange(laddr, "p", dep),
                query_exchange(faddr, "p", dep),
                "query {} diverged", dep
            );
        }

        follower.shutdown();
        leader.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
