//! Open-loop traffic generation against a running server.
//!
//! *Open-loop* means arrivals follow a schedule fixed before any
//! response comes back — a Poisson process at the offered rate — so a
//! slow server cannot silently throttle the load and flatter its own
//! latency numbers (the coordinated-omission trap). Each connection
//! thread owns a slice of the offered rate with exponential
//! inter-arrival gaps; when the server falls behind, the generator
//! reports the achieved rate honestly instead of stretching the gaps,
//! and times each request from its scheduled arrival, so the wait a
//! slow reply imposes on the next request counts in its latency.
//!
//! The workload is the service's intended shape: zipf-skewed query
//! pools per tenant (a few hot LHSs rewarded by the basis cache, a
//! long cold tail), mixed with add/remove churn that exercises
//! selective eviction and WAL journaling.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nalist_algebra::Algebra;
use nalist_gen::attr_with_atoms;
use nalist_gen::sigma_gen::random_dep;
use rand::prelude::*;

/// Loadgen parameters; defaults give a small smoke-scale run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Tenants to create and spread traffic over (named `lg0`, `lg1`, …).
    pub tenants: usize,
    /// Atoms per generated tenant schema.
    pub atoms: usize,
    /// Dependencies in each tenant's pool; the first half seeds Σ, the
    /// second half is the add/remove churn set.
    pub pool: usize,
    /// Offered load, requests per second across all connections.
    pub rps: f64,
    /// Run length.
    pub duration_ms: u64,
    /// Concurrent keep-alive connections (threads).
    pub conns: usize,
    /// Fraction of requests that are Σ edits (half adds, half removes).
    pub edit_ratio: f64,
    /// Zipf skew `s` for query selection (`0.0` = uniform).
    pub zipf_s: f64,
    /// RNG seed: same seed, same schedule and request sequence.
    pub seed: u64,
    /// Skip tenant creation (they already exist from a previous run).
    pub reuse_tenants: bool,
    /// A follower address (`host:port`) to verify after the run: wait
    /// for catch-up, require byte-identical query and Σ answers from
    /// leader and follower, and run follower certificates through the
    /// independent trusted checker.
    pub verify: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7070".to_string(),
            tenants: 2,
            atoms: 10,
            pool: 64,
            rps: 200.0,
            duration_ms: 2_000,
            conns: 4,
            edit_ratio: 0.1,
            zipf_s: 1.1,
            seed: 42,
            reuse_tenants: false,
            verify: None,
        }
    }
}

/// What `--verify` measured against the follower.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// The follower that was verified.
    pub follower: String,
    /// Time from end of load until the follower reported ready with
    /// zero lag, milliseconds.
    pub catchup_ms: u64,
    /// Σ listings compared (one per tenant, cache stats excluded).
    pub sigma_compared: u64,
    /// Σ listings that never became byte-identical.
    pub sigma_mismatches: u64,
    /// Queries answered by both leader and follower.
    pub queries_compared: u64,
    /// Query answers that were not byte-identical.
    pub query_mismatches: u64,
    /// Follower certificates run through the trusted checker.
    pub certs_checked: u64,
    /// Certificates the checker rejected.
    pub cert_failures: u64,
}

impl VerifyReport {
    /// Whether any comparison failed.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.sigma_mismatches > 0 || self.query_mismatches > 0 || self.cert_failures > 0
    }

    /// Human-readable summary lines.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "verify vs {}: caught up in {} ms; {} sigma ({} mismatched), \
             {} queries ({} mismatched), {} certs checked ({} rejected)\n",
            self.follower,
            self.catchup_ms,
            self.sigma_compared,
            self.sigma_mismatches,
            self.queries_compared,
            self.query_mismatches,
            self.certs_checked,
            self.cert_failures
        )
    }

    /// One JSON object for benchmark rows.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"follower\": {}, \"catchup_ms\": {}, \"sigma_compared\": {}, \
             \"sigma_mismatches\": {}, \"queries_compared\": {}, \"query_mismatches\": {}, \
             \"certs_checked\": {}, \"cert_failures\": {}}}",
            json_escape(&self.follower),
            self.catchup_ms,
            self.sigma_compared,
            self.sigma_mismatches,
            self.queries_compared,
            self.query_mismatches,
            self.certs_checked,
            self.cert_failures
        )
    }
}

/// What a run measured. Latencies are exact sample percentiles in
/// microseconds, not histogram bounds.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests sent (== responses awaited; the loop is synchronous
    /// per connection).
    pub sent: u64,
    /// `2xx` answers.
    pub ok: u64,
    /// `429` budget rejections.
    pub status_429: u64,
    /// `503` admission rejections.
    pub status_503: u64,
    /// Any other non-`2xx` status.
    pub other_status: u64,
    /// Socket-level failures (includes connections refused at
    /// accept-queue overflow after the `503` is written).
    pub io_errors: u64,
    /// Reconnects performed after a server-closed connection.
    pub reconnects: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: u64,
    /// Wall-clock run length, milliseconds.
    pub elapsed_ms: u64,
    /// `sent / elapsed` — compare against the offered rate.
    pub achieved_rps: f64,
    /// The offered rate, echoed for the report.
    pub offered_rps: f64,
    /// Follower verification results, when `--verify` asked for them.
    pub verify: Option<VerifyReport>,
}

impl LoadgenReport {
    /// Human-readable summary (the `nalist loadgen` output).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "offered {:.0} req/s, achieved {:.0} req/s over {} ms\n",
            self.offered_rps, self.achieved_rps, self.elapsed_ms
        ));
        out.push_str(&format!(
            "sent {}: {} ok, {} throttled (429), {} shed (503), {} other, {} io errors\n",
            self.sent, self.ok, self.status_429, self.status_503, self.other_status, self.io_errors
        ));
        out.push_str(&format!(
            "latency: p50 {} µs, p99 {} µs, mean {} µs\n",
            self.p50_us, self.p99_us, self.mean_us
        ));
        if let Some(v) = &self.verify {
            out.push_str(&v.render());
        }
        out
    }

    /// One JSON object (a BENCH_serve.json row fragment).
    #[must_use]
    pub fn to_json(&self) -> String {
        let verify = match &self.verify {
            None => String::new(),
            Some(v) => format!(", \"verify\": {}", v.to_json()),
        };
        format!(
            "{{\"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \"sent\": {}, \"ok\": {}, \
             \"rejects_429\": {}, \"rejects_503\": {}, \"other_status\": {}, \"io_errors\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"mean_us\": {}, \"elapsed_ms\": {}{verify}}}",
            self.offered_rps,
            self.achieved_rps,
            self.sent,
            self.ok,
            self.status_429,
            self.status_503,
            self.other_status,
            self.io_errors,
            self.p50_us,
            self.p99_us,
            self.mean_us,
            self.elapsed_ms
        )
    }
}

/// A blocking HTTP/1.1 client on one keep-alive connection.
#[derive(Debug)]
pub(crate) struct Client {
    addr: String,
    stream: Option<TcpStream>,
    /// Reconnects performed (server closed or refused).
    pub reconnects: u64,
}

impl Client {
    pub(crate) fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
            reconnects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// One request/response exchange; reconnects once if the pooled
    /// connection turns out to be dead.
    pub(crate) fn roundtrip(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let had_conn = self.stream.is_some();
        match self.try_roundtrip(method, target, body) {
            Ok(done) => Ok(done),
            Err(e) if had_conn => {
                // The server may have closed the keep-alive socket
                // (timeout, SIGTERM, connection cap): retry once fresh.
                self.stream = None;
                self.reconnects += 1;
                let out = self.try_roundtrip(method, target, body);
                if out.is_err() {
                    self.stream = None;
                }
                out.map_err(|_| e)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn try_roundtrip(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let stream = self.connect()?;
        let body = body.unwrap_or("");
        let req = format!(
            "{method} {target} HTTP/1.1\r\nhost: nalist\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes())?;
        stream.flush()?;
        let reply = crate::http::read_response(stream)?;
        if reply.close {
            self.stream = None;
        }
        Ok((
            reply.status,
            String::from_utf8_lossy(&reply.body).into_owned(),
        ))
    }
}

/// One tenant's generated workload material.
struct TenantPool {
    name: String,
    schema: String,
    deps: Vec<String>,
}

/// Zipf sampler over `0..n` via a precomputed CDF and binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n.max(1));
        let mut acc = 0.0;
        for k in 1..=n.max(1) {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty cdf");
        let u = rng.gen_range(0.0..total);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn json_escape(s: &str) -> String {
    nalist_types::json::escape(s)
}

/// Builds the per-tenant schema + dependency pools, deterministically
/// from the seed.
fn build_pools(cfg: &LoadgenConfig) -> Vec<TenantPool> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.tenants.max(1))
        .map(|t| {
            let attr = attr_with_atoms(&mut rng, cfg.atoms.max(2));
            let alg = Algebra::new(&attr);
            let deps: Vec<String> = (0..cfg.pool.max(2))
                .map(|_| random_dep(&mut rng, &alg, 0.3, 0.3).render(&alg))
                .collect();
            TenantPool {
                name: format!("lg{t}"),
                schema: attr.to_string(),
                deps,
            }
        })
        .collect()
}

/// Creates the loadgen tenants over the wire. Σ is seeded with the
/// first half of each pool; the second half churns.
fn create_tenants(cfg: &LoadgenConfig, pools: &[TenantPool]) -> Result<(), String> {
    let mut client = Client::new(&cfg.addr);
    for pool in pools {
        let seed_sigma: Vec<String> = pool.deps[..pool.deps.len() / 2]
            .iter()
            .map(|d| json_escape(d))
            .collect();
        let body = format!(
            "{{\"schema\": {}, \"deps\": [{}]}}",
            json_escape(&pool.schema),
            seed_sigma.join(", ")
        );
        let (status, resp) = client
            .roundtrip("POST", &format!("/v1/{}/create", pool.name), Some(&body))
            .map_err(|e| format!("create {}: {e}", pool.name))?;
        match status {
            201 => {}
            409 if cfg.reuse_tenants => {}
            // A follower rejects creates (421) but mirrors the leader's
            // tenants — under reuse they are already there, replicated.
            421 if cfg.reuse_tenants => {}
            _ => return Err(format!("create {}: HTTP {status}: {resp}", pool.name)),
        }
    }
    Ok(())
}

/// Runs the configured workload. Tenants are created first (unless
/// `reuse_tenants` finds them); then `conns` threads each follow their
/// own Poisson arrival schedule for `duration_ms`.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let pools = Arc::new(build_pools(cfg));
    create_tenants(cfg, &pools)?;
    let conns = cfg.conns.max(1);
    let per_conn_rate = (cfg.rps / conns as f64).max(0.001);
    let duration = Duration::from_millis(cfg.duration_ms);
    let started = Instant::now();
    let mut handles = Vec::new();
    for conn_ix in 0..conns {
        let cfg = cfg.clone();
        let pools = Arc::clone(&pools);
        handles.push(std::thread::spawn(move || {
            conn_worker(&cfg, &pools, conn_ix, per_conn_rate, duration)
        }));
    }
    let mut report = LoadgenReport {
        offered_rps: cfg.rps,
        ..LoadgenReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        let part = h
            .join()
            .map_err(|_| "loadgen worker panicked".to_string())?;
        report.sent += part.sent;
        report.ok += part.ok;
        report.status_429 += part.status_429;
        report.status_503 += part.status_503;
        report.other_status += part.other_status;
        report.io_errors += part.io_errors;
        report.reconnects += part.reconnects;
        latencies.extend(part.latencies_us);
    }
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    if report.elapsed_ms > 0 {
        report.achieved_rps = report.sent as f64 * 1000.0 / report.elapsed_ms as f64;
    }
    latencies.sort_unstable();
    if !latencies.is_empty() {
        let at = |q: f64| {
            let ix = ((q * latencies.len() as f64).ceil() as usize).max(1) - 1;
            latencies[ix.min(latencies.len() - 1)]
        };
        report.p50_us = at(0.50);
        report.p99_us = at(0.99);
        report.mean_us = latencies.iter().sum::<u64>() / latencies.len() as u64;
    }
    if let Some(follower) = &cfg.verify {
        report.verify = Some(verify_follower(cfg, &pools, follower)?);
    }
    Ok(report)
}

/// How long `--verify` waits for the follower to catch up after the
/// load stops before calling the run a failure.
const VERIFY_CATCHUP_TIMEOUT: Duration = Duration::from_secs(60);

/// Queries compared per tenant, and certificates checked per tenant.
const VERIFY_QUERIES: usize = 12;
const VERIFY_CERTS: usize = 4;

/// Percent-encodes a query-string value (inverse of
/// [`crate::http::percent_decode`]).
fn percent_encode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The Σ listing with the session-local cache stats stripped: the part
/// of a `/sigma` answer that must be byte-identical between leader and
/// follower.
fn sigma_prefix(body: &str) -> &str {
    body.split(", \"cache\"").next().unwrap_or(body)
}

/// The post-run verification pass: catch-up wait, byte-identical Σ and
/// query answers, follower certificates through the trusted checker.
fn verify_follower(
    cfg: &LoadgenConfig,
    pools: &[TenantPool],
    follower: &str,
) -> Result<VerifyReport, String> {
    let mut report = VerifyReport {
        follower: follower.to_string(),
        ..VerifyReport::default()
    };
    let t0 = Instant::now();
    let mut fc = Client::new(follower);
    let mut lc = Client::new(&cfg.addr);
    // 1. Wait until the follower reports ready. Readiness alone can
    // race the last WAL poll, so the authoritative catch-up signal is
    // the Σ comparison below, retried until it matches.
    loop {
        if let Ok((200, _)) = fc.roundtrip("GET", "/healthz", None) {
            break;
        }
        if t0.elapsed() > VERIFY_CATCHUP_TIMEOUT {
            return Err(format!("follower {follower} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // 2. Per tenant: Σ must become byte-identical (modulo cache stats).
    for pool in pools {
        let target = format!("/v1/{}/sigma", pool.name);
        report.sigma_compared += 1;
        let mut matched = false;
        while t0.elapsed() <= VERIFY_CATCHUP_TIMEOUT {
            let (ls, lb) = lc
                .roundtrip("GET", &target, None)
                .map_err(|e| format!("leader sigma {}: {e}", pool.name))?;
            let fs = fc.roundtrip("GET", &target, None);
            if let (200, Ok((200, fb))) = (ls, fs) {
                if sigma_prefix(&lb) == sigma_prefix(&fb) {
                    matched = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if !matched {
            report.sigma_mismatches += 1;
        }
    }
    report.catchup_ms = t0.elapsed().as_millis() as u64;
    // 3. The same queries to both sides must answer byte-identically.
    for pool in pools {
        let target = format!("/v1/{}/query", pool.name);
        for dep in pool.deps.iter().take(VERIFY_QUERIES) {
            let body = format!("{{\"query\": {}}}", json_escape(dep));
            let (ls, lb) = lc
                .roundtrip("POST", &target, Some(&body))
                .map_err(|e| format!("leader query {}: {e}", pool.name))?;
            let (fs, fb) = fc
                .roundtrip("POST", &target, Some(&body))
                .map_err(|e| format!("follower query {}: {e}", pool.name))?;
            report.queries_compared += 1;
            if ls != fs || lb != fb {
                report.query_mismatches += 1;
            }
        }
    }
    // 4. Follower certificates must pass the independent checker,
    // verified against the *leader's* authoritative schema + Σ.
    let budget = nalist_guard::Budget::unlimited();
    for pool in pools {
        let (status, sigma_body) = lc
            .roundtrip("GET", &format!("/v1/{}/sigma", pool.name), None)
            .map_err(|e| format!("leader sigma {}: {e}", pool.name))?;
        if status != 200 {
            continue;
        }
        let doc = nalist_types::json::parse(&sigma_body)
            .map_err(|e| format!("sigma {}: {e}", pool.name))?;
        let schema = doc
            .get("schema")
            .and_then(nalist_types::json::Json::as_str)
            .ok_or_else(|| format!("sigma {}: no schema", pool.name))?
            .to_string();
        let deps_src: String = doc
            .get("sigma")
            .and_then(nalist_types::json::Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|d| d.get("dep").and_then(nalist_types::json::Json::as_str))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .unwrap_or_default();
        for dep in pool.deps.iter().take(VERIFY_CERTS) {
            let target = format!("/v1/{}/cert?dep={}", pool.name, percent_encode(dep));
            let (status, cert_body) = fc
                .roundtrip("GET", &target, None)
                .map_err(|e| format!("follower cert {}: {e}", pool.name))?;
            if status != 200 {
                report.certs_checked += 1;
                report.cert_failures += 1;
                continue;
            }
            report.certs_checked += 1;
            let ok = nalist_types::json::parse(&cert_body)
                .ok()
                .and_then(|doc| doc.get("certificate").map(nalist_types::json::Json::render))
                .and_then(|src| nalist_check::Certificate::from_json(&src).ok())
                .and_then(|cert| nalist_check::verify(&schema, &deps_src, &cert, &budget).ok())
                .is_some();
            if !ok {
                report.cert_failures += 1;
            }
        }
    }
    Ok(report)
}

/// Per-thread tallies; merged by [`run`].
struct ConnPart {
    sent: u64,
    ok: u64,
    status_429: u64,
    status_503: u64,
    other_status: u64,
    io_errors: u64,
    reconnects: u64,
    latencies_us: Vec<u64>,
}

fn conn_worker(
    cfg: &LoadgenConfig,
    pools: &[TenantPool],
    conn_ix: usize,
    rate: f64,
    duration: Duration,
) -> ConnPart {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x9E37 + conn_ix as u64 * 0x1000_0001));
    let zipf = Zipf::new(pools[0].deps.len(), cfg.zipf_s);
    let mut client = Client::new(&cfg.addr);
    let mut part = ConnPart {
        sent: 0,
        ok: 0,
        status_429: 0,
        status_503: 0,
        other_status: 0,
        io_errors: 0,
        reconnects: 0,
        latencies_us: Vec::new(),
    };
    // Per-(tenant, churn dep) toggle so removes target deps this
    // thread added: churn indices are disjoint across threads.
    let churn_base = pools[0].deps.len() / 2;
    let mut churn_added: Vec<Vec<bool>> = pools
        .iter()
        .map(|p| vec![false; p.deps.len() - churn_base])
        .collect();
    let start = Instant::now();
    // Open loop: the next arrival time is fixed before the previous
    // response arrives.
    let mut next_at = Duration::ZERO;
    loop {
        // Exponential inter-arrival gap: -ln(U)/λ.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        next_at += Duration::from_secs_f64((-u.ln()) / rate);
        if next_at >= duration {
            break;
        }
        let now = start.elapsed();
        if next_at > now {
            std::thread::sleep(next_at - now);
        }
        let tenant_ix = rng.gen_range(0..pools.len());
        let pool = &pools[tenant_ix];
        // Churn indices are striped across threads (`i % conns ==
        // conn_ix`), so a remove always targets a dep this very thread
        // added — no cross-thread races on Σ membership.
        let conn_count = cfg.conns.max(1);
        let span = pool.deps.len() - churn_base;
        let owned = if conn_ix < span {
            (span - conn_ix).div_ceil(conn_count)
        } else {
            0
        };
        let (target, body);
        if owned > 0 && rng.gen_bool(cfg.edit_ratio.clamp(0.0, 1.0)) {
            let k = conn_ix + rng.gen_range(0..owned) * conn_count;
            let added = &mut churn_added[tenant_ix][k];
            let op = if *added { "remove" } else { "add" };
            *added = !*added;
            target = format!("/v1/{}/edit", pool.name);
            body = Some(format!(
                "{{\"op\": \"{op}\", \"dep\": {}}}",
                json_escape(&pool.deps[churn_base + k])
            ));
        } else {
            let k = zipf.sample(&mut rng);
            target = format!("/v1/{}/query", pool.name);
            body = Some(format!("{{\"query\": {}}}", json_escape(&pool.deps[k])));
        }
        let method = "POST";
        // Latency runs from the scheduled arrival, not the actual send:
        // a request queued behind a slow reply on this connection counts
        // that wait.
        let due = start + next_at;
        part.sent += 1;
        match client.roundtrip(method, &target, body.as_deref()) {
            Ok((status, _)) => {
                part.latencies_us.push(due.elapsed().as_micros() as u64);
                match status {
                    200 | 201 => part.ok += 1,
                    429 => part.status_429 += 1,
                    503 => part.status_503 += 1,
                    _ => part.other_status += 1,
                }
            }
            Err(_) => part.io_errors += 1,
        }
    }
    part.reconnects = client.reconnects;
    part
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampling_is_skewed_toward_low_indices() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u32; 50];
        for _ in 0..5_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "{counts:?}");
        assert!(counts[0] > counts[49], "{counts:?}");
        assert!(counts.iter().sum::<u32>() == 5_000);
    }

    #[test]
    fn pools_are_deterministic_per_seed() {
        let cfg = LoadgenConfig::default();
        let a = build_pools(&cfg);
        let b = build_pools(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.deps, y.deps);
        }
    }
}
