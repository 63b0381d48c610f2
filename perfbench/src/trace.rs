//! The traced run: the workload's seeded request stream replayed
//! in-process, one request at a time, with a span around every call
//! into a layer's public function. Spans stay in memory and are written
//! out at the end.
//!
//! Each request is answered three times. `serve::api::handle` on an
//! in-process `ServiceState` (over its own copy of the starting
//! wal-dir) gives the untraced handler time, `serve.api.<op>`. Then the
//! same request is decomposed on a mirror reasoner recovered from
//! another copy: a root span `request.<op>` with one child per layer
//! call. A span's self time is its duration minus what its children
//! cover, so the self times of one request add up to its root span.
//! Last, the same decomposed path runs with the tracer switched off on
//! a twin mirror; the difference is the tracing overhead.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nalist_deps::Dependency;
use nalist_guard::Budget;
use nalist_membership::{Reasoner, WalOp};
use nalist_obs::{MetricsRecorder, Recorder};
use nalist_serve::{Registry, Request, ServiceState};
use nalist_store::WalWriter;
use nalist_types::parser::ParseLimits;

use crate::stats::median;
use crate::workload::{Inputs, Op, OpKind, Req};

/// One span: a named interval inside one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call (`types.parser.dep`, …) or request root.
    pub name: &'static str,
    /// Request id (0 for set-up work outside any request).
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with a parent stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span, in enter order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            on: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: [`Tracer::span`] only runs its
    /// closure.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Renames a span after the fact (a closure lookup learns only on
    /// return whether it hit).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }
}

/// Writes spans as JSON lines: name, request id, parent index, start
/// and end.
pub fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
                out,
                "{{\"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )
        .expect("writing to a String cannot fail");
    }
    fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Root span name per op type.
#[must_use]
pub fn root_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Query => "request.query",
        OpKind::Edit => "request.edit",
        OpKind::Cert => "request.cert",
    }
}

/// `serve::api::handle` span name per op type.
#[must_use]
pub fn api_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Query => "serve.api.query",
        OpKind::Edit => "serve.api.edit",
        OpKind::Cert => "serve.api.cert",
    }
}

/// Copies the flat starting wal-dir `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        fs::remove_dir_all(to).map_err(|e| format!("cannot clear {}: {e}", to.display()))?;
    }
    fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("cannot read {}: {e}", from.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if let Some(name) = path.file_name() {
            fs::copy(&path, to.join(name))
                .map_err(|e| format!("cannot copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// What the traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span.
    pub spans: Vec<Span>,
    /// Per replayed request: its op type and how long the decomposed
    /// path took traced and with the tracer off, nanoseconds.
    pub pairs: Vec<(OpKind, u64, u64)>,
    /// Requests replayed.
    pub requests: usize,
    /// Requests the in-process handler did not answer 2xx.
    pub failures: usize,
}

impl Traced {
    /// Tracing overhead per request in µs: the median over requests of
    /// `kind` (all requests for `None`) of the decomposed path's traced
    /// time minus its time with the tracer off.
    #[must_use]
    pub fn overhead_us(&self, kind: Option<OpKind>) -> f64 {
        let diffs: Vec<f64> = self
            .pairs
            .iter()
            .filter(|(k, _, _)| kind.is_none_or(|want| *k == want))
            .map(|&(_, on, off)| (on as f64 - off as f64) / 1e3)
            .collect();
        median(&diffs).unwrap_or(0.0)
    }
}

/// The request the daemon would parse from `wire`.
fn request_of(req: &Req) -> Request {
    let bytes = &req.wire.bytes;
    let split = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("rendered requests have a head");
    let head = String::from_utf8_lossy(&bytes[..split]);
    let mut first = head.split("\r\n").next().unwrap_or("").split(' ');
    Request {
        method: first.next().unwrap_or("").to_string(),
        target: first.next().unwrap_or("").to_string(),
        headers: Vec::new(),
        body: bytes[split + 4..].to_vec(),
        close: false,
    }
}

/// The daemon's per-request budget under its shipped defaults.
fn request_budget() -> Budget {
    Budget::unlimited().with_deadline_in(Duration::from_millis(10_000))
}

/// One tenant's mirror: the recovered reasoner the decomposed path runs
/// on and its own fsync'd WAL.
struct Mirror {
    r: Reasoner,
    wal: WalWriter,
}

impl Mirror {
    /// A mirror over `r` journaling into a fresh WAL at `path`.
    fn new(r: Reasoner, path: &Path, schema: String) -> Result<Mirror, String> {
        let mut wal = WalWriter::create(path, true).map_err(|e| e.to_string())?;
        wal.append(
            &WalOp::Header { schema }.encode(),
            &Budget::unlimited(),
            nalist_obs::noop(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Mirror { r, wal })
    }
}

/// Replays the fixed-rate stream of `inputs` in due order until it ends
/// or `budget` elapses. `start` is the starting wal-dir; working copies
/// go under `work`.
pub fn replay(
    inputs: &Inputs,
    start: &Path,
    work: &Path,
    budget: Duration,
) -> Result<Traced, String> {
    let mut tr = Tracer::default();
    let rec = || -> Arc<dyn Recorder> { Arc::new(MetricsRecorder::new()) };
    let api_dir = work.join("trace-api");
    copy_dir(start, &api_dir)?;
    let state = ServiceState {
        registry: Registry::open(Some(api_dir), rec()).map_err(|e| e.message)?,
        fuel: None,
        deadline: Some(Duration::from_millis(10_000)),
        batch_threads: nalist_membership::default_batch_threads(),
        replication: None,
    };
    let mirror_dir = work.join("trace-mirror");
    copy_dir(start, &mirror_dir)?;
    let snap_dir = work.join("trace-snap");
    fs::create_dir_all(&snap_dir).map_err(|e| e.to_string())?;
    let unlimited = Budget::unlimited();
    // Per tenant: the traced mirror, its untraced twin, and a cold copy
    // for the batch planner.
    let mut mirrors = Vec::new();
    let mut twins = Vec::new();
    let mut planners = Vec::new();
    for t in &inputs.tenants {
        let snap: PathBuf = mirror_dir.join(format!("{}.snap", t.name));
        let wal: PathBuf = mirror_dir.join(format!("{}.wal", t.name));
        // Recovery and compaction layers, three samples per tenant.
        let mut recovered = None;
        for _ in 0..3 {
            let report = tr.span("membership.persist.recover", 0, |_| {
                nalist_membership::recover(&snap, Some(&wal), &unlimited, rec())
            });
            recovered = Some(
                report
                    .map_err(|e| format!("recover {}: {e}", t.name))?
                    .reasoner,
            );
        }
        let r = recovered.expect("three recoveries ran");
        let path = snap_dir.join(format!("{}.snap", t.name));
        for _ in 0..3 {
            let payload = tr
                .span("membership.persist.snapshot_encode", 0, |_| {
                    let payload = nalist_membership::snapshot_payload(&r);
                    nalist_store::encode_snapshot(&payload).map(|_| payload)
                })
                .map_err(|e| e.to_string())?;
            // `write_snapshot` encodes again; the span above isolates
            // that part.
            tr.span("store.snapshot.write", 0, |_| {
                nalist_store::write_snapshot(&path, &payload)
            })
            .map_err(|e| e.to_string())?;
        }
        planners.push(r.clone());
        twins.push(Mirror::new(
            r.clone(),
            &work.join(format!("trace-twin-{}.wal", t.name)),
            t.schema(),
        )?);
        mirrors.push(Mirror::new(
            r,
            &work.join(format!("trace-{}.wal", t.name)),
            t.schema(),
        )?);
    }
    let mut off = Tracer::off();
    let mut merged: Vec<&Req> = inputs.conns.iter().flat_map(|p| &p.fixed).collect();
    merged.sort_by_key(|r| r.due_ns);
    let t0 = Instant::now();
    let mut out = Traced::default();
    for (i, req) in merged.iter().enumerate() {
        if t0.elapsed() > budget {
            break;
        }
        let id = i as u64 + 1;
        let kind = req.op.kind();
        let request = request_of(req);
        let resp = tr.span(api_name(kind), id, |_| {
            nalist_serve::api::handle(&state, &request)
        });
        if !(200..300).contains(&resp.status) {
            out.failures += 1;
        }
        let tenant = req.op.tenant();
        // Alternate which of the pair runs first, so neither always
        // finds the processor's caches warmed by the other.
        let mut ns = [0u64; 2];
        for traced in [!id.is_multiple_of(2), id.is_multiple_of(2)] {
            let t = Instant::now();
            if traced {
                decompose(&mut tr, id, &mut mirrors[tenant], req, &request)?;
            } else {
                decompose(&mut off, id, &mut twins[tenant], req, &request)?;
            }
            ns[usize::from(!traced)] = t.elapsed().as_nanos() as u64;
        }
        out.pairs.push((kind, ns[0], ns[1]));
        if let Op::Batch { .. } = req.op {
            plan_batch(&mut tr, id, &mut planners[tenant], &request)?;
        }
        out.requests += 1;
    }
    out.spans = tr.spans;
    Ok(out)
}

/// The decomposed path of one request on the mirror.
fn decompose(
    tr: &mut Tracer,
    id: u64,
    m: &mut Mirror,
    req: &Req,
    request: &Request,
) -> Result<(), String> {
    let budget = request_budget();
    let limits = ParseLimits::from_budget(&budget);
    let attr = m.r.attr().clone();
    let parse = |tr: &mut Tracer, text: &str| -> Result<Dependency, String> {
        tr.span("types.parser.dep", id, |_| {
            Dependency::parse_with(&attr, text, limits)
        })
        .map_err(|e| e.to_string())
    };
    let body_text = || String::from_utf8_lossy(&request.body).into_owned();
    tr.span(root_name(req.op.kind()), id, |tr| -> Result<(), String> {
        match req.op {
            Op::Query { .. } => {
                let body = body_text();
                let doc = tr.span("types.json.parse", id, |_| nalist_types::json::parse(&body))?;
                let text = doc
                    .get("query")
                    .and_then(nalist_types::json::Json::as_str)
                    .ok_or("no query")?;
                let dep = parse(tr, text)?;
                let c = tr
                    .span("deps.compile", id, |_| dep.compile(m.r.algebra()))
                    .map_err(|e| e.to_string())?;
                closure(tr, id, &m.r, &c.lhs, &budget)?;
            }
            Op::Batch { .. } => {
                let body = body_text();
                let doc = tr.span("types.json.parse", id, |_| nalist_types::json::parse(&body))?;
                let texts: Vec<String> = doc
                    .get("queries")
                    .and_then(nalist_types::json::Json::as_arr)
                    .ok_or("no queries")?
                    .iter()
                    .filter_map(|q| q.as_str().map(str::to_string))
                    .collect();
                let deps = texts
                    .iter()
                    .map(|q| parse(tr, q))
                    .collect::<Result<Vec<_>, _>>()?;
                for dep in &deps {
                    let c = tr
                        .span("deps.compile", id, |_| dep.compile(m.r.algebra()))
                        .map_err(|e| e.to_string())?;
                    closure(tr, id, &m.r, &c.lhs, &budget)?;
                }
            }
            Op::Cert { .. } => {
                let dep_text = request
                    .query()
                    .and_then(|q| q.strip_prefix("dep="))
                    .map(nalist_serve::http::percent_decode)
                    .ok_or("no dep=")?;
                let dep = parse(tr, &dep_text)?;
                let alg = m.r.algebra();
                let sigma = m.r.compiled_sigma();
                let target = tr
                    .span("deps.compile", id, |_| dep.compile(alg))
                    .map_err(|e| e.to_string())?;
                let cert = tr.span("membership.certify", id, |_| {
                    nalist_membership::certify_governed(alg, sigma, &target, &budget).map(|p| {
                        p.map(|dag| {
                            nalist_membership::cert::implied_certificate(alg, sigma, &target, &dag)
                        })
                    })
                });
                if cert.map_err(|e| e.to_string())?.is_none() {
                    tr.span("membership.witness", id, |_| {
                        nalist_membership::witness::refute_governed(alg, sigma, &target, &budget)
                            .map(|w| {
                                w.map(|w| {
                                    nalist_membership::cert::refuted_certificate(
                                        alg, sigma, &target, &w,
                                    )
                                })
                            })
                    })
                    .map_err(|e| e.to_string())?
                    .ok_or("not implied but no witness")?;
                }
            }
            // Σ listings only occur in warm-ups, never in the stream.
            Op::Sigma { .. } => {}
            Op::Edit { add, .. } => {
                let body = body_text();
                let doc = tr.span("types.json.parse", id, |_| nalist_types::json::parse(&body))?;
                let text = doc
                    .get("dep")
                    .and_then(nalist_types::json::Json::as_str)
                    .ok_or("no dep")?
                    .to_string();
                let dep = parse(tr, &text)?;
                let c = tr
                    .span("deps.compile", id, |_| dep.compile(m.r.algebra()))
                    .map_err(|e| e.to_string())?;
                if !add && !m.r.compiled_sigma().contains(&c) {
                    return Err(format!("{text} is not in the mirror's Σ"));
                }
                let op = if add {
                    WalOp::Add(text)
                } else {
                    WalOp::Remove(text)
                };
                tr.span("store.wal.append", id, |_| {
                    m.wal.append(&op.encode(), &budget, nalist_obs::noop())
                })
                .map_err(|e| e.to_string())?;
                if add {
                    tr.span("membership.edit.add", id, |_| m.r.add(dep))
                        .map_err(|e| e.to_string())?;
                } else {
                    tr.span("membership.edit.remove", id, |_| m.r.remove(&dep))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    })?;
    Ok(())
}

/// The batch planner on its own cold copy of the tenant: the same
/// queries, the same worker count as the daemon. Outside the request
/// tree, which already holds the batch query by query.
fn plan_batch(tr: &mut Tracer, id: u64, r: &mut Reasoner, request: &Request) -> Result<(), String> {
    let budget = request_budget();
    let limits = ParseLimits::from_budget(&budget);
    let deps: Vec<Dependency> = nalist_types::json::parse(&String::from_utf8_lossy(&request.body))
        .ok()
        .and_then(|d| {
            d.get("queries")
                .and_then(nalist_types::json::Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|q| q.as_str())
                        .filter_map(|q| Dependency::parse_with(r.attr(), q, limits).ok())
                        .collect()
                })
        })
        .unwrap_or_default();
    let threads = nalist_membership::default_batch_threads();
    tr.span("membership.batch", id, |_| {
        r.implies_batch_governed_with(&deps, &budget, threads)
    })
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// `Reasoner::dependency_basis_governed`, named by whether it hit.
fn closure(
    tr: &mut Tracer,
    id: u64,
    r: &Reasoner,
    x: &nalist_algebra::AtomSet,
    budget: &Budget,
) -> Result<nalist_membership::DependencyBasis, String> {
    let hits = r.cache_stats().hits;
    let basis = tr
        .span("membership.closure.miss", id, |_| {
            r.dependency_basis_governed(x, budget)
        })
        .map_err(|e| e.to_string())?;
    if r.cache_stats().hits > hits {
        tr.rename_last("membership.closure.hit");
    }
    Ok(basis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            req: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),  // overlaps the first child
            span(Some(0), 90, 120), // runs past the parent's end
            span(Some(1), 12, 14),
        ];
        let st = self_times(&spans);
        // children cover [10, 50) and [90, 100): 50 of 100
        assert_eq!(st[0], 50);
        assert_eq!(st[1], 18);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 30);
        assert_eq!(st[4], 2);
    }

    #[test]
    fn tracer_nests_spans_and_self_times_add_up_to_the_root() {
        let mut tr = Tracer::default();
        tr.span("root", 7, |tr| {
            tr.span("a", 7, |tr| {
                tr.span("b", 7, |_| std::hint::black_box(1 + 1))
            });
            tr.span("c", 7, |_| ());
        });
        let names: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("a", Some(0)),
                ("b", Some(1)),
                ("c", Some(0))
            ]
        );
        let total: u64 = self_times(&tr.spans).iter().sum();
        assert_eq!(total, tr.spans[0].dur_ns());
    }

    #[test]
    fn a_switched_off_tracer_records_nothing_and_overhead_is_the_median_difference() {
        let mut off = Tracer::off();
        let v = off.span("root", 1, |tr| tr.span("a", 1, |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(off.spans.is_empty());
        let t = Traced {
            pairs: vec![
                (OpKind::Query, 5_000, 2_000),
                (OpKind::Query, 3_000, 2_000),
                (OpKind::Query, 90_000, 2_000), // one outlier
                (OpKind::Edit, 1_000, 3_000),
            ],
            ..Traced::default()
        };
        assert_eq!(t.overhead_us(Some(OpKind::Query)), 3.0);
        assert_eq!(t.overhead_us(Some(OpKind::Edit)), -2.0);
        assert_eq!(t.overhead_us(Some(OpKind::Cert)), 0.0);
        assert_eq!(t.overhead_us(None), 2.0);
    }
}
