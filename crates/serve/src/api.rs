//! Request routing and the JSON API.
//!
//! Every route answers JSON; every failure is a structured error
//! document `{"error": {"status", "kind", "message"}}` whose status
//! code mirrors the CLI's exit-code contract: domain errors are `400`,
//! unknown tenants/routes `404`, budget exhaustion `429` (the HTTP
//! face of exit code 3), and overload `503`.
//!
//! | route | verb | answer |
//! |-------|------|--------|
//! | `/healthz` | GET | liveness + tenant count |
//! | `/metrics` | GET | the schema-versioned metrics document |
//! | `/v1/{tenant}/create` | POST | make a tenant from `{schema, deps}` |
//! | `/v1/{tenant}/query` | POST | decide `{query}` or batch `{queries}` |
//! | `/v1/{tenant}/edit` | POST | apply `{edits: [{op, dep}]}`, WAL-first |
//! | `/v1/{tenant}/cert?dep=…` | GET | decide + portable proof certificate |
//! | `/v1/{tenant}/sigma` | GET | Σ listing + cache stats (recovery audits) |
//! | `/v1/{tenant}/reload` | POST | validate a whole deps file, then swap Σ |
//! | `/v1/{tenant}/snapshot` | GET | `NALSNAP1` bytes for follower bootstrap |
//! | `/v1/{tenant}/wal?from=…` | GET | long-poll raw WAL bytes from an offset |
//!
//! A follower (started with `--follow`) answers the read routes from
//! its replicated state and rejects every write with `421` plus a
//! `leader:` header pointing at the authority.

use std::num::NonZeroUsize;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use nalist_guard::{Budget, ResourceExhausted};
use nalist_membership::{QueryError, Reasoner, ReasonerError, WalOp};
use nalist_obs::{render_snapshot_json_with, Counter, MetricsSnapshot, Recorder};
use nalist_types::json::{escape, parse as parse_json, Json};

use crate::http::{percent_decode, Request, Response};
use crate::replica::ReplStatus;
use crate::tenant::{Registry, Tenant};

/// Longest WAL slice one `wal` answer ships; a follower further behind
/// simply polls again with its advanced offset.
pub const MAX_WAL_SHIPMENT: u64 = 4 << 20;

/// Long-poll ceiling for `wal?wait_ms=`: a waiting poll pins a worker
/// thread, so the wait is bounded well under the socket read timeout.
pub const MAX_WAL_WAIT_MS: u64 = 2_000;

/// A structured API failure: one HTTP status, a stable machine-readable
/// kind, and a human message.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable kind slug (`bad_request`, `not_found`, `resource_exhausted`, …).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A `400` domain error.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            kind: "bad_request",
            message: message.into(),
        }
    }

    /// A `404`.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 404,
            kind: "not_found",
            message: message.into(),
        }
    }

    /// A `500`.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            kind: "internal",
            message: message.into(),
        }
    }

    /// A `429`: the per-request [`Budget`] ran out — the admission
    /// contract's "shed load, don't degrade" answer.
    pub fn resource(e: ResourceExhausted) -> ApiError {
        ApiError {
            status: 429,
            kind: "resource_exhausted",
            message: e.to_string(),
        }
    }

    /// Maps a reasoner failure: budget exhaustion is `429`, anything
    /// else is the caller's fault (`400`).
    pub fn reasoner(e: &ReasonerError) -> ApiError {
        match e {
            ReasonerError::Resource(r) => ApiError::resource(*r),
            other => ApiError::bad_request(other.to_string()),
        }
    }

    /// Renders the error document and response.
    #[must_use]
    pub fn to_response(&self) -> Response {
        let body = format!(
            "{{\"error\": {{\"status\": {}, \"kind\": {}, \"message\": {}}}}}\n",
            self.status,
            escape(self.kind),
            escape(&self.message)
        );
        let mut resp = Response::json(self.status, body);
        if matches!(self.status, 429 | 503) {
            resp.retry_after = Some(1);
        }
        resp
    }
}

/// Everything a worker needs to answer requests.
#[derive(Debug)]
pub struct ServiceState {
    /// The tenant table.
    pub registry: Registry,
    /// Per-request fuel cap (`None` = unlimited).
    pub fuel: Option<u64>,
    /// Per-request deadline (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Worker count for batch query planning.
    pub batch_threads: NonZeroUsize,
    /// `Some` when this process is a replication follower: routes
    /// consult it for the readiness gate, the write rejection and the
    /// lag report. `None` on leaders and standalone servers.
    pub replication: Option<Arc<ReplStatus>>,
}

impl ServiceState {
    /// A fresh per-request budget from the server-wide caps.
    #[must_use]
    pub fn request_budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(fuel) = self.fuel {
            b = b.with_fuel(fuel);
        }
        if let Some(window) = self.deadline {
            b = b.with_deadline_in(window);
        }
        b
    }

    fn recorder(&self) -> &Arc<dyn Recorder> {
        self.registry.recorder()
    }
}

fn require_method(req: &Request, method: &str) -> Result<(), ApiError> {
    if req.method == method {
        Ok(())
    } else {
        Err(ApiError {
            status: 405,
            kind: "method_not_allowed",
            message: format!("{} {} wants {method}", req.method, req.path()),
        })
    }
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    parse_json(text).map_err(|e| ApiError::bad_request(format!("body is not valid JSON: {e}")))
}

fn body_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("missing string field {key:?}")))
}

fn body_str_list(body: &Json, key: &str) -> Result<Vec<String>, ApiError> {
    match body.get(key) {
        None => Ok(Vec::new()),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| ApiError::bad_request(format!("{key:?} must be an array")))?;
            arr.iter()
                .enumerate()
                .map(|(i, item)| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        ApiError::bad_request(format!("{key:?}[{i}] must be a string"))
                    })
                })
                .collect()
        }
    }
}

/// Routes one request. Never panics deliberately; the worker wraps the
/// call in `catch_unwind` for the accidents.
pub fn handle(state: &ServiceState, req: &Request) -> Response {
    match route(state, req) {
        Ok(resp) => resp,
        Err(e) => e.to_response(),
    }
}

fn route(state: &ServiceState, req: &Request) -> Result<Response, ApiError> {
    match req.path() {
        "/healthz" => {
            require_method(req, "GET")?;
            let names: Vec<String> = state.registry.names().iter().map(|n| escape(n)).collect();
            let base = format!(
                "\"tenants\": {}, \"names\": [{}]",
                state.registry.len(),
                names.join(", ")
            );
            match &state.replication {
                None => Ok(Response::json(
                    200,
                    format!("{{\"ok\": true, {base}, \"role\": \"leader\"}}\n"),
                )),
                Some(repl) => {
                    // Readiness gate: a follower refuses traffic (503,
                    // so load balancers skip it) until it has caught up
                    // with the leader at least once per tenant.
                    let ready = repl.ready();
                    let (lag_records, lag_bytes) = repl.lag();
                    let mut resp = Response::json(
                        if ready { 200 } else { 503 },
                        format!(
                            "{{\"ok\": {ready}, {base}, \"role\": \"follower\", \
                             \"leader\": {}, \"ready\": {ready}, \"lag\": \
                             {{\"records\": {lag_records}, \"bytes\": {lag_bytes}}}, \
                             \"bootstraps\": {}}}\n",
                            escape(repl.leader()),
                            repl.bootstraps()
                        ),
                    );
                    if !ready {
                        resp.retry_after = Some(1);
                    }
                    Ok(resp)
                }
            }
        }
        "/metrics" => {
            require_method(req, "GET")?;
            let snap = state
                .recorder()
                .try_snapshot()
                .unwrap_or_else(|| MetricsSnapshot {
                    counters: Vec::new(),
                    hists: Vec::new(),
                    spans: Vec::new(),
                    elapsed_ns: 0,
                });
            let extras: Vec<(&str, String)> = match &state.replication {
                None => Vec::new(),
                Some(repl) => vec![("replication", repl.to_json())],
            };
            Ok(Response::json(
                200,
                render_snapshot_json_with("serve", 0, true, &snap, &extras),
            ))
        }
        path => {
            let mut parts = path.split('/').skip(1);
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some("v1"), Some(tenant), Some(action), None) => {
                    tenant_route(state, req, tenant, action)
                }
                _ => Err(ApiError::not_found(format!("no route {path}"))),
            }
        }
    }
}

fn tenant_route(
    state: &ServiceState,
    req: &Request,
    tenant: &str,
    action: &str,
) -> Result<Response, ApiError> {
    let budget = state.request_budget();
    if let Some(repl) = &state.replication {
        if matches!(action, "create" | "edit" | "reload") {
            // A follower never mutates Σ itself — every write arrives
            // via the leader's WAL. `421 Misdirected Request` plus a
            // `leader:` header tells the client where to go.
            let err = ApiError {
                status: 421,
                kind: "follower_read_only",
                message: format!(
                    "this replica serves reads only; send writes to the leader at {}",
                    repl.leader()
                ),
            };
            return Ok(err
                .to_response()
                .with_header("leader", repl.leader().to_string()));
        }
    }
    if action == "create" {
        require_method(req, "POST")?;
        let body = parse_body(req)?;
        let schema = body_str(&body, "schema")?;
        let deps = body_str_list(&body, "deps")?;
        let t = state.registry.create(tenant, schema, &deps, &budget)?;
        let r = t.reasoner.read().unwrap_or_else(PoisonError::into_inner);
        return Ok(Response::json(
            201,
            format!(
                "{{\"tenant\": {}, \"schema\": {}, \"sigma\": {}}}\n",
                escape(tenant),
                escape(&r.attr().to_string()),
                r.compiled_sigma().len()
            ),
        ));
    }
    let t = state
        .registry
        .get(tenant)
        .ok_or_else(|| ApiError::not_found(format!("no tenant {tenant:?}")))?;
    match action {
        "query" => {
            require_method(req, "POST")?;
            let body = parse_body(req)?;
            let r = t.reasoner.read().unwrap_or_else(PoisonError::into_inner);
            handle_query(state, &r, &body, &budget)
        }
        "edit" => {
            require_method(req, "POST")?;
            let body = parse_body(req)?;
            let mut r = t.reasoner.write().unwrap_or_else(PoisonError::into_inner);
            let mut wal = t.wal.lock().unwrap_or_else(PoisonError::into_inner);
            handle_edit(&mut r, wal.as_mut(), &body, &budget)
        }
        "cert" => {
            require_method(req, "GET")?;
            let dep = req
                .query()
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("dep=").map(percent_decode))
                })
                .ok_or_else(|| ApiError::bad_request("missing query parameter dep="))?;
            let r = t.reasoner.read().unwrap_or_else(PoisonError::into_inner);
            handle_cert(&r, &dep, &budget)
        }
        "sigma" => {
            require_method(req, "GET")?;
            let r = t.reasoner.read().unwrap_or_else(PoisonError::into_inner);
            let stats = r.cache_stats();
            let deps: Vec<String> = r
                .compiled_sigma()
                .iter()
                .zip(r.dep_ids())
                .map(|(d, id)| {
                    format!(
                        "{{\"id\": {id}, \"dep\": {}}}",
                        escape(&d.render(r.algebra()))
                    )
                })
                .collect();
            Ok(Response::json(
                200,
                format!(
                    "{{\"tenant\": {}, \"schema\": {}, \"sigma\": [{}], \
                     \"cache\": {{\"entries\": {}, \"bytes\": {}, \"hits\": {}, \
                     \"misses\": {}, \"retained\": {}, \"evicted\": {}, \
                     \"capacity_evicted\": {}}}}}\n",
                    escape(tenant),
                    escape(&r.attr().to_string()),
                    deps.join(", "),
                    stats.entries,
                    stats.bytes,
                    stats.hits,
                    stats.misses,
                    stats.retained,
                    stats.evicted,
                    stats.capacity_evicted
                ),
            ))
        }
        "reload" => {
            require_method(req, "POST")?;
            let body = parse_body(req)?;
            let text = body_str(&body, "deps")?;
            handle_reload(tenant, &t, text, &budget)
        }
        "snapshot" => {
            require_method(req, "GET")?;
            let (payload, wal_id, from) = t.replication_snapshot()?;
            let bytes = nalist_store::encode_snapshot(&payload)
                .map_err(|e| ApiError::internal(format!("cannot encode snapshot: {e}")))?;
            Ok(Response::octets(200, bytes)
                .with_header("x-wal-id", wal_id.to_string())
                .with_header("x-wal-from", from.to_string()))
        }
        "wal" => {
            require_method(req, "GET")?;
            handle_wal(state, &t, req)
        }
        other => Err(ApiError::not_found(format!(
            "no tenant action {other:?} (want create, query, edit, reload, \
             cert, sigma, snapshot or wal)"
        ))),
    }
}

fn query_u64(req: &Request, key: &str) -> Result<Option<u64>, ApiError> {
    let Some(q) = req.query() else {
        return Ok(None);
    };
    for kv in q.split('&') {
        if let Some((k, v)) = kv.split_once('=') {
            if k == key {
                return v.parse::<u64>().map(Some).map_err(|_| {
                    ApiError::bad_request(format!(
                        "query parameter {key}= must be a non-negative integer, got {v:?}"
                    ))
                });
            }
        }
    }
    Ok(None)
}

/// `GET /v1/{t}/wal?from=<offset>&wait_ms=<n>`: ships verified raw log
/// bytes from `from`, cut at a record boundary. With `wait_ms`, an
/// empty answer long-polls: the handler re-checks the log every 25 ms
/// until a record lands or the wait expires — so a caught-up follower
/// learns about new edits in tens of milliseconds without hot-looping.
fn handle_wal(state: &ServiceState, t: &Tenant, req: &Request) -> Result<Response, ApiError> {
    let from = query_u64(req, "from")?
        .ok_or_else(|| ApiError::bad_request("missing query parameter from="))?;
    let wait_ms = query_u64(req, "wait_ms")?.unwrap_or(0).min(MAX_WAL_WAIT_MS);
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    let ship = loop {
        let ship = t.wal_slice(from, MAX_WAL_SHIPMENT)?;
        if ship.records > 0 || Instant::now() >= deadline {
            break ship;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    state
        .recorder()
        .add(Counter::ReplRecordsShipped, ship.records);
    Ok(Response::octets(200, ship.bytes)
        .with_header("x-wal-id", ship.wal_id.to_string())
        .with_header("x-wal-start", from.to_string())
        .with_header("x-wal-end", ship.end.to_string())
        .with_header("x-wal-len", ship.log_len.to_string()))
}

/// `POST /v1/{t}/reload` with `{"deps": "<whole deps file>"}`: validate
/// the file *fully* — every line parsed, resolved and Σ-linted — and
/// only then swap Σ, journaling each remove/add before applying it (the
/// same WAL-first path as `/edit`). The lint and the adds need only the
/// schema, which never changes, so the write lock is taken after them.
/// A file with any error changes nothing and answers `400` carrying the
/// lint report's span diagnostics.
fn handle_reload(
    tenant: &str,
    t: &Tenant,
    deps_src: &str,
    budget: &Budget,
) -> Result<Response, ApiError> {
    let read = || t.reasoner.read().unwrap_or_else(PoisonError::into_inner);
    let schema_src = read().attr().to_string();
    let report = nalist_lint::lint_spec_governed(&schema_src, deps_src, budget).map_err(|e| {
        match e {
            nalist_lint::SpecError::Resource(res) => ApiError::resource(res),
            // The schema came from our own reasoner; failing to parse it
            // back is a server bug, not a client error.
            nalist_lint::SpecError::Parse(p) => {
                ApiError::internal(format!("own schema does not lint: {p}"))
            }
        }
    })?;
    if report.errors() > 0 {
        let lint = nalist_lint::render_json(&report, "reload", deps_src);
        return Ok(Response::json(
            400,
            format!(
                "{{\"error\": {{\"status\": 400, \"kind\": \"invalid_deps\", \
                 \"message\": {}, \"lint\": {}}}}}\n",
                escape(&format!(
                    "{} error(s) in the posted deps file; nothing was applied",
                    report.errors()
                )),
                lint.trim_end()
            ),
        ));
    }
    let adds: Vec<WalOp> = deps_src
        .lines()
        .map(str::trim)
        .filter(|text| !text.is_empty() && !text.starts_with('#'))
        .map(|text| WalOp::Add(text.to_string()))
        .collect();
    let added = read()
        .decide(&adds, budget)
        .map_err(|(_, e)| ApiError::reasoner(&e))?;
    let mut r = t.reasoner.write().unwrap_or_else(PoisonError::into_inner);
    let mut wal = t.wal.lock().unwrap_or_else(PoisonError::into_inner);
    let removes: Vec<WalOp> = r
        .compiled_sigma()
        .iter()
        .map(|d| WalOp::Remove(d.render(r.algebra())))
        .collect();
    let removed = r
        .decide(&removes, budget)
        .map_err(|(_, e)| ApiError::reasoner(&e))?;
    r.commit(removed, wal.as_mut(), budget)
        .and_then(|_| r.commit(added, wal.as_mut(), budget))
        .map_err(|e| ApiError::internal(format!("WAL append failed: {e}")))?;
    Ok(Response::json(
        200,
        format!(
            "{{\"tenant\": {}, \"removed\": {}, \"added\": {}, \
             \"sigma\": {}, \"warnings\": {}}}\n",
            escape(tenant),
            removes.len(),
            adds.len(),
            r.compiled_sigma().len(),
            report.warnings()
        ),
    ))
}

fn handle_query(
    state: &ServiceState,
    r: &Reasoner,
    body: &Json,
    budget: &Budget,
) -> Result<Response, ApiError> {
    if let Some(q) = body.get("query") {
        let text = q
            .as_str()
            .ok_or_else(|| ApiError::bad_request("\"query\" must be a string"))?;
        let verdict = r
            .implies_str_governed(text, budget)
            .map_err(|e| ApiError::reasoner(&e))?;
        return Ok(Response::json(200, format!("{{\"implied\": {verdict}}}\n")));
    }
    let texts = body_str_list(body, "queries")?;
    if texts.is_empty() {
        return Err(ApiError::bad_request(
            "body needs \"query\" (string) or \"queries\" (non-empty array)",
        ));
    }
    let limits = nalist_types::parser::ParseLimits::from_budget(budget);
    let mut targets = Vec::with_capacity(texts.len());
    for (i, text) in texts.iter().enumerate() {
        let dep = nalist_deps::CompiledDep::parse(r.algebra(), text, limits)
            .map_err(|e| ApiError::bad_request(format!("queries[{i}]: {e}")))?;
        targets.push(dep);
    }
    // The batch planner computes each distinct LHS once per request.
    let verdicts = r
        .implies_batch(&targets, budget, state.batch_threads)
        .map_err(|e| ApiError::internal(format!("a compiled query does not fit: {e}")))?;
    let mut any_resource = None;
    let rendered: Vec<String> = verdicts
        .iter()
        .map(|v| match v {
            Ok(b) => b.to_string(),
            Err(QueryError::Resource(res)) => {
                any_resource = Some(*res);
                "null".to_string()
            }
            Err(e) => format!("{{\"error\": {}}}", escape(&e.to_string())),
        })
        .collect();
    if let Some(res) = any_resource {
        return Err(ApiError::resource(res));
    }
    Ok(Response::json(
        200,
        format!("{{\"verdicts\": [{}]}}\n", rendered.join(", ")),
    ))
}

/// `POST /v1/{t}/edit` with `{"op", "dep"}` or `{"edits": [{"op", "dep"}, …]}`.
/// The whole batch is decided ([`Reasoner::decide`]) before anything is
/// journaled, so a batch that answers `400` or `429` changes nothing;
/// then [`Reasoner::commit`] journals and applies each edit in turn.
fn handle_edit(
    r: &mut Reasoner,
    wal: Option<&mut nalist_store::WalWriter>,
    body: &Json,
    budget: &Budget,
) -> Result<Response, ApiError> {
    // Accept both a single {"op", "dep"} and {"edits": [{...}]}.
    let edits: Vec<(&str, &str)> = if let Some(arr) = body.get("edits") {
        let arr = arr
            .as_arr()
            .ok_or_else(|| ApiError::bad_request("\"edits\" must be an array"))?;
        arr.iter()
            .enumerate()
            .map(|(i, e)| {
                let field = |key| {
                    e.get(key).and_then(Json::as_str).ok_or_else(|| {
                        ApiError::bad_request(format!("edits[{i}]: missing string field {key:?}"))
                    })
                };
                Ok((field("op")?, field("dep")?))
            })
            .collect::<Result<_, ApiError>>()?
    } else {
        vec![(body_str(body, "op")?, body_str(body, "dep")?)]
    };
    // an unknown op ends the batch; its text is still read, as a query,
    // so the deadline and the text are checked before the op
    let unknown = edits
        .iter()
        .position(|(op, _)| !matches!(*op, "add" | "remove"));
    let ops: Vec<WalOp> = edits[..unknown.map_or(edits.len(), |k| k + 1)]
        .iter()
        .map(|&(op, dep)| match op {
            "add" => WalOp::Add(dep.to_string()),
            "remove" => WalOp::Remove(dep.to_string()),
            _ => WalOp::Query(dep.to_string()),
        })
        .collect();
    let decided = r
        .decide(&ops, budget)
        .map_err(|(i, e)| decide_error("edits", i, e))?;
    if let Some(k) = unknown {
        return Err(ApiError::bad_request(format!(
            "edits[{k}]: unknown op {:?} (want add or remove)",
            edits[k].0
        )));
    }
    let adds = ops.iter().filter(|op| matches!(op, WalOp::Add(_))).count();
    let removes = ops.len() - adds;
    r.commit(decided, wal, budget)
        .map_err(|e| ApiError::internal(format!("WAL append failed: {e}")))?;
    let stats = r.cache_stats();
    Ok(Response::json(
        200,
        format!(
            "{{\"adds\": {adds}, \"removes\": {removes}, \"sigma\": {}, \
             \"cache\": {{\"entries\": {}, \"retained\": {}, \"evicted\": {}}}}}\n",
            r.compiled_sigma().len(),
            stats.entries,
            stats.retained,
            stats.evicted
        ),
    ))
}

/// Maps the failure of [`Reasoner::decide`] at item `i` of the request's
/// `field` list: a `429` when the deadline passed, else a `400`.
pub(crate) fn decide_error(field: &str, i: usize, e: ReasonerError) -> ApiError {
    match e {
        ReasonerError::Resource(res) => ApiError::resource(res),
        ReasonerError::Parse(p) => ApiError::bad_request(format!("{field}[{i}]: {p}")),
        other => ApiError::bad_request(format!("{field}[{i}]: {other}")),
    }
}

fn handle_cert(r: &Reasoner, dep_text: &str, budget: &Budget) -> Result<Response, ApiError> {
    let limits = nalist_types::parser::ParseLimits::from_budget(budget);
    let alg = r.algebra();
    let target = nalist_deps::CompiledDep::parse(alg, dep_text, limits)
        .map_err(|e| ApiError::bad_request(format!("bad dependency: {e}")))?;
    let noop = nalist_obs::noop();
    let answer = nalist_membership::cert::answer(alg, r.compiled_sigma(), &target, budget, noop)
        .map_err(|e| match e {
            nalist_membership::ClosureError::Resource(res) => ApiError::resource(res),
            other => ApiError::internal(other.to_string()),
        })?;
    let implied = answer.implied();
    let cert = answer.certificate(budget).map_err(|e| match e.resource() {
        Some(res) => ApiError::resource(res),
        None => ApiError::internal(e.to_string()),
    })?;
    Ok(Response::json(
        200,
        format!(
            "{{\"implied\": {implied}, \"certificate\": {}}}\n",
            cert.to_json().trim_end()
        ),
    ))
}
