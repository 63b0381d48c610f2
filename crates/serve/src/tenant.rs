//! Tenant lifecycle: one long-lived [`Reasoner`] per named schema,
//! with optional snapshot + write-ahead-log durability per tenant.
//!
//! Locking discipline: queries share `reasoner.read()`; Σ edits take
//! `reasoner.write()` and, while holding it, journal to the tenant's
//! WAL *before* applying — so the log is always at least as new as the
//! in-memory state and a killed daemon recovers bit-identically via
//! [`nalist_membership::recover`]. Tenants are fully independent:
//! nothing is shared between two [`Tenant`]s but the process, so one
//! tenant's edits cannot evict another's cache entries by construction.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use nalist_guard::Budget;
use nalist_membership::{recover, snapshot_payload, write_reasoner_snapshot, Reasoner, WalOp};
use nalist_obs::{site, Recorder};
use nalist_store::WalWriter;
use nalist_types::parser::{parse_attr_with, ParseLimits};

use crate::api::{decide_error, ApiError};

/// Longest accepted tenant name; names are path components, so the
/// alphabet is restricted to `[A-Za-z0-9_-]`.
pub const MAX_TENANT_NAME: usize = 64;

/// Validates a tenant name (used as a WAL/snapshot file stem).
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// One tenant: a named schema with its warm reasoner and, when the
/// server runs durable, its open write-ahead log.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    /// Queries take the read lock, Σ edits the write lock.
    pub reasoner: RwLock<Reasoner>,
    /// The open journal, `None` when the server runs without
    /// `--wal-dir`. Held *inside* the reasoner write lock during
    /// edits, so journal order always matches apply order.
    pub wal: Mutex<Option<WalWriter>>,
    /// Identity of the current WAL incarnation, regenerated every time
    /// a fresh log is started (tenant creation, compaction on
    /// restart). A follower that sees the id change knows its byte
    /// offsets are meaningless and must re-snapshot — the offset
    /// handshake's compaction detector. `0` for in-memory tenants.
    wal_id: u64,
}

/// Monotone component of [`fresh_wal_id`]; the wall-clock component
/// separates ids across process restarts.
static NEXT_WAL_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_wal_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let seq = NEXT_WAL_ID.fetch_add(1, Ordering::Relaxed);
    // Mix so ids stay distinct even with a coarse clock; never 0.
    (nanos ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(std::process::id()) << 32)).max(1)
}

/// What `GET /v1/{t}/wal?from=` ships: verified raw log bytes cut at a
/// record boundary, plus the offsets a follower needs to keep tailing.
#[derive(Debug)]
pub struct WalShipment {
    /// Raw log bytes starting at the requested offset, ending at a
    /// record boundary (re-verifiable with
    /// [`nalist_store::parse_wal_segment`]).
    pub bytes: Vec<u8>,
    /// Offset one past the last record in `bytes` — the follower's
    /// next `from`.
    pub end: u64,
    /// Current log length: `log_len - end` is the byte lag a capped
    /// shipment leaves behind.
    pub log_len: u64,
    /// Complete records in `bytes`.
    pub records: u64,
    /// The WAL incarnation the offsets belong to.
    pub wal_id: u64,
}

impl Tenant {
    /// The tenant's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current WAL incarnation id (`0` for in-memory tenants).
    #[must_use]
    pub fn wal_id(&self) -> u64 {
        self.wal_id
    }

    /// A consistent `(snapshot payload, wal_id, wal offset)` triple
    /// for follower bootstrap: the payload reflects every journaled
    /// op, and tailing the WAL from the returned offset replays
    /// exactly what comes after. Errors when the tenant is not
    /// durable — there is no log to tail.
    pub fn replication_snapshot(&self) -> Result<(Vec<u8>, u64, u64), ApiError> {
        // Same lock order as the edit path (reasoner before wal), so
        // while we hold the read lock no edit is between journal and
        // apply: journaled == applied.
        let r = self.reasoner.read().unwrap_or_else(PoisonError::into_inner);
        let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(w) = wal.as_ref() else {
            return Err(ApiError {
                status: 409,
                kind: "not_durable",
                message: format!(
                    "tenant {:?} has no WAL (start the leader with --wal-dir)",
                    self.name
                ),
            });
        };
        Ok((snapshot_payload(&r), self.wal_id, w.end()))
    }

    /// Reads up to `max_bytes` of verified log starting at absolute
    /// offset `from`, cut at a record boundary. `from` past the log
    /// end answers `416` — the compaction handshake: a follower whose
    /// offset outlives the log must re-snapshot.
    pub fn wal_slice(&self, from: u64, max_bytes: u64) -> Result<WalShipment, ApiError> {
        let (path, end) = {
            let wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(w) = wal.as_ref() else {
                return Err(ApiError {
                    status: 409,
                    kind: "not_durable",
                    message: format!(
                        "tenant {:?} has no WAL (start the leader with --wal-dir)",
                        self.name
                    ),
                });
            };
            (w.path().to_path_buf(), w.end())
        };
        if from < nalist_store::WAL_MAGIC.len() as u64 || from > end {
            return Err(ApiError {
                status: 416,
                kind: "wal_offset_beyond_log",
                message: format!(
                    "offset {from} is outside the log (magic..{end}); re-snapshot and tail again"
                ),
            });
        }
        // The log only grows within a WAL incarnation, so reading
        // `[from, to)` without the lock is safe: those bytes are
        // immutable once `end` covered them.
        let to = end.min(from.saturating_add(max_bytes));
        let mut bytes = nalist_store::read_wal_range(&path, from, to)
            .map_err(|e| ApiError::internal(format!("cannot read WAL range: {e}")))?;
        let seg = nalist_store::parse_wal_segment(&bytes, from, true)
            .map_err(|e| ApiError::internal(format!("cannot parse own WAL: {e}")))?;
        let (seg_end, records) = (seg.end, seg.records.len() as u64);
        bytes.truncate((seg_end - from) as usize);
        Ok(WalShipment {
            bytes,
            end: seg_end,
            log_len: end,
            records,
            wal_id: self.wal_id,
        })
    }
}

/// The tenant table: name → tenant, plus the durability directory.
#[derive(Debug)]
pub struct Registry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    /// Names claimed by in-flight creates. A create reserves its name
    /// here *before* the expensive reasoner build, so the second of
    /// two racing creates answers `409` immediately instead of both
    /// passing the duplicate probe, building two reasoners, and
    /// racing `persist_fresh` for the snapshot + WAL files.
    creating: Mutex<BTreeSet<String>>,
    wal_dir: Option<PathBuf>,
    rec: Arc<dyn Recorder>,
}

/// Holds a name in [`Registry::creating`]; dropping releases it (also
/// on the error paths out of a failed build).
struct NameReservation<'a> {
    registry: &'a Registry,
    name: String,
}

impl Drop for NameReservation<'_> {
    fn drop(&mut self) {
        self.registry
            .creating
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.name);
    }
}

fn io_err(path: &Path, what: &str, e: &dyn std::fmt::Display) -> ApiError {
    ApiError::internal(format!("{what} {}: {e}", path.display()))
}

impl Registry {
    /// Opens a registry. With a `wal_dir`, every `<name>.snap` found
    /// there is recovered in name order (replaying `<name>.wal` when
    /// present, and failing on the first tenant that does not recover)
    /// and the log is *compacted*: the recovered state becomes the new
    /// snapshot and a fresh WAL is started, so a torn tail from a
    /// crash never accumulates.
    pub fn open(wal_dir: Option<PathBuf>, rec: Arc<dyn Recorder>) -> Result<Registry, ApiError> {
        let registry = Registry {
            tenants: RwLock::new(BTreeMap::new()),
            creating: Mutex::new(BTreeSet::new()),
            wal_dir,
            rec,
        };
        let Some(dir) = registry.wal_dir.clone() else {
            return Ok(registry);
        };
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "cannot create", &e))?;
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| io_err(&dir, "cannot read", &e))? {
            let entry = entry.map_err(|e| io_err(&dir, "cannot read", &e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("snap") {
                continue;
            }
            match path.file_stem().and_then(|s| s.to_str()) {
                Some(stem) if valid_tenant_name(stem) => names.push(stem.to_string()),
                _ => {
                    return Err(ApiError::internal(format!(
                        "snapshot file {} is not named after a valid tenant",
                        path.display()
                    )))
                }
            }
        }
        // `read_dir` order is the filesystem's: sort, so which damaged
        // tenant a failed start-up names does not depend on it
        names.sort();
        let budget = Budget::unlimited();
        for name in names {
            let snap = dir.join(format!("{name}.snap"));
            let wal = dir.join(format!("{name}.wal"));
            let wal_arg = wal.exists().then_some(wal.as_path());
            let report = recover(&snap, wal_arg, &budget, Arc::clone(&registry.rec))
                .map_err(|e| io_err(&snap, "cannot recover", &e))?;
            let token = registry.rec.enter(
                site::SERVE_TENANT,
                report.reasoner.compiled_sigma().len() as u64,
            );
            let tenant = registry.persist_fresh(&name, report.reasoner, &budget)?;
            registry.rec.exit(token, 0);
            registry
                .tenants
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(name, tenant);
        }
        Ok(registry)
    }

    /// Writes a fresh snapshot + empty WAL (header only) for `r` and
    /// wraps it as a tenant. No-op on the durability side when the
    /// registry has no `wal_dir`.
    fn persist_fresh(
        &self,
        name: &str,
        r: Reasoner,
        budget: &Budget,
    ) -> Result<Arc<Tenant>, ApiError> {
        let wal = match &self.wal_dir {
            None => None,
            Some(dir) => {
                let snap = dir.join(format!("{name}.snap"));
                write_reasoner_snapshot(&snap, &r, budget, self.rec.as_ref())
                    .map_err(|e| io_err(&snap, "cannot snapshot", &e))?;
                let wal_path = dir.join(format!("{name}.wal"));
                let mut w = WalWriter::create(&wal_path, true)
                    .map_err(|e| io_err(&wal_path, "cannot create", &e))?;
                w.append(
                    &WalOp::Header {
                        schema: r.attr().to_string(),
                    }
                    .encode(),
                    budget,
                    self.rec.as_ref(),
                )
                .map_err(|e| io_err(&wal_path, "cannot write", &e))?;
                Some(w)
            }
        };
        let wal_id = if wal.is_some() { fresh_wal_id() } else { 0 };
        Ok(Arc::new(Tenant {
            name: name.to_string(),
            reasoner: RwLock::new(r),
            wal: Mutex::new(wal),
            wal_id,
        }))
    }

    /// Creates a tenant from a schema and an initial Σ (dependency
    /// texts). Fails with `409` if the name is taken, `400` if the
    /// name, schema or a dependency is invalid.
    pub fn create(
        &self,
        name: &str,
        schema: &str,
        deps: &[String],
        budget: &Budget,
    ) -> Result<Arc<Tenant>, ApiError> {
        if !valid_tenant_name(name) {
            return Err(ApiError::bad_request(format!(
                "bad tenant name {name:?} (want 1-{MAX_TENANT_NAME} chars of [A-Za-z0-9_-])"
            )));
        }
        // Claim the name before the expensive reasoner build: a
        // conflict — with an existing tenant *or* with a concurrent
        // create of the same name — must answer 409 immediately, not
        // build a second reasoner and race `persist_fresh` for the
        // snapshot + WAL files. The reservation is dropped on every
        // path out, so a failed build frees the name.
        let _claim = self.reserve(name)?;
        let limits = ParseLimits::from_budget(budget);
        let n = parse_attr_with(schema, limits)
            .map_err(|e| ApiError::bad_request(format!("bad schema: {e}")))?;
        let mut r = Reasoner::try_new_observed(&n, budget, Arc::clone(&self.rec))
            .map_err(ApiError::resource)?;
        let adds: Vec<WalOp> = deps.iter().cloned().map(WalOp::Add).collect();
        let decided = r
            .decide(&adds, budget)
            .map_err(|(i, e)| decide_error("deps", i, e))?;
        // the snapshot persist_fresh writes holds them: nothing to journal
        r.commit(decided, None, budget)
            .expect("adds with no log to write cannot fail");
        // The registry write lock is held across persistence: creates
        // are rare, and this makes insert + snapshot atomic. The name
        // itself is already ours — the reservation blocks every other
        // create of it until we return.
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        let token = self
            .rec
            .enter(site::SERVE_TENANT, r.compiled_sigma().len() as u64);
        let tenant = self.persist_fresh(name, r, budget)?;
        self.rec.exit(token, 1);
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Reserves `name` for an in-flight create, failing with `409`
    /// when it is already a tenant or already being created.
    fn reserve(&self, name: &str) -> Result<NameReservation<'_>, ApiError> {
        let mut creating = self.creating.lock().unwrap_or_else(PoisonError::into_inner);
        if creating.contains(name) || self.get(name).is_some() {
            return Err(ApiError {
                status: 409,
                kind: "conflict",
                message: format!("tenant {name:?} already exists"),
            });
        }
        creating.insert(name.to_string());
        Ok(NameReservation {
            registry: self,
            name: name.to_string(),
        })
    }

    /// Installs an externally built reasoner as an in-memory tenant,
    /// replacing any previous incarnation — the follower's bootstrap
    /// path (replicas re-snapshot through here, so replacement is the
    /// point, not an accident).
    pub fn install(&self, name: &str, r: Reasoner) -> Result<Arc<Tenant>, ApiError> {
        if !valid_tenant_name(name) {
            return Err(ApiError::bad_request(format!(
                "bad tenant name {name:?} (want 1-{MAX_TENANT_NAME} chars of [A-Za-z0-9_-])"
            )));
        }
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            reasoner: RwLock::new(r),
            wal: Mutex::new(None),
            wal_id: 0,
        });
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Looks a tenant up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Current tenant names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Number of tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the registry has no tenants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorder every tenant reports to.
    #[must_use]
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_obs::NoopRecorder;

    fn wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nalist-tenant-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replaying_more_edits_than_the_span_cap_drops_no_span() {
        use crate::server::SPAN_CAP;
        use nalist_obs::{Counter, MetricsRecorder};
        let dir = wal_dir("spans");
        let budget = Budget::unlimited();
        Registry::open(Some(dir.clone()), Arc::new(NoopRecorder))
            .unwrap()
            .create("t", "L(A, B)", &[], &budget)
            .unwrap();
        let (mut wal, _) = WalWriter::open(&dir.join("t.wal"), false).unwrap();
        for i in 0..=SPAN_CAP {
            let dep = "L(A) -> L(B)".to_string();
            let op = if i % 2 == 0 {
                WalOp::Add(dep)
            } else {
                WalOp::Remove(dep)
            };
            wal.append(&op.encode(), &budget, &NoopRecorder).unwrap();
        }
        drop(wal);
        let rec = Arc::new(MetricsRecorder::with_span_cap(SPAN_CAP));
        let reg = Registry::open(Some(dir.clone()), rec.clone()).unwrap();
        let tenant = reg.get("t").unwrap();
        assert_eq!(tenant.reasoner.read().unwrap().compiled_sigma().len(), 1);
        // edits into a cold cache evict nothing and leave no span behind
        assert_eq!(rec.counter(Counter::SpansDropped), 0);
        let spans = rec.snapshot().spans;
        assert!(
            spans
                .iter()
                .all(|s| s.site != nalist_obs::site::CACHE_EVICT),
            "{spans:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_names_the_first_damaged_tenant_in_name_order() {
        let dir = wal_dir("damaged");
        // created in reverse, so no creation order favours the answer
        let names: Vec<String> = (0..8).rev().map(|i| format!("t{i}")).collect();
        let reg = Registry::open(Some(dir.clone()), Arc::new(NoopRecorder)).unwrap();
        for name in &names {
            reg.create(name, "L(A, B)", &[], &Budget::unlimited())
                .unwrap();
        }
        drop(reg);
        for name in &names {
            // a flipped payload byte in the header record: a checksum
            // mismatch, which recovery refuses
            let wal = dir.join(format!("{name}.wal"));
            let mut bytes = std::fs::read(&wal).unwrap();
            *bytes.last_mut().unwrap() ^= 1;
            std::fs::write(&wal, bytes).unwrap();
        }
        let err = Registry::open(Some(dir.clone()), Arc::new(NoopRecorder)).unwrap_err();
        assert!(err.message.contains("t0.snap"), "{}", err.message);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant_name("a"));
        assert!(valid_tenant_name("tenant-2_x"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("a/b"));
        assert!(!valid_tenant_name("a.b"));
        assert!(!valid_tenant_name(&"x".repeat(65)));
    }

    #[test]
    fn racing_creates_build_once_and_answer_409_once() {
        use nalist_obs::{Counter, MetricsRecorder};
        use std::sync::Barrier;
        let schema = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";
        // Baseline: atoms one build of this schema allocates.
        let baseline_rec = Arc::new(MetricsRecorder::new());
        {
            let reg = Registry::open(None, baseline_rec.clone() as Arc<dyn Recorder>).unwrap();
            reg.create("solo", schema, &[], &Budget::unlimited())
                .unwrap();
        }
        let one_build = baseline_rec.counter(Counter::AtomsAllocated);
        assert!(one_build > 0);

        let rec = Arc::new(MetricsRecorder::new());
        let reg = Arc::new(Registry::open(None, rec.clone() as Arc<dyn Recorder>).unwrap());
        let barrier = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (reg, barrier) = (Arc::clone(&reg), Arc::clone(&barrier));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                reg.create("raced", schema, &[], &Budget::unlimited())
                    .map(|_| ())
                    .map_err(|e| e.status)
            }));
        }
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 1);
        assert_eq!(
            outcomes.iter().filter(|o| **o == Err(409)).count(),
            1,
            "loser must see 409, got {outcomes:?}"
        );
        assert_eq!(reg.len(), 1);
        // The loser answered before building: exactly one reasoner's
        // worth of atoms was allocated. Pre-fix, both creates passed
        // the cheap duplicate probe and both built (2× the atoms).
        assert_eq!(rec.counter(Counter::AtomsAllocated), one_build);
    }

    #[test]
    fn failed_create_releases_the_name() {
        let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        let reg = Registry::open(None, rec).unwrap();
        let budget = Budget::unlimited();
        let bad = reg
            .create(
                "pub",
                "Pubcrawl(Person)",
                &["not a dependency".to_string()],
                &budget,
            )
            .unwrap_err();
        assert_eq!(bad.status, 400);
        // the reservation was dropped on the error path; the name is free
        reg.create("pub", "Pubcrawl(Person)", &[], &budget).unwrap();
    }

    #[test]
    fn create_get_and_conflicts() {
        let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        let reg = Registry::open(None, rec).unwrap();
        let budget = Budget::unlimited();
        let t = reg
            .create(
                "pub",
                "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
                &["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])".to_string()],
                &budget,
            )
            .unwrap();
        assert_eq!(t.name(), "pub");
        assert_eq!(reg.len(), 1);
        assert!(reg.get("pub").is_some());
        assert!(reg.get("absent").is_none());
        let dup = reg
            .create("pub", "Pubcrawl(Person)", &[], &budget)
            .unwrap_err();
        assert_eq!(dup.status, 409);
        let bad = reg
            .create("no/slash", "Pubcrawl(Person)", &[], &budget)
            .unwrap_err();
        assert_eq!(bad.status, 400);
    }
}
