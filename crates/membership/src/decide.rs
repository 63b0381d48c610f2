//! The membership decision `Σ ⊨ σ` (Theorem 6.4): run Algorithm 5.1 for
//! `σ`'s left-hand side and apply Proposition 4.10.
//!
//! [`Reasoner`] answers queries either one at a time or in parallel
//! batches ([`Reasoner::implies_batch`]); batch workers
//! share the per-LHS basis cache, one map behind one lock that no worker
//! holds while it computes a basis. Batches are first run through a
//! query *planner* that deduplicates items by left-hand side — each
//! distinct LHS basis is computed exactly once per batch — and orders
//! cache-warm LHSs before cold ones; workers then claim the planned
//! groups in that order from one shared cursor.
//!
//! The reasoner is *incremental*: `Σ` edits ([`Reasoner::add`] /
//! [`Reasoner::remove`]) no longer clear the cache. Each cached basis
//! carries the set of dependencies that fired while it was computed;
//! an edit evicts only the entries the edited dependency could actually
//! affect (see the soundness argument in [`crate::worklist`]), and a
//! from-scratch recompute of every surviving entry is bit-identical.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::{CompiledDep, Dependency};
use nalist_guard::{Budget, ResourceExhausted};
use nalist_obs::{Counter, Hist, Recorder};
use nalist_types::attr::NestedAttr;
use nalist_types::error::{ParseError, TypeError};
use nalist_types::parser::ParseLimits;

use crate::closure::{check_downward_closed, closure_and_basis, ClosureError, DependencyBasis};
use crate::packed::PackedBasis;
use crate::worklist::step_would_change;

/// Most packed bytes ([`CacheStats::bytes`]) one reasoner's basis cache
/// holds. An insert that would take the cache past it first flushes
/// every entry, so the cache holds at most this much, or one entry that
/// alone is larger. About 700 entries of a 32-atom schema with
/// `|Σ|` = 64.
pub const MAX_CACHE_BYTES: u64 = 256 << 10;

/// Cache-effectiveness counters ([`Reasoner::cache_stats`]). `misses`
/// counts full Algorithm 5.1 runs, so a batch with duplicated left-hand
/// sides must raise it by the number of *distinct* LHSs only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered straight from the cache.
    pub hits: u64,
    /// Queries that ran Algorithm 5.1 (one miss == one basis
    /// computation).
    pub misses: u64,
    /// Entries that survived `Σ` edits because the edited dependency
    /// provably could not affect them.
    pub retained: u64,
    /// Entries evicted — by a `Σ` edit that could affect them, or by
    /// [`Reasoner::clear_cache`]. Entries the byte bound dropped count
    /// in `capacity_evicted` instead.
    pub evicted: u64,
    /// Entries dropped by the [`MAX_CACHE_BYTES`] bound: the flushes of
    /// inserts that would have taken the cache past it.
    pub capacity_evicted: u64,
    /// Entries currently live.
    pub entries: u64,
    /// Exact bytes the live entries' packed runs hold — their words plus
    /// their fired ids ([`PackedBasis::bytes`]), not counting the
    /// left-hand-side keys or the map itself.
    pub bytes: u64,
}

/// Errors from [`Reasoner::restore_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// A structural invariant of the persisted state is broken
    /// (non-ascending ids or left-hand sides, fired-set naming an
    /// unknown dependency, atom sets of the wrong capacity, …).
    Invalid(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Invalid(msg) => write!(f, "invalid persisted state: {msg}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A thread-safe per-LHS dependency-basis cache behind one lock,
/// bounded by [`MAX_CACHE_BYTES`].
///
/// No lock is held while a basis is *computed*; within one batch the
/// planner guarantees a distinct LHS is computed once, and concurrent
/// *independent* callers racing on the same fresh LHS produce
/// deterministic, idempotent inserts.
///
/// The bound is enforced by `insert`: an entry that would take the byte
/// total past it first flushes every entry, under the same lock as the
/// insert, so the cache never holds more than the bound unless one
/// entry alone is larger. The rule reads only the bytes held and the
/// incoming entry's — not insertion order or hits — so a reasoner
/// restored from its snapshot, or cloned, evicts exactly as the live
/// one does. Entries are memos of complete fixpoints, so a flushed one
/// recomputes bit-identically (Theorem 6.3).
///
/// The same no-lock-while-computing discipline is what makes poison
/// recovery sound: besides the map's own mutations, the lock only
/// covers a hit's short read of one entry — a single query's
/// Proposition 4.10 check, a `DepB` derivation, or a batch group's copy
/// of the entry (its members are evaluated outside the lock) — and
/// every entry is fully packed before `insert` takes the lock, so a
/// poisoned mutex never guards half-written data and the cache simply
/// keeps serving after a worker dies.
#[derive(Debug, Default)]
struct BasisCache(Mutex<CacheState>);

/// What the cache lock guards: the packed bases by left-hand side,
/// their byte total and the counters [`CacheStats`] reports.
#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<AtomSet, PackedBasis>,
    /// Sum of the live entries' [`PackedBasis::bytes`].
    bytes: u64,
    hits: u64,
    misses: u64,
    retained: u64,
    evicted: u64,
    capacity_evicted: u64,
}

impl CacheState {
    /// Empties the map; returns how many entries it held.
    fn flush(&mut self) -> u64 {
        let dropped = self.map.len() as u64;
        self.map.clear();
        self.bytes = 0;
        dropped
    }
}

impl Clone for BasisCache {
    /// Deep copy: the clone owns independent storage (mutating either
    /// side can never leak entries across), with the same bytes, and
    /// counters reset.
    fn clone(&self) -> Self {
        let src = self.lock();
        BasisCache(Mutex::new(CacheState {
            map: src.map.clone(),
            bytes: src.bytes,
            ..CacheState::default()
        }))
    }
}

impl BasisCache {
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `read` on the cached basis of `x` in place, under the lock —
    /// a hit copies nothing out of the cache.
    fn get<T>(&self, x: &AtomSet, read: impl FnOnce(&PackedBasis) -> T) -> Option<T> {
        let mut state = self.lock();
        let hit = state.map.get(x).map(read);
        if hit.is_some() {
            state.hits += 1;
        } else {
            state.misses += 1;
        }
        hit
    }

    /// Warmth probe for the batch planner — no stats impact.
    fn contains(&self, x: &AtomSet) -> bool {
        self.lock().map.contains_key(x)
    }

    /// Does the cache hold no entry? Judged by entries, not bytes: an
    /// entry over a zero-atom schema packs to 0 bytes.
    fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Caches `entry` for `x`. If it would take the cache past
    /// [`MAX_CACHE_BYTES`], every entry is flushed first; returns how
    /// many were.
    fn insert(&self, x: AtomSet, entry: PackedBasis) -> u64 {
        let size = entry.bytes();
        let mut state = self.lock();
        let flushed = if state.bytes + size > MAX_CACHE_BYTES {
            state.flush()
        } else {
            0
        };
        state.capacity_evicted += flushed;
        let replaced = state.map.insert(x, entry).map_or(0, |old| old.bytes());
        state.bytes = state.bytes + size - replaced;
        flushed
    }

    /// Keeps only the entries `keep` approves, updating the
    /// retained/evicted counters. Returns `(retained, evicted)` for this
    /// sweep so callers can mirror the deltas into an observability
    /// recorder.
    fn retain(&self, mut keep: impl FnMut(&PackedBasis) -> bool) -> (u64, u64) {
        let mut state = self.lock();
        let before = state.map.len() as u64;
        let mut freed = 0;
        state.map.retain(|_, e| {
            let kept = keep(e);
            if !kept {
                freed += e.bytes();
            }
            kept
        });
        let after = state.map.len() as u64;
        state.bytes -= freed;
        state.retained += after;
        state.evicted += before - after;
        (after, before - after)
    }

    fn clear(&self) {
        let mut state = self.lock();
        state.evicted += state.flush();
    }

    fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            retained: state.retained,
            evicted: state.evicted,
            capacity_evicted: state.capacity_evicted,
            entries: state.map.len() as u64,
            bytes: state.bytes,
        }
    }
}

/// Decides `Σ ⊨ σ` on compiled inputs under a resource [`Budget`]
/// ([`crate::cert::answer`]): a starved run is [`ResourceExhausted`],
/// never a wrong verdict.
pub fn implies(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    crate::cert::answer(alg, sigma, dep, budget, nalist_obs::noop())
        .map(|answer| answer.implied())
        .map_err(exhausted)
}

/// A convenience engine bundling an ambient attribute, its algebra and a
/// compiled `Σ`, with string-level entry points.
///
/// ```
/// use nalist_guard::Budget;
/// use nalist_membership::Reasoner;
/// use nalist_types::parser::parse_attr;
///
/// let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
/// let mut r = Reasoner::new(&n);
/// r.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])").unwrap();
/// let unlimited = Budget::unlimited();
/// // the mixed meet rule yields: Person determines the visit list shape
/// assert!(r.implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])", &unlimited).unwrap());
/// assert!(!r.implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])", &unlimited).unwrap());
/// ```
#[derive(Debug)]
pub struct Reasoner {
    alg: Algebra,
    /// `Σ`, held once: each dependency as its compiled atom-set pair,
    /// which determines its canonical tree and text
    compiled: Vec<CompiledDep>,
    /// stable id of each `compiled[i]`, parallel to `compiled`; ids are
    /// never reused, so cached `fired` lists stay unambiguous across
    /// removals
    ids: Vec<u64>,
    /// next id handed out by [`Reasoner::add`]
    next_id: u64,
    /// per-LHS dependency-basis cache, *selectively* invalidated when Σ
    /// changes (see [`Reasoner::add`] / [`Reasoner::remove`])
    cache: BasisCache,
    /// observability sink; the shared noop by default, so unobserved
    /// reasoners pay one never-taken branch per instrumented site
    recorder: Arc<dyn Recorder>,
}

impl Clone for Reasoner {
    /// The clone carries a *deep copy* of the basis cache: warm entries
    /// keep answering on the clone without recomputation, and because
    /// the storage is copied (never shared), a later `Σ` edit on either
    /// side evicts only from that side's own cache. Stats counters
    /// restart at zero on the clone.
    fn clone(&self) -> Self {
        Reasoner {
            alg: self.alg.clone(),
            compiled: self.compiled.clone(),
            ids: self.ids.clone(),
            next_id: self.next_id,
            cache: self.cache.clone(),
            recorder: Arc::clone(&self.recorder),
        }
    }
}

/// Errors from the string-level [`Reasoner`] API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReasonerError {
    /// Dependency text failed to parse or resolve.
    Parse(ParseError),
    /// Dependency sides are not subattributes of the ambient attribute.
    Type(TypeError),
    /// The query ran out of its resource [`Budget`] (fuel, deadline or
    /// size cap).
    Resource(ResourceExhausted),
    /// A `-` ([`Reasoner::decide`]) of a dependency `Σ` does not hold,
    /// as the text it was written with.
    NotHeld(String),
}

impl std::fmt::Display for ReasonerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReasonerError::Parse(e) => write!(f, "parse error: {e}"),
            ReasonerError::Type(e) => write!(f, "type error: {e}"),
            ReasonerError::Resource(e) => write!(f, "{e}"),
            ReasonerError::NotHeld(text) => write!(f, "dependency not in Σ: {text}"),
        }
    }
}

impl std::error::Error for ReasonerError {}

impl From<ResourceExhausted> for ReasonerError {
    fn from(e: ResourceExhausted) -> Self {
        ReasonerError::Resource(e)
    }
}

/// The one [`ClosureError`] compiled inputs can meet: every left-hand
/// side the reasoner and [`implies`] run Algorithm 5.1 on is compiled,
/// comes from [`Algebra::from_attr`] or passed [`Reasoner::implies`]'s
/// check, so it is downward closed and as wide as its algebra, and only
/// the budget can stop the run.
fn exhausted(e: ClosureError) -> ResourceExhausted {
    match e {
        ClosureError::Resource(r) => r,
        other => unreachable!("a compiled left-hand side was rejected: {other}"),
    }
}

/// Per-item failure inside a batch call
/// ([`Reasoner::implies_batch`]): the failed query is
/// reported here while the rest of the batch completes normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query ran out of the batch's shared resource [`Budget`].
    Resource(ResourceExhausted),
    /// The query panicked; the panic was confined to this item.
    Panicked {
        /// The rendered panic payload: string payloads verbatim, typed
        /// payloads with their type name preserved (see
        /// `panic_message`).
        message: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Resource(e) => write!(f, "{e}"),
            QueryError::Panicked { message } => write!(f, "query panicked: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Renders a caught panic payload for [`QueryError::Panicked`].
///
/// `&str`/`String` payloads (what `panic!` produces) are rendered
/// verbatim. Typed payloads thrown via `std::panic::panic_any` used to
/// collapse into an anonymous `"non-string panic payload"`; known typed
/// payloads now keep their type name, and unknown ones at least carry
/// their `TypeId` so distinct payload types stay distinguishable.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<nalist_guard::InjectedPanic>() {
        format!(
            "typed panic payload nalist_guard::InjectedPanic (site: {})",
            p.site
        )
    } else {
        format!(
            "non-string panic payload of type {:?}",
            payload.as_ref().type_id()
        )
    }
}

impl Reasoner {
    /// Creates a reasoner over the ambient attribute `n` with empty `Σ`.
    pub fn new(n: &NestedAttr) -> Self {
        Reasoner::try_new(n, &Budget::unlimited(), Arc::new(nalist_obs::NoopRecorder))
            .expect("unlimited budget cannot be exhausted")
    }

    /// [`Reasoner::new`] under a resource [`Budget`], reporting to `rec`:
    /// algebra construction (the memory hot spot — see
    /// [`Algebra::try_new`]) honours the budget's `max_atoms`, fuel and
    /// deadline and runs under an `algebra::atoms` span, and every
    /// subsequent query on this reasoner reports spans, counters and
    /// histograms to `rec` (see the `nalist-obs` crate). Threading
    /// mirrors [`Budget`]: the recorder rides along on the reasoner
    /// instead of appearing in every method signature.
    pub fn try_new(
        n: &NestedAttr,
        budget: &Budget,
        rec: Arc<dyn Recorder>,
    ) -> Result<Self, ResourceExhausted> {
        let alg = Algebra::try_new(n, budget, rec.as_ref())?;
        Ok(Reasoner::over(alg, rec))
    }

    /// A reasoner with empty `Σ` over an algebra already built.
    fn over(alg: Algebra, rec: Arc<dyn Recorder>) -> Self {
        Reasoner {
            alg,
            compiled: Vec::new(),
            ids: Vec::new(),
            next_id: 0,
            cache: BasisCache::default(),
            recorder: rec,
        }
    }

    /// Replaces the observability recorder (builder style).
    #[must_use]
    pub fn with_recorder(mut self, rec: Arc<dyn Recorder>) -> Self {
        self.recorder = rec;
        self
    }

    /// The active observability recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
    }

    /// The ambient attribute.
    pub fn attr(&self) -> &NestedAttr {
        self.alg.attr()
    }

    /// The underlying algebra.
    pub fn algebra(&self) -> &Algebra {
        &self.alg
    }

    /// The current `Σ`, in insertion order. Each dependency is held
    /// only as its compiled pair; [`CompiledDep::render`] gives its text
    /// and [`CompiledDep::decompile`] its tree.
    pub fn compiled_sigma(&self) -> &[CompiledDep] {
        &self.compiled
    }

    /// Adds a dependency to `Σ`, evicting only the cached bases the new
    /// dependency can actually change.
    ///
    /// A cached basis survives iff one step of the new dependency is a
    /// no-op at that basis ([`step_would_change`] replays the step
    /// non-mutatingly): the cached state is then a fixpoint of
    /// `Σ ∪ {dep}` too, and by the confluence theorem (Theorem 6.3)
    /// every fixpoint *is* the canonical basis — so the surviving entry
    /// is bit-identical to a from-scratch recompute. Note the weaker
    /// "does `dep`'s footprint intersect the entry's LHS?" test is
    /// unsound here: a dependency can anchor on atoms the original run
    /// never touched.
    pub fn add(&mut self, dep: Dependency) -> Result<(), ReasonerError> {
        let c = dep.compile(&self.alg).map_err(ReasonerError::Type)?;
        self.add_compiled(c);
        Ok(())
    }

    /// The step [`Reasoner::add`] ends in, for a dependency already
    /// compiled over this reasoner's algebra: evict every entry at which
    /// one step of it would change the basis, then append under the next
    /// id. An empty cache has nothing to evict, so the dependency is not
    /// even prepared.
    pub(crate) fn add_compiled(&mut self, c: CompiledDep) {
        if !self.cache.is_empty() {
            let prepared = c.prepare(&self.alg);
            self.observed_retain(|entry| !step_would_change(&self.alg, &prepared, entry));
        }
        self.compiled.push(c);
        self.ids.push(self.next_id);
        self.next_id += 1;
    }

    /// Adds a dependency written as `"X -> Y"` / `"X ->> Y"`.
    pub fn add_str(&mut self, src: &str) -> Result<(), ReasonerError> {
        let c = self.parse_compiled(src, ParseLimits::default())?;
        self.add_compiled(c);
        Ok(())
    }

    /// Reads a dependency text straight to its compiled pair over this
    /// reasoner's algebra ([`CompiledDep::parse`]).
    fn parse_compiled(&self, src: &str, limits: ParseLimits) -> Result<CompiledDep, ReasonerError> {
        CompiledDep::parse(&self.alg, src, limits).map_err(ReasonerError::Parse)
    }

    /// Removes the first dependency of `Σ` equal to `dep` (compiled
    /// comparison, so distinct spellings of the same dependency match).
    /// Returns whether anything was removed.
    ///
    /// Only cached bases whose computation the removed dependency
    /// *fired in* are evicted: a dependency that never fired contributed
    /// no step to the run's trajectory, so replaying the run without it
    /// visits the exact same states and converges to the bit-identical
    /// basis.
    pub fn remove(&mut self, dep: &Dependency) -> Result<bool, ReasonerError> {
        let c = dep.compile(&self.alg).map_err(ReasonerError::Type)?;
        Ok(self.remove_compiled(&c))
    }

    /// [`Reasoner::remove`] for a dependency written as `"X -> Y"` /
    /// `"X ->> Y"`.
    pub fn remove_str(&mut self, src: &str) -> Result<bool, ReasonerError> {
        let c = self.parse_compiled(src, ParseLimits::default())?;
        Ok(self.remove_compiled(&c))
    }

    /// Removes the first member of `Σ` equal to `c`, if there is one.
    fn remove_compiled(&mut self, c: &CompiledDep) -> bool {
        let found = self.compiled.iter().position(|have| have == c);
        if let Some(i) = found {
            self.remove_at(i);
        }
        found.is_some()
    }

    /// Removes `compiled_sigma()[i]`, evicting only the cached bases it
    /// fired in, and returns it.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn remove_at(&mut self, i: usize) -> CompiledDep {
        let removed_id = self.ids.remove(i);
        let dep = self.compiled.remove(i);
        self.observed_retain(|entry| entry.fired().binary_search(&removed_id).is_err());
        dep
    }

    /// [`BasisCache::retain`] with the eviction sweep mirrored into the
    /// recorder: a `cache::evict` span (enter payload: live entries
    /// before, exit payload: entries evicted) plus the
    /// `cache_retained` / `cache_evicted` counters. An empty cache has
    /// nothing to sweep and records nothing — no span, so replaying
    /// thousands of edits into a cold reasoner cannot fill a capped
    /// span buffer.
    fn observed_retain(&self, keep: impl FnMut(&PackedBasis) -> bool) {
        let rec = self.recorder.as_ref();
        if !rec.enabled() {
            self.cache.retain(keep);
            return;
        }
        let before = self.cache.stats().entries;
        if before == 0 {
            return;
        }
        let token = rec.enter(nalist_obs::site::CACHE_EVICT, before);
        let (retained, evicted) = self.cache.retain(keep);
        rec.add(Counter::CacheRetained, retained);
        rec.add(Counter::CacheEvicted, evicted);
        rec.exit(token, evicted);
    }

    /// Drops every cached basis. This is the pre-incremental behaviour
    /// of `Σ` edits, kept public as the cold-cache baseline for
    /// benchmarks and tests.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Cache-effectiveness counters for this reasoner (clones restart
    /// from zero).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The stable id of each `compiled_sigma()[i]`, parallel to
    /// [`Reasoner::compiled_sigma`].
    /// Ids are handed out by [`Reasoner::add`] and never reused, so they
    /// survive arbitrary interleavings of adds and removals — the
    /// property persistence (`membership::persist`) is keyed on.
    pub fn dep_ids(&self) -> &[u64] {
        &self.ids
    }

    /// The id the next [`Reasoner::add`] will assign.
    pub fn next_dep_id(&self) -> u64 {
        self.next_id
    }

    /// Runs `visit` on every live cache entry — LHS key and packed
    /// basis — sorted by LHS, so the visit is deterministic regardless of
    /// hash order. This is the warm state a snapshot persists. The cache
    /// stays locked while `visit` runs, so the entries are read in place,
    /// not copied.
    pub fn with_cache_entries<T>(&self, visit: impl FnOnce(&[(&AtomSet, &PackedBasis)]) -> T) -> T {
        let state = self.cache.lock();
        let mut entries: Vec<(&AtomSet, &PackedBasis)> = state.map.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        visit(&entries)
    }

    /// Rebuilds a reasoner from persisted parts: the algebra of its
    /// schema, `Σ` as compiled pairs over that algebra with *pinned*
    /// stable ids, the id counter, and previously warm cache entries in
    /// strictly ascending LHS order (inserted verbatim — no eviction
    /// sweep, no hit or miss), so the result is bit-identical to the
    /// reasoner that was persisted. The entries go through the
    /// [`MAX_CACHE_BYTES`] bound like any insert: a persisted cache
    /// within it is kept whole, and one past it keeps what inserting in
    /// ascending order keeps.
    ///
    /// Everything is validated: this entry point accepts bytes that
    /// merely passed a checksum, which guards against accidental
    /// corruption but not against a well-formed file encoding broken
    /// invariants.
    pub fn restore_parts(
        alg: Algebra,
        sigma: Vec<(u64, CompiledDep)>,
        next_id: u64,
        cache: Vec<(AtomSet, PackedBasis)>,
        rec: Arc<dyn Recorder>,
    ) -> Result<Self, RestoreError> {
        let mut r = Reasoner::over(alg, rec);
        let mut prev: Option<u64> = None;
        for (id, c) in sigma {
            if prev.is_some_and(|p| p >= id) {
                return Err(RestoreError::Invalid(
                    "dependency ids are not strictly ascending".to_string(),
                ));
            }
            if id >= next_id {
                return Err(RestoreError::Invalid(format!(
                    "dependency id {id} is not below the next-id counter {next_id}"
                )));
            }
            prev = Some(id);
            for (side, set) in [("left", &c.lhs), ("right", &c.rhs)] {
                if r.alg.check_capacity(set).is_err() || !r.alg.is_downward_closed(set) {
                    return Err(RestoreError::Invalid(format!(
                        "dependency id {id}: its {side}-hand side is not a subattribute of the schema"
                    )));
                }
            }
            r.compiled.push(c);
            r.ids.push(id);
        }
        r.next_id = next_id;
        let atoms = r.alg.atom_count();
        let mut prev_lhs: Option<AtomSet> = None;
        for (lhs, entry) in cache {
            for (what, capacity) in [("LHS", lhs.capacity()), ("basis", entry.atoms())] {
                if capacity != atoms {
                    return Err(RestoreError::Invalid(format!(
                        "cache entry {what} is over {capacity} atoms, schema has {atoms}"
                    )));
                }
            }
            if prev_lhs.as_ref().is_some_and(|p| *p >= lhs) {
                return Err(RestoreError::Invalid(
                    "cache entry left-hand sides are not strictly ascending".to_string(),
                ));
            }
            if !r.alg.is_downward_closed(&lhs) {
                return Err(RestoreError::Invalid(
                    "cache entry LHS is not downward closed".to_string(),
                ));
            }
            let mut prev_fired: Option<u64> = None;
            for &id in entry.fired() {
                if prev_fired.is_some_and(|p| p >= id) {
                    return Err(RestoreError::Invalid(
                        "cache entry fired-set is not strictly ascending".to_string(),
                    ));
                }
                prev_fired = Some(id);
                if r.ids.binary_search(&id).is_err() {
                    return Err(RestoreError::Invalid(format!(
                        "cache entry fired on dependency id {id} which is not in Σ"
                    )));
                }
            }
            r.insert_entry(lhs.clone(), entry);
            prev_lhs = Some(lhs);
        }
        Ok(r)
    }

    /// Decides `Σ ⊨ σ` for a compiled pair, using the per-LHS basis
    /// cache, under a resource [`Budget`]. The answer, when one is
    /// returned, is exactly the unbudgeted answer — a starved run yields
    /// [`ClosureError::Resource`], never a wrong verdict, and caches
    /// nothing.
    ///
    /// Like [`Reasoner::implies_batch`], both sides are first checked
    /// against the reasoner's algebra: a set of another width is
    /// [`ClosureError::Algebra`], one that is not downward closed
    /// [`ClosureError::NotDownwardClosed`], and nothing is computed.
    pub fn implies(&self, c: &CompiledDep, budget: &Budget) -> Result<bool, ClosureError> {
        check_downward_closed(&self.alg, &c.lhs)?;
        check_downward_closed(&self.alg, &c.rhs)?;
        Ok(self.implies_unchecked(c, budget)?)
    }

    /// Proposition 4.10 on the cached basis of `c`'s left-hand side, read
    /// in place: a hit allocates nothing and copies nothing. `c` must be
    /// compiled over this reasoner's algebra; its sides are not checked.
    pub(crate) fn implies_unchecked(
        &self,
        c: &CompiledDep,
        budget: &Budget,
    ) -> Result<bool, ResourceExhausted> {
        self.with_basis(&c.lhs, budget, |basis| basis.implies(c))
            .map_err(exhausted)
    }

    /// Decides `Σ ⊨ σ` for every compiled pair in `deps` on `threads`
    /// workers (the calling thread among them), under a shared resource
    /// [`Budget`], with **per-query fault isolation**: a query that
    /// exhausts the budget or panics yields a per-item `Err` while the
    /// rest of the batch completes — graceful degradation, not
    /// all-or-nothing. The result vector is index-aligned with `deps`;
    /// workers share the basis cache, and duplicated left-hand sides are
    /// computed once.
    ///
    /// Before any work, every side of every pair is checked against the
    /// reasoner's algebra: a set of another width is
    /// [`ClosureError::Algebra`], one that is not downward closed
    /// [`ClosureError::NotDownwardClosed`], and nothing is computed.
    /// Pairs read with [`CompiledDep::parse`] over [`Reasoner::algebra`]
    /// always pass.
    pub fn implies_batch(
        &self,
        deps: &[CompiledDep],
        budget: &Budget,
        threads: NonZeroUsize,
    ) -> Result<Vec<Result<bool, QueryError>>, ClosureError> {
        for c in deps {
            check_downward_closed(&self.alg, &c.lhs)?;
            check_downward_closed(&self.alg, &c.rhs)?;
        }
        let groups = self.plan_groups(deps.iter().map(|c| &c.lhs));
        Ok(self.run_planned(&groups, deps, threads, budget))
    }

    /// [`Reasoner::implies_batch`] on tree-level dependencies: each is
    /// compiled first, and one that is not over the reasoner's `N` is
    /// [`ReasonerError::Type`], before any work.
    pub fn implies_batch_governed_with(
        &self,
        deps: &[Dependency],
        budget: &Budget,
        threads: NonZeroUsize,
    ) -> Result<Vec<Result<bool, QueryError>>, ReasonerError> {
        let compiled = deps
            .iter()
            .map(|d| d.compile(&self.alg).map_err(ReasonerError::Type))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self
            .implies_batch(&compiled, budget, threads)
            .expect("pairs compiled over the reasoner's algebra fit it"))
    }

    /// The batch query planner: deduplicates batch items by left-hand
    /// side (each distinct LHS becomes one [`PlanGroup`], computed
    /// exactly once) and orders cache-warm LHSs before cold ones —
    /// warm groups answer instantly, freeing workers and the shared
    /// budget's headroom for the cold groups as early as possible.
    /// Warm/cold ordering is stable by first occurrence, so single-thread
    /// execution is deterministic.
    fn plan_groups<'a>(&self, lhss: impl Iterator<Item = &'a AtomSet>) -> Vec<PlanGroup> {
        let mut index: HashMap<&'a AtomSet, usize> = HashMap::new();
        let mut groups: Vec<PlanGroup> = Vec::new();
        for (i, x) in lhss.enumerate() {
            match index.entry(x) {
                Entry::Occupied(e) => groups[*e.get()].members.push(i),
                Entry::Vacant(v) => {
                    v.insert(groups.len());
                    groups.push(PlanGroup {
                        x: x.clone(),
                        members: vec![i],
                        warm: self.cache.contains(x),
                    });
                }
            }
        }
        let (warm, cold): (Vec<_>, Vec<_>) = groups.into_iter().partition(|g| g.warm);
        warm.into_iter().chain(cold).collect()
    }

    /// Executes a planned batch: workers claim whole groups in plan
    /// order from one shared cursor, compute the group's basis once
    /// (panic- and budget-isolated), then decide every member item on
    /// the packed basis. Per-item slots keep the output index-aligned
    /// with the original batch.
    fn run_planned(
        &self,
        groups: &[PlanGroup],
        compiled: &[CompiledDep],
        threads: NonZeroUsize,
        budget: &Budget,
    ) -> Vec<Result<bool, QueryError>> {
        let slots: Vec<OnceLock<Result<bool, QueryError>>> =
            (0..compiled.len()).map(|_| OnceLock::new()).collect();
        let rec = self.recorder.as_ref();
        let fill = |g: &PlanGroup| {
            // span per planner group (enter: member count; exit: members
            // answered OK), plus a per-query span and latency histogram
            // when observability is on — all behind one `enabled` check
            // so the unobserved batch path stays timer-free.
            let enabled = rec.enabled();
            let gtoken =
                enabled.then(|| rec.enter(nalist_obs::site::BATCH_GROUP, g.members.len() as u64));
            let gstart = enabled.then(Instant::now);
            let mut ok_members = 0u64;
            // one copy of the packed entry per group, taken out of the
            // cache so the members are evaluated outside the cache lock
            // and the lookup span
            match self.isolated(|| self.with_basis(&g.x, budget, PackedBasis::clone)) {
                Ok(basis) => {
                    for &i in &g.members {
                        let qtoken =
                            enabled.then(|| rec.enter(nalist_obs::site::BATCH_QUERY, i as u64));
                        let qstart = enabled.then(Instant::now);
                        // each answer is also confined per item: a panic
                        // while deriving one member's answer must not take
                        // down its LHS-mates.
                        let r = catch_unwind(AssertUnwindSafe(|| basis.implies(&compiled[i])))
                            .map_err(|payload| QueryError::Panicked {
                                message: panic_message(payload),
                            });
                        let item_ok = r.is_ok();
                        ok_members += u64::from(item_ok);
                        if let (Some(t), Some(start)) = (qtoken, qstart) {
                            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                            rec.observe(Hist::QueryNs, ns);
                            rec.add(Counter::BatchQueries, 1);
                            rec.exit(t, u64::from(item_ok));
                        }
                        let filled = slots[i].set(r);
                        debug_assert!(filled.is_ok(), "item {i} claimed twice");
                    }
                }
                Err(e) => {
                    for &i in &g.members {
                        if enabled {
                            rec.add(Counter::BatchQueries, 1);
                        }
                        let filled = slots[i].set(Err(e.clone()));
                        debug_assert!(filled.is_ok(), "item {i} claimed twice");
                    }
                }
            }
            if let (Some(t), Some(start)) = (gtoken, gstart) {
                let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                rec.observe(Hist::GroupNs, ns);
                rec.exit(t, ok_members);
            }
        };
        let workers = threads.get().min(groups.len());
        if rec.enabled() {
            rec.add(Counter::BatchThreads, workers as u64);
        }
        // Which worker runs a group cannot affect its result: each group
        // is claimed exactly once and lands in its own `OnceLock` slots,
        // so batch output is bit-identical to sequential execution. The
        // calling thread drains the cursor alongside the others.
        let cursor = AtomicUsize::new(0);
        let drain = || {
            while let Some(g) = groups.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                fill(g);
            }
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(drain);
            }
            drain();
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("every item belongs to exactly one group")
            })
            .collect()
    }

    /// Runs one batch item with panic confinement: a panicking query
    /// becomes [`QueryError::Panicked`] instead of unwinding through the
    /// worker (the cache tolerates its poisoned lock — see
    /// [`BasisCache`]).
    fn isolated<T>(&self, f: impl FnOnce() -> Result<T, ClosureError>) -> Result<T, QueryError> {
        catch_unwind(AssertUnwindSafe(|| f().map_err(exhausted)))
            .map_err(|payload| QueryError::Panicked {
                message: panic_message(payload),
            })?
            .map_err(QueryError::Resource)
    }

    /// Decides `Σ ⊨ σ` for a dependency written as text, under a
    /// resource [`Budget`]: the budget's `max_depth` also caps the text's
    /// nesting.
    pub fn implies_str(&self, src: &str, budget: &Budget) -> Result<bool, ReasonerError> {
        let c = self.parse_compiled(src, ParseLimits::from_budget(budget))?;
        Ok(self.implies_unchecked(&c, budget)?)
    }

    /// Attribute-set closure `X⁺` of a subattribute given as text.
    pub fn closure_str(&self, src: &str) -> Result<NestedAttr, ReasonerError> {
        let xs = self
            .alg
            .parse_subattr(src, ParseLimits::default())
            .map_err(ReasonerError::Parse)?;
        let b = closure_and_basis(&self.alg, &self.compiled, &xs);
        Ok(self.alg.to_attr(&b.closure))
    }

    /// Full dependency basis for a subattribute `X`. Results are cached
    /// per left-hand side, and `Σ` edits evict only the entries they can
    /// affect, so repeated queries with the same `X` (common in
    /// cover/normal-form workloads) pay once even across edits.
    pub fn dependency_basis(&self, x: &AtomSet) -> DependencyBasis {
        self.dependency_basis_governed(x, &Budget::unlimited())
            .expect("unlimited budget cannot be exhausted and X must be downward closed")
    }

    /// [`Reasoner::dependency_basis`] under a resource [`Budget`]. Only
    /// complete fixpoints are ever cached: a budget-truncated run returns
    /// `Err` without touching the cache, so later (better-funded) queries
    /// can never observe a partial basis. A non-downward-closed `x`
    /// yields [`ClosureError::NotDownwardClosed`] (checked, not just
    /// debug-asserted — this entry point accepts raw atom sets).
    pub fn dependency_basis_governed(
        &self,
        x: &AtomSet,
        budget: &Budget,
    ) -> Result<DependencyBasis, ClosureError> {
        self.with_basis(x, budget, |basis| basis.to_basis(&self.alg))
    }

    /// The one cache access path: runs `read` on the packed basis of `x`
    /// — in place under the cache lock on a hit, so a hit copies nothing
    /// out of the cache unless `read` does; on a miss it runs Algorithm
    /// 5.1, packs `X⁺`, the blocks and the fired ids, runs `read` on
    /// that, and caches it.
    fn with_basis<T>(
        &self,
        x: &AtomSet,
        budget: &Budget,
        read: impl Fn(&PackedBasis) -> T,
    ) -> Result<T, ClosureError> {
        let rec = self.recorder.as_ref();
        if rec.enabled() {
            let token = rec.enter(nalist_obs::site::CACHE_LOOKUP, x.count() as u64);
            let hit = self.cache.get(x, &read);
            let counter = if hit.is_some() {
                Counter::CacheHits
            } else {
                Counter::CacheMisses
            };
            rec.add(counter, 1);
            rec.exit(token, u64::from(hit.is_some()));
            if let Some(hit) = hit {
                return Ok(hit);
            }
        } else if let Some(hit) = self.cache.get(x, &read) {
            return Ok(hit);
        }
        let run = crate::worklist::run(&self.alg, &self.compiled, x, budget, rec)?;
        // `run.fired` indexes Σ in ascending order and ids grow with the
        // index, so the mapped list stays ascending.
        let fired = run.fired.iter().map(|&i| self.ids[i]);
        let entry = PackedBasis::pack(&run.closure, &run.blocks, fired);
        let out = read(&entry);
        self.insert_entry(x.clone(), entry);
        Ok(out)
    }

    /// [`BasisCache::insert`] with the entries a flush drops mirrored
    /// into the recorder's `cache_capacity_evicted` counter.
    fn insert_entry(&self, x: AtomSet, entry: PackedBasis) {
        let flushed = self.cache.insert(x, entry);
        if flushed > 0 {
            self.recorder.add(Counter::CacheCapacityEvicted, flushed);
        }
    }
}

/// Default batch-worker count: one per available CPU (what the
/// `nalist batch` command and the service use when no explicit thread
/// count is given). Falls back to 1 when the platform
/// cannot report its parallelism.
pub fn default_batch_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// One deduplicated unit of planned batch work: a distinct left-hand
/// side and the indices of every batch item that shares it.
struct PlanGroup {
    x: AtomSet,
    members: Vec<usize>,
    /// Was `x` cached when the batch was planned? Warm groups are
    /// planned before cold ones.
    warm: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_algebra::AlgebraError;
    use nalist_types::parser::parse_attr;

    #[test]
    fn reasoner_end_to_end() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(B) ->> L(C)").unwrap();
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
        assert!(r
            .implies_str("L(A) ->> L(B)", &Budget::unlimited())
            .unwrap());
        assert!(!r.implies_str("L(B) -> L(A)", &Budget::unlimited()).unwrap());
        assert_eq!(r.closure_str("L(A)").unwrap().to_string(), "L(A, B, λ)");
        assert_eq!(r.compiled_sigma().len(), 2);
    }

    #[test]
    fn equivalence_of_fd_and_derived_mvd() {
        // FD implies MVD (implication rule), checked through the decision
        // procedure rather than the rules.
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B, C)").unwrap();
        assert!(r
            .implies_str("L(A) ->> L(B)", &Budget::unlimited())
            .unwrap());
        assert!(r
            .implies_str("L(A) ->> L(C)", &Budget::unlimited())
            .unwrap());
    }

    #[test]
    fn parse_errors_surface() {
        let n = parse_attr("L(A, B)").unwrap();
        let mut r = Reasoner::new(&n);
        assert!(matches!(
            r.add_str("L(Z) -> L(A)"),
            Err(ReasonerError::Parse(_))
        ));
        assert!(matches!(
            r.implies_str("garbage", &Budget::unlimited()),
            Err(ReasonerError::Parse(_))
        ));
    }

    #[test]
    fn basis_cache_invalidated_on_add() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        // query once (fills the cache), then change Σ and re-query
        assert!(!r.implies_str("L(A) -> L(C)", &Budget::unlimited()).unwrap());
        r.add_str("L(B) -> L(C)").unwrap();
        assert!(r.implies_str("L(A) -> L(C)", &Budget::unlimited()).unwrap());
        // repeated queries hit the cache and stay consistent
        for _ in 0..3 {
            assert!(r.implies_str("L(A) -> L(C)", &Budget::unlimited()).unwrap());
        }
        // clones carry a deep copy of the cache and remain independent
        let r2 = r.clone();
        assert!(r2
            .implies_str("L(A) -> L(C)", &Budget::unlimited())
            .unwrap());
    }

    #[test]
    fn reasoner_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Reasoner>();
    }

    #[test]
    fn cloned_reasoner_shares_no_stale_cache_state() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        // warm the original's cache for LHS = L(A)
        assert!(!r.implies_str("L(A) -> L(C)", &Budget::unlimited()).unwrap());
        let mut r2 = r.clone();
        // diverge the clone's Σ — this must invalidate only ITS cache...
        r2.add_str("L(B) -> L(C)").unwrap();
        assert!(r2
            .implies_str("L(A) -> L(C)", &Budget::unlimited())
            .unwrap());
        // ...and the original must not observe the clone's entries
        assert!(!r.implies_str("L(A) -> L(C)", &Budget::unlimited()).unwrap());
        // the mirror-image direction: mutate the original instead
        r.add_str("L(A) -> L(C)").unwrap();
        assert!(r.implies_str("L(A) -> L(C)", &Budget::unlimited()).unwrap());
        assert_eq!(r2.compiled_sigma().len(), 2);
        assert!(!r2
            .implies_str("L(B) -> L(A)", &Budget::unlimited())
            .unwrap());
    }

    /// [`Reasoner::implies`] on a tree-level dependency over `r`'s schema.
    fn implies(r: &Reasoner, d: &Dependency, budget: &Budget) -> Result<bool, ClosureError> {
        r.implies(&d.compile(r.algebra()).unwrap(), budget)
    }

    /// The verdicts of an unlimited batch, every item answered.
    fn batch(r: &Reasoner, deps: &[Dependency], threads: usize) -> Vec<bool> {
        r.implies_batch_governed_with(
            deps,
            &Budget::unlimited(),
            NonZeroUsize::new(threads).unwrap(),
        )
        .unwrap()
        .into_iter()
        .map(Result::unwrap)
        .collect()
    }

    #[test]
    fn implies_batch_agrees_with_sequential() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        r.add_str("A'(C[λ]) -> A'(B)").unwrap();
        let queries = [
            "A'(B) -> A'(C[λ])",
            "A'(B) ->> A'(C[D(F[λ])])",
            "A'(C[λ]) ->> A'(B, C[D(E)])",
            "A'(B) -> A'(B, C[D(E, F[G])])",
            "λ ->> A'(C[λ])",
            "A'(C[D(E)]) -> A'(B)",
        ];
        let deps: Vec<Dependency> = queries
            .iter()
            .map(|q| Dependency::parse(&n, q).unwrap())
            .collect();
        let sequential: Vec<bool> = deps
            .iter()
            .map(|d| implies(&r, d, &Budget::unlimited()).unwrap())
            .collect();
        for threads in [1, 2, 4] {
            assert_eq!(batch(&r, &deps, threads), sequential, "threads = {threads}");
        }
    }

    #[test]
    fn implies_batch_fails_fast_on_bad_input() {
        let n = parse_attr("L(A, B)").unwrap();
        let r = Reasoner::new(&n);
        let good = Dependency::parse(&n, "L(A) -> L(B)").unwrap();
        let m = parse_attr("M(C)").unwrap();
        let foreign = Dependency::parse(&m, "M(C) -> M(C)").unwrap();
        assert!(matches!(
            r.implies_batch_governed_with(
                &[good, foreign],
                &Budget::unlimited(),
                NonZeroUsize::MIN
            ),
            Err(ReasonerError::Type(_))
        ));
    }

    /// A compiled pair that does not fit the reasoner's algebra is a
    /// typed error before any closure runs: no verdict, no panic and no
    /// per-item `QueryError`, and the cache sees no lookup.
    #[test]
    fn compiled_batch_rejects_pairs_outside_the_algebra_before_any_work() {
        let n = parse_attr("L(A, B[C])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B[λ])").unwrap();
        let good =
            CompiledDep::parse(r.algebra(), "L(A) -> L(B[λ])", ParseLimits::default()).unwrap();
        let wide = Reasoner::new(&parse_attr("L(A, B[C], D)").unwrap());
        let foreign =
            CompiledDep::parse(wide.algebra(), "L(A) -> L(D)", ParseLimits::default()).unwrap();
        // atoms of L(A, B[C]): A 0, B 1, C 2; {C} lacks its list B
        let open = AtomSet::from_indices(3, [2]);
        let not_closed = CompiledDep::fd(open.clone(), good.rhs.clone());
        let open_rhs = CompiledDep::mvd(good.lhs.clone(), open);
        for (pairs, want) in [
            (
                vec![good.clone(), foreign],
                ClosureError::Algebra(AlgebraError::CapacityMismatch { have: 4, want: 3 }),
            ),
            (
                vec![good.clone(), not_closed],
                ClosureError::NotDownwardClosed { atom: 2 },
            ),
            (
                vec![open_rhs, good.clone()],
                ClosureError::NotDownwardClosed { atom: 2 },
            ),
        ] {
            let before = r.cache_stats();
            for threads in [1, 2] {
                let got = r.implies_batch(
                    &pairs,
                    &Budget::unlimited(),
                    NonZeroUsize::new(threads).unwrap(),
                );
                assert_eq!(got, Err(want), "threads = {threads}");
            }
            assert_eq!(r.cache_stats(), before);
        }
        let verdicts = r.implies_batch(&[good], &Budget::unlimited(), NonZeroUsize::MIN);
        assert_eq!(verdicts, Ok(vec![Ok(true)]));
        assert_eq!(r.cache_stats().misses, 1);
    }

    /// The single compiled query checks both sides as the batch does: a
    /// pair from a wider algebra and one whose left side is not downward
    /// closed are typed errors before any closure runs.
    #[test]
    fn compiled_query_rejects_pairs_outside_the_algebra_before_any_work() {
        let n = parse_attr("L(A, B[C])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B[λ])").unwrap();
        let good =
            CompiledDep::parse(r.algebra(), "L(A) -> L(B[λ])", ParseLimits::default()).unwrap();
        let wide = Reasoner::new(&parse_attr("L(A, B[C], D)").unwrap());
        let foreign =
            CompiledDep::parse(wide.algebra(), "L(A) -> L(D)", ParseLimits::default()).unwrap();
        // atoms of L(A, B[C]): A 0, B 1, C 2; {C} lacks its list B
        let not_closed = CompiledDep::fd(AtomSet::from_indices(3, [2]), good.rhs.clone());
        let unlimited = Budget::unlimited();
        assert_eq!(
            r.implies(&foreign, &unlimited),
            Err(ClosureError::Algebra(AlgebraError::CapacityMismatch {
                have: 4,
                want: 3
            }))
        );
        assert_eq!(
            r.implies(&not_closed, &unlimited),
            Err(ClosureError::NotDownwardClosed { atom: 2 })
        );
        assert_eq!(r.cache_stats().misses, 0);
        assert_eq!(r.implies(&good, &unlimited), Ok(true));
        assert_eq!(r.cache_stats().misses, 1);
    }

    /// One query per left-hand side in `lhss`, each `X -> λ`, over
    /// `L(A, B, C, D)` with `A ->> B` and `B -> C`.
    fn lhs_queries(lhss: &[&str]) -> (Reasoner, Vec<Dependency>) {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) ->> L(B)").unwrap();
        r.add_str("L(B) -> L(C)").unwrap();
        let deps = lhss
            .iter()
            .map(|x| Dependency::parse(&n, &format!("{x} -> λ")).unwrap())
            .collect();
        (r, deps)
    }

    #[test]
    fn dependency_basis_batch_agrees_with_sequential() {
        // the bases a batch caches are the ones sequential queries compute
        let (r, deps) = lhs_queries(&["λ", "L(A)", "L(B)", "L(A, D)"]);
        let lhss: Vec<AtomSet> = deps
            .iter()
            .map(|d| d.compile(r.algebra()).unwrap().lhs)
            .collect();
        let sequential: Vec<DependencyBasis> = lhss.iter().map(|x| r.dependency_basis(x)).collect();
        for threads in [1, 3] {
            let warmed = r.clone();
            warmed.clear_cache();
            batch(&warmed, &deps, threads);
            let cached: Vec<DependencyBasis> =
                lhss.iter().map(|x| warmed.dependency_basis(x)).collect();
            assert_eq!(cached, sequential, "threads = {threads}");
            let stats = warmed.cache_stats();
            assert_eq!((stats.misses, stats.hits), (4, 4), "threads = {threads}");
        }
    }

    #[test]
    fn batch_planner_computes_each_distinct_lhs_once() {
        // Regression for the duplicate-LHS double-compute race: before
        // the planner, two workers racing on the same cold LHS both ran
        // Algorithm 5.1 (the cache lock is dropped during compute). The
        // planner folds equal LHSs into one group, so `misses` — which
        // counts full basis computations — must equal the number of
        // *distinct* LHSs at any thread count.
        let (r, deps) = lhs_queries(&["L(A)", "L(B)", "L(A)", "L(A)", "L(B)", "L(A)"]);
        for threads in [1, 4] {
            let fresh = r.clone();
            fresh.clear_cache();
            assert_eq!(batch(&fresh, &deps, threads), vec![true; deps.len()]);
            let stats = fresh.cache_stats();
            assert_eq!(
                stats.misses, 2,
                "threads = {threads}: each distinct LHS computed exactly once"
            );
            assert_eq!(stats.entries, 2, "threads = {threads}");
        }
    }

    #[test]
    fn clone_carries_warm_cache() {
        // Regression: `Reasoner::clone` used to silently drop every
        // cached basis. The clone must answer warm LHSs without any new
        // basis computation.
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
        let warmed = r.cache_stats();
        assert_eq!((warmed.misses, warmed.entries), (1, 1));
        let r2 = r.clone();
        // stats restart on the clone, but the entries came along
        assert_eq!(r2.cache_stats().entries, 1);
        assert!(r2
            .implies_str("L(A) -> L(B)", &Budget::unlimited())
            .unwrap());
        let after = r2.cache_stats();
        assert_eq!(after.misses, 0, "warm query on the clone recomputed");
        assert_eq!(after.hits, 1);
    }

    #[test]
    fn add_evicts_only_affected_entries() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        // warm two entries: LHS = L(A) (closure {A, B, λ}) and LHS = L(C)
        // (closure {C, λ})
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
        assert!(!r.implies_str("L(C) -> L(D)", &Budget::unlimited()).unwrap());
        assert_eq!(r.cache_stats().entries, 2);
        // C -> D fires at the L(C) entry but is a no-op at the L(A)
        // entry (C is not in {A, B}⁺), so exactly one entry survives
        r.add_str("L(C) -> L(D)").unwrap();
        let stats = r.cache_stats();
        assert_eq!(stats.entries, 1, "only the affected entry evicted");
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.retained, 1);
        // the survivor still answers correctly without recomputation...
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
        assert_eq!(r.cache_stats().misses, 2, "surviving entry was a hit");
        // ...and the evicted LHS reflects the new Σ
        assert!(r.implies_str("L(C) -> L(D)", &Budget::unlimited()).unwrap());
    }

    #[test]
    fn cache_bytes_track_inserts_evictions_and_clears() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        assert_eq!(r.cache_stats().bytes, 0);
        // L(A): X⁺ {A, B}, blocks {A} {B} {C, D}, fired [0] — 5 words;
        // L(C): X⁺ {C}, blocks {C} {A, B, D}, nothing fired — 3 words
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
        assert!(!r.implies_str("L(C) -> L(D)", &Budget::unlimited()).unwrap());
        let sum = |r: &Reasoner| {
            r.with_cache_entries(|es| es.iter().map(|(_, e)| e.bytes()).sum::<u64>())
        };
        assert_eq!(r.cache_stats().bytes, 8 * (5 + 3));
        assert_eq!(sum(&r), 8 * (5 + 3));
        // a hit changes nothing; the add evicts the L(C) entry only
        assert!(r
            .implies_str("L(A) ->> L(B)", &Budget::unlimited())
            .unwrap());
        r.add_str("L(C) -> L(D)").unwrap();
        assert_eq!(r.cache_stats().bytes, 8 * 5);
        // a remove that fired in the survivor evicts it
        assert!(r.implies_str("L(C) -> L(D)", &Budget::unlimited()).unwrap());
        let warm = r.cache_stats().bytes;
        assert_eq!(
            r.clone().cache_stats().bytes,
            warm,
            "clones carry the bytes"
        );
        r.remove_at(0);
        assert_eq!(r.cache_stats().bytes, sum(&r));
        assert!(r.cache_stats().bytes < warm);
        r.clear_cache();
        assert_eq!(r.cache_stats().bytes, 0);
        assert_eq!(r.cache_stats().entries, 0);
    }

    /// `R(A, …, P)`: a flat record over 16 atoms, so every subset of
    /// them is a left-hand side.
    fn flat16() -> NestedAttr {
        let names: Vec<String> = ('A'..='P').map(String::from).collect();
        parse_attr(&format!("R({})", names.join(", "))).unwrap()
    }

    /// The atoms of [`flat16`] whose bits `mask` sets.
    fn atoms_of(mask: u32) -> AtomSet {
        AtomSet::from_indices(16, (0..16).filter(|i| mask >> i & 1 == 1))
    }

    /// A synthetic entry over `atoms` atoms whose run is `words` zero
    /// words: `X⁺` and `words - 1` blocks, no fired ids.
    fn entry_of(atoms: u32, words: usize) -> PackedBasis {
        PackedBasis::from_run(atoms, vec![0; words], words as u32 - 1).unwrap()
    }

    #[test]
    fn flush_leaves_exact_entries_bytes_and_capacity_evictions() {
        // with Σ empty, a 6-atom LHS of a flat record packs X⁺, six
        // singleton blocks and the complement: 8 words, 64 bytes, so 4096
        // entries fill the bound exactly
        let n = flat16();
        let lhss: Vec<AtomSet> = (0u32..1 << 16)
            .filter(|m| m.count_ones() == 6)
            .map(atoms_of)
            .collect();
        let rec = Arc::new(nalist_obs::MetricsRecorder::new());
        let r = Reasoner::try_new(&n, &Budget::unlimited(), rec.clone()).unwrap();
        assert_eq!(r.algebra().atom_count(), 16);
        let per_entry = 64;
        let fill = (MAX_CACHE_BYTES / per_entry) as usize;
        for x in &lhss[..fill] {
            r.dependency_basis(x);
        }
        let full = r.cache_stats();
        assert_eq!(full.entries, fill as u64);
        assert_eq!(
            full.bytes, MAX_CACHE_BYTES,
            "reaching the bound is no flush"
        );
        assert_eq!(full.capacity_evicted, 0);
        // one more entry would pass the bound: all 4096 go, it stays
        r.dependency_basis(&lhss[fill]);
        let stats = r.cache_stats();
        assert_eq!(
            (stats.entries, stats.bytes, stats.capacity_evicted),
            (1, per_entry, fill as u64)
        );
        assert_eq!(stats.evicted, 0, "a flush is not an edit eviction");
        assert_eq!(stats.misses, fill as u64 + 1);
        assert_eq!(
            rec.counter(Counter::CacheCapacityEvicted),
            stats.capacity_evicted
        );
        // the flushed entries recompute to the same bases
        let fresh = Reasoner::new(&n);
        assert_eq!(
            r.dependency_basis(&lhss[0]),
            fresh.dependency_basis(&lhss[0])
        );
    }

    #[test]
    fn concurrent_inserts_never_pass_the_bound() {
        // 64-byte entries, so 4096 fill the bound; eight threads insert
        // distinct keys and read the byte total after every insert
        let cache = BasisCache::default();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let key = t << 32 | i;
                        let x = AtomSet::from_indices(64, (0..64).filter(|b| key >> b & 1 == 1));
                        cache.insert(x, entry_of(64, 8));
                        let stats = cache.stats();
                        assert!(stats.bytes <= MAX_CACHE_BYTES, "{stats:?}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.bytes, 64 * stats.entries);
        assert_eq!(stats.entries + stats.capacity_evicted, 80_000);
    }

    #[test]
    fn an_entry_past_the_bound_is_cached_alone() {
        let cache = BasisCache::default();
        let key = |i: usize| AtomSet::from_indices(64, [i]);
        let oversized = (MAX_CACHE_BYTES / 8) as usize + 1;
        for i in 0..4 {
            assert_eq!(cache.insert(key(i), entry_of(64, 8)), 0);
        }
        // the oversized entry flushes the four and stays, alone
        assert_eq!(cache.insert(key(10), entry_of(64, oversized)), 4);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.bytes),
            (1, MAX_CACHE_BYTES + 8),
            "{stats:?}"
        );
        // anything after it flushes it
        assert_eq!(cache.insert(key(11), entry_of(64, 8)), 1);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.bytes, stats.capacity_evicted),
            (1, 64, 5)
        );
    }

    #[test]
    fn restore_past_the_bound_keeps_what_ascending_inserts_keep() {
        // entries of 1 to 1500 words, about three bounds' worth in all
        let mut lhss: Vec<AtomSet> = (1u32..=150).map(atoms_of).collect();
        lhss.sort_unstable();
        let entries: Vec<(AtomSet, PackedBasis)> = lhss
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x, entry_of(16, 1 + i * 7919 % 1500)))
            .collect();
        // the rule on its own: flush whenever the next entry would pass
        let (mut kept, mut held, mut flushed) = (Vec::new(), 0, 0);
        for (x, e) in &entries {
            if held + e.bytes() > MAX_CACHE_BYTES {
                flushed += kept.len() as u64;
                kept.clear();
                held = 0;
            }
            kept.push(x.clone());
            held += e.bytes();
        }
        assert!(flushed > 0, "the entries must pass the bound");
        let r = Reasoner::restore_parts(
            Algebra::new(&flat16()),
            Vec::new(),
            0,
            entries,
            Arc::new(nalist_obs::NoopRecorder),
        )
        .unwrap();
        let live: Vec<AtomSet> =
            r.with_cache_entries(|es| es.iter().map(|(x, _)| (*x).clone()).collect());
        assert_eq!(live, kept);
        let stats = r.cache_stats();
        assert_eq!(
            (stats.entries, stats.bytes, stats.capacity_evicted),
            (kept.len() as u64, held, flushed)
        );
    }

    #[test]
    fn restore_rejects_sides_outside_the_schema() {
        let n = parse_attr("L(A, M[B])").unwrap();
        let restore = |c: CompiledDep| {
            Reasoner::restore_parts(
                Algebra::new(&n),
                vec![(0, c)],
                1,
                Vec::new(),
                Arc::new(nalist_obs::NoopRecorder),
            )
            .map(|r| r.compiled_sigma().to_vec())
        };
        // atoms: A 0, M 1, B 2; B alone is not downward closed
        let ok = CompiledDep::fd(
            AtomSet::from_indices(3, [0]),
            AtomSet::from_indices(3, [1, 2]),
        );
        assert_eq!(restore(ok.clone()), Ok(vec![ok]));
        for bad in [
            CompiledDep::fd(AtomSet::from_indices(3, [0]), AtomSet::from_indices(3, [2])),
            CompiledDep::mvd(AtomSet::from_indices(4, [0]), AtomSet::empty(3)),
        ] {
            assert!(matches!(restore(bad), Err(RestoreError::Invalid(_))));
        }
    }

    #[test]
    fn remove_evicts_only_entries_the_dependency_fired_in() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(C) -> L(D)").unwrap();
        // L(A): only A -> B fires; L(C): only C -> D fires
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
        assert!(r.implies_str("L(C) -> L(D)", &Budget::unlimited()).unwrap());
        assert_eq!(r.cache_stats().entries, 2);
        // removing C -> D must keep the L(A) entry
        assert!(r.remove_str("L(C) -> L(D)").unwrap());
        assert_eq!(r.compiled_sigma().len(), 1);
        let stats = r.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evicted, 1);
        // answers track the edited Σ
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
        assert!(!r.implies_str("L(C) -> L(D)", &Budget::unlimited()).unwrap());
        // removing something absent is reported, not an error
        assert!(!r.remove_str("L(C) -> L(D)").unwrap());
        assert!(r.remove_str("L(A) -> L(B)").unwrap());
        assert!(r.compiled_sigma().is_empty());
        assert!(!r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap());
    }

    #[test]
    fn add_then_remove_round_trips_to_identical_answers() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        r.add_str("A'(C[λ]) -> A'(B)").unwrap();
        let queries = [
            "A'(B) -> A'(C[λ])",
            "A'(B) ->> A'(C[D(F[λ])])",
            "A'(C[λ]) ->> A'(B, C[D(E)])",
            "A'(C[D(E)]) -> A'(B)",
        ];
        let before: Vec<bool> = queries
            .iter()
            .map(|q| r.implies_str(q, &Budget::unlimited()).unwrap())
            .collect();
        r.add_str("A'(B) -> A'(C[D(E, F[G])])").unwrap();
        assert!(r.remove_str("A'(B) -> A'(C[D(E, F[G])])").unwrap());
        let after: Vec<bool> = queries
            .iter()
            .map(|q| r.implies_str(q, &Budget::unlimited()).unwrap())
            .collect();
        assert_eq!(before, after);
        // and the bases themselves are bit-identical to a fresh build
        let mut fresh = Reasoner::new(&n);
        fresh.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        fresh.add_str("A'(C[λ]) -> A'(B)").unwrap();
        for q in &queries {
            let dep = Dependency::parse(&n, q).unwrap();
            let c = dep.compile(r.algebra()).unwrap();
            assert_eq!(r.dependency_basis(&c.lhs), fresh.dependency_basis(&c.lhs));
        }
    }

    /// Runs `f` with the default panic hook silenced, so intentionally
    /// injected panics don't spray backtraces over test output.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn governed_implies_never_wrong_only_starved() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        r.add_str("A'(C[λ]) -> A'(B)").unwrap();
        let dep = Dependency::parse(&n, "A'(B) -> A'(C[λ])").unwrap();
        let truth = implies(&r, &dep, &Budget::unlimited()).unwrap();
        for fuel in 0..20 {
            // fresh reasoner per fuel level so the cache can't answer
            let mut fresh = Reasoner::new(&n);
            fresh.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
            fresh.add_str("A'(C[λ]) -> A'(B)").unwrap();
            let b = Budget::unlimited().with_fuel(fuel);
            match implies(&fresh, &dep, &b) {
                Ok(answer) => assert_eq!(answer, truth, "fuel = {fuel}"),
                Err(ClosureError::Resource(e)) => {
                    assert_eq!(e.kind, nalist_guard::ResourceKind::Fuel, "fuel = {fuel}");
                }
                Err(other) => panic!("unexpected error at fuel {fuel}: {other}"),
            }
        }
    }

    #[test]
    fn governed_cache_never_holds_partial_results() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(B) -> L(C)").unwrap();
        let dep = Dependency::parse(&n, "L(A) -> L(C)").unwrap();
        // starve a query: it must NOT leave a truncated basis behind
        let starved = Budget::unlimited().with_fuel(1);
        assert!(matches!(
            implies(&r, &dep, &starved),
            Err(ClosureError::Resource(_))
        ));
        // the same reasoner answers correctly afterwards
        assert!(implies(&r, &dep, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn poisoned_batch_item_degrades_gracefully() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(B) ->> L(C)").unwrap();
        let queries = [
            "L(A) -> L(B)",
            "L(B) -> L(A)",
            "L(A) ->> L(C)",
            "L(A) -> L(D)",
        ];
        let deps: Vec<Dependency> = queries
            .iter()
            .map(|q| Dependency::parse(&n, q).unwrap())
            .collect();
        let expected: Vec<bool> = deps
            .iter()
            .map(|d| implies(&r, d, &Budget::unlimited()).unwrap())
            .collect();
        // Inject a panic into the closure computation with 0-based hit
        // index 1. The planner folds the LHSs A, B, A, A into two cold
        // groups (A with three members, B with one); the second group to
        // reach the failpoint poisons all of its members: with threads=1
        // that is deterministically the B group (1 item), with threads=4
        // the two groups race, so either 1 (B lost) or 3 (A lost) items
        // report the confined panic.
        for threads in [1, 4] {
            let fresh = r.clone();
            // the clone carries r's warm cache; start cold so the
            // failpoint inside the closure computation is reachable
            fresh.clear_cache();
            let b = Budget::unlimited().with_failpoint(nalist_guard::FailPoint::nth(
                "membership::closure",
                1,
                nalist_guard::FailAction::Panic,
            ));
            let items = quiet_panics(|| {
                fresh
                    .implies_batch_governed_with(&deps, &b, NonZeroUsize::new(threads).unwrap())
                    .unwrap()
            });
            assert_eq!(items.len(), deps.len());
            let panicked = items
                .iter()
                .filter(|r| matches!(r, Err(QueryError::Panicked { .. })))
                .count();
            if threads == 1 {
                assert_eq!(panicked, 1, "threads = 1: exactly the L(B) group poisoned");
            } else {
                assert!(
                    panicked == 1 || panicked == 3,
                    "threads = {threads}: exactly one group poisoned, got {panicked} items"
                );
            }
            for (i, item) in items.iter().enumerate() {
                if let Ok(answer) = item {
                    assert_eq!(*answer, expected[i], "threads = {threads}, item {i}");
                }
                if let Err(QueryError::Panicked { message }) = item {
                    assert!(
                        message.contains(nalist_guard::INJECTED_PANIC),
                        "panic message should carry the injection marker: {message}"
                    );
                }
            }
            // cache survives the worker panic: same reasoner still works
            for (d, want) in deps.iter().zip(&expected) {
                assert_eq!(implies(&fresh, d, &Budget::unlimited()).unwrap(), *want);
            }
        }
    }

    #[test]
    fn non_string_panic_payload_keeps_its_type_name() {
        // Regression: the batch rethrow used to collapse every
        // `panic_any` payload into "non-string panic payload". The typed
        // InjectedPanic payload must surface with its type name and site.
        let n = parse_attr("L(A, B)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        let deps = vec![Dependency::parse(&n, "L(A) -> L(B)").unwrap()];
        let b = Budget::unlimited().with_failpoint(nalist_guard::FailPoint::every(
            "membership::closure",
            nalist_guard::FailAction::PanicPayload,
        ));
        let items = quiet_panics(|| {
            r.implies_batch_governed_with(&deps, &b, NonZeroUsize::MIN)
                .unwrap()
        });
        match &items[0] {
            Err(QueryError::Panicked { message }) => {
                assert!(
                    message.contains("InjectedPanic"),
                    "type name preserved: {message}"
                );
                assert!(
                    message.contains("membership::closure"),
                    "site preserved: {message}"
                );
            }
            other => panic!("expected a confined typed panic, got {other:?}"),
        }
    }

    #[test]
    fn unknown_panic_payloads_carry_a_type_id() {
        let payload: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        let message = super::panic_message(payload);
        assert!(message.contains("non-string panic payload of type"));
        // distinct types render distinct messages
        let other = super::panic_message(Box::new(42_u64));
        assert_ne!(message, other);
    }

    #[test]
    fn raw_atom_set_entry_points_reject_non_downward_closed_input() {
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("K[λ] ->> K[L(C)]").unwrap();
        // atom 1 (the inner list M) without its ancestor K (atom 0)
        let bad = AtomSet::from_indices(5, [1]);
        assert!(matches!(
            r.dependency_basis_governed(&bad, &Budget::unlimited()),
            Err(ClosureError::NotDownwardClosed { atom: 1 })
        ));
    }

    #[test]
    fn raw_atom_set_entry_points_reject_foreign_capacity_input() {
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("K[λ] ->> K[L(C)]").unwrap();
        // a set from some other universe: 7 atoms instead of 5
        let foreign = AtomSet::from_indices(7, [0, 1]);
        assert!(matches!(
            r.dependency_basis_governed(&foreign, &Budget::unlimited()),
            Err(ClosureError::Algebra(AlgebraError::CapacityMismatch {
                have: 7,
                want: 5,
            }))
        ));
    }

    #[test]
    fn observed_reasoner_mirrors_cache_traffic() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let rec = Arc::new(nalist_obs::MetricsRecorder::new());
        let mut r = Reasoner::try_new(&n, &Budget::unlimited(), rec.clone()).unwrap();
        r.add_str("L(A) -> L(B)").unwrap();
        assert!(r.implies_str("L(A) -> L(B)", &Budget::unlimited()).unwrap()); // miss
        assert!(r
            .implies_str("L(A) ->> L(B)", &Budget::unlimited())
            .unwrap()); // hit
        assert_eq!(rec.counter(Counter::CacheMisses), 1);
        assert_eq!(rec.counter(Counter::CacheHits), 1);
        assert!(rec.counter(Counter::DepsFired) >= 1);
        // an edit's eviction sweep is mirrored too
        r.add_str("L(B) -> L(C)").unwrap();
        assert_eq!(
            rec.counter(Counter::CacheEvicted) + rec.counter(Counter::CacheRetained),
            1,
            "the one cached entry was either evicted or retained"
        );
        // recorded counters agree with CacheStats where they overlap
        let stats = r.cache_stats();
        assert_eq!(rec.counter(Counter::CacheHits), stats.hits);
        assert_eq!(rec.counter(Counter::CacheMisses), stats.misses);
    }

    #[test]
    fn batch_budget_starvation_is_per_item_not_all_or_nothing() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        let deps: Vec<Dependency> = ["L(A) -> L(B)", "L(B) -> L(A)", "L(C) ->> L(B)"]
            .iter()
            .map(|q| Dependency::parse(&n, q).unwrap())
            .collect();
        // one unit of fuel covers exactly the first closure (one worklist
        // step); the later distinct-LHS items starve but still get
        // individual answers
        let b = Budget::unlimited().with_fuel(1);
        let items = r
            .implies_batch_governed_with(&deps, &b, NonZeroUsize::MIN)
            .unwrap();
        assert!(items[0].is_ok());
        assert!(items
            .iter()
            .any(|i| matches!(i, Err(QueryError::Resource(_)))));
    }

    #[test]
    fn try_new_respects_atom_cap() {
        let n = parse_attr("L(A, B, C, D, E)").unwrap();
        let b = Budget::unlimited().with_max_atoms(3);
        let noop = || Arc::new(nalist_obs::NoopRecorder);
        let err = Reasoner::try_new(&n, &b, noop()).unwrap_err();
        assert_eq!(err.kind, nalist_guard::ResourceKind::Atoms);
        assert!(Reasoner::try_new(&n, &Budget::unlimited().with_max_atoms(5), noop()).is_ok());
    }

    #[test]
    fn governed_string_helpers_agree_with_ungoverned() {
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
            .unwrap();
        let roomy = Budget::unlimited().with_fuel(1_000_000);
        let q = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
        assert_eq!(
            r.implies_str(q, &roomy).unwrap(),
            r.implies_str(q, &Budget::unlimited()).unwrap()
        );
        // the budget's max_depth also guards the query text
        let shallow = Budget::unlimited().with_max_depth(1);
        assert!(matches!(
            r.implies_str(q, &shallow),
            Err(ReasonerError::Parse(
                nalist_types::error::ParseError::TooDeep { .. }
            ))
        ));
    }

    #[test]
    fn trivial_dependencies_always_implied() {
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let r = Reasoner::new(&n);
        assert!(r
            .implies_str("Pubcrawl(Person) -> λ", &Budget::unlimited())
            .unwrap());
        assert!(r
            .implies_str("Pubcrawl(Person) -> Pubcrawl(Person)", &Budget::unlimited())
            .unwrap());
        assert!(r
            .implies_str(
                "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer, Pub)])",
                &Budget::unlimited()
            )
            .unwrap());
        assert!(!r
            .implies_str("λ -> Pubcrawl(Person)", &Budget::unlimited())
            .unwrap());
    }
}
