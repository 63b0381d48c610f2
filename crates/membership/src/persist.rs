//! The reasoner's persistence layer: what the bytes inside a
//! `nalist-store` snapshot and WAL *mean*.
//!
//! The store crate moves opaque, checksummed payloads; this module owns
//! the two payload encodings built on [`nalist_store::binio`]:
//!
//! * **snapshot payload** — the full reasoner state: the schema (round-
//!   trippable text), the algebra identity (`|N|` and width class, as a
//!   cross-check), `Σ` with its *stable dependency ids* plus the next-id
//!   counter, and every warm cache entry written straight from its
//!   packed words ([`PackedBasis`]): the LHS, `X⁺`, the block count and
//!   the blocks as width-exact little-endian words, then the fired ids.
//!   No `DepB(X)` list is stored — it is derived from `X⁺` and the
//!   blocks. The encoding is deterministic (cache entries in strictly
//!   ascending LHS order), so equal reasoners produce byte-equal
//!   payloads — the property the bit-identical-recovery proptests and
//!   the format-stability golden are built on;
//! * **WAL records** — one [`WalOp`] per record: `+`/`-` edits and `?`
//!   queries in the same dependency syntax the CLI accepts, plus a
//!   header record naming the schema. Queries are journaled too:
//!   replaying them reproduces the cache warmth a crash destroyed.
//!
//! [`recover`] composes the two: load the snapshot (surviving cache
//! entries land warm, no recomputation), then [`replay_wal`] the log
//! tail through the ordinary incremental path — the step
//! [`Reasoner::add`] ends in, and [`Reasoner::remove_at`] — so eviction
//! decisions during replay are the same code that made them live, which
//! is what makes recovery bit-identical rather than merely equivalent.
//!
//! The checksums guard against *accidental* corruption (bit rot, torn
//! writes); they are not authentication. A hand-crafted file with a
//! valid CRC but broken invariants is caught by the structural
//! validation in [`Reasoner::restore_parts`] and surfaces as a typed
//! error, never a panic or a wrong answer.

use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::sync::Arc;

use nalist_algebra::{Algebra, AlgebraError, AtomSet, WidthClass};
use nalist_deps::CompiledDep;
use nalist_guard::{Budget, ResourceExhausted};
use nalist_obs::{Counter, Recorder};
use nalist_store::{self as store, StoreError};
use nalist_types::parser::{parse_attr, ParseLimits};

use crate::decide::{Reasoner, ReasonerError, RestoreError};
use crate::packed::PackedBasis;

/// Errors from snapshotting, restoring or recovering a reasoner.
#[derive(Debug)]
pub enum PersistError {
    /// The store layer failed: I/O, corruption, or an unreadable format.
    Store(StoreError),
    /// The payload decoded but encodes an impossible state (schema
    /// mismatch, out-of-range atom index, broken id invariants, a
    /// dependency text that does not parse back, …).
    Invalid(String),
    /// A WAL operation failed to apply during recovery: record `index`
    /// replayed into a reasoner that rejected it.
    Replay {
        /// Zero-based record index in the log.
        index: usize,
        /// Why the reasoner rejected the operation.
        message: String,
    },
    /// The governing [`Budget`] was exhausted.
    Resource(ResourceExhausted),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "{e}"),
            PersistError::Invalid(msg) => write!(f, "invalid persisted state: {msg}"),
            PersistError::Replay { index, message } => {
                write!(f, "WAL record {index} failed to replay: {message}")
            }
            PersistError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Resource(r) => PersistError::Resource(r),
            other => PersistError::Store(other),
        }
    }
}

impl From<ResourceExhausted> for PersistError {
    fn from(e: ResourceExhausted) -> Self {
        PersistError::Resource(e)
    }
}

impl From<RestoreError> for PersistError {
    fn from(e: RestoreError) -> Self {
        match e {
            RestoreError::Invalid(msg) => PersistError::Invalid(msg),
        }
    }
}

fn u32_of(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} count {n} exceeds the u32 format limit"))
}

fn put_words(w: &mut store::Writer, words: &[u64]) {
    for &word in words {
        w.u64(word);
    }
}

/// Appends `count` little-endian words from `r` to `out`.
fn get_words(
    r: &mut store::Reader<'_>,
    count: usize,
    out: &mut Vec<u64>,
) -> Result<(), PersistError> {
    for _ in 0..count {
        out.push(r.u64()?);
    }
    Ok(())
}

fn invalid_set(e: AlgebraError) -> PersistError {
    PersistError::Invalid(format!("cache entry set: {e}"))
}

/// Serializes the full state of `r` as a deterministic snapshot
/// payload: equal reasoners (same schema, `Σ`, ids and warm entries)
/// produce byte-equal payloads. Each dependency's text is rendered from
/// its compiled pair.
pub fn snapshot_payload(r: &Reasoner) -> Vec<u8> {
    let mut w = store::Writer::new();
    let alg = r.algebra();
    let atoms = alg.atom_count();
    w.str(&r.attr().to_string());
    w.u32(u32_of(atoms, "schema atom"));
    w.str(WidthClass::for_capacity(atoms).name());
    w.u64(r.next_dep_id());
    let sigma = r.compiled_sigma();
    w.u32(u32_of(sigma.len(), "dependency"));
    for (dep, id) in sigma.iter().zip(r.dep_ids()) {
        w.u64(*id);
        w.str(&dep.render(alg));
    }
    r.with_cache_entries(|entries| {
        w.u32(u32_of(entries.len(), "cache entry"));
        for (lhs, entry) in entries {
            put_words(&mut w, lhs.words());
            put_words(&mut w, entry.closure());
            w.u32(u32_of(entry.blocks().len(), "block"));
            for block in entry.blocks() {
                put_words(&mut w, block);
            }
            w.u32(u32_of(entry.fired().len(), "fired id"));
            put_words(&mut w, entry.fired());
        }
    });
    w.into_bytes()
}

/// Rebuilds a reasoner from a snapshot payload (the inverse of
/// [`snapshot_payload`]), validating the schema round-trip, the
/// declared algebra identity and every structural invariant. Once the
/// payload has decoded, the algebra is built under `budget` and each
/// dependency text is read straight to its compiled pair
/// ([`CompiledDep::parse`]).
pub fn restore_reasoner(
    payload: &[u8],
    budget: &Budget,
    rec: Arc<dyn Recorder>,
) -> Result<Reasoner, PersistError> {
    let mut r = store::Reader::new(payload);
    let schema_text = r.str()?;
    let declared_atoms = r.u32()? as usize;
    let declared_width = r.str()?;
    let next_id = r.u64()?;
    let sigma_count = r.u32()? as usize;
    let attr = parse_attr(schema_text)
        .map_err(|e| PersistError::Invalid(format!("schema does not parse back: {e}")))?;
    let mut texts = Vec::with_capacity(sigma_count.min(payload.len()));
    for _ in 0..sigma_count {
        let id = r.u64()?;
        texts.push((id, r.str()?));
    }
    // the declared identity is checked before any cache entry is read,
    // so every set below is decoded at the schema's own width
    let atoms = attr.basis_size();
    if atoms != declared_atoms {
        return Err(PersistError::Invalid(format!(
            "snapshot declares {declared_atoms} atoms but the schema has {atoms}"
        )));
    }
    let width_class = WidthClass::for_capacity(atoms).name();
    if width_class != declared_width {
        return Err(PersistError::Invalid(format!(
            "snapshot declares width class {declared_width:?} but the schema is {width_class:?}"
        )));
    }
    let entry_count = r.u32()? as usize;
    let width = atoms.div_ceil(64);
    let mut cache = Vec::with_capacity(entry_count.min(payload.len()));
    let mut lhs_words = Vec::new();
    for _ in 0..entry_count {
        lhs_words.clear();
        get_words(&mut r, width, &mut lhs_words)?;
        let lhs = AtomSet::from_words(atoms, &lhs_words).map_err(invalid_set)?;
        let mut run = Vec::new();
        get_words(&mut r, width, &mut run)?;
        let blocks = r.u32()?;
        // each block takes 8·width bytes, so a count the rest of the
        // payload cannot hold is refused before any work is done; a
        // zero-atom schema has no non-empty set, hence no block
        if blocks > 0 && (width == 0 || blocks as usize > r.remaining() / (8 * width)) {
            return Err(PersistError::Invalid(format!(
                "cache entry declares {blocks} blocks, more than the payload holds"
            )));
        }
        get_words(&mut r, width * blocks as usize, &mut run)?;
        let fired = r.u32()? as usize;
        get_words(&mut r, fired, &mut run)?;
        let entry = PackedBasis::from_run(atoms as u32, run, blocks).map_err(invalid_set)?;
        cache.push((lhs, entry));
    }
    r.finish()?;
    let alg = Algebra::try_new_observed(&attr, budget, rec.as_ref())?;
    let sigma = texts
        .into_iter()
        .map(
            |(id, text)| match CompiledDep::parse(&alg, text, ParseLimits::default()) {
                Ok(c) => Ok((id, c)),
                Err(e) => Err(PersistError::Invalid(format!(
                    "dependency {text:?} does not parse back: {e}"
                ))),
            },
        )
        .collect::<Result<_, _>>()?;
    Ok(Reasoner::restore_parts(alg, sigma, next_id, cache, rec)?)
}

/// Writes a snapshot of `r` to `path` (atomically, via the store
/// layer). Returns the file size in bytes.
pub fn write_reasoner_snapshot(
    path: &Path,
    r: &Reasoner,
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<u64, PersistError> {
    Ok(store::snapshot::write_snapshot_governed(
        path,
        &snapshot_payload(r),
        budget,
        rec,
    )?)
}

/// Reads, verifies and restores the snapshot at `path`.
pub fn read_reasoner_snapshot(
    path: &Path,
    budget: &Budget,
    rec: Arc<dyn Recorder>,
) -> Result<Reasoner, PersistError> {
    let payload = store::read_snapshot(path)?;
    restore_reasoner(&payload, budget, rec)
}

/// One write-ahead-log operation. The journal records *queries* as
/// well as edits: replaying a `?` record re-warms the exact cache entry
/// the live process had, which is what makes recovery bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Names the schema the log's operations are written against;
    /// conventionally the first record. Recovery cross-checks it
    /// against the snapshot's schema.
    Header {
        /// The schema, in the same text form the snapshot stores.
        schema: String,
    },
    /// `Σ := Σ ∪ {dep}` (dependency in abbreviated text form).
    Add(String),
    /// `Σ := Σ \ {dep}`.
    Remove(String),
    /// A membership query `Σ ⊨ dep` (journaled for cache warmth).
    Query(String),
}

impl WalOp {
    /// Encodes this operation as a WAL record payload: a one-byte tag
    /// (`H`, `+`, `-`, `?`) followed by the raw UTF-8 text.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, text) = match self {
            WalOp::Header { schema } => (b'H', schema.as_str()),
            WalOp::Add(d) => (b'+', d.as_str()),
            WalOp::Remove(d) => (b'-', d.as_str()),
            WalOp::Query(d) => (b'?', d.as_str()),
        };
        let mut out = Vec::with_capacity(1 + text.len());
        out.push(tag);
        out.extend_from_slice(text.as_bytes());
        out
    }

    /// Decodes a WAL record payload. `offset` is the record's file
    /// offset, used in corruption errors.
    pub fn decode(payload: &[u8], offset: u64) -> Result<WalOp, StoreError> {
        let (tag, text) = split_record(payload, offset)?;
        let text = text.to_string();
        Ok(match tag {
            Tag::Header => WalOp::Header { schema: text },
            Tag::Add => WalOp::Add(text),
            Tag::Remove => WalOp::Remove(text),
            Tag::Query => WalOp::Query(text),
        })
    }
}

/// A WAL record's kind, from its one-byte tag.
#[derive(Clone, Copy)]
enum Tag {
    Header,
    Add,
    Remove,
    Query,
}

/// Splits a WAL record payload into its kind and its text, borrowed
/// from `payload`. `offset` is the record's file offset, used in
/// corruption errors.
fn split_record(payload: &[u8], offset: u64) -> Result<(Tag, &str), StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt { offset, detail };
    let (&tag, rest) = payload
        .split_first()
        .ok_or_else(|| corrupt("empty WAL record".to_string()))?;
    let text = std::str::from_utf8(rest)
        .map_err(|e| corrupt(format!("invalid UTF-8 in WAL record: {e}")))?;
    let tag = match tag {
        b'H' => Tag::Header,
        b'+' => Tag::Add,
        b'-' => Tag::Remove,
        b'?' => Tag::Query,
        other => return Err(corrupt(format!("unknown WAL op tag {other:#04x}"))),
    };
    Ok((tag, text))
}

/// What [`recover`] replayed, alongside the recovered reasoner.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The recovered reasoner: snapshot state plus the WAL tail.
    pub reasoner: Reasoner,
    /// `+` records replayed.
    pub adds: u64,
    /// `-` records replayed.
    pub removes: u64,
    /// `?` records replayed (cache re-warming).
    pub queries: u64,
    /// Where the WAL's torn tail was cut, if the crash left one.
    pub truncated_at: Option<u64>,
}

impl RecoveryReport {
    /// Total operations replayed from the log.
    pub fn replayed(&self) -> u64 {
        self.adds + self.removes + self.queries
    }
}

/// What a [`replay_wal`] call applied, counted by record kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// `H` records cross-checked against the reasoner's schema.
    pub headers: u64,
    /// `+` records applied through the incremental add path.
    pub adds: u64,
    /// `-` records applied through the incremental remove path.
    pub removes: u64,
    /// `?` records re-run for cache warmth.
    pub queries: u64,
}

/// Replays verified WAL records — `(file offset, payload)` pairs, as
/// [`nalist_store::WalReplay::records`] and
/// [`nalist_store::WalSegment::records`] borrow them from the log's
/// bytes — into `reasoner` through the ordinary incremental edit path.
/// This is the single replay primitive behind both crash [`recover`]y
/// and replication followers tailing a leader's log, so both
/// reconstruct bit-identical state by construction.
///
/// Each distinct dependency text is resolved once per call, to the
/// compiled form the reasoner keeps as its only copy of the dependency:
/// a `+` pushes the memoized compiled form through the step
/// [`Reasoner::add`] ends in, and a `-` removes the first `Σ` member
/// with the same compiled form, as [`Reasoner::remove`] does. A `-`
/// whose dependency `Σ` does not hold cannot apply, so it fails like a
/// record that does not parse. `?` records are parsed every time, under
/// `budget`'s limits.
///
/// Replay stops at the first record that fails to decode or apply;
/// `counts` then holds what was applied before it. Record indices in
/// [`PersistError::Replay`] are zero-based positions in `records`.
pub fn replay_wal<'a>(
    reasoner: &mut Reasoner,
    records: impl IntoIterator<Item = (u64, &'a [u8])>,
    budget: &Budget,
    counts: &mut ReplayCounts,
) -> Result<(), PersistError> {
    // text after the tag → compiled dependency, shared by `+` and `-`
    let mut memo: HashMap<&'a str, CompiledDep> = HashMap::new();
    for (index, (offset, payload)) in records.into_iter().enumerate() {
        let fail = |e: ReasonerError| match e {
            ReasonerError::Resource(r) => PersistError::Resource(r),
            other => PersistError::Replay {
                index,
                message: other.to_string(),
            },
        };
        let (tag, text) = split_record(payload, offset)?;
        match tag {
            Tag::Header => {
                let schema_text = reasoner.attr().to_string();
                if text != schema_text {
                    return Err(PersistError::Invalid(format!(
                        "WAL is for schema {text:?} but the snapshot is {schema_text:?}"
                    )));
                }
                counts.headers += 1;
            }
            Tag::Add | Tag::Remove => {
                let c = match memo.entry(text) {
                    Entry::Occupied(seen) => seen.into_mut(),
                    Entry::Vacant(first) => {
                        let c =
                            CompiledDep::parse(reasoner.algebra(), text, ParseLimits::default())
                                .map_err(|e| fail(ReasonerError::Parse(e)))?;
                        first.insert(c)
                    }
                };
                if matches!(tag, Tag::Add) {
                    reasoner.add_compiled(c.clone());
                    counts.adds += 1;
                } else {
                    let i = reasoner
                        .compiled_sigma()
                        .iter()
                        .position(|have| have == c)
                        .ok_or_else(|| PersistError::Replay {
                            index,
                            message: format!("dependency not in Σ: {text}"),
                        })?;
                    reasoner.remove_at(i);
                    counts.removes += 1;
                }
            }
            Tag::Query => {
                reasoner.implies_str_governed(text, budget).map_err(fail)?;
                counts.queries += 1;
            }
        }
    }
    Ok(())
}

/// Crash recovery: loads the snapshot at `snapshot` (cache entries land
/// warm) and, when `wal` is given, replays its operations through
/// [`replay_wal`]. A torn WAL tail is truncated and reported; mid-log
/// corruption is a hard error (see [`nalist_store::wal`] for the
/// policy).
pub fn recover(
    snapshot: &Path,
    wal: Option<&Path>,
    budget: &Budget,
    rec: Arc<dyn Recorder>,
) -> Result<RecoveryReport, PersistError> {
    let mut reasoner = read_reasoner_snapshot(snapshot, budget, Arc::clone(&rec))?;
    let mut counts = ReplayCounts::default();
    let mut truncated_at = None;
    if let Some(wal_path) = wal {
        let log = store::read_wal(wal_path)?;
        truncated_at = log.truncated_at;
        let replayed = replay_wal(&mut reasoner, log.records(), budget, &mut counts);
        rec.add(
            Counter::RecoveryReplayedOps,
            counts.headers + counts.adds + counts.removes + counts.queries,
        );
        replayed?;
    }
    Ok(RecoveryReport {
        reasoner,
        adds: counts.adds,
        removes: counts.removes,
        queries: counts.queries,
        truncated_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_obs::NoopRecorder;

    fn reasoner_with(schema: &str, deps: &[&str]) -> Reasoner {
        let n = parse_attr(schema).unwrap();
        let mut r = Reasoner::new(&n);
        for d in deps {
            r.add_str(d).unwrap();
        }
        r
    }

    fn restore(payload: &[u8]) -> Result<Reasoner, PersistError> {
        restore_reasoner(payload, &Budget::unlimited(), Arc::new(NoopRecorder))
    }

    #[test]
    fn payload_round_trips_cold_and_warm() {
        let r = reasoner_with("L(A, B, C)", &["L(A) -> L(B)", "L(B) ->> L(C)"]);
        let cold = snapshot_payload(&r);
        assert_eq!(snapshot_payload(&restore(&cold).unwrap()), cold);
        // warm the cache, round trip again
        assert!(r.implies_str("L(A) -> L(B)").unwrap());
        r.implies_str("L(C) -> L(A)").unwrap();
        let warm = snapshot_payload(&r);
        assert_ne!(warm, cold, "warm cache must be part of the payload");
        let back = restore(&warm).unwrap();
        assert_eq!(snapshot_payload(&back), warm);
        assert_eq!(back.cache_stats().entries, r.cache_stats().entries);
        assert_eq!(back.dep_ids(), r.dep_ids());
        assert_eq!(back.next_dep_id(), r.next_dep_id());
    }

    #[test]
    fn ids_survive_interleaved_edits_through_a_round_trip() {
        let mut r = reasoner_with(
            "L(A, B, C, D)",
            &["L(A) -> L(B)", "L(B) -> L(C)", "L(C) -> L(D)"],
        );
        r.remove_at(1); // ids now [0, 2], next 3
        r.add_str("L(D) ->> L(A)").unwrap(); // ids [0, 2, 3]
        assert_eq!(r.dep_ids(), &[0, 2, 3]);
        let back = restore(&snapshot_payload(&r)).unwrap();
        assert_eq!(back.dep_ids(), &[0, 2, 3]);
        assert_eq!(back.next_dep_id(), 4);
    }

    #[test]
    fn wal_ops_round_trip() {
        for op in [
            WalOp::Header {
                schema: "L(A, B)".to_string(),
            },
            WalOp::Add("L(A) -> L(B)".to_string()),
            WalOp::Remove("L(A) ->> L(B)".to_string()),
            WalOp::Query("λ -> λ".to_string()),
        ] {
            assert_eq!(WalOp::decode(&op.encode(), 0).unwrap(), op);
        }
        assert!(WalOp::decode(b"", 7).is_err());
        assert!(WalOp::decode(b"Xwhat", 7).is_err());
    }

    #[test]
    fn hand_crafted_payload_with_bad_invariants_is_rejected_typed() {
        // valid shape, but an atom index out of range
        let r = reasoner_with("L(A, B)", &["L(A) -> L(B)"]);
        let mut payload = snapshot_payload(&r);
        // no cache entries: append a fake one with an absurd LHS index
        // by rebuilding through the public encoder on a tampered export
        // is impossible — so hand-edit the entry count instead
        let len = payload.len();
        payload[len - 4..].copy_from_slice(&1u32.to_le_bytes());
        match restore(&payload) {
            Err(PersistError::Store(StoreError::Corrupt { .. })) => {}
            other => panic!("expected truncated-payload corruption, got {other:?}"),
        }
    }

    /// A payload with two warm entries over `L(A, B, C)` (one word per
    /// set) and the byte range of each entry.
    fn two_entry_payload() -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
        let r = reasoner_with("L(A, B, C)", &["L(A) -> L(B)", "L(B) ->> L(C)"]);
        r.implies_str("L(A) -> L(B)").unwrap();
        r.implies_str("L(C) -> L(A)").unwrap();
        let payload = snapshot_payload(&r);
        let mut rd = store::Reader::new(&payload);
        rd.str().unwrap();
        rd.u32().unwrap();
        rd.str().unwrap();
        rd.u64().unwrap();
        for _ in 0..rd.u32().unwrap() {
            rd.u64().unwrap();
            rd.str().unwrap();
        }
        assert_eq!(rd.u32().unwrap(), 2);
        let mut spans = Vec::new();
        for _ in 0..2 {
            let start = usize::try_from(rd.offset()).unwrap();
            rd.u64().unwrap(); // LHS
            rd.u64().unwrap(); // X⁺
            for _ in 0..rd.u32().unwrap() {
                rd.u64().unwrap(); // a block
            }
            for _ in 0..rd.u32().unwrap() {
                rd.u64().unwrap(); // a fired id
            }
            spans.push(start..usize::try_from(rd.offset()).unwrap());
        }
        rd.finish().unwrap();
        (payload, spans)
    }

    /// Restores `payload` after a round trip through the checksummed
    /// container, so the bytes are CRC-valid and only the structural
    /// validation can refuse them.
    fn restore_crc_valid(payload: &[u8]) -> Result<Reasoner, PersistError> {
        let file = store::encode_snapshot(payload).unwrap();
        restore(&store::decode_snapshot(&file).unwrap())
    }

    #[test]
    fn cache_entry_layout_is_width_exact_words() {
        // L(A, B, C) = one word per set; from X = L(A), A -> B fires:
        // X⁺ = {A, B}, blocks {A} < {B} < {C}, fired ids [0]
        let r = reasoner_with("L(A, B, C)", &["L(A) -> L(B)"]);
        r.implies_str("L(A) -> L(B)").unwrap();
        let payload = snapshot_payload(&r);
        let word = |w: u64| w.to_le_bytes().to_vec();
        let count = |n: u32| n.to_le_bytes().to_vec();
        let entry = [
            count(1),  // one cache entry
            word(0b1), // LHS {A}
            word(0b11),
            count(3),
            word(0b1),
            word(0b10),
            word(0b100),
            count(1),
            word(0), // fired: dependency id 0
        ]
        .concat();
        assert!(payload.ends_with(&entry), "{payload:02x?}");
    }

    #[test]
    fn cache_entries_out_of_ascending_lhs_order_are_invalid() {
        let (payload, spans) = two_entry_payload();
        assert!(restore_crc_valid(&payload).is_ok());
        let (first, second) = (&payload[spans[0].clone()], &payload[spans[1].clone()]);
        let head = &payload[..spans[0].start];
        for (what, bad) in [
            ("duplicate", [head, first, first].concat()),
            ("swapped", [head, second, first].concat()),
        ] {
            match restore_crc_valid(&bad) {
                Err(PersistError::Invalid(msg)) => {
                    assert!(msg.contains("ascending"), "{what}: {msg}");
                }
                other => panic!("{what}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_set_bits_beyond_the_atom_count_are_invalid() {
        let (payload, spans) = two_entry_payload();
        // bit 3 of a one-word set over three atoms; the LHS word starts
        // the entry, the X⁺ word follows, the first block sits after the
        // block count
        let at = spans[1].start;
        for (what, byte) in [("LHS", at), ("X⁺", at + 8), ("block", at + 20)] {
            let mut bad = payload.clone();
            bad[byte] |= 1 << 3;
            match restore_crc_valid(&bad) {
                Err(PersistError::Invalid(msg)) => {
                    assert!(msg.contains("bit 3"), "{what}: {msg}");
                }
                other => panic!("{what}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_block_counts_the_payload_cannot_hold_are_invalid() {
        let invalid = |bad: &[u8], want: &str| match restore_crc_valid(bad) {
            Err(PersistError::Invalid(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        };
        // the block count of the first entry follows its LHS and X⁺ words
        let (payload, spans) = two_entry_payload();
        let mut bad = payload.clone();
        let at = spans[0].start + 16;
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        invalid(&bad, "blocks");
        // a declared atom count of 0 would make every set zero words wide:
        // it is refused before any entry is read
        let mut rd = store::Reader::new(&payload);
        rd.str().unwrap();
        let at = usize::try_from(rd.offset()).unwrap();
        let mut bad = payload.clone();
        bad[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        invalid(&bad, "declares 0 atoms");
        // a schema with no atoms at all has no block to hold: one entry
        // (zero-word LHS and X⁺) declaring u32::MAX blocks, no fired id
        let mut empty = snapshot_payload(&reasoner_with("λ", &[]));
        assert!(empty.ends_with(&0u32.to_le_bytes()), "a cold cache ends it");
        empty.truncate(empty.len() - 4);
        for count in [1, u32::MAX, 0] {
            empty.extend_from_slice(&count.to_le_bytes());
        }
        invalid(&empty, "blocks");
    }

    #[test]
    fn version_1_snapshots_are_refused_as_format_errors() {
        let (payload, _) = two_entry_payload();
        let mut file = store::encode_snapshot(&payload).unwrap();
        file[8..12].copy_from_slice(&1u32.to_le_bytes());
        let mut checked = file[8..16].to_vec();
        checked.extend_from_slice(&payload);
        file[16..20].copy_from_slice(&store::crc32::crc32(&checked).to_le_bytes());
        let d = std::env::temp_dir().join(format!("nalist_persist_v1_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let path = d.join("v1.snap");
        std::fs::write(&path, &file).unwrap();
        let got = read_reasoner_snapshot(&path, &Budget::unlimited(), Arc::new(NoopRecorder));
        std::fs::remove_dir_all(&d).unwrap();
        assert!(
            matches!(got, Err(PersistError::Store(StoreError::Format { .. }))),
            "{got:?}"
        );
    }

    #[test]
    fn schema_identity_mismatch_is_invalid() {
        let r = reasoner_with("L(A, B)", &[]);
        let payload = snapshot_payload(&r);
        // find and damage the declared atom count (right after the schema string)
        let mut r2 = store::Reader::new(&payload);
        r2.str().unwrap();
        let at = usize::try_from(r2.offset()).unwrap();
        let mut bad = payload.clone();
        bad[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
        match restore(&bad) {
            Err(PersistError::Invalid(msg)) => {
                assert!(msg.contains("atom"), "unexpected message: {msg}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn recover_without_wal_is_the_snapshot_state() {
        let d = std::env::temp_dir().join(format!("nalist_persist_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let snap = d.join("s.snap");
        let r = reasoner_with("L(A, B, C)", &["L(A) -> L(B)"]);
        r.implies_str("L(A) -> L(B)").unwrap();
        write_reasoner_snapshot(&snap, &r, &Budget::unlimited(), &NoopRecorder).unwrap();
        let rep = recover(&snap, None, &Budget::unlimited(), Arc::new(NoopRecorder)).unwrap();
        assert_eq!(rep.replayed(), 0);
        assert_eq!(snapshot_payload(&rep.reasoner), snapshot_payload(&r));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recover_replays_the_wal_tail_bit_identically() {
        let d = std::env::temp_dir().join(format!("nalist_persist_wal_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let snap = d.join("s.snap");
        let log = d.join("ops.wal");
        let mut live = reasoner_with("L(A, B, C)", &["L(A) -> L(B)"]);
        live.implies_str("L(A) -> L(C)").unwrap();
        write_reasoner_snapshot(&snap, &live, &Budget::unlimited(), &NoopRecorder).unwrap();
        // journal-then-apply three more operations on the live side
        let mut wal = store::WalWriter::create(&log, false).unwrap();
        let ops = [
            WalOp::Add("L(B) ->> L(C)".to_string()),
            WalOp::Query("L(A) ->> L(C)".to_string()),
            WalOp::Remove("L(A) -> L(B)".to_string()),
        ];
        for op in &ops {
            wal.append(&op.encode(), &Budget::unlimited(), &NoopRecorder)
                .unwrap();
            match op {
                WalOp::Add(t) => live.add_str(t).unwrap(),
                WalOp::Remove(t) => {
                    live.remove_str(t).unwrap();
                }
                WalOp::Query(t) => {
                    live.implies_str(t).unwrap();
                }
                WalOp::Header { .. } => unreachable!(),
            }
        }
        drop(wal);
        let rep = recover(
            &snap,
            Some(&log),
            &Budget::unlimited(),
            Arc::new(NoopRecorder),
        )
        .unwrap();
        assert_eq!((rep.adds, rep.removes, rep.queries), (1, 1, 1));
        assert_eq!(snapshot_payload(&rep.reasoner), snapshot_payload(&live));
        std::fs::remove_dir_all(&d).unwrap();
    }
}
