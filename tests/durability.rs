//! Crash-recovery acceptance suite for the durability layer
//! (DESIGN.md's "Durability & crash recovery"):
//!
//! * for **any** random edit script, **any** snapshot cut point and
//!   **any** crash point in the journaled tail — a clean stop, a torn
//!   write mid-record, or an injected fault at the `store::append` fail
//!   point — recovery yields a reasoner **bit-identical** (byte-equal
//!   snapshot payloads: same `Σ`, same stable ids, same warm cache
//!   entries) to a live process that executed exactly the committed
//!   prefix and never crashed;
//! * **any** single flipped byte in a snapshot file is rejected with a
//!   typed [`StoreError::Corrupt`]; a flipped byte in a WAL is either
//!   rejected the same way or — when the damage is indistinguishable
//!   from a torn final append — reported as a truncation back to a
//!   strict prefix of the original records. Never a silently wrong
//!   answer;
//! * the snapshot file format is **byte-stable**: a pinned workload
//!   produces the exact golden bytes, re-blessed only by an explicit
//!   `UPDATE_GOLDENS=1` run;
//! * WAL replay, which resolves each distinct record text once, matches
//!   a record-by-record oracle on repeated texts, respelled removes,
//!   bad records, torn tails and flipped bytes — and every parsed
//!   dependency is the decompiled form of its own compilation, the
//!   invariant replay's memo rests on.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nalist::gen::{random_edit_script, EditConfig, EditOp};
use nalist::guard::{FailAction, FailPoint};
use nalist::membership::{read_reasoner_snapshot, recover, write_reasoner_snapshot, WalOp};
use nalist::obs::{Counter, MetricsRecorder, NoopRecorder};
use nalist::prelude::*;
use nalist::store::{read_snapshot, read_wal, write_snapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "nalist_durability_{tag}_{}_{seed}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn apply(r: &mut Reasoner, alg: &Algebra, op: &EditOp) {
    match op {
        EditOp::Add(d) => {
            r.add(d.decompile(alg)).expect("generated Σ compiles");
        }
        EditOp::Remove(d) => {
            assert!(r.remove(&d.decompile(alg)).expect("compiles"));
        }
        EditOp::Query(d) => {
            r.implies(&d.decompile(alg)).expect("compiles");
        }
    }
}

/// The WAL record a script op journals: the same abbreviated dependency
/// text the snapshot payload stores.
fn wal_op(n: &NestedAttr, alg: &Algebra, op: &EditOp) -> WalOp {
    let text = |d: &CompiledDep| d.decompile(alg).display_in(n);
    match op {
        EditOp::Add(d) => WalOp::Add(text(d)),
        EditOp::Remove(d) => WalOp::Remove(text(d)),
        EditOp::Query(d) => WalOp::Query(text(d)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random script, random snapshot cut, random crash point and
    /// random crash flavor: recovery is bit-identical to the uncrashed
    /// prefix execution.
    #[test]
    fn any_crash_point_recovers_bit_identically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=14);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());
        let cut = rng.gen_range(0..=script.len());
        let tail = &script[cut..];
        // committed: how many tail ops the crashed process fully journaled
        let committed = rng.gen_range(0..=tail.len());
        // crash flavors: 0 = clean stop after `committed` appends,
        // 1 = torn write mid-record on the next append,
        // 2 = injected fault at store::append on the next append
        let flavor = if committed < tail.len() { rng.gen_range(0..3u8) } else { 0 };

        let dir = temp_dir("crash", seed);
        let snap_path = dir.join("state.snap");
        let wal_path = dir.join("ops.wal");

        // the process that crashes: snapshot at `cut`, then journal-
        // before-apply the tail
        let mut live = Reasoner::new(&n);
        for op in &script[..cut] {
            apply(&mut live, &alg, op);
        }
        nalist::membership::write_reasoner_snapshot(
            &snap_path, &live, &Budget::unlimited(), &NoopRecorder,
        ).expect("snapshot writes");
        let mut wal = WalWriter::create(&wal_path, false).expect("wal creates");
        let budget = Budget::unlimited();
        wal.append(
            &WalOp::Header { schema: n.to_string() }.encode(),
            &budget,
            &NoopRecorder,
        ).expect("header appends");
        for op in &tail[..committed] {
            wal.append(&wal_op(&n, &alg, op).encode(), &budget, &NoopRecorder)
                .expect("append succeeds");
        }
        match flavor {
            1 => {
                // torn write: the next record reaches the disk only
                // partially (crash mid-`write`)
                let op = &tail[committed];
                wal.append(&wal_op(&n, &alg, op).encode(), &budget, &NoopRecorder)
                    .expect("append succeeds");
                drop(wal);
                let full = std::fs::metadata(&wal_path).unwrap().len();
                let record_start = {
                    let replay = read_wal(&wal_path).unwrap();
                    let (_, last) = replay.records().last().unwrap();
                    full - 8 - last.len() as u64
                };
                let torn = rng.gen_range(record_start + 1..full);
                let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
                f.set_len(torn).unwrap();
            }
            2 => {
                // injected fault: the fail point fires before any byte
                // is written, like a crash between the decision to
                // journal and the write itself
                let armed = Budget::unlimited().with_failpoint(FailPoint::nth(
                    "store::append",
                    0,
                    FailAction::ExhaustFuel,
                ));
                let op = &tail[committed];
                let err = wal.append(&wal_op(&n, &alg, op).encode(), &armed, &NoopRecorder);
                prop_assert!(err.is_err(), "armed fail point must fire");
                drop(wal);
            }
            _ => drop(wal),
        }

        // the process that never crashed, stopped at the same point
        let mut expected = Reasoner::new(&n);
        for op in &script[..cut + committed] {
            apply(&mut expected, &alg, op);
        }

        let report = recover(
            &snap_path,
            Some(&wal_path),
            &Budget::unlimited(),
            Arc::new(NoopRecorder),
        ).expect("recovery succeeds");
        prop_assert_eq!(
            report.truncated_at.is_some(),
            flavor == 1,
            "torn-tail report mismatch"
        );
        prop_assert_eq!(
            report.replayed(),
            committed as u64,
            "replayed op count"
        );
        prop_assert_eq!(
            snapshot_payload(&report.reasoner),
            snapshot_payload(&expected),
            "recovered state diverged from the uncrashed prefix execution"
        );
        prop_assert_eq!(report.reasoner.dep_ids(), expected.dep_ids());
        prop_assert_eq!(report.reasoner.next_dep_id(), expected.next_dep_id());
        prop_assert_eq!(
            report.reasoner.cache_stats().entries,
            expected.cache_stats().entries,
            "cache warmth diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Any single flipped byte, anywhere in a snapshot file, is
    /// rejected with the typed corruption error — and recovery through
    /// the full stack errors out rather than answering from damaged
    /// state.
    #[test]
    fn any_flipped_snapshot_byte_is_rejected_typed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=12);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());
        let mut r = Reasoner::new(&n);
        for op in script.iter().take(8) {
            apply(&mut r, &alg, op);
        }
        let dir = temp_dir("flip_snap", seed);
        let path = dir.join("state.snap");
        nalist::membership::write_reasoner_snapshot(
            &path, &r, &Budget::unlimited(), &NoopRecorder,
        ).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // one random flip per proptest case, plus the three structural
        // hot spots (magic, version, crc) every time
        let mut targets = vec![0usize, 8, 16, rng.gen_range(0..pristine.len())];
        targets.dedup();
        for at in targets {
            let mut bad = pristine.clone();
            bad[at] ^= 1 << rng.gen_range(0..8u8);
            std::fs::write(&path, &bad).unwrap();
            match read_snapshot(&path) {
                Err(StoreError::Corrupt { .. }) => {}
                other => prop_assert!(
                    false,
                    "flip at byte {at}: expected Corrupt, got {other:?}"
                ),
            }
            let full = recover(&path, None, &Budget::unlimited(), Arc::new(NoopRecorder));
            prop_assert!(full.is_err(), "flip at byte {at}: recover must fail");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Any single flipped byte in a WAL either surfaces as typed
    /// corruption or — when indistinguishable from a torn final append
    /// — as a reported truncation back to a strict prefix of the
    /// original records. Never a reordered, altered or invented record.
    #[test]
    fn any_flipped_wal_byte_is_corrupt_or_a_reported_prefix(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir("flip_wal", seed);
        let path = dir.join("ops.wal");
        let mut wal = WalWriter::create(&path, false).unwrap();
        let budget = Budget::unlimited();
        let ops = [
            WalOp::Header { schema: "L(A, B, C)".to_string() },
            WalOp::Add("L(A) -> L(B)".to_string()),
            WalOp::Query("L(A) ->> L(C)".to_string()),
            WalOp::Remove("L(A) -> L(B)".to_string()),
        ];
        for op in &ops {
            wal.append(&op.encode(), &budget, &NoopRecorder).unwrap();
        }
        drop(wal);
        let pristine = std::fs::read(&path).unwrap();
        let original = read_wal(&path).unwrap();
        prop_assert!(original.truncated_at.is_none());
        let at = rng.gen_range(0..pristine.len());
        let mut bad = pristine.clone();
        bad[at] ^= 1 << rng.gen_range(0..8u8);
        std::fs::write(&path, &bad).unwrap();
        match read_wal(&path) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "flip at {at}: unexpected error {other:?}"),
            Ok(replay) => {
                prop_assert!(
                    replay.truncated_at.is_some(),
                    "flip at {at}: accepted undamaged? records {} of {}",
                    replay.records().len(),
                    original.records().len()
                );
                prop_assert!(
                    replay.records().len() < original.records().len(),
                    "flip at {at}: truncation must drop at least the damaged record"
                );
                for (i, (rec, orig)) in replay.records().zip(original.records()).enumerate() {
                    prop_assert_eq!(
                        rec,
                        orig,
                        "flip at {at}: surviving record {i} altered"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Hex dump used for the byte-pinned golden: 32 bytes per line.
fn hex_dump(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 16);
    for chunk in bytes.chunks(32) {
        for b in chunk {
            write!(out, "{b:02x}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// The snapshot format is byte-stable: the pinned workload (the paper's
/// running example, warmed with the Example 4.2 queries) produces
/// exactly the golden file bytes — header, CRC and payload. Any change
/// to the encoding is a format break and must be made consciously:
/// bless a new golden with `UPDATE_GOLDENS=1` and bump
/// [`nalist::store::SNAPSHOT_VERSION`].
#[test]
fn snapshot_format_is_byte_stable() {
    let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
    let mut r = Reasoner::new(&n);
    r.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        .unwrap();
    r.add_str("Pubcrawl(Visit[Drink(Beer)]) -> Pubcrawl(Visit[Drink(Pub)])")
        .unwrap();
    assert!(r
        .implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
        .unwrap());
    r.remove_at(1);
    r.add_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])").unwrap();
    let dir = temp_dir("golden", 0);
    let path = dir.join("golden.snap");
    write_snapshot(&path, &snapshot_payload(&r)).unwrap();
    let got = hex_dump(&std::fs::read(&path).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/store_fixtures/snapshot_format.golden"
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(golden_path).parent().unwrap()).unwrap();
        std::fs::write(golden_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("no golden at {golden_path} ({e}); run with UPDATE_GOLDENS=1 to bless one")
    });
    assert_eq!(
        got, want,
        "snapshot bytes drifted from the golden — if the format change is \
         intentional, bump SNAPSHOT_VERSION and re-bless with UPDATE_GOLDENS=1"
    );
}

/// Whether the canonical subattribute `t` holds no atom, so that its
/// record may leave it out (§3.3) or it may be spelled `λ`.
fn is_bottom(t: &NestedAttr) -> bool {
    match t {
        NestedAttr::Null => true,
        NestedAttr::Record(_, cs) => cs.iter().all(is_bottom),
        NestedAttr::Flat(_) | NestedAttr::List(..) => false,
    }
}

/// A random spelling of the canonical subattribute `t`: each record
/// either lists every component (bottoms as `λ` or written out) or
/// leaves its bottoms out, and a record without atoms may be `λ`.
fn respell(rng: &mut StdRng, t: &NestedAttr) -> String {
    match t {
        NestedAttr::Null => "λ".to_string(),
        NestedAttr::Flat(a) => a.clone(),
        NestedAttr::List(l, inner) => format!("{l}[{}]", respell(rng, inner)),
        NestedAttr::Record(..) if is_bottom(t) && rng.gen_bool(0.5) => "λ".to_string(),
        NestedAttr::Record(l, cs) => {
            let abbreviated = !is_bottom(t) && rng.gen_bool(0.5);
            let parts: Vec<String> = cs
                .iter()
                .filter(|c| !(abbreviated && is_bottom(c)))
                .map(|c| respell(rng, c))
                .collect();
            format!("{l}({})", parts.join(", "))
        }
    }
}

/// A random spelling of `d`: [`respell`]ed sides and either arrow.
fn spell(rng: &mut StdRng, alg: &Algebra, d: &CompiledDep) -> String {
    let tree = d.decompile(alg);
    let arrow = match (d.kind, rng.gen_bool(0.5)) {
        (DepKind::Fd, true) => "->",
        (DepKind::Fd, false) => "→",
        (DepKind::Mvd, true) => "->>",
        (DepKind::Mvd, false) => "↠",
    };
    let (lhs, rhs) = (respell(rng, &tree.lhs), respell(rng, &tree.rhs));
    format!("{lhs} {arrow} {rhs}")
}

/// A small pool of dependencies, each in one to three spellings (the
/// printer's abbreviation first), so scripts drawn from it repeat
/// texts and may remove a dependency by another spelling than the one
/// that added it.
fn spelling_pool(rng: &mut StdRng, n: &NestedAttr, alg: &Algebra) -> Vec<Vec<String>> {
    (0..rng.gen_range(1..=6))
        .map(|_| {
            let d = nalist::gen::random_dep(rng, alg, 0.4, 0.5);
            let mut spellings = vec![d.decompile(alg).display_in(n)];
            for _ in 0..rng.gen_range(0..=2) {
                spellings.push(spell(rng, alg, &d));
            }
            spellings
        })
        .collect()
}

/// A random spelling of a random dependency of `pool`.
fn pick(rng: &mut StdRng, pool: &[Vec<String>]) -> String {
    let spellings = &pool[rng.gen_range(0..pool.len())];
    spellings[rng.gen_range(0..spellings.len())].clone()
}

/// A record replay must stop at: unparsable text, a dependency over
/// another schema, a header naming another schema, an unknown tag,
/// text that is not UTF-8, or a remove of a dependency `Σ` does not
/// hold (`absent`, when the schema has one outside the pool).
fn bad_record(rng: &mut StdRng, absent: Option<String>) -> Vec<u8> {
    let tag = [b'+', b'-', b'?'][rng.gen_range(0..3usize)];
    match (rng.gen_range(0..6), absent) {
        (0, _) => [&[tag][..], b"L0(A0 ->"].concat(),
        (1, _) => [&[tag][..], b"Elsewhere(Z) -> Elsewhere(Z)"].concat(),
        (2, _) => WalOp::Header {
            schema: "Elsewhere(Z)".to_string(),
        }
        .encode(),
        (3, _) => b"!L0 -> L0".to_vec(),
        (5, Some(text)) => WalOp::Remove(text).encode(),
        _ => vec![tag, 0xff, 0xfe],
    }
}

/// One recovery's observable result: the state as snapshot bytes, the
/// `(adds, removes, queries)` counts and the torn-tail offset — or the
/// error's `Debug` form (variant, record index and message).
type Outcome = Result<(Vec<u8>, (u64, u64, u64), Option<u64>), String>;

/// The replay oracle: the record-by-record `add_str` / `remove_str` /
/// `implies_str_governed` path on a reasoner restored from the same
/// snapshot. Also returns how many records it applied — what
/// `recovery_replayed_ops` must count.
fn oracle_recover(snap: &Path, wal: &Path, budget: &Budget) -> (Outcome, u64) {
    let mut applied = 0;
    let outcome = (|| {
        let mut r = read_reasoner_snapshot(snap, budget, Arc::new(NoopRecorder))?;
        let log = read_wal(wal)?;
        let mut counts = (0, 0, 0);
        for (index, (offset, payload)) in log.records().enumerate() {
            let fail = |e: ReasonerError| match e {
                ReasonerError::Resource(r) => PersistError::Resource(r),
                other => PersistError::Replay {
                    index,
                    message: other.to_string(),
                },
            };
            match WalOp::decode(payload, offset)? {
                WalOp::Header { schema } => {
                    let have = r.attr().to_string();
                    if schema != have {
                        return Err(PersistError::Invalid(format!(
                            "WAL is for schema {schema:?} but the snapshot is {have:?}"
                        )));
                    }
                }
                WalOp::Add(text) => {
                    r.add_str(&text).map_err(fail)?;
                    counts.0 += 1;
                }
                WalOp::Remove(text) => {
                    if !r.remove_str(&text).map_err(fail)? {
                        return Err(PersistError::Replay {
                            index,
                            message: format!("dependency not in Σ: {text}"),
                        });
                    }
                    counts.1 += 1;
                }
                WalOp::Query(text) => {
                    r.implies_str_governed(&text, budget).map_err(fail)?;
                    counts.2 += 1;
                }
            }
            applied += 1;
        }
        Ok((snapshot_payload(&r), counts, log.truncated_at))
    })();
    (outcome.map_err(|e: PersistError| format!("{e:?}")), applied)
}

/// Journals a random script (see [`spelling_pool`]) after a snapshot of
/// a reasoner warmed from the same pool, damages the log one of four
/// ways — not at all, a bad record at a random index, a torn tail, a
/// flipped bit — and requires [`recover`] to match [`oracle_recover`]
/// exactly. Returns which way the recovery ended.
fn replay_matches_oracle(seed: u64) -> Result<&'static str, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let atoms = rng.gen_range(1..=12);
    let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&n);
    let pool = spelling_pool(&mut rng, &n, &alg);
    let mut live = Reasoner::new(&n);
    for _ in 0..rng.gen_range(0..=4) {
        live.add_str(&pick(&mut rng, &pool))
            .expect("pool texts parse");
    }
    for _ in 0..rng.gen_range(0..=3) {
        live.implies_str(&pick(&mut rng, &pool))
            .expect("pool texts parse");
    }
    let mut records = vec![WalOp::Header {
        schema: n.to_string(),
    }
    .encode()];
    let compile = |text: &str| {
        let d = Dependency::parse(&n, text).expect("pool texts parse");
        d.compile(&alg).expect("pool texts compile")
    };
    // what Σ holds after the records so far
    let mut held = live.compiled_sigma().to_vec();
    for _ in 0..rng.gen_range(0..=48) {
        let text = pick(&mut rng, &pool);
        records.push(
            match rng.gen_range(0..10) {
                0..=3 => {
                    held.push(compile(&text));
                    WalOp::Add(text)
                }
                // a remove names, in any spelling, a dependency Σ then
                // holds, as every writer journals it, and is a query
                // while Σ holds none (a remove of a dependency Σ lacks
                // is a bad record, below)
                4..=6 if !held.is_empty() => {
                    let want = held.swap_remove(rng.gen_range(0..held.len()));
                    let spellings = pool
                        .iter()
                        .find(|s| compile(&s[0]) == want)
                        .expect("Σ holds pool dependencies only");
                    WalOp::Remove(spellings[rng.gen_range(0..spellings.len())].clone())
                }
                _ => WalOp::Query(text),
            }
            .encode(),
        );
    }
    let flavor = rng.gen_range(0..4u8);
    if flavor == 1 {
        // a dependency outside the pool, which Σ never holds
        let absent = (0..64)
            .map(|_| nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5))
            .find(|d| pool.iter().all(|s| compile(&s[0]) != *d))
            .map(|d| d.decompile(&alg).display_in(&n));
        let at = rng.gen_range(0..=records.len());
        records.insert(at, bad_record(&mut rng, absent));
    }

    let dir = temp_dir("oracle", seed);
    let snap = dir.join("state.snap");
    let wal = dir.join("ops.wal");
    write_reasoner_snapshot(&snap, &live, &Budget::unlimited(), &NoopRecorder).unwrap();
    let mut writer = WalWriter::create(&wal, false).unwrap();
    for record in &records {
        writer
            .append(record, &Budget::unlimited(), &NoopRecorder)
            .unwrap();
    }
    drop(writer);
    let mut bytes = std::fs::read(&wal).unwrap();
    match flavor {
        2 => bytes.truncate(rng.gen_range(0..bytes.len())),
        3 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u8);
        }
        _ => {}
    }
    std::fs::write(&wal, &bytes).unwrap();

    // queries may run out of fuel part-way; both sides get equal budgets
    let fuel = rng.gen_bool(0.25).then(|| rng.gen_range(0..160u64));
    let budget = || fuel.map_or_else(Budget::unlimited, |f| Budget::unlimited().with_fuel(f));
    let (want, want_applied) = oracle_recover(&snap, &wal, &budget());
    let rec = Arc::new(MetricsRecorder::new());
    let got: Outcome = recover(&snap, Some(&wal), &budget(), rec.clone())
        .map(|rep| {
            let counts = (rep.adds, rep.removes, rep.queries);
            (snapshot_payload(&rep.reasoner), counts, rep.truncated_at)
        })
        .map_err(|e| format!("{e:?}"));
    std::fs::remove_dir_all(&dir).unwrap();
    prop_assert_eq!(&got, &want, "replay diverged from the oracle");
    prop_assert_eq!(rec.counter(Counter::RecoveryReplayedOps), want_applied);
    Ok(match &want {
        Ok((_, _, Some(_))) => "torn",
        Ok(_) => "clean",
        Err(e) => match ["Invalid", "Replay", "Resource", "Store", "Type"]
            .into_iter()
            .find(|variant| e.starts_with(variant))
        {
            // the header replays first: fuel that ran out after it ran
            // out in a query
            Some("Resource") if want_applied == 0 => "Resource before replay",
            Some(variant) => variant,
            None => "unknown",
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Replay that resolves each distinct text once is indistinguishable
    /// from applying the records one by one.
    #[test]
    fn replay_matches_the_record_by_record_oracle(seed in any::<u64>()) {
        replay_matches_oracle(seed)?;
    }

    /// The invariant `Σ`'s single copy rests on: a parsed dependency is
    /// the decompiled form of its own compilation, whatever spelling it
    /// was parsed from, so a repeated text can be replayed from its
    /// compiled form and the compiled pair renders the text the tree
    /// would.
    #[test]
    fn parsed_dependencies_are_their_compiled_form(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=16);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        for _ in 0..16 {
            let want = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let text = spell(&mut rng, &alg, &want);
            let parsed = Dependency::parse(&n, &text);
            prop_assert!(parsed.is_ok(), "{text} in {n}: {parsed:?}");
            let d = parsed.unwrap();
            let c = d.compile(&alg).unwrap();
            prop_assert_eq!(&c, &want, "{} resolved to another dependency", text);
            prop_assert_eq!(c.render(&alg), d.display_in(&n), "{}", text);
            prop_assert_eq!(c.decompile(&alg), d, "{}", text);
        }
    }
}

/// The oracle's scripts reach every way a replay ends, so the property
/// above cannot pass vacuously.
#[test]
fn replay_oracle_covers_every_outcome() {
    let seen: std::collections::BTreeSet<_> = (0..96)
        .map(|seed| replay_matches_oracle(seed).unwrap())
        .collect();
    for outcome in ["Invalid", "Replay", "Resource", "Store", "clean", "torn"] {
        assert!(
            seen.contains(outcome),
            "no script ended {outcome}: {seen:?}"
        );
    }
}
