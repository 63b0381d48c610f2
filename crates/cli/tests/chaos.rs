//! Chaos harness: every CLI command, fed every pathological input in
//! the chaos corpus, must terminate within its deadline with exit code
//! 0, 1, 2 or 3 — never a panic, never a runaway computation.
//!
//! Runs [`nalist_cli::run`] in-process (through the [`Files`] seam) so a
//! panic anywhere in the stack is caught by `catch_unwind` and failed
//! loudly, and wall-clock per invocation can be asserted directly.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use nalist::gen::chaos::{corpus, durability_corpus, Expectation};
use nalist::guard::{Budget, FailAction, FailPoint};
use nalist_cli::{run, run_with_budget, run_with_failpoints, Files};

struct MemFiles(BTreeMap<String, String>);

impl Files for MemFiles {
    fn read(&self, path: &str) -> Result<String, String> {
        self.0
            .get(path)
            .cloned()
            .ok_or_else(|| format!("no such file: {path}"))
    }
}

/// [`MemFiles`] that also accepts writes, so `--metrics` chaos cases can
/// inspect what the CLI persisted after a failure.
struct RwFiles {
    inner: MemFiles,
    written: std::cell::RefCell<BTreeMap<String, String>>,
}

impl Files for RwFiles {
    fn read(&self, path: &str) -> Result<String, String> {
        self.inner.read(path)
    }

    fn write(&self, path: &str, content: &str) -> Result<(), String> {
        self.written
            .borrow_mut()
            .insert(path.to_string(), content.to_string());
        Ok(())
    }
}

const TIMEOUT_MS: u64 = 2_000;

/// Every command template exercised against each corpus case. `{s}` is
/// the schema (passed inline), file names resolve through [`MemFiles`].
const COMMAND_TEMPLATES: &[&[&str]] = &[
    &["decide", "{s}", "deps.txt", "λ -> λ"],
    &["check", "{s}", "deps.txt", "cert.json"],
    &["batch", "{s}", "deps.txt", "deps.txt"],
    &["replay", "{s}", "edits.txt"],
    &["prove", "{s}", "deps.txt", "λ -> λ"],
    &["closure", "{s}", "deps.txt", "λ"],
    &["basis", "{s}", "deps.txt", "λ"],
    &["trace", "{s}", "deps.txt", "λ"],
    &["verify", "{s}", "deps.txt", "data.txt"],
    &["chase", "{s}", "deps.txt", "data.txt"],
    &["normalize", "{s}", "deps.txt"],
    &["lint", "{s}", "deps.txt"],
    &["lattice", "{s}"],
];

fn invoke(argv: &[String], files: &MemFiles) -> (i32, Duration) {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run(argv, files)));
    let elapsed = started.elapsed();
    let code = match outcome {
        Ok(Ok(_)) => 0,
        Ok(Err(e)) => e.code,
        Err(_) => panic!("PANIC escaped `run` for argv {argv:?}"),
    };
    (code, elapsed)
}

#[test]
fn every_command_survives_the_whole_corpus() {
    for case in corpus() {
        let mut files = BTreeMap::new();
        files.insert("deps.txt".to_string(), case.deps.clone());
        files.insert("data.txt".to_string(), String::new());
        files.insert(
            "cert.json".to_string(),
            nalist::gen::chaos::universal_certificate(&case.schema, &case.deps),
        );
        // the same corpus dependencies as a replay script: add each,
        // then query each (each line doubles as its own membership probe)
        let mut edits = String::new();
        for line in case.deps.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            edits.push_str(&format!("+ {line}\n? {line}\n"));
        }
        files.insert("edits.txt".to_string(), edits);
        let files = MemFiles(files);
        for template in COMMAND_TEMPLATES {
            let mut argv: Vec<String> = template
                .iter()
                .map(|a| {
                    if *a == "{s}" {
                        case.schema.clone()
                    } else {
                        (*a).to_string()
                    }
                })
                .collect();
            argv.extend(
                [
                    "--timeout",
                    &TIMEOUT_MS.to_string(),
                    "--max-atoms",
                    "512",
                    "--max-depth",
                    "256",
                ]
                .iter()
                .map(|s| (*s).to_string()),
            );
            let (code, elapsed) = invoke(&argv, &files);
            assert!(
                (0..=3).contains(&code),
                "case {} / {}: exit code {code} outside 0..=3",
                case.name,
                template[0]
            );
            // The hard ceiling from the failure model: never more than
            // 2x the budget (plus scheduling slack).
            assert!(
                elapsed < Duration::from_millis(2 * TIMEOUT_MS + 250),
                "case {} / {}: took {elapsed:?} against a {TIMEOUT_MS} ms budget",
                case.name,
                template[0]
            );
            if case.expect == Expectation::Accept {
                assert!(
                    code != 2 && code != 3,
                    "case {} / {}: valid input rejected with exit code {code}",
                    case.name,
                    template[0]
                );
            }
        }
    }
}

#[test]
fn expired_deadline_is_exit_code_3_everywhere() {
    let mut files = BTreeMap::new();
    files.insert("deps.txt".to_string(), "L(A) -> L(B)\n".to_string());
    files.insert("data.txt".to_string(), String::new());
    files.insert(
        "cert.json".to_string(),
        nalist::gen::chaos::universal_certificate("L(A, B)", "L(A) -> L(B)\n"),
    );
    let files = MemFiles(files);
    for template in COMMAND_TEMPLATES {
        if template[0] == "lattice" {
            // lattice charges no per-step fuel on tiny inputs; covered by
            // the atom cap instead.
            continue;
        }
        let mut argv: Vec<String> = template
            .iter()
            .map(|a| {
                if *a == "{s}" {
                    "L(A, B)".to_string()
                } else {
                    (*a).to_string()
                }
            })
            .collect();
        argv.extend(["--timeout", "0"].iter().map(|s| (*s).to_string()));
        let (code, _) = invoke(&argv, &files);
        assert_eq!(code, 3, "{}: expected resource exhaustion", template[0]);
    }
}

#[test]
fn injected_fuel_exhaustion_in_closure_is_exit_code_3() {
    let mut files = BTreeMap::new();
    files.insert("deps.txt".to_string(), "L(A) -> L(B)\n".to_string());
    let files = MemFiles(files);
    let budget = Budget::unlimited().with_failpoint(FailPoint::every(
        "membership::closure",
        FailAction::ExhaustFuel,
    ));
    let argv: Vec<String> = ["closure", "L(A, B)", "deps.txt", "L(A)"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let e = run_with_budget(&argv, &files, &budget).unwrap_err();
    assert_eq!(e.code, 3);
}

/// `nalist trace` runs Algorithm 5.1 under the command's budget, like
/// `closure`: a budget that runs out inside the traced run exits 3
/// instead of printing the trace.
#[test]
fn injected_fuel_exhaustion_in_trace_is_exit_code_3() {
    let mut files = BTreeMap::new();
    files.insert("deps.txt".to_string(), "L(A) -> L(B)\n".to_string());
    let files = MemFiles(files);
    let argv: Vec<String> = ["trace", "L(A, B)", "deps.txt", "L(A)"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let out = run_with_budget(&argv, &files, &Budget::unlimited()).unwrap();
    assert!(out.contains("pass 1:"), "{out}");
    let budget = Budget::unlimited().with_failpoint(FailPoint::every(
        "membership::closure",
        FailAction::ExhaustFuel,
    ));
    let e = run_with_budget(&argv, &files, &budget).unwrap_err();
    assert_eq!(e.code, 3, "{}", e.message);
}

/// `--metrics` must leave behind a parseable JSON document carrying the
/// right exit code for *every* failure class: domain error (1), usage
/// error (2) and resource exhaustion (3).
#[test]
fn metrics_json_is_valid_on_every_failing_exit_code() {
    let mut files = BTreeMap::new();
    files.insert("deps.txt".to_string(), "L(A) -> L(B)\n".to_string());
    let cases: &[(&[&str], i32)] = &[
        // refutable dependency rendered as a decision on a malformed target: domain error
        (&["decide", "L(A, B)", "deps.txt", "not a dependency"], 1),
        // unknown command: usage error
        (&["frobnicate", "L(A, B)"], 2),
        // pre-expired deadline: resource exhaustion
        (
            &["closure", "L(A, B)", "deps.txt", "L(A)", "--timeout", "0"],
            3,
        ),
    ];
    for (argv, want) in cases {
        let rw = RwFiles {
            inner: MemFiles(files.clone()),
            written: std::cell::RefCell::new(BTreeMap::new()),
        };
        let mut argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
        argv.extend(["--metrics", "m.json"].iter().map(|s| (*s).to_string()));
        let e = run(&argv, &rw).unwrap_err();
        assert_eq!(e.code, *want, "{argv:?}: {}", e.message);
        let written = rw.written.borrow();
        let doc = written
            .get("m.json")
            .unwrap_or_else(|| panic!("no metrics file written for exit code {want} ({argv:?})"));
        let parsed = nalist::lint::json::parse(doc)
            .unwrap_or_else(|err| panic!("invalid metrics JSON on exit {want}: {err}\n{doc}"));
        assert_eq!(
            parsed.get("exit_code").and_then(|v| v.as_usize()),
            Some(usize::try_from(*want).unwrap()),
            "exit code {want} not recorded in metrics JSON"
        );
    }
}

#[test]
fn injected_chase_fault_is_exit_code_3() {
    let mut files = BTreeMap::new();
    files.insert("deps.txt".to_string(), "L(A) ->> L(B)\n".to_string());
    files.insert("data.txt".to_string(), "(a, b, c)\n".to_string());
    let files = MemFiles(files);
    let budget = Budget::unlimited()
        .with_failpoint(FailPoint::every("deps::chase", FailAction::ExhaustFuel));
    let argv: Vec<String> = ["chase", "L(A, B, C)", "deps.txt", "data.txt"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let e = run_with_budget(&argv, &files, &budget).unwrap_err();
    assert_eq!(e.code, 3);
}

/// Every hostile certificate in the corpus is rejected with a
/// structured error — exit 1 (semantic), 2 (unreadable document) or 3
/// (resource) — and never a panic or a hang.
#[test]
fn hostile_certificates_are_rejected_not_fatal() {
    for (name, cert) in nalist::gen::chaos::hostile_certificates() {
        let mut files = BTreeMap::new();
        files.insert("deps.txt".to_string(), "L(A) -> L(B)\n".to_string());
        files.insert("cert.json".to_string(), cert);
        let files = MemFiles(files);
        let argv: Vec<String> = [
            "check",
            "L(A, B)",
            "deps.txt",
            "cert.json",
            "--timeout",
            "2000",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let (code, elapsed) = invoke(&argv, &files);
        assert!(
            (1..=3).contains(&code),
            "{name}: expected rejection, got exit code {code}"
        );
        assert!(
            elapsed < Duration::from_millis(2 * TIMEOUT_MS + 250),
            "{name}: took {elapsed:?}"
        );
    }
}

/// Seeds a valid snapshot/WAL pair on the real filesystem (snapshot and
/// WAL files are binary and bypass the [`Files`] seam) and returns
/// `(dir, snapshot bytes, wal bytes)`. The journal's last record is a
/// remove, so the duplicate-record corpus case exercises the
/// replay-rejection path.
fn seed_durability_pair(tag: &str) -> (std::path::PathBuf, Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("nalist_chaos_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("base.snap");
    let wal_path = dir.join("base.wal");
    let mut files = BTreeMap::new();
    files.insert("deps.txt".to_string(), String::new());
    files.insert(
        "edits.txt".to_string(),
        "+ L(A) -> L(B)\n+ L(B) ->> L(C)\n? L(A) ->> L(C)\n- L(A) -> L(B)\n".to_string(),
    );
    let files = MemFiles(files);
    let (code, _) = invoke(
        &[
            "snapshot".to_string(),
            "L(A, B, C)".to_string(),
            "deps.txt".to_string(),
            snap_path.to_str().unwrap().to_string(),
        ],
        &files,
    );
    assert_eq!(code, 0, "seed snapshot failed");
    let (code, _) = invoke(
        &[
            "replay".to_string(),
            "L(A, B, C)".to_string(),
            "edits.txt".to_string(),
            "--wal".to_string(),
            wal_path.to_str().unwrap().to_string(),
        ],
        &files,
    );
    assert_eq!(code, 0, "seed journal failed");
    let snap = std::fs::read(&snap_path).unwrap();
    let wal = std::fs::read(&wal_path).unwrap();
    (dir, snap, wal)
}

/// Every mangled snapshot/WAL pair in the durability corpus yields a
/// structured outcome within the contract's exit-code set — detected
/// corruption (2), a reported torn-tail recovery (0), or a replay
/// rejection (1) — never a panic, a hang, or a code outside 0..=3.
#[test]
fn durability_corpus_exit_code_contract() {
    let (dir, snap, wal) = seed_durability_pair("dur");
    let files = MemFiles(BTreeMap::new());
    for case in durability_corpus(&snap, &wal) {
        let s = dir.join(format!("{}.snap", case.name));
        std::fs::write(&s, &case.snapshot).unwrap();
        let mut cmd = vec!["recover".to_string(), s.to_str().unwrap().to_string()];
        if let Some(wal_bytes) = &case.wal {
            let w = dir.join(format!("{}.wal", case.name));
            std::fs::write(&w, wal_bytes).unwrap();
            cmd.push("--wal".to_string());
            cmd.push(w.to_str().unwrap().to_string());
        }
        cmd.extend(["--timeout".to_string(), TIMEOUT_MS.to_string()]);
        let (code, elapsed) = invoke(&cmd, &files);
        assert!(
            case.expect.contains(&code),
            "case {}: exit code {code}, expected one of {:?}",
            case.name,
            case.expect
        );
        assert!(
            elapsed < Duration::from_millis(2 * TIMEOUT_MS + 250),
            "case {}: took {elapsed:?}",
            case.name
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash injected mid-journaling (panic at the `store::append` fail
/// point, as the crash-recovery CI job does to the release binary via
/// `NALIST_FAILPOINT`) leaves a prefix-consistent journal that recovery
/// accepts without error.
#[test]
fn crash_mid_append_leaves_a_recoverable_journal() {
    let dir = std::env::temp_dir().join(format!("nalist_chaos_crash_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("base.snap");
    let wal_path = dir.join("crash.wal");
    let mut mem = BTreeMap::new();
    mem.insert("deps.txt".to_string(), String::new());
    mem.insert(
        "edits.txt".to_string(),
        "+ L(A) -> L(B)\n+ L(B) ->> L(C)\n? L(A) ->> L(C)\n".to_string(),
    );
    let files = MemFiles(mem);
    let (code, _) = invoke(
        &[
            "snapshot".to_string(),
            "L(A, B, C)".to_string(),
            "deps.txt".to_string(),
            snap_path.to_str().unwrap().to_string(),
        ],
        &files,
    );
    assert_eq!(code, 0);
    // crash on the 3rd append: header + first add commit, the second
    // add never reaches the log
    let argv = vec![
        "replay".to_string(),
        "L(A, B, C)".to_string(),
        "edits.txt".to_string(),
        "--wal".to_string(),
        wal_path.to_str().unwrap().to_string(),
    ];
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_with_failpoints(
            &argv,
            &files,
            vec![FailPoint::nth("store::append", 2, FailAction::Panic)],
        )
    }));
    assert!(crashed.is_err(), "injected panic did not fire");
    let (code, _) = invoke(
        &[
            "recover".to_string(),
            snap_path.to_str().unwrap().to_string(),
            "--wal".to_string(),
            wal_path.to_str().unwrap().to_string(),
        ],
        &files,
    );
    assert_eq!(code, 0, "committed journal prefix must recover cleanly");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `replay --wal` decides each line before journaling it, so a line it
/// rejects never reaches the log: after a bad second line the journal
/// still recovers, to a Σ holding exactly the first add.
#[test]
fn rejected_replay_lines_never_reach_the_journal() {
    let dir = std::env::temp_dir().join(format!("nalist_chaos_reject_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("base.snap").to_str().unwrap().to_string();
    let bad_lines = [
        "+ L(A) -> L(Q)", // Q is not an attribute of the schema
        "? L(A) ->",      // a query that does not parse
        "- L(B) -> L(C)", // a remove of a dependency Σ does not hold
    ];
    let mut mem = BTreeMap::new();
    mem.insert("empty.deps".to_string(), String::new());
    for (i, bad) in bad_lines.iter().enumerate() {
        mem.insert(format!("edits{i}.txt"), format!("+ L(A) -> L(B)\n{bad}\n"));
    }
    let files = MemFiles(mem);
    let argv = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
    run(
        &argv(&["snapshot", "L(A, B, C)", "empty.deps", &snap]),
        &files,
    )
    .unwrap();
    for (i, bad) in bad_lines.iter().enumerate() {
        let script = format!("edits{i}.txt");
        let wal = dir.join(format!("j{i}.wal")).to_str().unwrap().to_string();
        let err = run(
            &argv(&["replay", "L(A, B, C)", &script, "--wal", &wal]),
            &files,
        )
        .unwrap_err();
        assert_eq!(err.code, 1, "{bad}: {}", err.message);
        assert!(
            err.message.contains(&format!("{script}:2")),
            "{bad}: {}",
            err.message
        );
        let out = run(&argv(&["recover", &snap, "--wal", &wal]), &files)
            .unwrap_or_else(|e| panic!("{bad}: recovery failed: {}", e.message));
        assert!(
            out.contains("Σ (1 dependencies):\n  [0] L(A) -> L(B)\n"),
            "{bad}: {out}"
        );
        assert!(
            out.contains("WAL: replayed 1 add(s), 0 remove(s), 0 query(ies)"),
            "{bad}: {out}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journaled `-` whose dependency Σ does not hold cannot apply, so
/// recovery stops at it with exit 1 (replay rejection) instead of
/// counting a remove that changed nothing. `replay --wal` no longer
/// journals such a line, so the log is written record by record.
#[test]
fn recovery_rejects_a_remove_of_a_dependency_not_in_sigma() {
    use nalist::membership::WalOp;
    let dir = std::env::temp_dir().join(format!("nalist_chaos_absent_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("base.snap").to_str().unwrap().to_string();
    let wal = dir.join("absent.wal");
    let mut mem = BTreeMap::new();
    mem.insert("empty.deps".to_string(), String::new());
    let files = MemFiles(mem);
    let argv = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
    run(
        &argv(&["snapshot", "L(A, B, C)", "empty.deps", &snap]),
        &files,
    )
    .unwrap();
    let schema = nalist::prelude::parse_attr("L(A, B, C)").unwrap();
    let mut writer = nalist::store::WalWriter::create(&wal, false).unwrap();
    for op in [
        WalOp::Header {
            schema: schema.to_string(),
        },
        WalOp::Add("L(A) -> L(B)".to_string()),
        WalOp::Remove("L(B) -> L(C)".to_string()),
    ] {
        writer
            .append(
                &op.encode(),
                &Budget::unlimited(),
                &nalist::obs::NoopRecorder,
            )
            .unwrap();
    }
    drop(writer);
    let err = run(
        &argv(&["recover", &snap, "--wal", wal.to_str().unwrap()]),
        &files,
    )
    .unwrap_err();
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(
        err.message.contains("WAL record 2") && err.message.contains("not in Σ"),
        "{}",
        err.message
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery reads the persisted texts under the depth cap the writers
/// parsed them under: a 130-level schema and dependency that `snapshot`
/// and `replay --wal` wrote under `--max-depth 200` recover under the
/// same flag, and without it recovery still refuses the schema (exit 2)
/// at the default cap of 128.
#[test]
fn recovery_reads_persisted_texts_under_the_writers_depth_cap() {
    let dir = std::env::temp_dir().join(format!("nalist_chaos_depth_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("deep.snap").to_str().unwrap().to_string();
    let wal = dir.join("deep.wal").to_str().unwrap().to_string();
    let list = (1..130)
        .rev()
        .fold("B".to_string(), |inner, i| format!("L{i}[{inner}]"));
    let schema = format!("L0(A, {list})");
    let dep = format!("L0(A) -> L0({list})");
    let mut mem = BTreeMap::new();
    mem.insert("empty.deps".to_string(), String::new());
    mem.insert("script.txt".to_string(), format!("+ {dep}\n? {dep}\n"));
    let files = MemFiles(mem);
    let argv = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
    let deep = ["--max-depth", "200"];
    run(
        &argv(&[&["snapshot", &schema, "empty.deps", &snap][..], &deep].concat()),
        &files,
    )
    .unwrap();
    run(
        &argv(&[&["replay", &schema, "script.txt", "--wal", &wal][..], &deep].concat()),
        &files,
    )
    .unwrap();
    let out = run(
        &argv(&[&["recover", &snap, "--wal", &wal][..], &deep].concat()),
        &files,
    )
    .unwrap_or_else(|e| panic!("exit {}: {}", e.code, e.message));
    assert!(
        out.contains("Σ (1 dependencies):\n  [0] L0(A) -> "),
        "{out}"
    );
    assert!(
        out.contains("WAL: replayed 1 add(s), 0 remove(s), 1 query(ies)"),
        "{out}"
    );
    let err = run(&argv(&["recover", &snap, "--wal", &wal]), &files).unwrap_err();
    assert_eq!(err.code, 2, "{}", err.message);
    assert!(
        err.message.contains("nesting deeper than the limit of 128"),
        "{}",
        err.message
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The universal certificate really is universally accepted: emit-check
/// round trip through the CLI for a handful of well-formed schemas.
#[test]
fn universal_certificate_is_accepted_for_wellformed_schemas() {
    for (schema, deps) in [
        ("L(A, B)", "L(A) -> L(B)\n"),
        ("Pubcrawl(Person, Visit[Drink(Beer, Pub)])", ""),
        ("L(A, B, C)", "# comment\nL(A) ->> L(B)\n"),
    ] {
        let mut files = BTreeMap::new();
        files.insert("deps.txt".to_string(), deps.to_string());
        files.insert(
            "cert.json".to_string(),
            nalist::gen::chaos::universal_certificate(schema, deps),
        );
        let files = MemFiles(files);
        let argv: Vec<String> = ["check", schema, "deps.txt", "cert.json"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let (code, _) = invoke(&argv, &files);
        assert_eq!(code, 0, "{schema}: universal certificate rejected");
    }
}
