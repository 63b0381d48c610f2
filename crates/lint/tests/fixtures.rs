//! Golden-file tests over the fixture corpus in `tests/lint_fixtures/`.
//!
//! Each rule `LNNN` has a seeded-defect fixture:
//!
//! * `lNNN.schema` — the nested attribute the spec is written against;
//! * `lNNN_trigger.deps` — a spec that must raise `LNNN`;
//! * `lNNN_trigger.human` / `.json` — golden renderings of the report;
//! * `lNNN_near.deps` — a near-miss that must NOT raise `LNNN`
//!   (`lNNN_near.schema` overrides the schema when present).
//!
//! `l007_ambiguous.*` additionally pins the ambiguity message and hint.
//!
//! Regenerate the goldens with `UPDATE_GOLDENS=1 cargo test -p nalist-lint
//! --test fixtures` after an intentional output change, then review the
//! diff like any other code change.

use std::fs;
use std::path::{Path, PathBuf};

use nalist_lint::{lint_spec, lint_to_human, lint_to_json};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint_fixtures")
}

fn read(name: &str) -> String {
    let path = fixture_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn bless() -> bool {
    std::env::var_os("UPDATE_GOLDENS").is_some()
}

/// Compares `actual` against the golden file, or rewrites the golden when
/// `UPDATE_GOLDENS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_dir().join(name);
    if bless() {
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = read(name);
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; rerun with UPDATE_GOLDENS=1 if intentional"
    );
}

/// The length of the caret underline on a `  | ^^^^` gutter line, if any.
fn caret_run(line: &str) -> Option<usize> {
    let t = line.trim_start().strip_prefix('|')?.trim_start();
    t.starts_with('^')
        .then(|| t.chars().take_while(|&c| c == '^').count())
}

/// Runs one rule's trigger + near-miss fixture pair.
fn check_rule(code: &str) {
    let stem = code.to_ascii_lowercase();
    let schema = read(&format!("{stem}.schema"));
    let trigger_file = format!("{stem}_trigger.deps");
    let trigger = read(&trigger_file);

    let report = lint_spec(&schema, &trigger).unwrap();
    assert!(
        report.diagnostics.iter().any(|d| d.code == code),
        "{trigger_file} must raise {code}, got {:?}",
        report
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect::<Vec<_>>()
    );
    // every span points inside the source; only point spans (e.g. the
    // "expected term" position at end of line) may carry no text
    for d in &report.diagnostics {
        assert!(d.span.end <= trigger.len(), "{code}: span out of range");
        assert!(
            !d.span.text(&trigger).is_empty() || d.span.is_empty(),
            "{code}: empty non-point span"
        );
    }

    let human = lint_to_human(&schema, &trigger, &trigger_file).unwrap();
    assert_golden(&format!("{stem}_trigger.human"), &human);
    assert!(human.contains(&format!("[{code}]")), "{human}");
    // caret-position check: the rendered block for this code underlines
    // exactly the diagnosed span (column and width counted in chars)
    assert!(human.lines().any(|l| caret_run(l).is_some()), "{human}");

    let json = lint_to_json(&schema, &trigger, &trigger_file).unwrap();
    assert_golden(&format!("{stem}_trigger.json"), &json);
    round_trip(&json, &report, &trigger_file);

    // near-miss: same shape of spec, but this rule stays quiet
    let near_schema = if fixture_dir().join(format!("{stem}_near.schema")).exists() {
        read(&format!("{stem}_near.schema"))
    } else {
        schema
    };
    let near = read(&format!("{stem}_near.deps"));
    let near_report = lint_spec(&near_schema, &near).unwrap();
    assert!(
        near_report.diagnostics.iter().all(|d| d.code != code),
        "{stem}_near.deps must not raise {code}, got {:?}",
        near_report
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect::<Vec<_>>()
    );
}

/// The JSON output round-trips through the hand-rolled parser and agrees
/// with the in-memory report, field by field.
fn round_trip(json: &str, report: &nalist_lint::LintReport, file: &str) {
    let v = nalist_lint::json::parse(json).unwrap();
    assert_eq!(v.get("file").unwrap().as_str(), Some(file));
    assert_eq!(v.get("errors").unwrap().as_usize(), Some(report.errors()));
    assert_eq!(
        v.get("warnings").unwrap().as_usize(),
        Some(report.warnings())
    );
    let arr = v.get("diagnostics").unwrap().as_arr().unwrap();
    assert_eq!(arr.len(), report.diagnostics.len());
    for (j, d) in arr.iter().zip(&report.diagnostics) {
        assert_eq!(j.get("code").unwrap().as_str(), Some(d.code));
        assert_eq!(
            j.get("severity").unwrap().as_str(),
            Some(d.severity.label())
        );
        assert_eq!(j.get("start").unwrap().as_usize(), Some(d.span.start));
        assert_eq!(j.get("end").unwrap().as_usize(), Some(d.span.end));
        assert_eq!(j.get("message").unwrap().as_str(), Some(d.message.as_str()));
        match &d.suggestion {
            Some(s) => assert_eq!(j.get("suggestion").unwrap().as_str(), Some(s.as_str())),
            None => assert!(j.get("suggestion").unwrap().as_str().is_none()),
        }
    }
}

#[test]
fn l000_syntax_error() {
    check_rule("L000");
}

#[test]
fn l001_trivial() {
    check_rule("L001");
}

#[test]
fn l002_redundant() {
    check_rule("L002");
}

#[test]
fn l003_duplicate_or_subsumed() {
    check_rule("L003");
}

#[test]
fn l004_extraneous_lhs() {
    check_rule("L004");
}

#[test]
fn l005_fd_from_mvd() {
    check_rule("L005");
}

#[test]
fn l006_non_possessed_rhs() {
    check_rule("L006");
}

#[test]
fn l007_unresolved_path() {
    check_rule("L007");
}

#[test]
fn l008_not_minimal_cover() {
    check_rule("L008");
}

#[test]
fn l009_4nf_violation() {
    check_rule("L009");
}

/// The paper's own ambiguous abbreviation (§3.3): `L(A)` in `L(A, A)`.
/// The message carries the resolution count and the hint spells out the
/// first resolution (the match-first one, `L(A, λ)`).
#[test]
fn l007_ambiguous_abbreviation() {
    let schema = read("l007_ambiguous.schema");
    let deps_file = "l007_ambiguous.deps";
    let deps = read(deps_file);
    let report = lint_spec(&schema, &deps).unwrap();
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["L007"]);
    let d = &report.diagnostics[0];
    assert_eq!(
        d.message,
        "`L(A)` is ambiguous in L(A, A): 2 distinct resolutions"
    );
    assert_eq!(
        d.suggestion.as_deref(),
        Some("disambiguate by writing the subattribute in full, e.g. `L(A, λ)`")
    );
    let human = lint_to_human(&schema, &deps, deps_file).unwrap();
    assert_golden("l007_ambiguous.human", &human);
    let json = lint_to_json(&schema, &deps, deps_file).unwrap();
    assert_golden("l007_ambiguous.json", &json);
    round_trip(&json, &report, deps_file);
}

/// Caret lines in the human goldens sit directly under the diagnosed
/// text: for each `^^^` gutter line the run of carets must be as wide (in
/// chars) as the span text of some diagnostic on that report.
#[test]
fn caret_runs_match_span_widths() {
    for code in ["L001", "L004", "L006", "L007"] {
        let stem = code.to_ascii_lowercase();
        let schema = read(&format!("{stem}.schema"));
        let deps = read(&format!("{stem}_trigger.deps"));
        let report = lint_spec(&schema, &deps).unwrap();
        let human = lint_to_human(&schema, &deps, "f.deps").unwrap();
        let widths: Vec<usize> = report
            .diagnostics
            .iter()
            .map(|d| d.span.text(&deps).chars().count().max(1))
            .collect();
        let mut seen = 0;
        for line in human.lines() {
            if let Some(run) = caret_run(line) {
                seen += 1;
                assert!(
                    widths.contains(&run),
                    "caret run {run} not in {widths:?}\n{human}"
                );
            }
        }
        assert_eq!(
            seen,
            report.diagnostics.len(),
            "one caret line per finding\n{human}"
        );
    }
}
