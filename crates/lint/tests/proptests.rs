//! Property tests bridging the workload generators to the linter.
//!
//! Three families:
//!
//! * rewriting Σ with `minimal_cover` produces a spec that is clean of
//!   every dependency-level rule (L000–L005, L007, L008) — the fix-it
//!   printed by L008 never re-triggers the linter;
//! * the defect seeders of `nalist-gen` plant findings exactly where
//!   they claim (the appended line is blamed with the expected code);
//! * the JSON rendering round-trips through the hand-rolled parser.
//!
//! Structured inputs come from proptest-generated seeds driving the
//! deterministic generators, matching the repo-wide idiom.

use nalist_algebra::Algebra;
use nalist_deps::CompiledDep;
use nalist_gen::defects::{
    render_sigma, seed_duplicate, seed_inflated_lhs, seed_trivial, seed_weakened,
};
use nalist_gen::{attr_with_atoms, random_sigma, SigmaConfig};
use nalist_guard::Budget;
use nalist_lint::{lint_spec, render_json, LintReport};
use nalist_schema::minimal_cover;
use nalist_types::NestedAttr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rules that speak about individual dependencies (as opposed to the
/// schema-design rules L006/L009, which legitimately survive rewriting).
const DEP_LEVEL: [&str; 8] = [
    "L000", "L001", "L002", "L003", "L004", "L005", "L007", "L008",
];

fn setup(seed: u64) -> (StdRng, NestedAttr, Algebra, Vec<CompiledDep>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let atoms = rng.gen_range(3..=14);
    let n = attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&n);
    let sigma = random_sigma(&mut rng, &alg, &SigmaConfig::default());
    (rng, n, alg, sigma)
}

fn lint(n: &NestedAttr, alg: &Algebra, sigma: &[CompiledDep]) -> (String, LintReport) {
    let deps = render_sigma(alg, sigma);
    let report = lint_spec(&n.to_string(), &deps, &Budget::unlimited())
        .expect("schema text must round-trip");
    (deps, report)
}

/// Byte offset where the appended (last) dependency line starts.
fn last_line_start(deps: &str) -> usize {
    deps.trim_end_matches('\n').rfind('\n').map_or(0, |i| i + 1)
}

fn codes_on_last_line(deps: &str, report: &LintReport) -> Vec<&'static str> {
    let start = last_line_start(deps);
    report
        .diagnostics
        .iter()
        .filter(|d| d.span.start >= start)
        .map(|d| d.code)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `minimal_cover` output never triggers a dependency-level rule,
    /// and a spec that was already fully lint-clean stays clean.
    #[test]
    fn minimal_cover_output_is_lint_clean(seed in any::<u64>()) {
        let (_, n, alg, sigma) = setup(seed);
        let (_, before) = lint(&n, &alg, &sigma);
        let cover = minimal_cover(&alg, &sigma, &Budget::unlimited()).unwrap();
        let (_, after) = lint(&n, &alg, &cover);
        for d in &after.diagnostics {
            prop_assert!(
                !DEP_LEVEL.contains(&d.code),
                "cover output raised {}: {}",
                d.code,
                d.message
            );
        }
        if before.is_clean() {
            prop_assert!(after.is_clean(), "clean spec became dirty after rewriting");
        }
    }

    /// A seeded trivial dependency is blamed L001 on its own line.
    #[test]
    fn seeded_trivial_is_blamed(seed in any::<u64>()) {
        let (mut rng, n, alg, mut sigma) = setup(seed);
        sigma.push(seed_trivial(&mut rng, &alg, 0.4));
        let (deps, report) = lint(&n, &alg, &sigma);
        prop_assert!(
            codes_on_last_line(&deps, &report).contains(&"L001"),
            "no L001 on the seeded line of:\n{deps}"
        );
    }

    /// A seeded exact duplicate is blamed L003 on the later occurrence.
    #[test]
    fn seeded_duplicate_is_blamed(seed in any::<u64>()) {
        let (mut rng, n, alg, mut sigma) = setup(seed);
        if let Some((dup, _)) = seed_duplicate(&mut rng, &sigma) {
            sigma.push(dup);
            let (deps, report) = lint(&n, &alg, &sigma);
            prop_assert!(
                codes_on_last_line(&deps, &report).contains(&"L003"),
                "no L003 on the duplicated line of:\n{deps}"
            );
        }
    }

    /// A seeded weakened FD (larger LHS / smaller RHS than an original
    /// that stays in Σ) is subsumed, hence blamed L003.
    #[test]
    fn seeded_weakened_is_blamed(seed in any::<u64>()) {
        let (mut rng, n, alg, mut sigma) = setup(seed);
        if let Some((weak, _)) = seed_weakened(&mut rng, &alg, &sigma, 0.3) {
            sigma.push(weak);
            let (deps, report) = lint(&n, &alg, &sigma);
            prop_assert!(
                codes_on_last_line(&deps, &report).contains(&"L003"),
                "no L003 on the weakened line of:\n{deps}"
            );
        }
    }

    /// A seeded inflated-LHS copy is caught: left-reduction (L004),
    /// subsumption (L003) or triviality (L001, when the join swallowed
    /// the RHS) — one of them must blame the appended line.
    #[test]
    fn seeded_inflated_lhs_is_blamed(seed in any::<u64>()) {
        let (mut rng, n, alg, mut sigma) = setup(seed);
        if let Some((fat, _)) = seed_inflated_lhs(&mut rng, &alg, &sigma, 0.4) {
            sigma.push(fat);
            let (deps, report) = lint(&n, &alg, &sigma);
            let codes = codes_on_last_line(&deps, &report);
            prop_assert!(
                codes.iter().any(|c| ["L001", "L003", "L004"].contains(c)),
                "inflated line not blamed ({codes:?}) in:\n{deps}"
            );
        }
    }

    /// JSON rendering of an arbitrary (defective) report parses back and
    /// agrees with the in-memory diagnostics field by field.
    #[test]
    fn json_round_trips(seed in any::<u64>()) {
        let (mut rng, n, alg, mut sigma) = setup(seed);
        sigma.push(seed_trivial(&mut rng, &alg, 0.4));
        let deps = render_sigma(&alg, &sigma);
        let schema = n.to_string();
        let report = lint_spec(&schema, &deps, &Budget::unlimited()).unwrap();
        let json = render_json(&report, "prop.deps", &deps);
        let v = nalist_lint::json::parse(&json).unwrap();
        prop_assert_eq!(v.get("errors").unwrap().as_usize(), Some(report.errors()));
        prop_assert_eq!(v.get("warnings").unwrap().as_usize(), Some(report.warnings()));
        let arr = v.get("diagnostics").unwrap().as_arr().unwrap();
        prop_assert_eq!(arr.len(), report.diagnostics.len());
        for (j, d) in arr.iter().zip(&report.diagnostics) {
            prop_assert_eq!(j.get("code").unwrap().as_str(), Some(d.code));
            prop_assert_eq!(j.get("start").unwrap().as_usize(), Some(d.span.start));
            prop_assert_eq!(j.get("end").unwrap().as_usize(), Some(d.span.end));
            prop_assert_eq!(
                j.get("message").unwrap().as_str(),
                Some(d.message.as_str())
            );
        }
    }
}
