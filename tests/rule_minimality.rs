//! An empirical study of the paper's Section 7 open question: *"The
//! inference rules from Theorem 4.6 are expected to be redundant. A
//! detailed study of minimal sets of inference rules … was outside the
//! scope of this paper."*
//!
//! For every rule `R` we saturate a battery of small workloads under the
//! full calculus and under the calculus minus `R`. A lost derivation
//! witnesses necessity (relative to the other thirteen); identical
//! closures everywhere are evidence of redundancy.
//!
//! ## Findings (see EXPERIMENTS.md, E-MINRULES)
//!
//! With this library's **generalised coalescence rule**
//! (`W ≤ X ⊔ Y^C` instead of the relational `W ⊓ Y = λ`), the calculus
//! is far more redundant than the relational intuition suggests:
//!
//! * **necessary on the battery**: complementation, MVD transitivity,
//!   implication, coalescence, multi-valued join;
//! * **empirically redundant**: even the FD reflexivity axiom (derivable
//!   from `X ↠ Y ⊢ X → Y⊓Y^C`-style bottom FDs plus extension), FD
//!   transitivity (bypassed through complementation + generalised
//!   coalescence), and — remarkably — the **mixed meet rule itself**:
//!   generalised coalescence with a trivial FD premise
//!   (`Z ≤ Y`, `Z = W ≤ X ⊔ Y^C`) reproduces exactly the mixed-meet
//!   conclusion. The paper's pairing (relational-style coalescence +
//!   mixed meet) and ours (generalised coalescence) are two different
//!   axiomatisations of the same closure.

use nalist::deps::rules::{Rule, ALL_RULES};
use nalist::prelude::*;
use nalist_oracle::naive::{NaiveClosure, NaiveConfig};
use std::collections::BTreeSet;

fn battery() -> Vec<(Algebra, Vec<CompiledDep>)> {
    let mut out = Vec::new();
    for (attr, deps) in [
        ("L(A, B, C)", vec!["L(A) -> L(B)", "L(B) -> L(C)"]),
        ("L(A, B, C)", vec!["L(A) ->> L(B)", "L(C) -> L(B)"]),
        ("L(A, B, C, D)", vec!["L(A) ->> L(B)", "L(B) ->> L(C)"]),
        ("L[A]", vec!["λ ->> L[λ]"]),
        ("L(A, M[B])", vec!["L(A) ->> L(M[B])"]),
        (
            "K[L(M[A], B)]",
            vec!["K[L(B)] ->> K[L(M[A])]", "K[λ] -> K[L(B)]"],
        ),
        (
            "L(M[A], P[B])",
            vec!["L(M[λ]) ->> L(P[B])", "L(P[λ]) -> L(M[λ])"],
        ),
    ] {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        out.push((alg, sigma));
    }
    out
}

fn closure_set(alg: &Algebra, sigma: &[CompiledDep], rules: Vec<Rule>) -> BTreeSet<CompiledDep> {
    let cfg = NaiveConfig {
        rules,
        ..NaiveConfig::default()
    };
    NaiveClosure::compute(alg, sigma, cfg)
        .expect("battery inputs are small")
        .all()
        .into_iter()
        .collect()
}

/// Returns `Some(workload index)` witnessing necessity, `None` if the
/// rule is redundant on the whole battery.
fn necessity(rule: Rule) -> Option<usize> {
    for (i, (alg, sigma)) in battery().iter().enumerate() {
        let full = closure_set(alg, sigma, ALL_RULES.to_vec());
        let without = closure_set(
            alg,
            sigma,
            ALL_RULES.iter().copied().filter(|r| *r != rule).collect(),
        );
        assert!(
            without.is_subset(&full),
            "removing a rule must not add derivations"
        );
        if without != full {
            return Some(i);
        }
    }
    None
}

#[test]
fn classification_matches_findings() {
    let necessary: Vec<&str> = ALL_RULES
        .iter()
        .filter(|r| necessity(**r).is_some())
        .map(|r| r.name())
        .collect();
    assert_eq!(
        necessary,
        vec![
            "complementation rule",
            "MVD transitivity rule",
            "implication rule",
            "coalescence rule",
            "multi-valued join rule",
        ],
        "the battery's necessity classification changed — update the study"
    );
}

#[test]
fn mixed_meet_subsumed_by_generalised_coalescence() {
    // λ → L[λ] from λ ↠ L[λ]: derivable WITHOUT the mixed meet rule,
    // because generalised coalescence with the trivial premise
    // L[λ] → L[λ] (Z = W = L[λ], W ≤ X ⊔ Y^C = N) concludes it directly.
    let n = parse_attr("L[A]").unwrap();
    let alg = Algebra::new(&n);
    let sigma = vec![Dependency::parse(&n, "λ ->> L[λ]")
        .unwrap()
        .compile(&alg)
        .unwrap()];
    let target = Dependency::parse(&n, "λ -> L[λ]")
        .unwrap()
        .compile(&alg)
        .unwrap();
    let without_mixed = closure_set(
        &alg,
        &sigma,
        ALL_RULES
            .iter()
            .copied()
            .filter(|r| *r != Rule::MixedMeet)
            .collect(),
    );
    assert!(without_mixed.contains(&target));
    // but dropping BOTH coalescence and mixed meet loses the inference —
    // the two rules are the two interchangeable carriers of the
    // list-specific power
    let without_both = closure_set(
        &alg,
        &sigma,
        ALL_RULES
            .iter()
            .copied()
            .filter(|r| *r != Rule::MixedMeet && *r != Rule::Coalescence)
            .collect(),
    );
    assert!(!without_both.contains(&target));
}

#[test]
fn fd_reflexivity_derivable_from_the_rest() {
    // X → Y for Y ≤ X without the FD reflexivity axiom: MVD reflexivity
    // gives X ↠ Y'; mixed meet / coalescence give bottom FDs; extension
    // rebuilds arbitrary reflexive FDs. Verified by closure equality:
    let (alg, sigma) = &battery()[0];
    let full = closure_set(alg, sigma, ALL_RULES.to_vec());
    let without = closure_set(
        alg,
        sigma,
        ALL_RULES
            .iter()
            .copied()
            .filter(|r| *r != Rule::FdReflexivity)
            .collect(),
    );
    assert_eq!(full, without);
}

#[test]
fn fd_transitivity_bypassed_via_complementation() {
    // A → C from {A → B, B → C} without FD transitivity: implication
    // lifts A → B to A ↠ B, complementation gives A ↠ {A, C}, and
    // generalised coalescence with B → C (Z = C ≤ {A,C}, W = B ≤ A⊔B)
    // concludes A → C.
    let n = parse_attr("L(A, B, C)").unwrap();
    let alg = Algebra::new(&n);
    let sigma: Vec<CompiledDep> = ["L(A) -> L(B)", "L(B) -> L(C)"]
        .iter()
        .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
        .collect();
    let target = Dependency::parse(&n, "L(A) -> L(C)")
        .unwrap()
        .compile(&alg)
        .unwrap();
    let without = closure_set(
        &alg,
        &sigma,
        ALL_RULES
            .iter()
            .copied()
            .filter(|r| *r != Rule::FdTransitivity)
            .collect(),
    );
    assert!(without.contains(&target));
}

#[test]
fn removing_rules_is_monotone() {
    let (alg, sigma) = &battery()[1];
    let full = closure_set(alg, sigma, ALL_RULES.to_vec());
    let half: Vec<Rule> = ALL_RULES.iter().copied().take(7).collect();
    let small = closure_set(alg, sigma, half);
    assert!(small.is_subset(&full));
    assert!(small.len() < full.len());
}

#[test]
fn the_five_rule_core_is_not_complete_alone() {
    // the five "necessary" rules are each irreplaceable, but they are not
    // jointly sufficient: without reflexivity/extension machinery even
    // trivial dependencies are lost
    let five = vec![
        Rule::MvdComplementation,
        Rule::MvdTransitivity,
        Rule::FdImpliesMvd,
        Rule::Coalescence,
        Rule::MvdJoin,
    ];
    let (alg, sigma) = &battery()[0];
    let full = closure_set(alg, sigma, ALL_RULES.to_vec());
    let core = closure_set(alg, sigma, five);
    assert!(core.len() < full.len());
}
