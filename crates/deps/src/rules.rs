//! The inference rules of Theorem 4.6 — a sound and complete system for
//! the implication of FDs and MVDs in the presence of base, record and
//! finite list types.
//!
//! All rules except the *mixed meet rule* are the natural generalisations
//! of the relational system (Beeri/Fagin/Howard via Paredaens et al.),
//! with set operations replaced by the Brouwerian operations of `Sub(N)`:
//!
//! | rule | premises | conclusion | side condition |
//! |------|----------|------------|----------------|
//! | reflexivity axiom        | —                  | `X → Y`          | `Y ≤ X` |
//! | extension rule           | `X → Y`            | `X⊔Z → Y⊔Z`      | `Z ∈ Sub(N)` |
//! | transitivity rule        | `X → Y`, `Y → Z`   | `X → Z`          | |
//! | FD join rule             | `X → Y`, `X → Z`   | `X → Y⊔Z`        | |
//! | MVD reflexivity axiom    | —                  | `X ↠ Y`          | `Y ≤ X` |
//! | complementation rule     | `X ↠ Y`            | `X ↠ Y^C`        | |
//! | MVD augmentation rule    | `X ↠ Y`            | `X⊔U ↠ Y⊔V`      | `V ≤ U` |
//! | MVD transitivity rule    | `X ↠ Y`, `Y ↠ Z`   | `X ↠ Z ∸ Y`      | |
//! | implication rule         | `X → Y`            | `X ↠ Y`          | |
//! | coalescence rule         | `X ↠ Y`, `W → Z`   | `X → Z`          | `Z ≤ Y`, `W ≤ X ⊔ Y^C` |
//! | multi-valued join rule   | `X ↠ Y`, `X ↠ Z`   | `X ↠ Y⊔Z`        | |
//! | multi-valued meet rule   | `X ↠ Y`, `X ↠ Z`   | `X ↠ Y⊓Z`        | |
//! | pseudo-difference rule   | `X ↠ Y`, `X ↠ Z`   | `X ↠ Y∸Z`        | |
//! | **mixed meet rule**      | `X ↠ Y`            | `X → Y⊓Y^C`      | |
//!
//! The mixed meet rule is the paper's novelty: in a relational schema
//! `Y ⊓ Y^C = ∅` always, so the rule is vacuous there; with lists the
//! meet of `Y` with its Brouwerian complement keeps the non-maximal basis
//! attributes of `Y` that `Y` does not *possess* — deriving a non-trivial
//! FD from an MVD.
//!
//! Soundness of every rule is property-tested against random instances in
//! the integration suite; completeness is validated empirically by
//! comparing the naive closure under these rules (in `nalist-oracle`)
//! with Algorithm 5.1.

use nalist_algebra::{Algebra, AtomSet};
use nalist_types::parser::DepKind;

use crate::dependency::CompiledDep;

/// Names of the 14 inference rules of Theorem 4.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// `Y ≤ X ⊢ X → Y`.
    FdReflexivity,
    /// `X → Y ⊢ X ⊔ Z → Y ⊔ Z`.
    FdExtension,
    /// `X → Y, Y → Z ⊢ X → Z`.
    FdTransitivity,
    /// `X → Y, X → Z ⊢ X → Y ⊔ Z`.
    FdJoin,
    /// `Y ≤ X ⊢ X ↠ Y`.
    MvdReflexivity,
    /// `X ↠ Y ⊢ X ↠ Y^C` (Brouwerian-complement rule).
    MvdComplementation,
    /// `X ↠ Y, V ≤ U ⊢ X ⊔ U ↠ Y ⊔ V`.
    MvdAugmentation,
    /// `X ↠ Y, Y ↠ Z ⊢ X ↠ Z ∸ Y`.
    MvdTransitivity,
    /// `X → Y ⊢ X ↠ Y` (implication rule).
    FdImpliesMvd,
    /// `X ↠ Y, W → Z, Z ≤ Y, W ≤ X ⊔ Y^C ⊢ X → Z`.
    ///
    /// This is the Brouwerian generalisation of the relational
    /// coalescence rule (`W ∩ Y = ∅` becomes `W ≤ X ⊔ Y^C`, which is
    /// strictly more permissive when `W` and `Y` share non-maximal basis
    /// attributes such as list shapes). Soundness: for `t1, t2` agreeing
    /// on `X`, the MVD supplies `t'` agreeing with `t1` on `X ⊔ Y` and
    /// with `t2` on `X ⊔ Y^C ⊇ W`; the FD then transfers `Z ≤ Y` from
    /// `t'` to `t2`, so `t1` and `t2` agree on `Z`.
    Coalescence,
    /// `X ↠ Y, X ↠ Z ⊢ X ↠ Y ⊔ Z`.
    MvdJoin,
    /// `X ↠ Y, X ↠ Z ⊢ X ↠ Y ⊓ Z`.
    MvdMeet,
    /// `X ↠ Y, X ↠ Z ⊢ X ↠ Y ∸ Z`.
    MvdPseudoDiff,
    /// `X ↠ Y ⊢ X → Y ⊓ Y^C` (the paper's novel mixed meet rule).
    MixedMeet,
}

/// All 14 rules, in documentation order.
pub const ALL_RULES: [Rule; 14] = [
    Rule::FdReflexivity,
    Rule::FdExtension,
    Rule::FdTransitivity,
    Rule::FdJoin,
    Rule::MvdReflexivity,
    Rule::MvdComplementation,
    Rule::MvdAugmentation,
    Rule::MvdTransitivity,
    Rule::FdImpliesMvd,
    Rule::Coalescence,
    Rule::MvdJoin,
    Rule::MvdMeet,
    Rule::MvdPseudoDiff,
    Rule::MixedMeet,
];

impl Rule {
    /// Paper-style rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FdReflexivity => "reflexivity axiom",
            Rule::FdExtension => "extension rule",
            Rule::FdTransitivity => "transitivity rule",
            Rule::FdJoin => "FD join rule",
            Rule::MvdReflexivity => "MVD reflexivity axiom",
            Rule::MvdComplementation => "complementation rule",
            Rule::MvdAugmentation => "MVD augmentation rule",
            Rule::MvdTransitivity => "MVD transitivity rule",
            Rule::FdImpliesMvd => "implication rule",
            Rule::Coalescence => "coalescence rule",
            Rule::MvdJoin => "multi-valued join rule",
            Rule::MvdMeet => "multi-valued meet rule",
            Rule::MvdPseudoDiff => "pseudo-difference rule",
            Rule::MixedMeet => "mixed meet rule",
        }
    }

    /// Stable string id used in serialized certificates. These are part
    /// of the certificate format contract (version 1): never repurpose
    /// an id — retire it and mint a new one.
    pub fn id(self) -> &'static str {
        match self {
            Rule::FdReflexivity => "fd-reflexivity",
            Rule::FdExtension => "fd-extension",
            Rule::FdTransitivity => "fd-transitivity",
            Rule::FdJoin => "fd-join",
            Rule::MvdReflexivity => "mvd-reflexivity",
            Rule::MvdComplementation => "mvd-complementation",
            Rule::MvdAugmentation => "mvd-augmentation",
            Rule::MvdTransitivity => "mvd-transitivity",
            Rule::FdImpliesMvd => "fd-implies-mvd",
            Rule::Coalescence => "coalescence",
            Rule::MvdJoin => "mvd-join",
            Rule::MvdMeet => "mvd-meet",
            Rule::MvdPseudoDiff => "mvd-pseudo-difference",
            Rule::MixedMeet => "mixed-meet",
        }
    }

    /// Resolves a stable id back to the rule. Inverse of [`Rule::id`].
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
    }

    /// One-line grounding in the paper (Hartmann & Link, ENTCS 91,
    /// 2004). Shown by `nalist lint --explain <rule>` and in
    /// certificate tooling.
    pub fn cite(self) -> &'static str {
        match self {
            Rule::FdReflexivity => {
                "Theorem 4.6 (reflexivity axiom): for Y ≤ X, derive X → Y with no premises."
            }
            Rule::FdExtension => {
                "Theorem 4.6 (extension rule): from X → Y derive X⊔Z → Y⊔Z for any Z."
            }
            Rule::FdTransitivity => {
                "Theorem 4.6 (transitivity rule): from X → Y and Y → Z derive X → Z."
            }
            Rule::FdJoin => {
                "Theorem 4.6 (FD join rule): from X → Y and X → Z derive X → Y⊔Z."
            }
            Rule::MvdReflexivity => {
                "Theorem 4.6 (MVD reflexivity axiom): for Y ≤ X, derive X ↠ Y with no premises."
            }
            Rule::MvdComplementation => {
                "Theorem 4.6 (complementation rule): from X ↠ Y derive X ↠ Y^C, the Brouwerian complement taken in Sub(N)."
            }
            Rule::MvdAugmentation => {
                "Theorem 4.6 (MVD augmentation rule): from X ↠ Y and V ≤ U derive X⊔U ↠ Y⊔V."
            }
            Rule::MvdTransitivity => {
                "Theorem 4.6 (MVD transitivity rule): from X ↠ Y and Y ↠ Z derive X ↠ Z⊖Y (pseudo-difference, not set difference)."
            }
            Rule::FdImpliesMvd => {
                "Theorem 4.6 (implication rule): every FD X → Y yields the MVD X ↠ Y."
            }
            Rule::Coalescence => {
                "Theorem 4.6 (coalescence rule): from X ↠ Y and Z → W with W ≤ Y and Y⊓Z = λ, derive X → W."
            }
            Rule::MvdJoin => {
                "Theorem 4.6 (multi-valued join rule): from X ↠ Y and X ↠ Z derive X ↠ Y⊔Z."
            }
            Rule::MvdMeet => {
                "Theorem 4.6 (multi-valued meet rule): from X ↠ Y and X ↠ Z derive X ↠ Y⊓Z."
            }
            Rule::MvdPseudoDiff => {
                "Theorem 4.6 (pseudo-difference rule): from X ↠ Y and X ↠ Z derive X ↠ Y⊖Z."
            }
            Rule::MixedMeet => {
                "Theorem 4.6 (mixed meet rule): from X ↠ Y derive the FD X → Y⊓Y^C — the paper's novel interaction, non-trivial only in the presence of lists."
            }
        }
    }

    /// Number of dependency premises the rule takes (axioms take 0).
    pub fn arity(self) -> usize {
        match self {
            Rule::FdReflexivity | Rule::MvdReflexivity => 0,
            Rule::FdExtension
            | Rule::MvdComplementation
            | Rule::MvdAugmentation
            | Rule::FdImpliesMvd
            | Rule::MixedMeet => 1,
            Rule::FdTransitivity
            | Rule::FdJoin
            | Rule::MvdTransitivity
            | Rule::Coalescence
            | Rule::MvdJoin
            | Rule::MvdMeet
            | Rule::MvdPseudoDiff => 2,
        }
    }
}

/// Applies a rule instance, returning the conclusion if the premises and
/// side parameters fit the rule schema.
///
/// `premises` supplies the dependency premises in documentation order;
/// `params` supplies the extra subattribute parameters:
///
/// * `FdReflexivity`/`MvdReflexivity`: `params = [X, Y]` with `Y ≤ X`;
/// * `FdExtension`: `params = [Z]`;
/// * `MvdAugmentation`: `params = [U, V]` with `V ≤ U`;
/// * all other rules: `params = []`.
pub fn apply(
    alg: &Algebra,
    rule: Rule,
    premises: &[&CompiledDep],
    params: &[&AtomSet],
) -> Option<CompiledDep> {
    match (rule, premises, params) {
        (Rule::FdReflexivity, [], [x, y]) if alg.le(y, x) => {
            Some(CompiledDep::fd((*x).clone(), (*y).clone()))
        }
        (Rule::MvdReflexivity, [], [x, y]) if alg.le(y, x) => {
            Some(CompiledDep::mvd((*x).clone(), (*y).clone()))
        }
        (Rule::FdExtension, [p], [z]) if p.kind == DepKind::Fd => {
            Some(CompiledDep::fd(alg.join(&p.lhs, z), alg.join(&p.rhs, z)))
        }
        (Rule::FdTransitivity, [p, q], [])
            if p.kind == DepKind::Fd && q.kind == DepKind::Fd && p.rhs == q.lhs =>
        {
            Some(CompiledDep::fd(p.lhs.clone(), q.rhs.clone()))
        }
        (Rule::FdJoin, [p, q], [])
            if p.kind == DepKind::Fd && q.kind == DepKind::Fd && p.lhs == q.lhs =>
        {
            Some(CompiledDep::fd(p.lhs.clone(), alg.join(&p.rhs, &q.rhs)))
        }
        (Rule::MvdComplementation, [p], []) if p.kind == DepKind::Mvd => {
            Some(CompiledDep::mvd(p.lhs.clone(), alg.compl(&p.rhs)))
        }
        (Rule::MvdAugmentation, [p], [u, v]) if p.kind == DepKind::Mvd && alg.le(v, u) => {
            Some(CompiledDep::mvd(alg.join(&p.lhs, u), alg.join(&p.rhs, v)))
        }
        (Rule::MvdTransitivity, [p, q], [])
            if p.kind == DepKind::Mvd && q.kind == DepKind::Mvd && p.rhs == q.lhs =>
        {
            Some(CompiledDep::mvd(p.lhs.clone(), alg.pdiff(&q.rhs, &p.rhs)))
        }
        (Rule::FdImpliesMvd, [p], []) if p.kind == DepKind::Fd => {
            Some(CompiledDep::mvd(p.lhs.clone(), p.rhs.clone()))
        }
        (Rule::Coalescence, [p, q], [])
            if p.kind == DepKind::Mvd
                && q.kind == DepKind::Fd
                && alg.le(&q.rhs, &p.rhs)
                && alg.le(&q.lhs, &alg.join(&p.lhs, &alg.compl(&p.rhs))) =>
        {
            Some(CompiledDep::fd(p.lhs.clone(), q.rhs.clone()))
        }
        (Rule::MvdJoin, [p, q], [])
            if p.kind == DepKind::Mvd && q.kind == DepKind::Mvd && p.lhs == q.lhs =>
        {
            Some(CompiledDep::mvd(p.lhs.clone(), alg.join(&p.rhs, &q.rhs)))
        }
        (Rule::MvdMeet, [p, q], [])
            if p.kind == DepKind::Mvd && q.kind == DepKind::Mvd && p.lhs == q.lhs =>
        {
            Some(CompiledDep::mvd(p.lhs.clone(), alg.meet(&p.rhs, &q.rhs)))
        }
        (Rule::MvdPseudoDiff, [p, q], [])
            if p.kind == DepKind::Mvd && q.kind == DepKind::Mvd && p.lhs == q.lhs =>
        {
            Some(CompiledDep::mvd(p.lhs.clone(), alg.pdiff(&p.rhs, &q.rhs)))
        }
        (Rule::MixedMeet, [p], []) if p.kind == DepKind::Mvd => Some(CompiledDep::fd(
            p.lhs.clone(),
            alg.meet(&p.rhs, &alg.compl(&p.rhs)),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;
    use nalist_types::parser::parse_attr;

    fn setup() -> (nalist_types::NestedAttr, Algebra) {
        let n = parse_attr("L[A]").unwrap();
        let alg = Algebra::new(&n);
        (n, alg)
    }

    fn dep(n: &nalist_types::NestedAttr, alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(n, s).unwrap().compile(alg).unwrap()
    }

    #[test]
    fn rule_ids_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for rule in ALL_RULES {
            assert!(seen.insert(rule.id()), "duplicate id {}", rule.id());
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
            assert!(rule.cite().contains("Theorem 4.6"), "{}", rule.id());
        }
        assert_eq!(Rule::from_id("no-such-rule"), None);
    }

    #[test]
    fn mixed_meet_derives_nontrivial_fd() {
        // On N = L[A]: from λ ↠ L[λ] derive λ → L[λ] ⊓ L[λ]^C = λ → L[λ],
        // a non-trivial FD — impossible in the RDM.
        let (n, alg) = setup();
        let premise = dep(&n, &alg, "λ ->> L[λ]");
        let got = apply(&alg, Rule::MixedMeet, &[&premise], &[]).unwrap();
        assert_eq!(got.render(&alg), "λ -> L[λ]");
        assert!(!got.is_trivial(&alg));
    }

    #[test]
    fn complementation_is_brouwerian() {
        // (L[λ])^C = L[A], not "the rest": complement may overlap.
        let (n, alg) = setup();
        let premise = dep(&n, &alg, "λ ->> L[λ]");
        let got = apply(&alg, Rule::MvdComplementation, &[&premise], &[]).unwrap();
        assert_eq!(got.render(&alg), "λ ->> L[A]");
    }

    #[test]
    fn reflexivity_requires_side_condition() {
        let (n, alg) = setup();
        let x = alg
            .from_attr(&nalist_types::parser::parse_subattr_of(&n, "L[λ]").unwrap())
            .unwrap();
        let top = alg.top_set();
        assert!(apply(&alg, Rule::FdReflexivity, &[], &[&top, &x]).is_some());
        assert!(apply(&alg, Rule::FdReflexivity, &[], &[&x, &top]).is_none());
    }

    #[test]
    fn transitivity_needs_matching_middle() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let p = dep(&n, &alg, "L(A) -> L(B)");
        let q = dep(&n, &alg, "L(B) -> L(C)");
        let r = apply(&alg, Rule::FdTransitivity, &[&p, &q], &[]).unwrap();
        assert_eq!(r.render(&alg), "L(A) -> L(C)");
        assert!(apply(&alg, Rule::FdTransitivity, &[&q, &p], &[]).is_none());
        // kind mismatch rejected
        let m = dep(&n, &alg, "L(B) ->> L(C)");
        assert!(apply(&alg, Rule::FdTransitivity, &[&p, &m], &[]).is_none());
    }

    #[test]
    fn coalescence_side_conditions() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let p = dep(&n, &alg, "L(A) ->> L(B)");
        let q = dep(&n, &alg, "L(C) -> L(B)");
        // W = L(C) ≤ X ⊔ Y^C = L(A, C), Z = L(B) ≤ Y ⇒ L(A) → L(B)
        let r = apply(&alg, Rule::Coalescence, &[&p, &q], &[]).unwrap();
        assert_eq!(r.render(&alg), "L(A) -> L(B)");
        // W = L(B) ≰ X ⊔ Y^C: rejected
        let q2 = dep(&n, &alg, "L(B) -> L(B)");
        assert!(apply(&alg, Rule::Coalescence, &[&p, &q2], &[]).is_none());
        // violated Z ≤ Y
        let q3 = dep(&n, &alg, "L(C) -> L(C)");
        assert!(apply(&alg, Rule::Coalescence, &[&p, &q3], &[]).is_none());
    }

    #[test]
    fn augmentation_and_extension() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let fd = dep(&n, &alg, "L(A) -> L(B)");
        let z = alg
            .from_attr(&nalist_types::parser::parse_subattr_of(&n, "L(C)").unwrap())
            .unwrap();
        let got = apply(&alg, Rule::FdExtension, &[&fd], &[&z]).unwrap();
        assert_eq!(got.render(&alg), "L(A, C) -> L(B, C)");
        let mvd = dep(&n, &alg, "L(A) ->> L(B)");
        let u = z.clone();
        let v = alg.bottom_set();
        let got2 = apply(&alg, Rule::MvdAugmentation, &[&mvd], &[&u, &v]).unwrap();
        assert_eq!(got2.render(&alg), "L(A, C) ->> L(B)");
        // V ≰ U rejected
        assert!(apply(&alg, Rule::MvdAugmentation, &[&mvd], &[&v, &u]).is_none());
    }

    #[test]
    fn mvd_lattice_rules() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let p = dep(&n, &alg, "L(A) ->> L(B, C)");
        let q = dep(&n, &alg, "L(A) ->> L(C, D)");
        assert_eq!(
            apply(&alg, Rule::MvdJoin, &[&p, &q], &[])
                .unwrap()
                .render(&alg),
            "L(A) ->> L(B, C, D)"
        );
        assert_eq!(
            apply(&alg, Rule::MvdMeet, &[&p, &q], &[])
                .unwrap()
                .render(&alg),
            "L(A) ->> L(C)"
        );
        assert_eq!(
            apply(&alg, Rule::MvdPseudoDiff, &[&p, &q], &[])
                .unwrap()
                .render(&alg),
            "L(A) ->> L(B)"
        );
    }

    #[test]
    fn mvd_transitivity() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let p = dep(&n, &alg, "L(A) ->> L(B)");
        let q = dep(&n, &alg, "L(B) ->> L(C)");
        let got = apply(&alg, Rule::MvdTransitivity, &[&p, &q], &[]).unwrap();
        assert_eq!(got.render(&alg), "L(A) ->> L(C)");
    }

    #[test]
    fn all_rules_metadata() {
        assert_eq!(ALL_RULES.len(), 14);
        for r in ALL_RULES {
            assert!(!r.name().is_empty());
            assert!(r.arity() <= 2);
        }
        // two axioms, five unary, seven binary
        assert_eq!(ALL_RULES.iter().filter(|r| r.arity() == 0).count(), 2);
        assert_eq!(ALL_RULES.iter().filter(|r| r.arity() == 1).count(), 5);
        assert_eq!(ALL_RULES.iter().filter(|r| r.arity() == 2).count(), 7);
    }
}
