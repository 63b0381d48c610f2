//! Normal-form checking for nested schemas — the generalisation of fourth
//! normal form the paper's conclusion motivates ("We would like to
//! generalise the fourth normal form on the basis of several type
//! systems").
//!
//! A schema `(N, Σ)` is in **4NF (with lists)** when every *given*
//! dependency `σ ∈ Σ` is either trivial (Lemma 4.3) or has a superkey
//! left-hand side (`lhs⁺ = N`). As in the relational case this criterion
//! is checked over the supplied `Σ` (checking all of `Σ⁺` is equivalent
//! for 4NF because a violating implied MVD yields a violating given one
//! after closure-based analysis; we follow the textbook formulation).
//! The corresponding FD-only condition is the BCNF generalisation.

use nalist_algebra::Algebra;
use nalist_deps::{CompiledDep, DepKind};
use nalist_guard::{Budget, ResourceExhausted};

use crate::closure;

/// A normal-form violation: dependency index plus diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index into `Σ`.
    pub index: usize,
    /// Human-readable diagnosis (rendered dependency and closure).
    pub reason: String,
}

/// Checks the 4NF-with-lists criterion; returns all violations.
pub fn fourth_nf_violations(
    alg: &Algebra,
    sigma: &[CompiledDep],
    budget: &Budget,
) -> Result<Vec<Violation>, ResourceExhausted> {
    let mut out = Vec::new();
    for (i, d) in sigma.iter().enumerate() {
        if d.is_trivial(alg) {
            continue;
        }
        let closure = closure(alg, sigma, &d.lhs, budget)?;
        if closure != alg.top_set() {
            out.push(Violation {
                index: i,
                reason: format!(
                    "{} is non-trivial and its LHS is not a superkey (LHS+ = {})",
                    d.render(alg),
                    alg.render(&closure)
                ),
            });
        }
    }
    Ok(out)
}

/// Is `(N, Σ)` in 4NF-with-lists?
pub fn is_fourth_nf(
    alg: &Algebra,
    sigma: &[CompiledDep],
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    Ok(fourth_nf_violations(alg, sigma, budget)?.is_empty())
}

/// BCNF-with-lists: the same criterion restricted to the FDs of `Σ`
/// (MVDs are ignored when checking, but still participate in closures).
pub fn bcnf_violations(
    alg: &Algebra,
    sigma: &[CompiledDep],
    budget: &Budget,
) -> Result<Vec<Violation>, ResourceExhausted> {
    let mut out = Vec::new();
    for (i, d) in sigma.iter().enumerate() {
        if d.kind != DepKind::Fd || d.is_trivial(alg) {
            continue;
        }
        if closure(alg, sigma, &d.lhs, budget)? != alg.top_set() {
            out.push(Violation {
                index: i,
                reason: format!(
                    "FD {} is non-trivial and its LHS is not a superkey",
                    d.render(alg)
                ),
            });
        }
    }
    Ok(out)
}

/// Is `(N, Σ)` in BCNF-with-lists?
pub fn is_bcnf(
    alg: &Algebra,
    sigma: &[CompiledDep],
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    Ok(bcnf_violations(alg, sigma, budget)?.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_types::parser::parse_attr;

    fn setup(attr: &str, deps: &[&str]) -> (Algebra, Vec<CompiledDep>) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        (alg, sigma)
    }

    #[test]
    fn key_based_schema_is_4nf() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B, C)"]);
        assert!(is_fourth_nf(&alg, &sigma, &Budget::unlimited()).unwrap());
        assert!(is_bcnf(&alg, &sigma, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn pubcrawl_mvd_violates_4nf() {
        let (alg, sigma) = setup(
            "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
            &["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"],
        );
        let v = fourth_nf_violations(&alg, &sigma, &Budget::unlimited()).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].index, 0);
        assert!(v[0].reason.contains("not a superkey"));
        // BCNF ignores the MVD
        assert!(is_bcnf(&alg, &sigma, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn trivial_dependencies_never_violate() {
        let (alg, sigma) = setup(
            "L(A, B)",
            &["L(A, B) -> L(A)", "L(A) ->> L(B)"], // both trivial
        );
        assert!(is_fourth_nf(&alg, &sigma, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn fd_violation_detected_by_both() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)"]);
        assert!(!is_fourth_nf(&alg, &sigma, &Budget::unlimited()).unwrap());
        assert!(!is_bcnf(&alg, &sigma, &Budget::unlimited()).unwrap());
        assert_eq!(
            bcnf_violations(&alg, &sigma, &Budget::unlimited())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn mvds_still_feed_closures_for_bcnf() {
        // FD whose LHS becomes a superkey only through MVD interaction:
        // A ↠ B and C → B coalesce, helping A's closure.
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(C)", "L(A) ->> L(B)"]);
        // A+ includes C directly; B via complementation/coalescence-like
        // reasoning? Check through the decision procedure itself:
        let a_plus =
            nalist_membership::closure::closure_and_basis(&alg, &sigma, &sigma[0].lhs).closure;
        // A -> C and A ->> B: with C determined, block {B} splits and B is
        // not functionally determined — A is not a superkey, so the FD
        // violates BCNF.
        assert!(a_plus != alg.top_set());
        assert!(!is_bcnf(&alg, &sigma, &Budget::unlimited()).unwrap());
    }
}
