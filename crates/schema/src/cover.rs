//! Schema-design applications of the membership algorithm (Section 1.3 of
//! the paper): equivalence of dependency sets, redundancy, and minimal
//! covers.
//!
//! "Such an algorithm for deciding implication of dependencies can be used
//! to decide the equivalence of two sets of dependencies or the redundancy
//! of a given set of dependencies. This is considered a significant step
//! towards automated database schema design."

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::CompiledDep;
use nalist_guard::{Budget, ResourceExhausted};
use nalist_membership::implies;

/// Does `Σ1 ⊨ σ` for every `σ ∈ Σ2`?
pub fn covers(
    alg: &Algebra,
    sigma1: &[CompiledDep],
    sigma2: &[CompiledDep],
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    for d in sigma2 {
        if !implies(alg, sigma1, d, budget)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Are `Σ1` and `Σ2` equivalent (`Σ1⁺ = Σ2⁺`)?
pub fn equivalent(
    alg: &Algebra,
    sigma1: &[CompiledDep],
    sigma2: &[CompiledDep],
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    Ok(covers(alg, sigma1, sigma2, budget)? && covers(alg, sigma2, sigma1, budget)?)
}

/// Is `sigma[i]` redundant, i.e. implied by the remaining dependencies?
pub fn is_redundant(
    alg: &Algebra,
    sigma: &[CompiledDep],
    i: usize,
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    let rest: Vec<CompiledDep> = sigma
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, d)| d.clone())
        .collect();
    implies(alg, &rest, &sigma[i], budget)
}

/// Indices of all redundant members (each tested against the full rest).
pub fn redundant_indices(
    alg: &Algebra,
    sigma: &[CompiledDep],
    budget: &Budget,
) -> Result<Vec<usize>, ResourceExhausted> {
    let mut out = Vec::new();
    for i in 0..sigma.len() {
        if is_redundant(alg, sigma, i, budget)? {
            out.push(i);
        }
    }
    Ok(out)
}

/// Computes a non-redundant cover: greedily removes dependencies that are
/// implied by the rest. The result is equivalent to the input and contains
/// no redundant member.
pub fn nonredundant_cover(
    alg: &Algebra,
    sigma: &[CompiledDep],
    budget: &Budget,
) -> Result<Vec<CompiledDep>, ResourceExhausted> {
    let mut cover: Vec<CompiledDep> = sigma.to_vec();
    let mut i = 0;
    while i < cover.len() {
        if is_redundant(alg, &cover, i, budget)? {
            cover.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(cover)
}

/// Left-reduces a dependency: repeatedly drops maximal-within-`X` atoms
/// from the LHS while `Σ` still implies the reduced dependency. Returns
/// the reduced LHS (a minimal one, not necessarily the global minimum).
pub fn reduce_lhs(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    budget: &Budget,
) -> Result<AtomSet, ResourceExhausted> {
    let mut lhs = dep.lhs.clone();
    loop {
        let mut shrunk = false;
        // candidates: atoms of lhs with nothing of lhs strictly above them
        let candidates: Vec<usize> = lhs
            .iter()
            .filter(|&a| alg.atom(a).above.iter().all(|b| b == a || !lhs.contains(b)))
            .collect();
        for a in candidates {
            let mut smaller = lhs.clone();
            smaller.remove(a);
            debug_assert!(alg.is_downward_closed(&smaller));
            let reduced = CompiledDep {
                kind: dep.kind,
                lhs: smaller.clone(),
                rhs: dep.rhs.clone(),
            };
            if implies(alg, sigma, &reduced, budget)? {
                lhs = smaller;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return Ok(lhs);
        }
    }
}

/// A minimal cover: left-reduce every member, then remove redundancy.
/// The result is equivalent to the input.
pub fn minimal_cover(
    alg: &Algebra,
    sigma: &[CompiledDep],
    budget: &Budget,
) -> Result<Vec<CompiledDep>, ResourceExhausted> {
    let reduced = sigma
        .iter()
        .map(|d| {
            Ok(CompiledDep {
                kind: d.kind,
                lhs: reduce_lhs(alg, sigma, d, budget)?,
                rhs: d.rhs.clone(),
            })
        })
        .collect::<Result<Vec<_>, ResourceExhausted>>()?;
    nonredundant_cover(alg, &reduced, budget)
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
    fn transitive_fd_is_redundant() {
        let (alg, sigma) = setup(
            "L(A, B, C)",
            &["L(A) -> L(B)", "L(B) -> L(C)", "L(A) -> L(C)"],
        );
        assert_eq!(
            redundant_indices(&alg, &sigma, &Budget::unlimited()).unwrap(),
            vec![2]
        );
        let cover = nonredundant_cover(&alg, &sigma, &Budget::unlimited()).unwrap();
        assert_eq!(cover.len(), 2);
        assert!(equivalent(&alg, &cover, &sigma, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn equivalence_detects_difference() {
        let (alg, s1) = setup("L(A, B, C)", &["L(A) -> L(B, C)"]);
        let (_, s2) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(A) -> L(C)"]);
        assert!(equivalent(&alg, &s1, &s2, &Budget::unlimited()).unwrap());
        let (_, s3) = setup("L(A, B, C)", &["L(A) -> L(B)"]);
        assert!(!equivalent(&alg, &s1, &s3, &Budget::unlimited()).unwrap());
        assert!(covers(&alg, &s1, &s3, &Budget::unlimited()).unwrap());
        assert!(!covers(&alg, &s3, &s1, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn mvd_made_redundant_by_fd() {
        // X → Y implies X ↠ Y, so the MVD is redundant.
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(A) ->> L(B)"]);
        assert!(is_redundant(&alg, &sigma, 1, &Budget::unlimited()).unwrap());
        assert!(!is_redundant(&alg, &sigma, 0, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn lhs_reduction() {
        // A → C makes the B part of the LHS of (A, B) → C unnecessary.
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(C)", "L(A, B) -> L(C)"]);
        let reduced = reduce_lhs(&alg, &sigma, &sigma[1], &Budget::unlimited()).unwrap();
        assert_eq!(alg.render(&reduced), "L(A)");
        let mc = minimal_cover(&alg, &sigma, &Budget::unlimited()).unwrap();
        assert_eq!(mc.len(), 1);
        assert!(equivalent(&alg, &mc, &sigma, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn lhs_reduction_respects_list_structure() {
        // On N = L[M(A, B)] the LHS L[M(A, λ)] can only shed atoms that
        // keep downward closure (dropping the list atom forces dropping A).
        let n = parse_attr("L[M(A, B)]").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![Dependency::parse(&n, "λ -> L[M(A)]")
            .unwrap()
            .compile(&alg)
            .unwrap()];
        let dep = Dependency::parse(&n, "L[M(A)] -> L[M(A)]")
            .unwrap()
            .compile(&alg)
            .unwrap();
        let reduced = reduce_lhs(&alg, &sigma, &dep, &Budget::unlimited()).unwrap();
        // λ already implies the RHS, so the LHS reduces to λ
        assert_eq!(alg.render(&reduced), "λ");
    }

    #[test]
    fn empty_sigma_cover_is_empty() {
        let (alg, sigma) = setup("L(A, B)", &[]);
        assert!(nonredundant_cover(&alg, &sigma, &Budget::unlimited())
            .unwrap()
            .is_empty());
        assert!(equivalent(&alg, &sigma, &sigma, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn trivial_members_are_redundant() {
        let (alg, sigma) = setup("L(A, B)", &["L(A, B) -> L(A)", "L(A) -> L(B)"]);
        let cover = nonredundant_cover(&alg, &sigma, &Budget::unlimited()).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].render(&alg), "L(A) -> L(B)");
    }
}
