//! Enumeration of `Sub(N)` and its Hasse diagram (for the paper's
//! Figures 1 and 2 and for exhaustive cross-validation on small `N`).
//!
//! `|Sub(N)|` follows the structure theorems stated after Definition 3.8:
//! `Sub(λ)` is trivial, `|Sub(A)| = 2` for a flat attribute,
//! `Sub(L(P1,…,Pk))` is the direct product of the component algebras, and
//! `Sub(L[P])` is `Sub(P)` with a new minimum adjoined.

use nalist_types::attr::NestedAttr;

use crate::atoms::Algebra;
use crate::bitset::AtomSet;

/// Number of elements of `Sub(N)`, computed structurally (may be huge;
/// saturates at `u128::MAX`).
pub fn sub_count(n: &NestedAttr) -> u128 {
    match n {
        NestedAttr::Null => 1,
        NestedAttr::Flat(_) => 2,
        NestedAttr::Record(_, children) => children
            .iter()
            .map(sub_count)
            .fold(1u128, |acc, c| acc.saturating_mul(c)),
        NestedAttr::List(_, inner) => sub_count(inner).saturating_add(1),
    }
}

/// Enumerates every element of `Sub(N)` as a canonical subattribute tree,
/// in a deterministic order. Exponential in general — intended for small
/// `N` (tests, figures, cross-validation); callers bound `N` with
/// [`sub_count`] first.
pub fn enumerate_trees(n: &NestedAttr) -> Vec<NestedAttr> {
    match n {
        NestedAttr::Null => vec![NestedAttr::Null],
        NestedAttr::Flat(a) => vec![NestedAttr::Null, NestedAttr::Flat(a.clone())],
        NestedAttr::Record(l, children) => {
            let mut out = vec![Vec::new()];
            for subs in children.iter().map(enumerate_trees) {
                let mut next = Vec::with_capacity(out.len() * subs.len());
                for prefix in &out {
                    for s in &subs {
                        let mut p = prefix.clone();
                        p.push(s.clone());
                        next.push(p);
                    }
                }
                out = next;
            }
            out.into_iter()
                .map(|components| NestedAttr::Record(l.clone(), components))
                .collect()
        }
        NestedAttr::List(l, inner) => {
            let mut out = vec![NestedAttr::Null];
            out.extend(
                enumerate_trees(inner)
                    .into_iter()
                    .map(|i| NestedAttr::List(l.clone(), Box::new(i))),
            );
            out
        }
    }
}

/// Enumerates every element of `Sub(N)` as a downward-closed atom set.
pub fn enumerate_sets(alg: &Algebra) -> Vec<AtomSet> {
    enumerate_trees(alg.attr())
        .iter()
        .map(|t| {
            alg.from_attr(t)
                .expect("enumerated trees are subattributes")
        })
        .collect()
}

/// The cover relation of the lattice: `(i, j)` means element `i` is
/// covered by element `j` (edges of the Hasse diagram). In the
/// downward-closed-set representation, covers are exactly pairs differing
/// by a single atom.
pub fn hasse_edges(sets: &[AtomSet]) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for (i, x) in sets.iter().enumerate() {
        for (j, y) in sets.iter().enumerate() {
            if x.is_subset(y) && y.count() == x.count() + 1 {
                edges.push((i, j));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_types::parser::parse_attr;
    use std::collections::BTreeSet;

    #[test]
    fn sub_count_formulas() {
        assert_eq!(sub_count(&NestedAttr::Null), 1);
        assert_eq!(sub_count(&parse_attr("A").unwrap()), 2);
        assert_eq!(sub_count(&parse_attr("L(A, B)").unwrap()), 4);
        assert_eq!(sub_count(&parse_attr("L[A]").unwrap()), 3);
        // Sub(L[P]) = Sub(P) + 1; Sub(L(P1, P2)) = product
        assert_eq!(sub_count(&parse_attr("L[M(A, B)]").unwrap()), 5);
    }

    #[test]
    fn figure_1_lattice_size() {
        // Fig. 1: the Brouwerian algebra of J[K(A, L[M(B, C)])].
        // Sub(M(B,C)) = 4, Sub(L[M(B,C)]) = 5, Sub(K(A, L[...])) = 2*5 = 10,
        // Sub(J[...]) = 11.
        let n = parse_attr("J[K(A, L[M(B, C)])]").unwrap();
        assert_eq!(sub_count(&n), 11);
        let trees = enumerate_trees(&n);
        assert_eq!(trees.len(), 11);
        // all distinct
        let distinct: BTreeSet<_> = trees.iter().collect();
        assert_eq!(distinct.len(), 11);
    }

    #[test]
    fn enumerated_trees_are_subattributes() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        for t in enumerate_trees(&n) {
            assert!(nalist_types::subattr::is_subattr(&t, &n), "{t}");
        }
    }

    #[test]
    fn enumeration_matches_count() {
        for src in [
            "L[A]",
            "L(A, B)",
            "A'(B, C[D(E, F[G])])",
            "K[L(M[N'(A, B)], C)]",
        ] {
            let n = parse_attr(src).unwrap();
            assert_eq!(enumerate_trees(&n).len() as u128, sub_count(&n), "{src}");
        }
    }

    #[test]
    fn sets_enumeration_bijective() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        let sets = enumerate_sets(&alg);
        let distinct: BTreeSet<_> = sets.iter().collect();
        assert_eq!(distinct.len(), sets.len());
        for s in &sets {
            assert!(alg.is_downward_closed(s));
        }
    }

    #[test]
    fn hasse_of_boolean_square() {
        // Sub(L(A, B)) is the Boolean algebra of order 2: 4 elements, 4 edges.
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let sets = enumerate_sets(&alg);
        let edges = hasse_edges(&sets);
        assert_eq!(sets.len(), 4);
        assert_eq!(edges.len(), 4);
    }

    #[test]
    fn hasse_of_figure_1() {
        let n = parse_attr("J[K(A, L[M(B, C)])]").unwrap();
        let alg = Algebra::new(&n);
        let sets = enumerate_sets(&alg);
        let edges = hasse_edges(&sets);
        assert_eq!(sets.len(), 11);
        // Figure 1's diagram: count edges by hand from the atom structure —
        // atoms J, A, L, B, C with J below everything, L below B, C.
        // Downward-closed sets of that poset form the 11-element lattice;
        // each edge adds exactly one atom. Verify structural sanity instead
        // of a hand count: the bottom has no in-edges, the top no out-edges.
        let bottom = sets.iter().position(|s| s.is_empty()).unwrap();
        let top = sets
            .iter()
            .position(|s| s.count() == alg.atom_count())
            .unwrap();
        assert!(edges.iter().all(|&(_, j)| j != bottom));
        assert!(edges.iter().all(|&(i, _)| i != top));
        // every non-bottom element covers something and every non-top is covered
        for (i, s) in sets.iter().enumerate() {
            if !s.is_empty() {
                assert!(
                    edges.iter().any(|&(_, j)| j == i),
                    "element {i} covers nothing"
                );
            }
            if s.count() != alg.atom_count() {
                assert!(
                    edges.iter().any(|&(i2, _)| i2 == i),
                    "element {i} not covered"
                );
            }
        }
    }
}
