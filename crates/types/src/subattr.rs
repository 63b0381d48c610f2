//! The subattribute relation `≤` (Definition 3.4).
//!
//! `M ≤ N` holds exactly when it can be derived from:
//!
//! * `N ≤ N` for all nested attributes `N`,
//! * `λ ≤ A` for all flat attributes `A ∈ U`,
//! * `λ ≤ N` for all list-valued attributes `N`,
//! * `L(N1, …, Nk) ≤ L(M1, …, Mk)` whenever `Ni ≤ Mi` for all `i`, and
//! * `L[N] ≤ L[M]` whenever `N ≤ M`.
//!
//! Note that `λ` is **not** a subattribute of a record-valued attribute —
//! the bottom of `Sub(L(N1,…,Nk))` is `L(λ_{N1},…,λ_{Nk})`
//! (Definition 3.7). Consequently every element of `Sub(N)` has a unique
//! structural representation, and tree equality decides equality in
//! `Sub(N)`; the `λ`-collapsed forms seen in the paper (`C[λ]` for
//! `C[D(λ, λ)]`) are display abbreviations handled by [`crate::display`]
//! and [`crate::parser`].

use std::iter::Peekable;

use crate::attr::NestedAttr;

/// Decides `m ≤ n` (Definition 3.4).
///
/// ```
/// use nalist_types::{subattr::is_subattr, NestedAttr as A};
///
/// let n = A::list("L", A::flat("A"));
/// assert!(is_subattr(&A::Null, &n));                    // λ ≤ L[A]
/// assert!(is_subattr(&A::list("L", A::Null), &n));      // L[λ] ≤ L[A]
/// assert!(is_subattr(&n, &n));                          // reflexive
/// assert!(!is_subattr(&n, &A::list("L", A::Null)));     // not the other way
/// ```
pub fn is_subattr(m: &NestedAttr, n: &NestedAttr) -> bool {
    match (m, n) {
        (NestedAttr::Null, NestedAttr::Null) => true,
        (NestedAttr::Null, NestedAttr::Flat(_)) => true,
        (NestedAttr::Null, NestedAttr::List(..)) => true,
        (NestedAttr::Null, NestedAttr::Record(..)) => false,
        (NestedAttr::Flat(a), NestedAttr::Flat(b)) => a == b,
        (NestedAttr::Record(l, ms), NestedAttr::Record(k, ns)) => {
            l == k && ms.len() == ns.len() && ms.iter().zip(ns).all(|(m, n)| is_subattr(m, n))
        }
        (NestedAttr::List(l, m), NestedAttr::List(k, n)) => l == k && is_subattr(m, n),
        _ => false,
    }
}

/// Builds the canonical element of `Sub(n)` whose atoms of `SubB(n)`
/// (one per flat and list node, numbered from 0 in pre-order of `n`)
/// are `atoms`, given in ascending order: a kept flat keeps its name, a
/// kept list its label and its content's kept atoms, and every other
/// flat or list is `λ`. An atom inside a list that is not kept is
/// ignored. This is the one place atoms become a tree: the parser's
/// resolutions (`parser::resolve_loose`) and `nalist_algebra`'s
/// `Algebra::to_attr` both end here.
///
/// ```
/// use nalist_types::{parser::parse_attr, subattr::from_atoms};
///
/// // atoms of A'(B, C[D(E, F[G])]): B 0, C 1, E 2, F 3, G 4
/// let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
/// assert_eq!(from_atoms(&n, [1, 3]).to_string(), "A'(λ, C[D(λ, F[λ])])");
/// assert_eq!(from_atoms(&n, [0, 2, 4]).to_string(), "A'(B, λ)");
/// ```
pub fn from_atoms(n: &NestedAttr, atoms: impl IntoIterator<Item = usize>) -> NestedAttr {
    build(n, &mut atoms.into_iter().peekable(), &mut 0)
}

/// [`from_atoms`] on the subtree `n` whose first atom is `*next`;
/// advances `next` past its atoms and `atoms` past those below `next`.
fn build(
    n: &NestedAttr,
    atoms: &mut Peekable<impl Iterator<Item = usize>>,
    next: &mut usize,
) -> NestedAttr {
    let atom = *next;
    match n {
        NestedAttr::Null => NestedAttr::Null,
        NestedAttr::Record(l, children) => NestedAttr::Record(
            l.clone(),
            children.iter().map(|c| build(c, atoms, next)).collect(),
        ),
        NestedAttr::Flat(a) => {
            *next += 1;
            if atoms.next_if_eq(&atom).is_some() {
                NestedAttr::Flat(a.clone())
            } else {
                NestedAttr::Null
            }
        }
        NestedAttr::List(l, inner) => {
            *next += 1;
            if atoms.next_if_eq(&atom).is_some() {
                return NestedAttr::List(l.clone(), Box::new(build(inner, atoms, next)));
            }
            *next += inner.basis_size();
            while atoms.next_if(|&a| a < *next).is_some() {}
            NestedAttr::Null
        }
    }
}

/// Decides `m < n`, i.e. `m ≤ n` and `m ≠ n`.
pub fn is_strict_subattr(m: &NestedAttr, n: &NestedAttr) -> bool {
    m != n && is_subattr(m, n)
}

/// Are `m` and `n` comparable under `≤`?
pub fn comparable(m: &NestedAttr, n: &NestedAttr) -> bool {
    is_subattr(m, n) || is_subattr(n, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NestedAttr as A;

    fn rec(l: &str, ch: Vec<A>) -> A {
        A::record(l, ch).unwrap()
    }

    #[test]
    fn lambda_below_flat_and_list_but_not_record() {
        assert!(is_subattr(&A::Null, &A::flat("A")));
        assert!(is_subattr(&A::Null, &A::list("L", A::flat("A"))));
        assert!(!is_subattr(&A::Null, &rec("L", vec![A::flat("A")])));
        assert!(is_subattr(&A::Null, &A::Null));
    }

    #[test]
    fn record_componentwise() {
        let n = rec("L", vec![A::flat("A"), A::flat("B")]);
        let bottom = rec("L", vec![A::Null, A::Null]);
        let left = rec("L", vec![A::flat("A"), A::Null]);
        let right = rec("L", vec![A::Null, A::flat("B")]);
        for x in [&bottom, &left, &right, &n] {
            assert!(is_subattr(x, &n));
        }
        assert!(!is_subattr(&left, &right));
        assert!(!is_subattr(&n, &left));
        // arity mismatch
        let short = rec("L", vec![A::flat("A")]);
        assert!(!is_subattr(&short, &n));
        // label mismatch
        let other = rec("K", vec![A::flat("A"), A::flat("B")]);
        assert!(!is_subattr(&other, &n));
    }

    #[test]
    fn list_contents_compare() {
        let n = A::list("L", rec("D", vec![A::flat("E"), A::flat("F")]));
        let inner_bottom = A::list("L", rec("D", vec![A::Null, A::Null]));
        assert!(is_subattr(&inner_bottom, &n));
        // L[λ] is NOT ≤ L[D(E,F)] structurally: λ ≤ D(E,F) fails.
        let loose = A::list("L", A::Null);
        assert!(!is_subattr(&loose, &n));
        // but λ itself is below the list
        assert!(is_subattr(&A::Null, &n));
    }

    #[test]
    fn flat_names_must_match() {
        assert!(is_subattr(&A::flat("A"), &A::flat("A")));
        assert!(!is_subattr(&A::flat("A"), &A::flat("B")));
    }

    #[test]
    fn strictness() {
        let n = A::flat("A");
        assert!(!is_strict_subattr(&n, &n));
        assert!(is_strict_subattr(&A::Null, &n));
    }

    #[test]
    fn antisymmetry_on_samples() {
        let n = rec("L", vec![A::flat("A"), A::list("M", A::flat("B"))]);
        let m = rec("L", vec![A::flat("A"), A::Null]);
        assert!(is_subattr(&m, &n) && !is_subattr(&n, &m));
        assert!(comparable(&m, &n));
    }

    #[test]
    fn transitivity_on_samples() {
        let top = rec("L", vec![A::flat("A"), A::flat("B")]);
        let mid = rec("L", vec![A::flat("A"), A::Null]);
        let bot = rec("L", vec![A::Null, A::Null]);
        assert!(is_subattr(&bot, &mid) && is_subattr(&mid, &top) && is_subattr(&bot, &top));
    }

    #[test]
    fn bottom_is_subattr_of_its_attr() {
        let n = rec(
            "L1",
            vec![
                A::flat("A"),
                A::flat("B"),
                A::list("L2", rec("L3", vec![A::flat("C"), A::flat("D")])),
            ],
        );
        assert!(is_subattr(&n.bottom(), &n));
    }
}
