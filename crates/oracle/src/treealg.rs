//! Reference (structural) implementation of the Brouwerian-algebra
//! operations, following Definition 3.8 literally on attribute trees.
//!
//! This is deliberately independent of the bitset engine in
//! [`nalist_algebra::subset`]; a property test asserts the two agree
//! through the atom-set isomorphism. It is also the implementation
//! benchmarked against the bitset engine in the ablation study
//! (DESIGN.md).

use nalist_types::attr::NestedAttr;
use nalist_types::error::TypeError;
use nalist_types::subattr::is_subattr;

fn incompatible(y: &NestedAttr, z: &NestedAttr) -> TypeError {
    TypeError::IncompatibleShapes {
        left: y.to_string(),
        right: z.to_string(),
    }
}

/// Join `Y ⊔ Z` on trees (Definition 3.8). `Y` and `Z` must belong to a
/// common `Sub(N)`.
pub fn tree_join(y: &NestedAttr, z: &NestedAttr) -> Result<NestedAttr, TypeError> {
    match (y, z) {
        (NestedAttr::Null, _) => Ok(z.clone()),
        (_, NestedAttr::Null) => Ok(y.clone()),
        (NestedAttr::Flat(a), NestedAttr::Flat(b)) if a == b => Ok(y.clone()),
        (NestedAttr::Record(l, ys), NestedAttr::Record(k, zs))
            if l == k && ys.len() == zs.len() =>
        {
            let children = ys
                .iter()
                .zip(zs)
                .map(|(a, b)| tree_join(a, b))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(NestedAttr::Record(l.clone(), children))
        }
        (NestedAttr::List(l, yi), NestedAttr::List(k, zi)) if l == k => {
            Ok(NestedAttr::List(l.clone(), Box::new(tree_join(yi, zi)?)))
        }
        _ => Err(incompatible(y, z)),
    }
}

/// Meet `Y ⊓ Z` on trees (Definition 3.8).
pub fn tree_meet(y: &NestedAttr, z: &NestedAttr) -> Result<NestedAttr, TypeError> {
    match (y, z) {
        (NestedAttr::Null, _) | (_, NestedAttr::Null) => Ok(NestedAttr::Null),
        (NestedAttr::Flat(a), NestedAttr::Flat(b)) if a == b => Ok(y.clone()),
        (NestedAttr::Record(l, ys), NestedAttr::Record(k, zs))
            if l == k && ys.len() == zs.len() =>
        {
            let children = ys
                .iter()
                .zip(zs)
                .map(|(a, b)| tree_meet(a, b))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(NestedAttr::Record(l.clone(), children))
        }
        (NestedAttr::List(l, yi), NestedAttr::List(k, zi)) if l == k => {
            Ok(NestedAttr::List(l.clone(), Box::new(tree_meet(yi, zi)?)))
        }
        _ => Err(incompatible(y, z)),
    }
}

/// Pseudo-difference `Z ∸ Y` on trees (Definition 3.8): the least `X` with
/// `Z ≤ Y ⊔ X`.
pub fn tree_pdiff(z: &NestedAttr, y: &NestedAttr) -> Result<NestedAttr, TypeError> {
    if is_subattr(z, y) {
        // Z ≤ Y iff Z ∸ Y = λ_N; the bottom shares Z's record skeleton.
        return Ok(z.bottom());
    }
    match (z, y) {
        (_, NestedAttr::Null) => Ok(z.clone()),
        (NestedAttr::Flat(_), NestedAttr::Flat(_)) => {
            // names differ would be incompatible; equal names handled above
            Err(incompatible(z, y))
        }
        (NestedAttr::Record(l, zs), NestedAttr::Record(k, ys))
            if l == k && zs.len() == ys.len() =>
        {
            let children = zs
                .iter()
                .zip(ys)
                .map(|(a, b)| tree_pdiff(a, b))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(NestedAttr::Record(l.clone(), children))
        }
        (NestedAttr::List(l, zi), NestedAttr::List(k, yi)) if l == k => {
            Ok(NestedAttr::List(l.clone(), Box::new(tree_pdiff(zi, yi)?)))
        }
        // z non-null, y = L[...] or flat with z = Null handled by is_subattr
        _ => Err(incompatible(z, y)),
    }
}

/// Brouwerian complement `Y^C = N ∸ Y` on trees.
pub fn tree_compl(n: &NestedAttr, y: &NestedAttr) -> Result<NestedAttr, TypeError> {
    tree_pdiff(n, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_algebra::lattice::enumerate_trees;
    use nalist_algebra::Algebra;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    #[test]
    fn join_meet_examples() {
        let n = parse_attr("L(A, B)").unwrap();
        let a = parse_subattr_of(&n, "L(A, λ)").unwrap();
        let b = parse_subattr_of(&n, "L(λ, B)").unwrap();
        assert_eq!(tree_join(&a, &b).unwrap(), n);
        assert_eq!(tree_meet(&a, &b).unwrap(), n.bottom());
        assert_eq!(tree_join(&a, &a).unwrap(), a);
    }

    #[test]
    fn pdiff_examples() {
        let n = parse_attr("L(A, B)").unwrap();
        let a = parse_subattr_of(&n, "L(A, λ)").unwrap();
        assert_eq!(
            tree_pdiff(&n, &a).unwrap(),
            parse_subattr_of(&n, "L(λ, B)").unwrap()
        );
        assert_eq!(tree_pdiff(&a, &n).unwrap(), n.bottom());
        assert_eq!(tree_pdiff(&a, &NestedAttr::Null.bottom()).unwrap(), a);
    }

    #[test]
    fn list_complement_is_not_boolean() {
        // N = L[A], Y = L[λ]: Y^C = N (the paper's example).
        let n = parse_attr("L[A]").unwrap();
        let y = parse_subattr_of(&n, "L[λ]").unwrap();
        assert_eq!(tree_compl(&n, &y).unwrap(), n);
    }

    #[test]
    fn incompatible_shapes_detected() {
        let y = parse_attr("L(A, B)").unwrap();
        let z = parse_attr("M(A, B)").unwrap();
        assert!(tree_join(&y, &z).is_err());
        assert!(tree_meet(&y, &z).is_err());
        let w = parse_attr("L(A)").unwrap();
        assert!(tree_join(&y, &w).is_err());
    }

    #[test]
    fn agrees_with_bitset_engine_exhaustively() {
        for src in [
            "L[A]",
            "L(A, B)",
            "A'(B, C[D(E, F[G])])",
            "K[L(M[N'(A, B)], C)]",
            "J[K(A, L[M(B, C)])]",
        ] {
            let n = parse_attr(src).unwrap();
            let alg = Algebra::new(&n);
            let trees = enumerate_trees(&n);
            for y in &trees {
                let ys = alg.from_attr(y).unwrap();
                for z in &trees {
                    let zs = alg.from_attr(z).unwrap();
                    let join_tree = tree_join(y, z).unwrap();
                    let meet_tree = tree_meet(y, z).unwrap();
                    let pdiff_tree = tree_pdiff(y, z).unwrap();
                    assert_eq!(
                        alg.from_attr(&join_tree).unwrap(),
                        alg.join(&ys, &zs),
                        "{src} join"
                    );
                    assert_eq!(
                        alg.from_attr(&meet_tree).unwrap(),
                        alg.meet(&ys, &zs),
                        "{src} meet"
                    );
                    assert_eq!(
                        alg.from_attr(&pdiff_tree).unwrap(),
                        alg.pdiff(&ys, &zs),
                        "{src} pdiff"
                    );
                }
            }
        }
    }
}
