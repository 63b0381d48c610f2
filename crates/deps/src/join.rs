//! The generalised join `r1 ⋈ r2` (Section 4) and Fagin's lossless-join
//! characterisation of MVDs (Theorem 4.4): `r` satisfies `X ↠ Y` iff
//! `r = π_{X⊔Y}(r) ⋈ π_{X⊔Y^C}(r)`.

use nalist_algebra::{Algebra, AtomSet};
use nalist_types::attr::NestedAttr;
use nalist_types::error::TypeError;
use nalist_types::value::Value;

use crate::instance::Instance;

/// Merges a value `v1 ∈ dom(X)` with `v2 ∈ dom(Y)` into the unique
/// `t ∈ dom(X ⊔ Y)` with `π_X(t) = v1` and `π_Y(t) = v2`, or `None` if the
/// two disagree on the common part `X ⊓ Y` (including list lengths).
pub fn merge_values(x: &NestedAttr, y: &NestedAttr, v1: &Value, v2: &Value) -> Option<Value> {
    match (x, y, v1, v2) {
        // a bottomed side contributes nothing
        (NestedAttr::Null, _, Value::Ok, _) => Some(v2.clone()),
        (_, NestedAttr::Null, _, Value::Ok) => Some(v1.clone()),
        (NestedAttr::Flat(a), NestedAttr::Flat(b), _, _) if a == b => {
            if v1 == v2 {
                Some(v1.clone())
            } else {
                None
            }
        }
        (
            NestedAttr::Record(l, xs),
            NestedAttr::Record(k, ys),
            Value::Tuple(t1),
            Value::Tuple(t2),
        ) if l == k && xs.len() == ys.len() && t1.len() == xs.len() && t2.len() == ys.len() => {
            let mut out = Vec::with_capacity(xs.len());
            for ((xc, yc), (a, b)) in xs.iter().zip(ys).zip(t1.iter().zip(t2)) {
                out.push(merge_values(xc, yc, a, b)?);
            }
            Some(Value::Tuple(out))
        }
        (NestedAttr::List(l, xi), NestedAttr::List(k, yi), Value::List(l1), Value::List(l2))
            if l == k =>
        {
            // both sides see the list: lengths are common information
            if l1.len() != l2.len() {
                return None;
            }
            let mut out = Vec::with_capacity(l1.len());
            for (a, b) in l1.iter().zip(l2) {
                out.push(merge_values(xi, yi, a, b)?);
            }
            Some(Value::List(out))
        }
        _ => None,
    }
}

/// The generalised join `r1 ⋈ r2` of `r1 ⊆ dom(X)` and `r2 ⊆ dom(Y)`:
/// all `t ∈ dom(X ⊔ Y)` with `π_X(t) ∈ r1` and `π_Y(t) ∈ r2`
/// (Section 4 of the paper).
///
/// Fails if `X` or `Y` is not a subattribute of `alg`'s `N`.
pub fn generalized_join(
    alg: &Algebra,
    r1: &Instance,
    r2: &Instance,
) -> Result<Instance, TypeError> {
    let x = r1.attr();
    let y = r2.attr();
    let xy = alg.to_attr(&alg.join(&alg.from_attr(x)?, &alg.from_attr(y)?));
    let mut out = Instance::new(xy);
    for t1 in r1.iter() {
        for t2 in r2.iter() {
            if let Some(t) = merge_values(x, y, t1, t2) {
                out.insert(t)?;
            }
        }
    }
    Ok(out)
}

/// Theorem 4.4: does `r = π_{X⊔Y}(r) ⋈ π_{X⊔Y^C}(r)` hold?
///
/// **Erratum note** (see EXPERIMENTS.md): satisfaction of `X ↠ Y` always
/// implies losslessness, but the converse stated by Theorem 4.4 fails in
/// corner cases where `r` violates the FD `X → Y ⊓ Y^C`: on `N = L[A]`
/// with `r = {[], [a]}`, `X = λ`, `Y = L[λ]` the complement `Y^C` is all
/// of `N`, the decomposition is trivially lossless, yet the MVD is
/// violated (no tuple can combine the shape of `[]` with the content of
/// `[a]`). The corrected equivalence — property-tested in the
/// integration suite — is
///
/// `r ⊨ X ↠ Y  ⟺  r = π_{X⊔Y}(r) ⋈ π_{X⊔Y^C}(r)  and  r ⊨ X → Y ⊓ Y^C`,
///
/// because two projected tuples merge in the generalised join exactly
/// when they agree on `(X⊔Y) ⊓ (X⊔Y^C) = X ⊔ (Y ⊓ Y^C)`.
pub fn lossless_decomposition(
    alg: &Algebra,
    r: &Instance,
    x: &AtomSet,
    y: &AtomSet,
) -> Result<bool, TypeError> {
    let left = alg.to_attr(&alg.join(x, y));
    let right = alg.to_attr(&alg.join(x, &alg.compl(y)));
    let p1 = r.project(&left)?;
    let p2 = r.project(&right)?;
    let joined = generalized_join(alg, &p1, &p2)?;
    Ok(joined == *r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn pubcrawl() -> (NestedAttr, Algebra, Instance) {
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let alg = Algebra::new(&n);
        let r = Instance::from_strs(
            n.clone(),
            &[
                "(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])",
                "(Sven, [(Kindl, Deanos), (Lübzer, Highflyers)])",
                "(Klaus-Dieter, [(Guiness, Irish Pub), (Speights, 3Bar), (Guiness, Irish Pub)])",
                "(Klaus-Dieter, [(Kölsch, Irish Pub), (Bönnsch, 3Bar), (Guiness, Irish Pub)])",
                "(Klaus-Dieter, [(Guiness, Highflyers), (Speights, Deanos), (Guiness, 3Bar)])",
                "(Klaus-Dieter, [(Kölsch, Highflyers), (Bönnsch, Deanos), (Guiness, 3Bar)])",
                "(Sebastian, [])",
            ],
        )
        .unwrap();
        (n, alg, r)
    }

    #[test]
    fn example_45_decomposition_is_lossless() {
        // Person ↠ Visit[Drink(Pub)] holds, so projecting to
        // (Person, Visit[Drink(Beer)]) and (Person, Visit[Drink(Pub)])
        // reconstructs r.
        let (n, alg, r) = pubcrawl();
        let d = Dependency::parse(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
            .unwrap()
            .compile(&alg)
            .unwrap();
        assert!(r.satisfies(&alg, &d));
        assert!(lossless_decomposition(&alg, &r, &d.lhs, &d.rhs).unwrap());
        // the paper's projections have 5 and 4 distinct tuples respectively
        let beer_side = parse_subattr_of(&n, "Pubcrawl(Person, Visit[Drink(Beer)])").unwrap();
        let pub_side = parse_subattr_of(&n, "Pubcrawl(Person, Visit[Drink(Pub)])").unwrap();
        assert_eq!(r.project(&beer_side).unwrap().len(), 5);
        assert_eq!(r.project(&pub_side).unwrap().len(), 4);
    }

    #[test]
    fn violated_mvd_gives_lossy_decomposition() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let r = Instance::from_strs(n.clone(), &["(a, b1, c1)", "(a, b2, c2)"]).unwrap();
        let d = Dependency::parse(&n, "L(A) ->> L(B)")
            .unwrap()
            .compile(&alg)
            .unwrap();
        assert!(!r.satisfies(&alg, &d));
        assert!(!lossless_decomposition(&alg, &r, &d.lhs, &d.rhs).unwrap());
    }

    #[test]
    fn fd_satisfaction_implies_lossless_but_not_conversely() {
        // The paper's remark after Theorem 4.4: r = {(a,b1),(a,b2)} does not
        // satisfy L(A) → L(B) yet decomposes losslessly.
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let r = Instance::from_strs(n.clone(), &["(a, b1)", "(a, b2)"]).unwrap();
        let d = Dependency::parse(&n, "L(A) -> L(B)")
            .unwrap()
            .compile(&alg)
            .unwrap();
        assert!(!r.satisfies(&alg, &d));
        assert!(lossless_decomposition(&alg, &r, &d.lhs, &d.rhs).unwrap());
    }

    #[test]
    fn merge_respects_list_lengths() {
        let x = parse_attr("L[M(A, λ)]").unwrap();
        let y = parse_attr("L[M(λ, B)]").unwrap();
        let v1 = nalist_types::parser::parse_value("[(a1, ok), (a2, ok)]").unwrap();
        let v2 = nalist_types::parser::parse_value("[(ok, b1), (ok, b2)]").unwrap();
        let merged = merge_values(&x, &y, &v1, &v2).unwrap();
        assert_eq!(merged.to_string(), "[(a1, b1), (a2, b2)]");
        // length mismatch: no merge
        let v3 = nalist_types::parser::parse_value("[(ok, b1)]").unwrap();
        assert!(merge_values(&x, &y, &v1, &v3).is_none());
    }

    #[test]
    fn merge_disagreement_on_common_part() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let x = parse_subattr_of(&n, "L(A, B, λ)").unwrap();
        let y = parse_subattr_of(&n, "L(λ, B, C)").unwrap();
        let v1 = nalist_types::parser::parse_value("(a, b, ok)").unwrap();
        let v2 = nalist_types::parser::parse_value("(ok, b, c)").unwrap();
        assert_eq!(
            merge_values(&x, &y, &v1, &v2).unwrap().to_string(),
            "(a, b, c)"
        );
        let v2bad = nalist_types::parser::parse_value("(ok, b', c)").unwrap();
        assert!(merge_values(&x, &y, &v1, &v2bad).is_none());
    }

    #[test]
    fn join_of_incompatible_instances_fails() {
        let alg = Algebra::new(&parse_attr("L(A, B)").unwrap());
        let r1 = Instance::new(parse_attr("L(A, λ)").unwrap());
        let r2 = Instance::new(parse_attr("M(B)").unwrap());
        assert!(generalized_join(&alg, &r1, &r2).is_err());
    }

    #[test]
    fn empty_join() {
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let x = parse_subattr_of(&n, "L(A, λ)").unwrap();
        let y = parse_subattr_of(&n, "L(λ, B)").unwrap();
        let mut r1 = Instance::new(x);
        let r2 = Instance::new(y);
        assert!(generalized_join(&alg, &r1, &r2).unwrap().is_empty());
        r1.insert_str("(a, ok)").unwrap();
        assert!(generalized_join(&alg, &r1, &r2).unwrap().is_empty());
    }
}
