//! Law verifier for the Brouwerian algebra structure (Theorem 3.9).
//!
//! [`verify_brouwerian`] exhaustively checks, over a supplied element list
//! (usually `enumerate_sets` of a small algebra), that `Sub(N)` is a
//! bounded distributive lattice whose pseudo-difference satisfies the
//! defining adjunction `a ∸ b ≤ c ⟺ a ≤ b ⊔ c`. It is used by tests and
//! by the `experiments` harness to certify the algebraic substrate before
//! the dependency machinery is exercised.

use nalist_algebra::{Algebra, AtomSet};

/// A violated law, with a human-readable description of the witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawViolation {
    /// Name of the violated law.
    pub law: &'static str,
    /// Rendered witnesses.
    pub witnesses: String,
}

impl std::fmt::Display for LawViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "law {} violated by {}", self.law, self.witnesses)
    }
}

/// Checks all Brouwerian-algebra laws over the given elements of
/// `Sub(N)`. Runs in `O(|elements|³)` — intended for small lattices.
///
/// Returns the first violation found, or `Ok(())`.
pub fn verify_brouwerian(alg: &Algebra, elements: &[AtomSet]) -> Result<(), LawViolation> {
    let viol = |law: &'static str, ws: &[&AtomSet]| LawViolation {
        law,
        witnesses: ws
            .iter()
            .map(|w| alg.render(w))
            .collect::<Vec<_>>()
            .join(", "),
    };
    let top = alg.top_set();
    let bottom = alg.bottom_set();

    for a in elements {
        // bounds
        if !alg.le(&bottom, a) || !alg.le(a, &top) {
            return Err(viol("bounds", &[a]));
        }
        // idempotence
        if alg.join(a, a) != *a || alg.meet(a, a) != *a {
            return Err(viol("idempotence", &[a]));
        }
        // identity elements
        if alg.join(a, &bottom) != *a || alg.meet(a, &top) != *a {
            return Err(viol("identity", &[a]));
        }
        // a ∸ λ = a and a ∸ a = λ
        if alg.pdiff(a, &bottom) != *a {
            return Err(viol("pdiff-bottom", &[a]));
        }
        if alg.pdiff(a, a) != bottom {
            return Err(viol("pdiff-self", &[a]));
        }
    }
    for a in elements {
        for b in elements {
            // commutativity
            if alg.join(a, b) != alg.join(b, a) || alg.meet(a, b) != alg.meet(b, a) {
                return Err(viol("commutativity", &[a, b]));
            }
            // absorption
            if alg.join(a, &alg.meet(a, b)) != *a || alg.meet(a, &alg.join(a, b)) != *a {
                return Err(viol("absorption", &[a, b]));
            }
            // consistency of ≤ with join/meet
            if alg.le(a, b) != (alg.join(a, b) == *b) || alg.le(a, b) != (alg.meet(a, b) == *a) {
                return Err(viol("order-consistency", &[a, b]));
            }
            // pdiff characterisation: a ≤ b iff a ∸ b = λ
            if alg.le(a, b) != (alg.pdiff(a, b) == bottom) {
                return Err(viol("pdiff-order", &[a, b]));
            }
        }
    }
    for a in elements {
        for b in elements {
            for c in elements {
                // associativity
                if alg.join(&alg.join(a, b), c) != alg.join(a, &alg.join(b, c)) {
                    return Err(viol("join-associativity", &[a, b, c]));
                }
                if alg.meet(&alg.meet(a, b), c) != alg.meet(a, &alg.meet(b, c)) {
                    return Err(viol("meet-associativity", &[a, b, c]));
                }
                // distributivity (every Brouwerian algebra is distributive)
                if alg.meet(a, &alg.join(b, c)) != alg.join(&alg.meet(a, b), &alg.meet(a, c)) {
                    return Err(viol("distributivity", &[a, b, c]));
                }
                // the Brouwerian adjunction: a ∸ b ≤ c ⟺ a ≤ b ⊔ c
                if alg.le(&alg.pdiff(a, b), c) != alg.le(a, &alg.join(b, c)) {
                    return Err(viol("adjunction", &[a, b, c]));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_algebra::lattice::enumerate_sets;
    use nalist_types::parser::parse_attr;

    #[test]
    fn small_algebras_are_brouwerian() {
        for src in [
            "A",
            "L[A]",
            "L(A, B)",
            "L[M[A]]",
            "A'(B, C[D(E, F[G])])",
            "K[L(M[N'(A, B)], C)]",
            "J[K(A, L[M(B, C)])]",
        ] {
            let n = parse_attr(src).unwrap();
            let alg = Algebra::new(&n);
            let elements = enumerate_sets(&alg);
            verify_brouwerian(&alg, &elements).unwrap_or_else(|v| panic!("{src}: {v}"));
        }
    }

    #[test]
    fn trivial_algebra_passes() {
        let alg = Algebra::new(&nalist_types::NestedAttr::Null);
        let elements = enumerate_sets(&alg);
        assert_eq!(elements.len(), 1);
        verify_brouwerian(&alg, &elements).unwrap();
    }

    #[test]
    fn violation_display() {
        let v = LawViolation {
            law: "adjunction",
            witnesses: "λ, A".into(),
        };
        assert!(v.to_string().contains("adjunction"));
    }
}
