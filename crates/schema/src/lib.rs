//! # nalist-schema
//!
//! Schema-design applications built on the membership algorithm — the
//! use cases the paper's introduction motivates ("deciding the
//! equivalence of two sets of dependencies or the redundancy of a given
//! set … a significant step towards automated database schema design"):
//!
//! * [`cover`] — Σ-equivalence, redundancy detection, non-redundant and
//!   minimal covers;
//! * [`keys`] — superkeys, candidate keys, key minimisation;
//! * [`normalform`] — 4NF-with-lists and BCNF-with-lists checking;
//! * [`decompose`] — lossless binary splits along MVDs (Theorem 4.4),
//!   recursive 4NF decomposition, and instance-level losslessness
//!   verification.
//!
//! Each procedure that runs Algorithm 5.1 takes the caller's [`Budget`]
//! and stops with [`ResourceExhausted`] when it runs out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod decompose;
pub mod keys;
pub mod normalform;

pub use cover::{equivalent, minimal_cover, nonredundant_cover, redundant_indices};
pub use decompose::{
    binary_split, decompose_4nf, is_dependency_preserving, lost_dependencies, verify_lossless,
    Component,
};
pub use keys::{candidate_keys, is_candidate_key, is_superkey, minimize_superkey};
pub use normalform::{is_bcnf, is_fourth_nf, Violation};

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::CompiledDep;
use nalist_guard::{Budget, ResourceExhausted};
use nalist_membership::{closure_and_basis_governed, ClosureError};

/// `X⁺` by Algorithm 5.1 under `budget`; `x` must be in `Sub(N)`.
pub(crate) fn closure(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<AtomSet, ResourceExhausted> {
    match closure_and_basis_governed(alg, sigma, x, budget) {
        Ok(basis) => Ok(basis.closure),
        Err(ClosureError::Resource(e)) => Err(e),
        Err(other) => panic!("X must be a subattribute of N: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_guard::ResourceKind;
    use nalist_types::parser::parse_attr;

    /// Under any fuel, each procedure returns exactly its unlimited
    /// answer or runs out of fuel; it never answers wrongly.
    #[test]
    fn procedures_answer_exactly_or_run_out_of_fuel() {
        let n = parse_attr("L(A, B, C, M[D])").unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = ["L(A) -> L(B)", "L(B) ->> L(C)", "L(A, B) -> L(M[D])"]
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let run = |b: &Budget| -> Result<String, ResourceExhausted> {
            Ok(format!(
                "{:?} {:?} {:?} {}",
                minimal_cover(&alg, &sigma, b)?,
                candidate_keys(&alg, &sigma, 8, b)?,
                normalform::fourth_nf_violations(&alg, &sigma, b)?,
                decompose_4nf(&alg, &sigma, 8, b)?.len()
            ))
        };
        let want = run(&Budget::unlimited()).unwrap();
        let mut starved = 0;
        for fuel in 0..400 {
            match run(&Budget::unlimited().with_fuel(fuel)) {
                Ok(got) => assert_eq!(got, want, "fuel {fuel}"),
                Err(e) => {
                    assert_eq!(e.kind, ResourceKind::Fuel, "fuel {fuel}");
                    starved += 1;
                }
            }
        }
        assert!(
            starved > 0 && starved < 400,
            "{starved} of 400 fuel levels ran out"
        );
    }
}
