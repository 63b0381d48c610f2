//! Refutation witnesses: when `Σ ⊭ σ`, construct a concrete finite
//! instance `r ⊆ dom(N)` with `r ⊨ Σ` and `r ⊭ σ`.
//!
//! The construction is the paper's completeness argument (Section 4.2):
//! starting from two generator tuples `t1, t2` that agree exactly on the
//! functionally determined part `X⁺`, all `2^k` recombinations across the
//! `k` free dependency-basis blocks are added. Atoms take per-atom
//! two-valued assignments; list atoms encode their choice in the list
//! *length* (1 vs 2), so agreement on any subattribute `Y` is exactly
//! agreement on the atom assignment restricted to `SubB(Y)`.
//!
//! The witness returned by [`refute_governed`] is *verified*: the instance is
//! checked to satisfy every dependency of `Σ` and to violate `σ` using
//! the independent satisfaction checker of `nalist-deps`, so a bug in the
//! construction (or in Algorithm 5.1) cannot produce a bogus certificate.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::{CompiledDep, Instance};
use nalist_guard::{Budget, ResourceExhausted};
use nalist_types::attr::NestedAttr;
use nalist_types::value::Value;

use crate::closure::{ClosureError, DependencyBasis};

/// Upper bound on free blocks: the instance has `2^k` tuples.
pub const MAX_FREE_BLOCKS: usize = 16;

/// A verified refutation certificate for `Σ ⊭ σ`.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The counterexample instance (`2^k` tuples).
    pub instance: Instance,
    /// The all-`t1` generator tuple.
    pub t1: Value,
    /// The all-`t2` generator tuple.
    pub t2: Value,
    /// Number of free blocks used.
    pub free_blocks: usize,
}

/// Errors from witness construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// More than [`MAX_FREE_BLOCKS`] free blocks (instance would have
    /// more than `2^16` tuples).
    TooManyBlocks {
        /// The number of free blocks required.
        blocks: usize,
    },
    /// The constructed instance failed verification — indicates a bug.
    VerificationFailed {
        /// Human-readable reason.
        reason: String,
    },
    /// An atom outside `X⁺` is not possessed by any free block, so the
    /// dependency basis handed to [`combination_instance`] is not a
    /// partition of the complement (Section 4.2 is violated).
    UncoveredAtom {
        /// The orphaned atom's index.
        atom: usize,
    },
    /// The budget ran out mid-construction.
    Resource(ResourceExhausted),
}

impl From<ResourceExhausted> for WitnessError {
    fn from(e: ResourceExhausted) -> Self {
        WitnessError::Resource(e)
    }
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::TooManyBlocks { blocks } => {
                write!(
                    f,
                    "witness needs 2^{blocks} tuples (limit 2^{MAX_FREE_BLOCKS})"
                )
            }
            WitnessError::VerificationFailed { reason } => {
                write!(f, "witness verification failed: {reason}")
            }
            WitnessError::UncoveredAtom { atom } => {
                write!(
                    f,
                    "atom {atom} lies outside X⁺ but no free block possesses it \
                     (dependency basis is not a partition)"
                )
            }
            WitnessError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WitnessError {}

/// Builds the combination instance for `X` from its dependency basis: two
/// generators agreeing exactly on `X⁺`, recombined across all free
/// blocks. The instance satisfies `Σ` (completeness construction) and
/// violates every `X → Y`/`X ↠ Y` not implied by `Σ`. One fuel unit is
/// charged per constructed tuple, so a `2^16`-tuple instance respects the
/// caller's admission limits.
pub fn combination_instance(
    alg: &Algebra,
    basis: &DependencyBasis,
    budget: &Budget,
) -> Result<Witness, WitnessError> {
    let n = alg.attr().clone();
    let free: Vec<&AtomSet> = basis.free_blocks();
    let k = free.len();
    if k > MAX_FREE_BLOCKS {
        return Err(WitnessError::TooManyBlocks { blocks: k });
    }

    // assign every atom outside X⁺ to its possessing free block
    let mut block_of: Vec<Option<usize>> = vec![None; alg.atom_count()];
    for (a, slot) in block_of.iter_mut().enumerate() {
        if basis.closure.contains(a) {
            continue;
        }
        let owner = free
            .iter()
            .position(|w| alg.possessed_by(a, w))
            .ok_or(WitnessError::UncoveredAtom { atom: a })?;
        *slot = Some(owner);
    }

    let mut instance = Instance::new(n.clone());
    let mut t1 = None;
    let mut t2 = None;
    for combo in 0u32..(1u32 << k) {
        budget.charge(1)?;
        let choice = |atom: usize| -> u8 {
            match block_of[atom] {
                None => 0, // functionally determined: same value everywhere
                Some(b) => ((combo >> b) & 1) as u8,
            }
        };
        let mut cursor = 0usize;
        let t = build_value(&n, &mut cursor, &choice);
        if combo == 0 {
            t1 = Some(t.clone());
        }
        if combo == (1u32 << k) - 1 {
            t2 = Some(t.clone());
        }
        instance
            .insert(t)
            .map_err(|e| WitnessError::VerificationFailed {
                reason: format!("constructed value ill-typed: {e}"),
            })?;
    }
    let (t1, t2) = match (t1, t2) {
        (Some(t1), Some(t2)) => (t1, t2),
        _ => {
            return Err(WitnessError::VerificationFailed {
                reason: "generator tuples were not constructed".to_owned(),
            })
        }
    };
    Ok(Witness {
        instance,
        t1,
        t2,
        free_blocks: k,
    })
}

/// Builds a value of `dom(n)` from a per-atom binary choice. Flat atoms
/// become distinct strings `v<atom>_<choice>`; a list atom's choice is its
/// length (1 or 2, both elements identical), so `π_{L[λ]}` observes it.
fn build_value(n: &NestedAttr, cursor: &mut usize, choice: &dyn Fn(usize) -> u8) -> Value {
    match n {
        NestedAttr::Null => Value::Ok,
        NestedAttr::Flat(_) => {
            let a = *cursor;
            *cursor += 1;
            Value::str(format!("v{}_{}", a, choice(a)))
        }
        NestedAttr::Record(_, children) => Value::Tuple(
            children
                .iter()
                .map(|c| build_value(c, cursor, choice))
                .collect(),
        ),
        NestedAttr::List(_, inner) => {
            let a = *cursor;
            *cursor += 1;
            let element = build_value(inner, cursor, choice);
            if choice(a) == 0 {
                Value::List(vec![element])
            } else {
                Value::List(vec![element.clone(), element])
            }
        }
    }
}

/// Decides `Σ ⊨ σ`; if not implied, returns a *verified* counterexample,
/// and `Ok(None)` when the dependency is implied.
///
/// [`crate::cert::answer`] then [`crate::cert::Answer::witness`], so the
/// closure run, the `2^k` tuple construction and the per-dependency
/// instance verification all charge the same budget.
pub fn refute_governed(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    budget: &Budget,
) -> Result<Option<Witness>, WitnessError> {
    crate::cert::answer(alg, sigma, dep, budget, nalist_obs::noop())
        .map_err(|e| match e {
            ClosureError::Resource(r) => WitnessError::Resource(r),
            other => WitnessError::VerificationFailed {
                reason: other.to_string(),
            },
        })?
        .witness(budget)
}

/// The combination instance of `basis`, the basis of `dep`'s left-hand
/// side, verified to satisfy every member of `Σ` and to violate `dep`.
/// Verification charges the instance's size per dependency checked.
pub(crate) fn verified(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    basis: &DependencyBasis,
    budget: &Budget,
) -> Result<Witness, WitnessError> {
    let witness = combination_instance(alg, basis, budget)?;
    // verify: r ⊨ Σ …
    for (i, d) in sigma.iter().enumerate() {
        budget.charge(witness.instance.len() as u64)?;
        if !witness.instance.satisfies(alg, d) {
            return Err(WitnessError::VerificationFailed {
                reason: format!("instance violates premise #{i}: {}", d.render(alg)),
            });
        }
    }
    // … and r ⊭ σ
    if witness.instance.satisfies(alg, dep) {
        return Err(WitnessError::VerificationFailed {
            reason: format!("instance satisfies the target {}", dep.render(alg)),
        });
    }
    Ok(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::closure_and_basis;
    use nalist_deps::Dependency;
    use nalist_types::parser::parse_attr;

    fn dep(n: &NestedAttr, alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(n, s).unwrap().compile(alg).unwrap()
    }

    #[test]
    fn refutes_underivable_fd() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)")];
        let target = dep(&n, &alg, "L(A) -> L(C)");
        let w = refute_governed(&alg, &sigma, &target, &Budget::unlimited())
            .unwrap()
            .unwrap();
        assert!(w.instance.satisfies(&alg, &sigma[0]));
        assert!(!w.instance.satisfies(&alg, &target));
        assert_eq!(w.free_blocks, 1); // only {C} is free
        assert_eq!(w.instance.len(), 2);
        assert_ne!(w.t1, w.t2);
    }

    #[test]
    fn implied_yields_none() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let target = dep(&n, &alg, "L(A) -> L(C)");
        assert!(refute_governed(&alg, &sigma, &target, &Budget::unlimited())
            .unwrap()
            .is_none());
    }

    #[test]
    fn refutes_underivable_mvd() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) ->> L(B)")];
        // L(A) ↠ L(B, C) is not implied (C and D sit in one block)
        let target = dep(&n, &alg, "L(A) ->> L(B, C)");
        let w = refute_governed(&alg, &sigma, &target, &Budget::unlimited())
            .unwrap()
            .unwrap();
        assert_eq!(w.free_blocks, 2); // {B} and {C, D}
        assert_eq!(w.instance.len(), 4);
        assert!(w.instance.satisfies(&alg, &sigma[0]));
        assert!(!w.instance.satisfies(&alg, &target));
    }

    #[test]
    fn list_shape_witness() {
        // On N = L[A] with empty Σ: λ → L[λ] is not implied; the witness
        // must use lists of different lengths.
        let n = parse_attr("L[A]").unwrap();
        let alg = Algebra::new(&n);
        let target = dep(&n, &alg, "λ -> L[λ]");
        let w = refute_governed(&alg, &[], &target, &Budget::unlimited())
            .unwrap()
            .unwrap();
        assert!(!w.instance.satisfies(&alg, &target));
        // two tuples with lengths 1 and 2
        let lens: Vec<usize> = w
            .instance
            .iter()
            .filter_map(|t| match t {
                Value::List(items) => Some(items.len()),
                _ => None,
            })
            .collect();
        assert_eq!(lens.len(), w.instance.len(), "every tuple must be a list");
        assert!(lens.contains(&1) && lens.contains(&2));
    }

    #[test]
    fn mixed_meet_makes_fd_implied_no_witness() {
        // With λ ↠ L[λ] in Σ, λ → L[λ] IS implied: no witness must exist.
        let n = parse_attr("L[A]").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "λ ->> L[λ]")];
        let target = dep(&n, &alg, "λ -> L[λ]");
        assert!(refute_governed(&alg, &sigma, &target, &Budget::unlimited())
            .unwrap()
            .is_none());
    }

    #[test]
    fn nested_witness_verifies() {
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(
            &n,
            &alg,
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
        )];
        // Person -> Pub list is NOT implied
        let target = dep(&n, &alg, "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])");
        let w = refute_governed(&alg, &sigma, &target, &Budget::unlimited())
            .unwrap()
            .unwrap();
        assert!(w.instance.satisfies(&alg, &sigma[0]));
        assert!(!w.instance.satisfies(&alg, &target));
        // but Person -> Visit[λ] IS implied (mixed meet)
        let implied = dep(&n, &alg, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])");
        assert!(
            refute_governed(&alg, &sigma, &implied, &Budget::unlimited())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn orphaned_atom_yields_typed_error_not_panic() {
        // A malformed basis (closure {A}, only block {A}) leaves B and C
        // uncovered: previously an `expect` panic, now a typed error.
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let basis = DependencyBasis {
            closure: AtomSet::from_indices(alg.atom_count(), [0]),
            blocks: vec![AtomSet::from_indices(alg.atom_count(), [0])],
            basis: Vec::new(),
        };
        let err = combination_instance(&alg, &basis, &Budget::unlimited()).unwrap_err();
        assert!(matches!(err, WitnessError::UncoveredAtom { atom: 1 }));
        assert!(err.to_string().contains("free block"));
    }

    #[test]
    fn generators_agree_exactly_on_closure() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)")];
        let x = dep(&n, &alg, "L(A) -> L(A)").lhs;
        let basis = closure_and_basis(&alg, &sigma, &x);
        let w = combination_instance(&alg, &basis, &Budget::unlimited()).unwrap();
        let closure_attr = alg.to_attr(&basis.closure);
        let p1 = nalist_types::projection::project(&n, &closure_attr, &w.t1).unwrap();
        let p2 = nalist_types::projection::project(&n, &closure_attr, &w.t2).unwrap();
        assert_eq!(p1, p2);
        // and they disagree on the complement's flat atoms
        assert_ne!(w.t1, w.t2);
    }
}
