//! Algorithm 5.1: attribute-set closure `X⁺` and dependency basis
//! `DepB(X)`.
//!
//! The algorithm generalises Beeri's relational membership algorithm. It
//! maintains
//!
//! * `X_new` — the growing set of functionally determined basis
//!   attributes, and
//! * `DB_new` — a partition refinement over the *maximal* basis attributes
//!   of `N` (each block `W` is `^CC`-closed: the downward closure of its
//!   maximal atoms),
//!
//! and repeatedly processes every `U → V` and `U ↠ V` in `Σ`:
//!
//! 1. `Ū := ⊔{W ∈ DB | ∃U' possessed by W, U' ≰ X_new, U' ≤ U}` — the part
//!    of `U` not yet known to be "anchored";
//! 2. `Ṽ := V ∸ Ū` — the part of `V` the dependency actually transfers;
//! 3. for an FD, `X_new ⊔= Ṽ` and every block is reduced by `Ṽ`
//!    (`W ↦ (W ∸ Ṽ)^CC`) while `Ṽ`'s maximal atoms become singleton
//!    blocks;
//! 4. for an MVD, `X_new ⊔= Ṽ ⊓ Ṽ^C` (the mixed meet rule in action:
//!    non-maximal basis attributes of `Ṽ` not possessed by `Ṽ` are
//!    functionally determined) and every block is *split* along `Ṽ`.
//!
//! The loop reaches a fixpoint after at most `|SubB(N)|` passes
//! (Theorem 6.3); every pass is `O(|N|³·|Σ|)`, giving the
//! `O(|N|⁴·|Σ|)` bound of Theorem 6.4.
//!
//! ## One engine, two schedules
//!
//! The step itself has one implementation, in [`crate::worklist`], and
//! two drivers run it. The untraced entry points [`closure_and_basis`]
//! and [`closure_and_basis_governed`] use the change-driven worklist
//! ([`crate::worklist::run`]), which skips dependency steps that are
//! provably no-ops. The traced variant
//! [`closure_and_basis_traced`](crate::closure_and_basis_traced) runs
//! the paper's own schedule instead — every pass processes every
//! dependency in FD-then-MVD order until a pass changes nothing — and
//! records each step, so `nalist trace` reproduces Example 5.1 and
//! Figures 3–4 of the paper pass for pass, step for step. Both produce
//! bit-for-bit identical [`DependencyBasis`] values (see the invariant
//! argument in [`crate::worklist`]); the `crossval` test suite checks
//! this, step for step, against the paper's clone-and-compare pass
//! engine and the paper-literal `SubB`-set transcription in
//! `nalist-oracle`, which ships in no binary.

use nalist_algebra::{Algebra, AlgebraError, AtomSet};
use nalist_deps::{CompiledDep, DepKind};
use nalist_guard::{Budget, ResourceExhausted};

/// Error from the governed closure entry points: either the budget ran
/// out, or the supplied `X` is not downward closed — i.e. not an element
/// of `Sub(N)` at all, so Algorithm 5.1's precondition is violated and
/// any "answer" would be garbage. Internal callers that construct `X`
/// via [`Algebra::from_attr`] can never hit the latter; the check exists
/// for external callers handing in raw atom sets (previously only a
/// `debug_assert!`, so release builds silently computed garbage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureError {
    /// A resource limit tripped ([`ResourceExhausted`]).
    Resource(ResourceExhausted),
    /// `X` is not downward closed: `atom` is in `X` but one of its
    /// list-node ancestors is not.
    NotDownwardClosed {
        /// A witness atom whose `below` set is not contained in `X`.
        atom: usize,
    },
    /// `X` was built for a different universe than the algebra's
    /// ([`AlgebraError::CapacityMismatch`]). This is the typed form of
    /// the capacity agreement every bitset kernel below this boundary
    /// assumes with only a `debug_assert!`.
    Algebra(AlgebraError),
}

impl std::fmt::Display for ClosureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClosureError::Resource(e) => e.fmt(f),
            ClosureError::NotDownwardClosed { atom } => write!(
                f,
                "X is not downward closed: atom {atom} is present without its list-node ancestors"
            ),
            ClosureError::Algebra(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ClosureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClosureError::Resource(e) => Some(e),
            ClosureError::NotDownwardClosed { .. } => None,
            ClosureError::Algebra(e) => Some(e),
        }
    }
}

impl From<ResourceExhausted> for ClosureError {
    fn from(e: ResourceExhausted) -> Self {
        ClosureError::Resource(e)
    }
}

impl From<AlgebraError> for ClosureError {
    fn from(e: AlgebraError) -> Self {
        ClosureError::Algebra(e)
    }
}

/// Checks Algorithm 5.1's preconditions: `X` belongs to the algebra's
/// universe (capacity agreement — the one public boundary through which
/// a mismatched-width set could reach the specialized kernels) and `X`
/// is downward closed, returning a witness atom on violation. One
/// `below ⊆ X` word-parallel test per atom of `X` — cheap relative to
/// even a single fixpoint pass.
pub(crate) fn check_downward_closed(alg: &Algebra, x: &AtomSet) -> Result<(), ClosureError> {
    alg.check_capacity(x)?;
    match x.iter().find(|&a| !alg.atom(a).below.is_subset(x)) {
        None => Ok(()),
        Some(atom) => Err(ClosureError::NotDownwardClosed { atom }),
    }
}

/// The output of Algorithm 5.1 for a fixed `X` and `Σ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyBasis {
    /// `X⁺` — the attribute-set closure (join of all FD-implied
    /// subattributes).
    pub closure: AtomSet,
    /// The final partition blocks `X^M` (each a `^CC`-closed subattribute;
    /// together their maximal atoms partition `MaxB(N)`).
    pub blocks: Vec<AtomSet>,
    /// `DepB(X) = SubB(X⁺) ∪ X^M` — deduplicated, deterministic order.
    pub basis: Vec<AtomSet>,
}

/// One dependency-processing step inside a pass (recorded for the trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTrace {
    /// Index of the processed dependency in the *reordered* sequence
    /// (FDs first, then MVDs — the paper's loop order); see
    /// [`Trace::order`] for the mapping back into `Σ`.
    pub dep_index: usize,
    /// The computed `Ū`.
    pub ubar: AtomSet,
    /// The computed `Ṽ = V ∸ Ū`.
    pub vtilde: AtomSet,
    /// Did this step change `X_new` or `DB_new`?
    pub changed: bool,
    /// `X_new` after the step.
    pub x_after: AtomSet,
    /// `DB_new` after the step (sorted).
    pub db_after: Vec<AtomSet>,
}

/// A full run trace of Algorithm 5.1 (regenerates Example 5.1 and
/// Figures 3–4 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// `X_new` after initialisation.
    pub init_x: AtomSet,
    /// `DB_new` after initialisation (`MaxB(X^CC) ∪ {X^C}`).
    pub init_db: Vec<AtomSet>,
    /// Mapping from trace `dep_index` to the index in the supplied `Σ`.
    pub order: Vec<usize>,
    /// One entry per REPEAT-UNTIL pass, each a sequence of steps.
    pub passes: Vec<Vec<StepTrace>>,
}

/// Computes `X⁺` and `DepB(X)` (Algorithm 5.1), discarding the trace.
///
/// Runs the change-driven worklist engine ([`crate::worklist::run`]);
/// the output is identical to
/// [`closure_and_basis_traced`](crate::closure_and_basis_traced)'s.
pub fn closure_and_basis(alg: &Algebra, sigma: &[CompiledDep], x: &AtomSet) -> DependencyBasis {
    closure_and_basis_governed(alg, sigma, x, &Budget::unlimited())
        .expect("unlimited budget cannot be exhausted and X must be downward closed")
}

/// [`closure_and_basis`] under a resource [`Budget`]. A successful return
/// is always the exact fixpoint; a truncated run surfaces as
/// [`ClosureError::Resource`], never as a partial answer, and a
/// non-downward-closed `X` as [`ClosureError::NotDownwardClosed`].
pub fn closure_and_basis_governed(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<DependencyBasis, ClosureError> {
    let run = crate::worklist::run(alg, sigma, x, budget, nalist_obs::noop())?;
    Ok(DependencyBasis::derive(alg, run.closure, run.blocks))
}

/// Proposition 4.10 on width-exact words (see [`AtomSet::words`]),
/// deciding `X → Y` or `X ↠ Y` from `X⁺` and the blocks `X^M` alone:
///
/// * (ii) the FD is implied iff `Y ⊆ X⁺`;
/// * (i) the MVD is implied iff `Y` is a join of elements of
///   `DepB(X) = SubB(X⁺) ∪ X^M`, i.e. iff
///   `Y ⊆ X⁺ ⊔ ⊔{W ∈ X^M : W ⊆ Y}` — every atom of `Y` outside `X⁺`
///   lies in a block contained in `Y`. One pass over the block words
///   strikes the atoms each such block covers.
///
/// [`DependencyBasis`] and the reasoner's packed cache entries both
/// decide through this one function.
pub(crate) fn derivable<'a>(
    kind: DepKind,
    closure: &[u64],
    blocks: impl IntoIterator<Item = &'a [u64]>,
    y: &[u64],
) -> bool {
    debug_assert_eq!(closure.len(), y.len());
    let subset = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(&a, &b)| a & !b == 0);
    if kind == DepKind::Fd {
        return subset(y, closure);
    }
    // the atoms of Y not yet covered: Y ∖ X⁺, then minus every block ⊆ Y
    let mut inline = [0u64; 8];
    let mut spilled = Vec::new();
    let rest: &mut [u64] = if y.len() <= inline.len() {
        &mut inline[..y.len()]
    } else {
        spilled.resize(y.len(), 0);
        &mut spilled
    };
    for ((r, &yw), &cw) in rest.iter_mut().zip(y).zip(closure) {
        *r = yw & !cw;
    }
    for w in blocks {
        if rest.iter().all(|&r| r == 0) {
            return true;
        }
        if subset(w, y) {
            for (r, &ww) in rest.iter_mut().zip(w) {
                *r &= !ww;
            }
        }
    }
    rest.iter().all(|&r| r == 0)
}

impl DependencyBasis {
    /// Assembles the basis from `X⁺` and the blocks `X^M` (sorted),
    /// deriving `DepB(X) = SubB(X⁺) ∪ X^M` in its deterministic order.
    /// Every maximal atom `m` of `X⁺` already has its singleton block
    /// `b(m)^↓ = below(m)` (the initial `MaxB(X^CC)` singletons and those
    /// each FD step adds; the mixed meet adds no maximal atom), and the
    /// `below` set of a list-node atom is never `^CC`-closed, so never a
    /// block. `DepB(X)` is therefore the blocks interleaved with the
    /// `below` sets of the non-maximal atoms of `X⁺`, merged in sorted
    /// order. Both engine drivers and the reasoner's cache build their
    /// [`DependencyBasis`] here; the pass engine in `nalist-oracle`
    /// builds `DepB(X)` from its definition and is the reference this
    /// is checked against.
    pub(crate) fn derive(alg: &Algebra, closure: AtomSet, blocks: Vec<AtomSet>) -> Self {
        debug_assert!(blocks.windows(2).all(|p| p[0] < p[1]), "blocks are sorted");
        let lists = closure.difference(alg.max_mask());
        let mut below: Vec<&AtomSet> = lists.iter().map(|a| &alg.atom(a).below).collect();
        below.sort_unstable();
        let mut basis = Vec::with_capacity(blocks.len() + below.len());
        let mut below = below.into_iter().peekable();
        for w in &blocks {
            while let Some(b) = below.next_if(|&b| b < w) {
                basis.push(b.clone());
            }
            basis.push(w.clone());
        }
        basis.extend(below.cloned());
        DependencyBasis {
            closure,
            blocks,
            basis,
        }
    }

    /// Proposition 4.10 (i): is the MVD `X ↠ Y` implied, i.e. is `Y` the
    /// join of elements of `DepB(X)`? Evaluated from `X⁺` and the blocks
    /// as `Y ⊆ X⁺ ⊔ ⊔{W ∈ X^M : W ⊆ Y}`.
    pub fn mvd_derivable(&self, y: &AtomSet) -> bool {
        let blocks = self.blocks.iter().map(AtomSet::words);
        derivable(DepKind::Mvd, self.closure.words(), blocks, y.words())
    }

    /// Proposition 4.10 (ii): is the FD `X → Y` implied, i.e. `Y ≤ X⁺`?
    pub fn fd_derivable(&self, y: &AtomSet) -> bool {
        derivable(DepKind::Fd, self.closure.words(), [], y.words())
    }

    /// Blocks not below `X⁺` — the "free" combination blocks `W_1, …, W_k`
    /// of Section 4.2 (everything else is functionally determined).
    pub fn free_blocks(&self) -> Vec<&AtomSet> {
        self.blocks
            .iter()
            .filter(|w| !w.is_subset(&self.closure))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worklist::closure_and_basis_traced;
    use nalist_deps::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn setup(attr: &str, deps: &[&str], x: &str) -> (Algebra, Vec<CompiledDep>, AtomSet) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let xs = alg.from_attr(&parse_subattr_of(&n, x).unwrap()).unwrap();
        (alg, sigma, xs)
    }

    #[test]
    fn empty_sigma_closure_is_x() {
        let (alg, sigma, x) = setup("L(A, B, C)", &[], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(b.closure, x);
        // blocks: singleton {A} plus X^C = {B, C}
        assert_eq!(b.blocks.len(), 2);
        assert!(b.mvd_derivable(
            &alg.from_attr(&parse_subattr_of(alg.attr(), "L(A, B, C)").unwrap())
                .unwrap()
        ));
        assert!(b.mvd_derivable(&x));
        // L(A, B) is not a union of blocks ({B,C} is one block)
        let ab = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(A, B)").unwrap())
            .unwrap();
        assert!(!b.mvd_derivable(&ab));
    }

    #[test]
    fn relational_fd_closure() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(b.closure, alg.top_set());
        assert!(b.fd_derivable(&alg.top_set()));
        // all blocks are singletons once everything is determined
        for w in &b.blocks {
            assert_eq!(w.count(), 1);
        }
        // every MVD with this LHS is derivable (all atoms in X⁺)
        let any = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(λ, B, C)").unwrap())
            .unwrap();
        assert!(b.mvd_derivable(&any));
    }

    #[test]
    fn relational_mvd_basis() {
        // classic: A ↠ B on L(A, B, C, D) splits {B} from {C, D}
        let (alg, sigma, x) = setup("L(A, B, C, D)", &["L(A) ->> L(B)"], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(b.closure, x);
        let bl: Vec<String> = b.blocks.iter().map(|w| alg.render(w)).collect();
        assert_eq!(bl, vec!["L(A)", "L(B)", "L(C, D)"]);
        let y_b = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(B)").unwrap())
            .unwrap();
        let y_bc = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(B, C)").unwrap())
            .unwrap();
        let y_cd = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(C, D)").unwrap())
            .unwrap();
        assert!(b.mvd_derivable(&y_b));
        assert!(!b.mvd_derivable(&y_bc));
        assert!(b.mvd_derivable(&y_cd));
    }

    #[test]
    fn mixed_meet_in_action() {
        // On N = L[A], λ ↠ L[λ] functionally determines L[λ].
        let (alg, sigma, x) = setup("L[A]", &["λ ->> L[λ]"], "λ");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(alg.render(&b.closure), "L[λ]");
        let y = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L[λ]").unwrap())
            .unwrap();
        assert!(b.fd_derivable(&y));
    }

    #[test]
    fn trace_records_initialisation() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)"], "L(A)");
        let (b, t) = closure_and_basis_traced(&alg, &sigma, &x, &Budget::unlimited()).unwrap();
        assert_eq!(t.init_x, x);
        assert_eq!(t.init_db.len(), 2); // {A} and X^C = {B, C}
        assert!(t.passes.len() >= 2); // one changing pass + one fixpoint pass
        assert_eq!(t.order, vec![0]);
        let last = t.passes.last().unwrap();
        assert!(last.iter().all(|s| !s.changed));
        assert_eq!(
            b.closure,
            alg.from_attr(&parse_subattr_of(alg.attr(), "L(A, B)").unwrap())
                .unwrap()
        );
    }

    #[test]
    fn fds_processed_before_mvds() {
        let (_, sigma, _) = setup("L(A, B, C)", &["L(A) ->> L(B)", "L(A) -> L(C)"], "L(A)");
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        let (_, t) = closure_and_basis_traced(&alg, &sigma, &x, &Budget::unlimited()).unwrap();
        // order maps trace position 0 to Σ index 1 (the FD)
        assert_eq!(t.order, vec![1, 0]);
    }

    #[test]
    fn free_blocks_exclude_determined() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)"], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        let free: Vec<String> = b.free_blocks().iter().map(|w| alg.render(w)).collect();
        assert_eq!(free, vec!["L(C)"]);
    }

    #[test]
    fn closure_is_monotone_in_sigma() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"], "L(A)");
        let small = closure_and_basis(&alg, &sigma[..1], &x);
        let big = closure_and_basis(&alg, &sigma, &x);
        assert!(small.closure.is_subset(&big.closure));
    }

    #[test]
    fn governed_entry_points_reject_non_downward_closed_x() {
        // On A'(B, C[D(E, F[G])]), {E} alone (without its list ancestor C)
        // is not an element of Sub(N). Atom ids: 0=B, 1=C, 2=E, 3=F, 4=G.
        let (alg, sigma, _) = setup("A'(B, C[D(E, F[G])])", &["A'(B) ->> A'(C[D(E)])"], "λ");
        let bad = AtomSet::from_indices(5, [2]);
        let err = closure_and_basis_governed(&alg, &sigma, &bad, &Budget::unlimited()).unwrap_err();
        assert_eq!(err, ClosureError::NotDownwardClosed { atom: 2 });
        assert!(err.to_string().contains("not downward closed"));
        // a valid X still works and resource errors still convert
        let good = AtomSet::from_indices(5, [1, 2]);
        assert!(closure_and_basis_governed(&alg, &sigma, &good, &Budget::unlimited()).is_ok());
        let starved = Budget::unlimited().with_fuel(0);
        assert!(matches!(
            closure_and_basis_governed(&alg, &sigma, &good, &starved),
            Err(ClosureError::Resource(_))
        ));
    }

    #[test]
    fn x_equals_top() {
        let (alg, sigma, _) = setup("L(A, B)", &[], "L(A, B)");
        let b = closure_and_basis(&alg, &sigma, &alg.top_set());
        assert_eq!(b.closure, alg.top_set());
        assert!(b.blocks.iter().all(|w| w.count() == 1));
    }
}
