//! Certified membership: a **checkable derivation** (a [`ProofDag`] over
//! the 14 rules of Theorem 4.6) for every output of Algorithm 5.1.
//!
//! The paper's Lemma 6.1 proves that everything the algorithm outputs is
//! derivable (`X ↠ W ∈ Σ⁺` for every `W ∈ DepB_alg(X)` and
//! `X → X⁺_alg ∈ Σ⁺`) by induction over the steps that change the state;
//! the others are no-ops, which is why the worklist engine may skip them.
//! This module makes the induction *constructive*: it replays the firing
//! trail of one production run ([`WorklistRun::trail`]), appending the
//! rule applications of every state update to a shared proof DAG that the
//! independent checker in `nalist-check` re-verifies. A replay that does
//! not retrace the run is a typed error, not a certificate.
//!
//! The derivations rely on two invariants of the loop (both established
//! in the paper's correctness proof and re-checked here defensively):
//!
//! * every atom outside `X_new` is *possessed* by some block, hence
//!   `U ≤ X_new ⊔ Ū` after the `Ū` computation; and
//! * every block is `^CC`-closed, so `Ū^CC = Ū`.
//!
//! Key step derivations (`⊦` = appended DAG node):
//!
//! * FD `U → V` fires: `X ↠ Ū` (join of anchored block proofs), its
//!   complement lifted to `X_new`, `U → Ṽ` by reflexivity+transitivity,
//!   then the **generalised coalescence rule** gives `X_new → Ṽ` and
//!   transitivity with `X → X_new` closes the loop.
//! * MVD `U ↠ V` fires: `X_new ↠ L` for `L = X_new ⊔ Ū`, the premise
//!   lifted to `L ↠ V`, MVD transitivity gives `X_new ↠ V ∸ L`, joining
//!   the determined part back yields exactly `X_new ↠ Ṽ`; the **mixed
//!   meet rule** then delivers `X_new → Ṽ ⊓ Ṽ^C`, and block splits are
//!   meets/pseudo-differences with `^CC` as double complementation.

use std::collections::BTreeMap;

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::{CompiledDep, DepKind, ProofDag, Rule};
use nalist_guard::{Budget, ResourceExhausted};

use crate::closure::{ClosureError, DependencyBasis};
use crate::worklist::WorklistRun;

/// Error from certification: a recorded rule application was rejected by
/// the proof checker's side conditions. With dependencies compiled
/// against the same [`Algebra`] this never happens (Lemma 6.1 proves
/// every emitted step valid), but hand-built [`CompiledDep`] values can
/// reach this path — previously it was a `panic!` inside the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyError {
    /// The named rule rejected the proposed instance.
    InvalidInstance {
        /// Display name of the rule whose side condition failed.
        rule: &'static str,
    },
    /// An internal invariant of the replay failed — the recorded
    /// derivation does not retrace the engine's run. Indicates a bug.
    Internal {
        /// Which invariant broke.
        what: &'static str,
    },
    /// `X` is not an element of the algebra's `Sub(N)`, so the engine
    /// refused to run ([`ClosureError`]); only hand-built inputs reach
    /// this.
    Closure(ClosureError),
    /// The budget ran out mid-certification.
    Resource(ResourceExhausted),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::InvalidInstance { rule } => {
                write!(f, "certify: invalid {rule} instance")
            }
            CertifyError::Internal { what } => write!(f, "certify: {what}"),
            CertifyError::Closure(e) => write!(f, "certify: {e}"),
            CertifyError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

impl From<ResourceExhausted> for CertifyError {
    fn from(e: ResourceExhausted) -> Self {
        CertifyError::Resource(e)
    }
}

impl From<ClosureError> for CertifyError {
    fn from(e: ClosureError) -> Self {
        match e {
            ClosureError::Resource(e) => CertifyError::Resource(e),
            other => CertifyError::Closure(other),
        }
    }
}

/// The certified output: the dependency basis plus a proof DAG and the
/// nodes certifying each part.
#[derive(Debug, Clone)]
pub struct CertifiedBasis {
    /// The dependency basis of the worklist run the DAG retraces.
    pub basis: DependencyBasis,
    /// The shared derivation DAG.
    pub dag: ProofDag,
    /// Node proving `X → X⁺`.
    pub closure_node: usize,
    /// For every final block `W` (same order as `basis.blocks`), the node
    /// proving `X ↠ W`.
    pub block_nodes: Vec<usize>,
}

struct Builder<'a> {
    alg: &'a Algebra,
    dag: ProofDag,
    /// conclusion → existing node, to share repeated derivations
    memo: BTreeMap<CompiledDep, usize>,
    /// node: `X → X_new`
    x_node: usize,
    x_new: AtomSet,
    /// block atom set → node `X ↠ W`
    blocks: BTreeMap<AtomSet, usize>,
}

impl<'a> Builder<'a> {
    fn step(
        &mut self,
        rule: Rule,
        inputs: &[usize],
        params: &[AtomSet],
    ) -> Result<usize, CertifyError> {
        let node = self
            .dag
            .step(self.alg, rule, inputs, params)
            .ok_or(CertifyError::InvalidInstance { rule: rule.name() })?;
        // if an earlier node already concludes the same dependency, reuse
        // it and drop the freshly appended duplicate
        let conclusion = self.dag.conclusion(node).clone();
        Ok(match self.memo.get(&conclusion) {
            Some(&existing) => {
                self.dag.nodes.pop();
                existing
            }
            None => {
                self.memo.insert(conclusion, node);
                node
            }
        })
    }

    fn fd_refl(&mut self, x: &AtomSet, y: &AtomSet) -> Result<usize, CertifyError> {
        self.step(Rule::FdReflexivity, &[], &[x.clone(), y.clone()])
    }

    fn mvd_refl(&mut self, x: &AtomSet, y: &AtomSet) -> Result<usize, CertifyError> {
        self.step(Rule::MvdReflexivity, &[], &[x.clone(), y.clone()])
    }

    /// `X ↠ Z ⊦ X ↠ Z^CC` by double complementation.
    fn cc_of(&mut self, node: usize) -> Result<usize, CertifyError> {
        let c1 = self.step(Rule::MvdComplementation, &[node], &[])?;
        self.step(Rule::MvdComplementation, &[c1], &[])
    }

    /// Lifts an MVD node to the left-hand side `S ⊇ lhs`:
    /// `X ↠ Z ⊦ S ↠ Z` via augmentation with `(S, λ)`.
    fn lift(&mut self, node: usize, s: &AtomSet) -> Result<usize, CertifyError> {
        self.step(
            Rule::MvdAugmentation,
            &[node],
            &[s.clone(), self.alg.bottom_set()],
        )
    }

    /// Lowers `S ↠ Z` (with `S ≤ X_new`) back to `X ↠ Z`, using
    /// `X → X_new`: transitivity gives `X ↠ Z ∸ S`, the determined part
    /// `Z ⊓ S` comes via the FD, and their join is exactly `Z`.
    fn lower(&mut self, node: usize) -> Result<usize, CertifyError> {
        let s = self.dag.conclusion(node).lhs.clone();
        let z = self.dag.conclusion(node).rhs.clone();
        // X → S
        let x_new = self.x_new.clone();
        let refl_s = self.fd_refl(&x_new, &s)?;
        let x_to_s = self.step(Rule::FdTransitivity, &[self.x_node, refl_s], &[])?;
        // X ↠ S, then X ↠ Z ∸ S
        let x_mvd_s = self.step(Rule::FdImpliesMvd, &[x_to_s], &[])?;
        let tr = self.step(Rule::MvdTransitivity, &[x_mvd_s, node], &[])?;
        // X → Z ⊓ S, hence X ↠ Z ⊓ S
        let zs = self.alg.meet(&z, &s);
        let refl_zs = self.fd_refl(&s, &zs)?;
        let x_to_zs = self.step(Rule::FdTransitivity, &[x_to_s, refl_zs], &[])?;
        let x_mvd_zs = self.step(Rule::FdImpliesMvd, &[x_to_zs], &[])?;
        // X ↠ (Z ∸ S) ⊔ (Z ⊓ S) = Z
        let joined = self.step(Rule::MvdJoin, &[tr, x_mvd_zs], &[])?;
        debug_assert_eq!(self.dag.conclusion(joined).rhs, z);
        Ok(joined)
    }

    /// `X ↠ Ū` for the anchored blocks, plus the anchored block list.
    fn ubar(&mut self, u: &AtomSet, x_orig: &AtomSet) -> Result<(AtomSet, usize), CertifyError> {
        let mut set = self.alg.bottom_set();
        let mut node: Option<usize> = None;
        let anchored: Vec<(AtomSet, usize)> = self
            .blocks
            .iter()
            .filter(|(w, _)| {
                u.iter()
                    .any(|a| !self.x_new.contains(a) && self.alg.possessed_by(a, w))
            })
            .map(|(w, n)| (w.clone(), *n))
            .collect();
        for (w, n) in anchored {
            set.union_with(&w);
            node = Some(match node {
                None => n,
                Some(prev) => self.step(Rule::MvdJoin, &[prev, n], &[])?,
            });
        }
        let node = match node {
            Some(n) => n,
            // Ū = λ — provable by MVD reflexivity from the original X
            None => {
                let bottom = self.alg.bottom_set();
                self.mvd_refl(x_orig, &bottom)?
            }
        };
        Ok((set, node))
    }

    /// Replays one fired step of `dep` (premise node `premise`): derives
    /// the new `X → X_new` and a node `X ↠ W` for every block the step
    /// leaves.
    fn fire(&mut self, dep: &CompiledDep, premise: usize, x: &AtomSet) -> Result<(), CertifyError> {
        let alg = self.alg;
        let (ubar_set, ubar_node) = self.ubar(&dep.lhs, x)?;
        let vtilde = alg.pdiff(&dep.rhs, &ubar_set);
        if vtilde.is_empty() {
            return Err(CertifyError::Internal {
                what: "a trail step transfers nothing",
            });
        }
        // the anchoring invariant the derivations rely on
        if !dep.lhs.is_subset(&alg.join(&self.x_new, &ubar_set)) {
            return Err(CertifyError::Internal {
                what: "anchoring invariant violated",
            });
        }
        match dep.kind {
            DepKind::Fd => {
                // X_new ↠ Ū^C
                let comp = self.step(Rule::MvdComplementation, &[ubar_node], &[])?;
                let aug = self.lift(comp, &self.x_new.clone())?;
                // U → Ṽ
                let refl_v = self.fd_refl(&dep.rhs, &vtilde)?;
                let u_to_vt = self.step(Rule::FdTransitivity, &[premise, refl_v], &[])?;
                // generalised coalescence: X_new → Ṽ
                let coal = self.step(Rule::Coalescence, &[aug, u_to_vt], &[])?;
                // X → Ṽ, and the new X → X_new
                let x_to_vt = self.step(Rule::FdTransitivity, &[self.x_node, coal], &[])?;
                let x_join = self.step(Rule::FdJoin, &[self.x_node, x_to_vt], &[])?;
                self.x_node = x_join;
                self.x_new = alg.join(&self.x_new, &vtilde);
                // block updates
                let x_mvd_vt = self.step(Rule::FdImpliesMvd, &[x_to_vt], &[])?;
                for (w, wn) in std::mem::take(&mut self.blocks) {
                    let reduced = alg.cc(&alg.pdiff(&w, &vtilde));
                    if reduced.is_empty() {
                        continue;
                    }
                    let pd = self.step(Rule::MvdPseudoDiff, &[wn, x_mvd_vt], &[])?;
                    let ccn = self.cc_of(pd)?;
                    debug_assert_eq!(self.dag.conclusion(ccn).rhs, reduced);
                    self.blocks.entry(reduced).or_insert(ccn);
                }
                for m in alg.maximal_atoms_of(&vtilde).iter() {
                    let w = alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [m]));
                    let refl = self.fd_refl(&vtilde, &w)?;
                    let x_to_w = self.step(Rule::FdTransitivity, &[x_to_vt, refl], &[])?;
                    let n = self.step(Rule::FdImpliesMvd, &[x_to_w], &[])?;
                    self.blocks.entry(w).or_insert(n);
                }
            }
            DepKind::Mvd => {
                let x_cur = self.x_new.clone();
                // X_new ↠ L for L = X_new ⊔ Ū
                let b_node = self.lift(ubar_node, &x_cur)?;
                let refl_x = self.mvd_refl(&x_cur, &x_cur)?;
                let l_node = self.step(Rule::MvdJoin, &[b_node, refl_x], &[])?;
                let l_set = self.dag.conclusion(l_node).rhs.clone();
                // L ↠ V (the premise, lifted — needs U ≤ L)
                let va = self.lift(premise, &l_set)?;
                if self.dag.conclusion(va).lhs != l_set {
                    return Err(CertifyError::Internal {
                        what: "premise LHS not anchored",
                    });
                }
                // X_new ↠ V ∸ L, joined with the determined part = Ṽ
                let tr = self.step(Rule::MvdTransitivity, &[l_node, va], &[])?;
                let det = alg.meet(&vtilde, &x_cur);
                let det_node = self.mvd_refl(&x_cur, &det)?;
                let vt_node = self.step(Rule::MvdJoin, &[tr, det_node], &[])?;
                if self.dag.conclusion(vt_node).rhs != vtilde {
                    return Err(CertifyError::Internal {
                        what: "Ṽ derivation mismatch",
                    });
                }
                // mixed meet: X_new → Ṽ ⊓ Ṽ^C, then the new X → X_new
                let mixed = self.step(Rule::MixedMeet, &[vt_node], &[])?;
                let x_to_m = self.step(Rule::FdTransitivity, &[self.x_node, mixed], &[])?;
                let x_join = self.step(Rule::FdJoin, &[self.x_node, x_to_m], &[])?;
                self.x_node = x_join;
                self.x_new = alg.join(&self.x_new, &self.dag.conclusion(x_to_m).rhs.clone());
                // block splits along Ṽ (derived at lhs x_cur, lowered to X)
                for (w, wn) in std::mem::take(&mut self.blocks) {
                    let inter = alg.cc(&alg.meet(&vtilde, &w));
                    if !inter.is_empty() && inter != w {
                        let w_lift = self.lift(wn, &x_cur)?;
                        let m_node = self.step(Rule::MvdMeet, &[vt_node, w_lift], &[])?;
                        let m_cc = self.cc_of(m_node)?;
                        let m_low = self.lower(m_cc)?;
                        debug_assert_eq!(self.dag.conclusion(m_low).rhs, inter);
                        self.blocks.entry(inter).or_insert(m_low);
                        let d_node = self.step(Rule::MvdPseudoDiff, &[w_lift, vt_node], &[])?;
                        let d_cc = self.cc_of(d_node)?;
                        let d_low = self.lower(d_cc)?;
                        let d_set = self.dag.conclusion(d_low).rhs.clone();
                        self.blocks.entry(d_set).or_insert(d_low);
                    } else {
                        self.blocks.insert(w, wn);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Replays `run`'s firing trail from Algorithm 5.1's initial state for
/// `X = x`, charging one fuel unit per replayed step. Returns the DAG,
/// the node proving `X → X⁺` and, for every block `W` of `run.blocks`
/// (same order), the node proving `X ↠ W`.
fn replay(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    run: &WorklistRun,
    budget: &Budget,
) -> Result<(ProofDag, usize, Vec<usize>), CertifyError> {
    let mut b = Builder {
        alg,
        dag: ProofDag::new(),
        memo: BTreeMap::new(),
        x_node: 0,
        x_new: x.clone(),
        blocks: BTreeMap::new(),
    };
    // premises: premise `i` is node `i`
    for (i, d) in sigma.iter().enumerate() {
        let node = b.dag.premise(i, d.clone());
        b.memo.entry(d.clone()).or_insert(node);
    }
    // X → X
    b.x_node = b.fd_refl(x, x)?;
    // initial blocks: singletons for MaxB(X) …
    for m in alg.maximal_atoms_of(x).iter() {
        let w = alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [m]));
        let n = b.mvd_refl(x, &w)?;
        b.blocks.insert(w, n);
    }
    // … plus X^C via reflexivity + complementation
    let xc = alg.compl(x);
    if !xc.is_empty() {
        let refl = b.mvd_refl(x, x)?;
        let n = b.step(Rule::MvdComplementation, &[refl], &[])?;
        debug_assert_eq!(b.dag.conclusion(n).rhs, xc);
        b.blocks.insert(xc, n);
    }

    for &i in &run.trail {
        budget.charge(1)?;
        b.fire(&sigma[i], i, x)?;
    }

    if b.x_new != run.closure {
        return Err(CertifyError::Internal {
            what: "replay does not end on the run's X⁺",
        });
    }
    let block_nodes: Option<Vec<usize>> = run
        .blocks
        .iter()
        .map(|w| b.blocks.get(w).copied())
        .collect();
    match block_nodes {
        Some(nodes) if b.blocks.len() == run.blocks.len() => Ok((b.dag, b.x_node, nodes)),
        _ => Err(CertifyError::Internal {
            what: "replay does not end on the run's blocks",
        }),
    }
}

/// Computes `X⁺` and the blocks of `DepB(X)` with a checkable derivation
/// of every output (Lemma 6.1, constructively). A rule application
/// rejected by the checker surfaces as [`CertifyError::InvalidInstance`]
/// (reachable only with hand-built [`CompiledDep`] inputs); a replay that
/// does not retrace the engine's run is [`CertifyError::Internal`]
/// instead of a panic, so certificate emission can never take the
/// process down.
pub fn certified_closure_and_basis(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
) -> Result<CertifiedBasis, CertifyError> {
    certified_closure_and_basis_governed(alg, sigma, x, &Budget::unlimited())
}

/// Budget-governed twin of [`certified_closure_and_basis`]: the worklist
/// run charges one fuel unit per step, as everywhere, and the replay one
/// more per fired step.
pub fn certified_closure_and_basis_governed(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<CertifiedBasis, CertifyError> {
    let run = crate::worklist::run(alg, sigma, x, budget, nalist_obs::noop())?;
    let (dag, closure_node, block_nodes) = replay(alg, sigma, x, &run, budget)?;
    Ok(CertifiedBasis {
        basis: DependencyBasis::derive(alg, run.closure, run.blocks),
        dag,
        closure_node,
        block_nodes,
    })
}

/// Appends a step to a bare DAG, mapping checker rejection to
/// [`CertifyError`] (used by [`certify`] after the [`Builder`] is gone).
fn raw_step(
    dag: &mut ProofDag,
    alg: &Algebra,
    rule: Rule,
    inputs: &[usize],
    params: &[AtomSet],
) -> Result<usize, CertifyError> {
    dag.step(alg, rule, inputs, params)
        .ok_or(CertifyError::InvalidInstance { rule: rule.name() })
}

/// Decides `Σ ⊨ σ` and, when implied, returns a checkable [`ProofDag`]
/// whose final node concludes exactly `σ`. Returns `Ok(None)` when not
/// implied (use [`crate::witness::refute`] for the counterexample);
/// [`CertifyError`] when a recorded rule application is rejected (only
/// reachable with hand-built, ill-formed [`CompiledDep`] inputs).
pub fn certify(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
) -> Result<Option<ProofDag>, CertifyError> {
    certify_governed(alg, sigma, dep, &Budget::unlimited())
}

/// Budget-governed twin of [`certify`]: [`crate::cert::answer`] then
/// [`crate::cert::Answer::derivation`], so the verdict comes from the
/// worklist run's `X⁺` and blocks (Proposition 4.10) before any proof
/// node is built, and a target that is not implied costs one closure run.
pub fn certify_governed(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    budget: &Budget,
) -> Result<Option<ProofDag>, CertifyError> {
    crate::cert::answer(alg, sigma, dep, budget)?.derivation(budget)
}

/// The derivation of `dep` from `run`, a run for `dep.lhs` whose `X⁺`
/// and blocks imply `dep`: the trail replayed, then `X → X⁺ ⊓ Y` and,
/// for an MVD, the join with every block inside `Y`.
pub(crate) fn derive(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    run: WorklistRun,
    budget: &Budget,
) -> Result<ProofDag, CertifyError> {
    let (mut dag, closure_node, block_nodes) = replay(alg, sigma, &dep.lhs, &run, budget)?;
    // X → X⁺ ⊓ Y by reflexivity and transitivity: the whole of an
    // implied FD's Y, the determined part of an MVD's
    let det = alg.meet(&run.closure, &dep.rhs);
    let refl = raw_step(&mut dag, alg, Rule::FdReflexivity, &[], &[run.closure, det])?;
    let mut last = raw_step(
        &mut dag,
        alg,
        Rule::FdTransitivity,
        &[closure_node, refl],
        &[],
    )?;
    if dep.kind == DepKind::Mvd {
        // X ↠ X⁺ ⊓ Y, joined with every block contained in Y
        last = raw_step(&mut dag, alg, Rule::FdImpliesMvd, &[last], &[])?;
        for (w, &wn) in run.blocks.iter().zip(&block_nodes) {
            if w.is_subset(&dep.rhs) {
                last = raw_step(&mut dag, alg, Rule::MvdJoin, &[last, wn], &[])?;
            }
        }
    }
    if dag.conclusion(last) != dep {
        return Err(CertifyError::Internal {
            what: "assembled derivation does not match the target",
        });
    }
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn dep(n: &nalist_types::NestedAttr, alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(n, s).unwrap().compile(alg).unwrap()
    }

    #[test]
    fn certifies_relational_transitivity() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let target = dep(&n, &alg, "L(A) -> L(C)");
        let dag = certify(&alg, &sigma, &target).unwrap().unwrap();
        let root = dag.check(&alg, &sigma).unwrap();
        assert_eq!(root, &target);
    }

    #[test]
    fn invalid_rule_instance_yields_typed_error_not_panic() {
        // Reflexivity with Y ≰ X fails the checker's side condition:
        // previously a panic inside `Builder::step`, now a typed error.
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let mut b = Builder {
            alg: &alg,
            dag: ProofDag::new(),
            memo: BTreeMap::new(),
            x_node: 0,
            x_new: alg.bottom_set(),
            blocks: BTreeMap::new(),
        };
        let err = b.fd_refl(&alg.bottom_set(), &alg.top_set()).unwrap_err();
        assert_eq!(
            err,
            CertifyError::InvalidInstance {
                rule: Rule::FdReflexivity.name()
            }
        );
        assert!(err.to_string().contains("invalid"));
        assert!(err.to_string().contains(Rule::FdReflexivity.name()));
    }

    #[test]
    fn x_outside_sub_n_is_a_typed_error_not_a_panic() {
        // {E} without its list ancestor C (atom ids 0=B, 1=C, 2=E, 3=F, 4=G)
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        let bad = AtomSet::from_indices(5, [2]);
        let err = certified_closure_and_basis(&alg, &[], &bad).unwrap_err();
        assert_eq!(
            err,
            CertifyError::Closure(ClosureError::NotDownwardClosed { atom: 2 })
        );
        assert!(err.to_string().contains("not downward closed"));
    }

    #[test]
    fn certifies_mvd_blocks() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) ->> L(B)")];
        for (target, implied) in [
            ("L(A) ->> L(B)", true),
            ("L(A) ->> L(C, D)", true),
            ("L(A) ->> L(B, C, D)", true),
            ("L(A) ->> L(B, C)", false),
        ] {
            let t = dep(&n, &alg, target);
            match certify(&alg, &sigma, &t).unwrap() {
                Some(dag) => {
                    assert!(implied, "{target} certified but should not be implied");
                    assert_eq!(dag.check(&alg, &sigma).unwrap(), &t);
                }
                None => assert!(!implied, "{target} should be certifiable"),
            }
        }
    }

    #[test]
    fn certifies_mixed_meet_consequence() {
        // the paper's novel inference, with a machine-checkable proof
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(
            &n,
            &alg,
            "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
        )];
        let target = dep(&n, &alg, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])");
        let dag = certify(&alg, &sigma, &target).unwrap().unwrap();
        assert_eq!(dag.check(&alg, &sigma).unwrap(), &target);
        // the certificate actually uses the mixed meet rule
        let uses_mixed_meet = dag.nodes.iter().any(|nd| {
            matches!(
                nd,
                nalist_deps::DagNode::Step {
                    rule: Rule::MixedMeet,
                    ..
                }
            )
        });
        assert!(uses_mixed_meet);
    }

    #[test]
    fn example_51_outputs_all_certified() {
        let n = parse_attr("L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))")
            .unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = [
            "L1(L5[λ], L7(F, L8[L9(G)], I)) ->> L1(L2[L3[L4(C)]], L5[L6(E)])",
            "L1(L2[L3[λ]], L7(F)) -> L1(L2[L3[L4(A)]], L7(L8[L9(G)], I))",
            "L1(L7(F, L8[L9(L10[λ])])) ->> L1(L2[L3[λ]], L5[L6(D)])",
        ]
        .iter()
        .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
        .collect();
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L1(L7(F, L8[L9(L10[H])]))").unwrap())
            .unwrap();
        let cert = certified_closure_and_basis(&alg, &sigma, &x).unwrap();
        // the whole DAG re-verifies
        cert.dag.check(&alg, &sigma).unwrap();
        // the closure node concludes X → X⁺
        let c = cert.dag.conclusion(cert.closure_node);
        assert_eq!(c.kind, DepKind::Fd);
        assert_eq!(c.lhs, x);
        assert_eq!(c.rhs, cert.basis.closure);
        // every block node concludes X ↠ W
        for (w, &n_id) in cert.basis.blocks.iter().zip(&cert.block_nodes) {
            let d = cert.dag.conclusion(n_id);
            assert_eq!(d.kind, DepKind::Mvd);
            assert_eq!(&d.lhs, &x);
            assert_eq!(&d.rhs, w);
        }
        // certificate size is modest (polynomial, not exponential)
        assert!(cert.dag.len() < 500, "DAG has {} nodes", cert.dag.len());
    }

    #[test]
    fn random_workloads_all_certified() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(777);
        for round in 0..25 {
            let atoms = 2 + rng.gen_range(0..8usize);
            let n = random_attr(&mut rng, atoms);
            let alg = Algebra::new(&n);
            let sigma: Vec<CompiledDep> = (0..3).map(|_| random_dep(&mut rng, &alg)).collect();
            for _ in 0..6 {
                let target = random_dep(&mut rng, &alg);
                let implied = crate::decide::implies(&alg, &sigma, &target);
                match certify(&alg, &sigma, &target).unwrap() {
                    Some(dag) => {
                        assert!(implied, "round {round}: certified a non-implication");
                        let root = match dag.check(&alg, &sigma) {
                            Ok(root) => root,
                            Err(e) => {
                                unreachable!("round {round}: certificate fails to check: {e}")
                            }
                        };
                        assert_eq!(root, &target, "round {round}");
                    }
                    None => assert!(!implied, "round {round}: implied but not certified"),
                }
            }
        }
    }

    // local deterministic generators (kept free of nalist-gen to avoid a
    // dev-dependency cycle)
    fn random_attr(rng: &mut impl rand::Rng, atoms: usize) -> nalist_types::NestedAttr {
        use nalist_types::NestedAttr as A;
        fn go(rng: &mut impl rand::Rng, budget: usize, next: &mut usize, depth: usize) -> A {
            if budget == 1 {
                let id = *next;
                *next += 1;
                return if depth < 3 && rng.gen_bool(0.35) {
                    A::list(format!("L{id}"), A::Null)
                } else {
                    A::flat(format!("A{id}"))
                };
            }
            if depth < 3 && rng.gen_bool(0.4) {
                let id = *next;
                *next += 1;
                A::list(format!("L{id}"), go(rng, budget - 1, next, depth + 1))
            } else {
                let split = rng.gen_range(1..budget);
                let id = *next;
                *next += 1;
                A::record(
                    format!("R{id}"),
                    vec![
                        go(rng, split, next, depth + 1),
                        go(rng, budget - split, next, depth + 1),
                    ],
                )
                .unwrap()
            }
        }
        let mut next = 0;
        let child = go(rng, atoms, &mut next, 1);
        A::record("Root", vec![child]).unwrap()
    }

    fn random_dep(rng: &mut impl rand::Rng, alg: &Algebra) -> CompiledDep {
        let mut pick = || {
            let mut s = alg.bottom_set();
            for a in 0..alg.atom_count() {
                if rng.gen_bool(0.4) {
                    s.insert(a);
                }
            }
            alg.downward_closure(&s)
        };
        let lhs = pick();
        let rhs = pick();
        if rng.gen_bool(0.5) {
            CompiledDep::fd(lhs, rhs)
        } else {
            CompiledDep::mvd(lhs, rhs)
        }
    }
}
