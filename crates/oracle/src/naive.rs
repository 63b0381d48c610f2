//! The naive *enumeration* procedure the paper dismisses as "time
//! consuming and therefore impractical" (Section 5): compute the full
//! closure `Σ⁺` by exhaustively applying the 14 inference rules over all
//! of `Sub(N)` until fixpoint.
//!
//! This serves three purposes:
//!
//! * it is the **baseline** Algorithm 5.1 is compared against (its running
//!   time is exponential in `|N|`, the membership algorithm's polynomial);
//! * it provides an *independent* ground truth for cross-validating the
//!   membership algorithm on small inputs (Theorem 6.3); and
//! * because every derivation is recorded with provenance, it doubles as a
//!   breadth-first **proof search**: [`NaiveClosure::proof_of`] returns a
//!   checkable [`ProofDag`] for any derivable dependency.
//!
//! The saturation is semi-naive (worklist-driven): each newly derived
//! dependency is combined once with everything derived before it.

use std::collections::HashMap;
use std::collections::VecDeque;

use nalist_algebra::{Algebra, AtomSet};
use nalist_types::parser::DepKind;

use nalist_deps::proof::{DagNode, ProofDag};
use nalist_deps::rules::{apply, Rule, ALL_RULES};
use nalist_deps::CompiledDep;

/// Configuration limits guarding against blow-up (the whole point of this
/// engine is that it blows up — the limits keep tests and benches honest),
/// plus an optional restriction of the rule set.
#[derive(Debug, Clone)]
pub struct NaiveConfig {
    /// Refuse to run if `|SubB(N)|` exceeds this (default 16).
    pub max_atoms: usize,
    /// Abort once this many dependencies have been derived (default 2^20).
    pub max_derived: usize,
    /// The rules the saturation may use (default: all 14 of Theorem 4.6).
    ///
    /// Restricting the set implements the study of *sub-calculi* the
    /// paper's conclusion raises — in particular derivability **without
    /// the Brouwerian-complement rule**, "of particular interest" per
    /// Section 7 (cf. Biskup's relational result, his reference \[14\]).
    pub rules: Vec<Rule>,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig {
            max_atoms: 16,
            max_derived: 1 << 20,
            rules: ALL_RULES.to_vec(),
        }
    }
}

impl NaiveConfig {
    /// The full calculus minus the complementation rule (Section 7's
    /// "derivations not using the Brouwerian-complement rule").
    pub fn without_complementation() -> Self {
        let rules = ALL_RULES
            .iter()
            .copied()
            .filter(|r| *r != Rule::MvdComplementation)
            .collect();
        NaiveConfig {
            rules,
            ..NaiveConfig::default()
        }
    }

    fn allows(&self, rule: Rule) -> bool {
        self.rules.contains(&rule)
    }
}

/// Why the naive engine refused or aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaiveError {
    /// `|SubB(N)|` exceeds the configured bound.
    TooManyAtoms {
        /// Actual atom count.
        atoms: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The derived set exceeded the configured bound.
    TooManyDependencies {
        /// Configured maximum.
        max: usize,
    },
}

impl std::fmt::Display for NaiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NaiveError::TooManyAtoms { atoms, max } => {
                write!(f, "naive closure refused: |SubB(N)| = {atoms} > {max}")
            }
            NaiveError::TooManyDependencies { max } => {
                write!(f, "naive closure aborted after deriving {max} dependencies")
            }
        }
    }
}

impl std::error::Error for NaiveError {}

#[derive(Debug, Clone)]
enum Provenance {
    Premise(usize),
    Axiom {
        rule: Rule,
        params: Vec<AtomSet>,
    },
    Step {
        rule: Rule,
        inputs: Vec<CompiledDep>,
        params: Vec<AtomSet>,
    },
}

/// Statistics of a saturation run (reported by the experiment harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveStats {
    /// Dependencies in `Σ⁺` (including axiom instances).
    pub derived: usize,
    /// Total rule applications attempted.
    pub applications: usize,
    /// Elements of `Sub(N)` enumerated.
    pub lattice_size: usize,
}

/// The saturated closure `Σ⁺` with provenance.
#[derive(Debug)]
pub struct NaiveClosure<'a> {
    alg: &'a Algebra,
    sigma: Vec<CompiledDep>,
    derived: HashMap<CompiledDep, Provenance>,
    stats: NaiveStats,
}

impl<'a> NaiveClosure<'a> {
    /// Saturates `Σ` under the 14 rules of Theorem 4.6.
    pub fn compute(
        alg: &'a Algebra,
        sigma: &[CompiledDep],
        config: NaiveConfig,
    ) -> Result<Self, NaiveError> {
        if alg.atom_count() > config.max_atoms {
            return Err(NaiveError::TooManyAtoms {
                atoms: alg.atom_count(),
                max: config.max_atoms,
            });
        }
        let elements = nalist_algebra::lattice::enumerate_sets(alg);
        let mut this = NaiveClosure {
            alg,
            sigma: sigma.to_vec(),
            derived: HashMap::new(),
            stats: NaiveStats {
                lattice_size: elements.len(),
                ..NaiveStats::default()
            },
        };
        let mut queue: VecDeque<CompiledDep> = VecDeque::new();

        // seed: premises
        for (i, d) in sigma.iter().enumerate() {
            this.enqueue(d.clone(), Provenance::Premise(i), &mut queue);
        }
        // seed: all reflexivity-axiom instances (Y ≤ X)
        for x in &elements {
            for y in &elements {
                if alg.le(y, x) {
                    if config.allows(Rule::FdReflexivity) {
                        this.enqueue(
                            CompiledDep::fd(x.clone(), y.clone()),
                            Provenance::Axiom {
                                rule: Rule::FdReflexivity,
                                params: vec![x.clone(), y.clone()],
                            },
                            &mut queue,
                        );
                    }
                    if config.allows(Rule::MvdReflexivity) {
                        this.enqueue(
                            CompiledDep::mvd(x.clone(), y.clone()),
                            Provenance::Axiom {
                                rule: Rule::MvdReflexivity,
                                params: vec![x.clone(), y.clone()],
                            },
                            &mut queue,
                        );
                    }
                }
            }
        }

        // precompute (U, V ≤ U) parameter pairs for augmentation
        let mut aug_pairs: Vec<(AtomSet, AtomSet)> = Vec::new();
        for u in &elements {
            for v in &elements {
                if alg.le(v, u) {
                    aug_pairs.push((u.clone(), v.clone()));
                }
            }
        }

        while let Some(d) = queue.pop_front() {
            if this.derived.len() > config.max_derived {
                return Err(NaiveError::TooManyDependencies {
                    max: config.max_derived,
                });
            }
            // unary rules
            for rule in [
                Rule::MvdComplementation,
                Rule::FdImpliesMvd,
                Rule::MixedMeet,
            ] {
                if config.allows(rule) {
                    this.try_apply(rule, &[&d], &[], &mut queue);
                }
            }
            // parameterised unary rules
            if d.kind == DepKind::Fd {
                if config.allows(Rule::FdExtension) {
                    for z in &elements {
                        this.try_apply(Rule::FdExtension, &[&d], &[z], &mut queue);
                    }
                }
            } else if config.allows(Rule::MvdAugmentation) {
                for (u, v) in &aug_pairs {
                    this.try_apply(Rule::MvdAugmentation, &[&d], &[u, v], &mut queue);
                }
            }
            // binary rules: pair the new dependency with everything so far
            let existing: Vec<CompiledDep> = this.derived.keys().cloned().collect();
            for e in &existing {
                for rule in [
                    Rule::FdTransitivity,
                    Rule::FdJoin,
                    Rule::MvdTransitivity,
                    Rule::Coalescence,
                    Rule::MvdJoin,
                    Rule::MvdMeet,
                    Rule::MvdPseudoDiff,
                ] {
                    if config.allows(rule) {
                        this.try_apply(rule, &[&d, e], &[], &mut queue);
                        this.try_apply(rule, &[e, &d], &[], &mut queue);
                    }
                }
            }
        }
        this.stats.derived = this.derived.len();
        Ok(this)
    }

    fn enqueue(&mut self, dep: CompiledDep, prov: Provenance, queue: &mut VecDeque<CompiledDep>) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.derived.entry(dep.clone()) {
            e.insert(prov);
            queue.push_back(dep);
        }
    }

    fn try_apply(
        &mut self,
        rule: Rule,
        premises: &[&CompiledDep],
        params: &[&AtomSet],
        queue: &mut VecDeque<CompiledDep>,
    ) {
        self.stats.applications += 1;
        if let Some(conclusion) = apply(self.alg, rule, premises, params) {
            if !self.derived.contains_key(&conclusion) {
                let prov = Provenance::Step {
                    rule,
                    inputs: premises.iter().map(|p| (*p).clone()).collect(),
                    params: params.iter().map(|p| (*p).clone()).collect(),
                };
                self.enqueue(conclusion, prov, queue);
            }
        }
    }

    /// Is `dep` in `Σ⁺`?
    pub fn derives(&self, dep: &CompiledDep) -> bool {
        self.derived.contains_key(dep)
    }

    /// The attribute-set closure `X⁺ = ⊔{Y | X → Y ∈ Σ⁺}`.
    pub fn fd_closure_of(&self, x: &AtomSet) -> AtomSet {
        let mut out = self.alg.bottom_set();
        for d in self.derived.keys() {
            if d.kind == DepKind::Fd && d.lhs == *x {
                out.union_with(&d.rhs);
            }
        }
        out
    }

    /// `Dep(X) = {Y | X ↠ Y ∈ Σ⁺}` (Definition 4.9).
    pub fn dep_set_of(&self, x: &AtomSet) -> Vec<AtomSet> {
        let mut out: Vec<AtomSet> = self
            .derived
            .keys()
            .filter(|d| d.kind == DepKind::Mvd && d.lhs == *x)
            .map(|d| d.rhs.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// All derived dependencies (deterministic order).
    pub fn all(&self) -> Vec<CompiledDep> {
        let mut v: Vec<CompiledDep> = self.derived.keys().cloned().collect();
        v.sort();
        v
    }

    /// Saturation statistics.
    pub fn stats(&self) -> NaiveStats {
        self.stats
    }

    /// Reconstructs a checkable derivation of `dep` from the recorded
    /// provenance, or `None` if `dep ∉ Σ⁺`. Each input is appended before
    /// the steps that cite it and each conclusion appears once, so the
    /// last node concludes `dep`.
    pub fn proof_of(&self, dep: &CompiledDep) -> Option<ProofDag> {
        if !self.derives(dep) {
            return None;
        }
        let mut dag = ProofDag::new();
        self.append_proof(dep, &mut dag, &mut HashMap::new());
        Some(dag)
    }

    /// Appends the derivation of `dep` to `dag` unless `at` already
    /// names its node, and returns that node's index.
    fn append_proof(
        &self,
        dep: &CompiledDep,
        dag: &mut ProofDag,
        at: &mut HashMap<CompiledDep, usize>,
    ) -> usize {
        if let Some(&i) = at.get(dep) {
            return i;
        }
        // provenance inputs were derived first, so each is in `derived`
        let node = match &self.derived[dep] {
            Provenance::Premise(i) => DagNode::Premise {
                index: *i,
                dep: dep.clone(),
            },
            Provenance::Axiom { rule, params } => DagNode::Step {
                rule: *rule,
                inputs: vec![],
                params: params.clone(),
                conclusion: dep.clone(),
            },
            Provenance::Step {
                rule,
                inputs,
                params,
            } => DagNode::Step {
                rule: *rule,
                inputs: inputs
                    .iter()
                    .map(|i| self.append_proof(i, dag, at))
                    .collect(),
                params: params.clone(),
                conclusion: dep.clone(),
            },
        };
        dag.nodes.push(node);
        at.insert(dep.clone(), dag.len() - 1);
        dag.len() - 1
    }

    /// Premises used by [`DagNode::Premise`] citations (`Σ` as supplied).
    pub fn sigma(&self) -> &[CompiledDep] {
        &self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_types::parser::parse_attr;

    fn dep(n: &nalist_types::NestedAttr, alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(n, s).unwrap().compile(alg).unwrap()
    }

    #[test]
    fn relational_transitivity_closure() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let cl = NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()).unwrap();
        assert!(cl.derives(&dep(&n, &alg, "L(A) -> L(C)")));
        assert!(cl.derives(&dep(&n, &alg, "L(A) -> L(A, B, C)")));
        assert!(!cl.derives(&dep(&n, &alg, "L(C) -> L(A)")));
        // closure of L(A) is everything
        let x = dep(&n, &alg, "L(A) -> L(A)").lhs;
        assert_eq!(cl.fd_closure_of(&x), alg.top_set());
    }

    #[test]
    fn mixed_meet_consequence_derived() {
        // On N = L[A]: λ ↠ L[λ] yields the non-trivial FD λ → L[λ].
        let n = parse_attr("L[A]").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "λ ->> L[λ]")];
        let cl = NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()).unwrap();
        assert!(cl.derives(&dep(&n, &alg, "λ -> L[λ]")));
    }

    #[test]
    fn proofs_reconstruct_and_check() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let cl = NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()).unwrap();
        let target = dep(&n, &alg, "L(A) ->> L(C)");
        let proof = cl.proof_of(&target).unwrap();
        assert_eq!(proof.check(&alg, &sigma).unwrap(), &target);
        assert!(proof
            .nodes
            .iter()
            .any(|node| matches!(node, DagNode::Step { .. })));
        // underivable has no proof
        assert!(cl.proof_of(&dep(&n, &alg, "L(C) -> L(B)")).is_none());
    }

    #[test]
    fn refuses_large_inputs() {
        let n = parse_attr(
            "L(A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, A12, A13, A14, A15, A16, A17)",
        )
        .unwrap();
        let alg = Algebra::new(&n);
        assert_eq!(
            NaiveClosure::compute(&alg, &[], NaiveConfig::default()).unwrap_err(),
            NaiveError::TooManyAtoms { atoms: 17, max: 16 }
        );
    }

    #[test]
    fn empty_sigma_contains_only_trivia() {
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let cl = NaiveClosure::compute(&alg, &[], NaiveConfig::default()).unwrap();
        // trivial: reflexive FDs/MVDs and their consequences (complementation
        // makes X ↠ Y with X ⊔ Y = N derivable too)
        assert!(cl.derives(&dep(&n, &alg, "L(A) -> λ")));
        assert!(cl.derives(&dep(&n, &alg, "L(A) ->> L(B)"))); // X ⊔ Y = N
        assert!(!cl.derives(&dep(&n, &alg, "L(A) -> L(B)")));
        let stats = cl.stats();
        assert_eq!(stats.lattice_size, 4);
        assert!(stats.derived >= 8);
        assert!(stats.applications > 0);
    }

    #[test]
    fn complementation_free_subcalculus() {
        // Section 7: "Derivations not using the Brouwerian-complement rule
        // are of particular interest." With Σ = {A ↠ B} on L(A, B, C, D),
        // A ↠ C⊔D needs complementation; A ↠ B does not.
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) ->> L(B)")];
        let full = NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()).unwrap();
        let nc =
            NaiveClosure::compute(&alg, &sigma, NaiveConfig::without_complementation()).unwrap();
        let complemented = dep(&n, &alg, "L(A) ->> L(C, D)");
        let direct = dep(&n, &alg, "L(A) ->> L(B)");
        assert!(full.derives(&complemented));
        assert!(full.derives(&direct));
        assert!(nc.derives(&direct));
        assert!(
            !nc.derives(&complemented),
            "A ↠ C⊔D should require the complementation rule"
        );
        // the sub-calculus closure is a subset of the full closure
        for d in nc.all() {
            assert!(
                full.derives(&d),
                "{} in sub-calculus but not full",
                d.render(&alg)
            );
        }
    }

    #[test]
    fn rule_restriction_to_fd_fragment() {
        // only the three FD rules: the classical Armstrong system
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let cfg = NaiveConfig {
            rules: vec![Rule::FdReflexivity, Rule::FdExtension, Rule::FdTransitivity],
            ..NaiveConfig::default()
        };
        let cl = NaiveClosure::compute(&alg, &sigma, cfg).unwrap();
        assert!(cl.derives(&dep(&n, &alg, "L(A) -> L(C)")));
        // no MVDs at all beyond the premises (implication rule excluded)
        assert!(!cl.derives(&dep(&n, &alg, "L(A) ->> L(B)")));
    }

    #[test]
    fn trivial_mvds_all_derivable_lemma_43() {
        // Lemma 4.3: X ↠ Y is trivial iff Y ≤ X or X ⊔ Y = N; all trivial
        // dependencies must be derivable from the empty Σ.
        for src in ["L(A, B)", "L[A]", "K[L(M[A], B)]"] {
            let n = parse_attr(src).unwrap();
            let alg = Algebra::new(&n);
            let cl = NaiveClosure::compute(&alg, &[], NaiveConfig::default()).unwrap();
            let elements = nalist_algebra::lattice::enumerate_sets(&alg);
            for x in &elements {
                for y in &elements {
                    let mvd = CompiledDep::mvd(x.clone(), y.clone());
                    let fd = CompiledDep::fd(x.clone(), y.clone());
                    if alg.mvd_trivial(x, y) {
                        assert!(
                            cl.derives(&mvd),
                            "{src}: trivial {} underived",
                            mvd.render(&alg)
                        );
                    }
                    if alg.fd_trivial(x, y) {
                        assert!(
                            cl.derives(&fd),
                            "{src}: trivial {} underived",
                            fd.render(&alg)
                        );
                    }
                }
            }
        }
    }
}
