//! Derivation DAGs over the inference rules of Theorem 4.6, with an
//! independent proof checker.
//!
//! A [`ProofDag`] certifies `Σ ⊢ σ`: premise nodes cite members of `Σ`,
//! step nodes cite a rule and earlier nodes. [`ProofDag::check`]
//! re-applies every rule instance in order and verifies each node's
//! recorded conclusion, so a derivation produced by any search procedure
//! can be validated without trusting the producer.

use nalist_algebra::{Algebra, AtomSet};

use crate::dependency::CompiledDep;
use crate::rules::{apply, Rule};

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A premise citation is out of range or disagrees with `Σ`.
    BadPremise {
        /// The cited index.
        index: usize,
    },
    /// A rule application's recorded conclusion does not match the rule's
    /// actual output (or the rule instance is malformed).
    BadStep {
        /// The offending rule.
        rule: Rule,
    },
    /// The derivation has no nodes, so it concludes nothing.
    EmptyDerivation,
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::BadPremise { index } => write!(f, "bad premise citation #{index}"),
            ProofError::BadStep { rule } => write!(f, "invalid application of {}", rule.name()),
            ProofError::EmptyDerivation => write!(f, "empty derivation"),
        }
    }
}

impl std::error::Error for ProofError {}

/// A node of a [`ProofDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagNode {
    /// A premise `σ ∈ Σ`, cited by index.
    Premise {
        /// Index into the premise list.
        index: usize,
        /// The cited dependency.
        dep: CompiledDep,
    },
    /// A rule application whose inputs are earlier DAG nodes.
    Step {
        /// The rule applied.
        rule: Rule,
        /// Indices of the input nodes (must be `<` this node's index).
        inputs: Vec<usize>,
        /// Extra subattribute parameters (see [`crate::rules::apply`]).
        params: Vec<AtomSet>,
        /// The recorded conclusion.
        conclusion: CompiledDep,
    },
}

impl DagNode {
    /// The dependency this node concludes.
    pub fn conclusion(&self) -> &CompiledDep {
        match self {
            DagNode::Premise { dep, .. } => dep,
            DagNode::Step { conclusion, .. } => conclusion,
        }
    }
}

/// A derivation **DAG**: a derivation with shared sub-derivations, so
/// that certificate size stays polynomial even when a conclusion is
/// reused many times (as happens in proofs extracted from Algorithm 5.1,
/// where the growing `X → X_new` fact feeds every later step).
///
/// Node `i` may only reference nodes `< i`; [`ProofDag::check`] verifies
/// every node once, in order, so checking is linear in the DAG size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProofDag {
    /// The nodes in topological order.
    pub nodes: Vec<DagNode>,
}

impl ProofDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        ProofDag::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the DAG empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends a premise citation; returns its node index.
    pub fn premise(&mut self, index: usize, dep: CompiledDep) -> usize {
        self.nodes.push(DagNode::Premise { index, dep });
        self.nodes.len() - 1
    }

    /// Applies `rule` to the given input nodes and parameters, appends the
    /// resulting step, and returns its index — or `None` if the rule
    /// instance is malformed. The conclusion is computed by
    /// [`crate::rules::apply`], so an appended step is valid by
    /// construction (the independent [`ProofDag::check`] re-verifies).
    pub fn step(
        &mut self,
        alg: &Algebra,
        rule: Rule,
        inputs: &[usize],
        params: &[AtomSet],
    ) -> Option<usize> {
        let premises: Vec<&CompiledDep> =
            inputs.iter().map(|&i| self.nodes[i].conclusion()).collect();
        let param_refs: Vec<&AtomSet> = params.iter().collect();
        let conclusion = apply(alg, rule, &premises, &param_refs)?;
        self.nodes.push(DagNode::Step {
            rule,
            inputs: inputs.to_vec(),
            params: params.to_vec(),
            conclusion,
        });
        Some(self.nodes.len() - 1)
    }

    /// The conclusion of node `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn conclusion(&self, i: usize) -> &CompiledDep {
        self.nodes[i].conclusion()
    }

    /// Independently re-verifies every node against the premise list.
    /// Returns the conclusion of the last node.
    ///
    /// A derivation the engine built is checked here in memory; one that
    /// arrives from outside comes as a certificate, which
    /// `nalist_check::verify` checks under a budget.
    pub fn check<'s>(
        &'s self,
        alg: &Algebra,
        sigma: &[CompiledDep],
    ) -> Result<&'s CompiledDep, ProofError> {
        let mut last = None;
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                DagNode::Premise { index, dep } => {
                    if sigma.get(*index) != Some(dep) {
                        return Err(ProofError::BadPremise { index: *index });
                    }
                }
                DagNode::Step {
                    rule,
                    inputs,
                    params,
                    conclusion,
                } => {
                    if inputs.iter().any(|&j| j >= i) {
                        return Err(ProofError::BadStep { rule: *rule });
                    }
                    let premises: Vec<&CompiledDep> =
                        inputs.iter().map(|&j| self.nodes[j].conclusion()).collect();
                    let param_refs: Vec<&AtomSet> = params.iter().collect();
                    match apply(alg, *rule, &premises, &param_refs) {
                        Some(got) if got == *conclusion => {}
                        _ => return Err(ProofError::BadStep { rule: *rule }),
                    }
                }
            }
            last = Some(node.conclusion());
        }
        last.ok_or(ProofError::EmptyDerivation)
    }

    /// Renders the DAG as a numbered listing, one node per line.
    pub fn render(&self, alg: &Algebra) -> String {
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                DagNode::Premise { index, dep } => {
                    out.push_str(&format!("n{i}: [premise #{index}] {}\n", dep.render(alg)));
                }
                DagNode::Step {
                    rule,
                    inputs,
                    conclusion,
                    ..
                } => {
                    let from = if inputs.is_empty() {
                        String::new()
                    } else {
                        format!(
                            "  (from {})",
                            inputs
                                .iter()
                                .map(|j| format!("n{j}"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    };
                    out.push_str(&format!(
                        "n{i}: [{}] {}{from}\n",
                        rule.name(),
                        conclusion.render(alg)
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;
    use nalist_types::parser::parse_attr;

    fn dep(n: &nalist_types::NestedAttr, alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(n, s).unwrap().compile(alg).unwrap()
    }

    /// Σ = {A → B, B → C} and the transitivity step from both premises,
    /// recorded as concluding `conclusion`.
    fn transitivity(n: &nalist_types::NestedAttr, alg: &Algebra, conclusion: &str) -> ProofDag {
        let mut proof = ProofDag::new();
        let p0 = proof.premise(0, dep(n, alg, "L(A) -> L(B)"));
        let p1 = proof.premise(1, dep(n, alg, "L(B) -> L(C)"));
        proof.nodes.push(DagNode::Step {
            rule: Rule::FdTransitivity,
            inputs: vec![p0, p1],
            params: vec![],
            conclusion: dep(n, alg, conclusion),
        });
        proof
    }

    #[test]
    fn valid_two_step_proof_checks() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let proof = transitivity(&n, &alg, "L(A) -> L(C)");
        let c = proof.check(&alg, &sigma).unwrap();
        assert_eq!(c.render(&alg), "L(A) -> L(C)");
        assert!(proof.render(&alg).contains("transitivity rule"));
    }

    #[test]
    fn wrong_conclusion_rejected() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        // not what the rule gives
        let proof = transitivity(&n, &alg, "L(A) -> L(B, C)");
        assert_eq!(
            proof.check(&alg, &sigma),
            Err(ProofError::BadStep {
                rule: Rule::FdTransitivity
            })
        );
    }

    #[test]
    fn bad_premise_rejected() {
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)")];
        let mut fake = ProofDag::new();
        fake.premise(0, dep(&n, &alg, "L(B) -> L(A)"));
        assert_eq!(
            fake.check(&alg, &sigma),
            Err(ProofError::BadPremise { index: 0 })
        );
        let mut oob = ProofDag::new();
        oob.premise(7, sigma[0].clone());
        assert_eq!(
            oob.check(&alg, &sigma),
            Err(ProofError::BadPremise { index: 7 })
        );
    }

    #[test]
    fn dag_builds_checks_and_expands() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let mut dag = ProofDag::new();
        let p0 = dag.premise(0, sigma[0].clone());
        let p1 = dag.premise(1, sigma[1].clone());
        let t = dag
            .step(&alg, Rule::FdTransitivity, &[p0, p1], &[])
            .unwrap();
        assert_eq!(dag.conclusion(t).render(&alg), "L(A) -> L(C)");
        let root = dag.check(&alg, &sigma).unwrap();
        assert_eq!(root.render(&alg), "L(A) -> L(C)");
        assert_eq!(dag.len(), 3);
        assert!(!dag.is_empty());
    }

    #[test]
    fn dag_rejects_malformed_steps() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)")];
        let mut dag = ProofDag::new();
        let p0 = dag.premise(0, sigma[0].clone());
        // transitivity with mismatched middle is refused at build time
        assert!(dag
            .step(&alg, Rule::FdTransitivity, &[p0, p0], &[])
            .is_none());
        // a forged forward reference is caught by check
        let mut forged = ProofDag::new();
        forged.premise(0, sigma[0].clone());
        forged.nodes.push(DagNode::Step {
            rule: Rule::FdImpliesMvd,
            inputs: vec![5], // forward/out-of-range
            params: vec![],
            conclusion: sigma[0].clone(),
        });
        assert!(forged.check(&alg, &sigma).is_err());
        // a forged conclusion is caught by check
        let mut forged2 = ProofDag::new();
        let q = forged2.premise(0, sigma[0].clone());
        forged2.nodes.push(DagNode::Step {
            rule: Rule::FdImpliesMvd,
            inputs: vec![q],
            params: vec![],
            conclusion: dep(&n, &alg, "L(A) -> L(C)"), // wrong
        });
        assert!(forged2.check(&alg, &sigma).is_err());
    }

    #[test]
    fn empty_dag_is_a_typed_error() {
        let n = parse_attr("L(A)").unwrap();
        let alg = Algebra::new(&n);
        assert_eq!(
            ProofDag::new().check(&alg, &[]),
            Err(ProofError::EmptyDerivation)
        );
    }

    #[test]
    fn axiom_proof_with_params() {
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let x = alg.top_set();
        let y = dep(&n, &alg, "L(A) -> L(A)").lhs;
        let conclusion = CompiledDep::fd(x.clone(), y.clone());
        let mut dag = ProofDag::new();
        dag.nodes.push(DagNode::Step {
            rule: Rule::FdReflexivity,
            inputs: vec![],
            params: vec![x, y],
            conclusion: conclusion.clone(),
        });
        assert_eq!(dag.check(&alg, &[]), Ok(&conclusion));
    }
}
