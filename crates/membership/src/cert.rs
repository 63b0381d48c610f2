//! Answers and certificate emission: deciding a target once and
//! turning the answer into a portable [`nalist_check::Certificate`].
//!
//! This is the **untrusted** half of the prover/checker split.
//! [`answer`] runs Algorithm 5.1 once for the target's left-hand side and
//! decides it (Theorem 6.4); both kinds of evidence come from that one
//! run, and each is built only when asked for: the derivation replays
//! the run's firing trail (Lemma 6.1), the counterexample is the Section
//! 4.2 combination instance of the run's `X⁺` and blocks. The builders
//! here flatten a [`ProofDag`] (positive answers), a [`Witness`]
//! (negative answers) or a [`CertifiedBasis`] (`dependency_basis`
//! answers) into the version-1 JSON format that `nalist-check` replays
//! independently. Everything is rendered in the paper's abbreviated
//! notation so the checker can recompile it against the schema *it* was
//! handed — nothing compiled is trusted across the boundary.

use nalist_algebra::{Algebra, AtomSet};
use nalist_check::{BasisData, CertNode, Certificate, Statement, Verdict, WitnessData};
use nalist_deps::proof::{DagNode, ProofDag};
use nalist_deps::CompiledDep;
use nalist_guard::{Budget, ResourceExhausted};
use nalist_obs::Recorder;

use crate::certify::{CertifiedBasis, CertifyError};
use crate::closure::{derivable, ClosureError, DependencyBasis};
use crate::witness::{Witness, WitnessError};
use crate::worklist::WorklistRun;

/// A target decided by one run of Algorithm 5.1 for its left-hand side,
/// holding the run its evidence is built from.
#[derive(Debug)]
pub struct Answer<'a> {
    alg: &'a Algebra,
    sigma: &'a [CompiledDep],
    target: &'a CompiledDep,
    run: WorklistRun,
    implied: bool,
}

/// Decides `Σ ⊨ target`: runs Algorithm 5.1 once for `target.lhs` under
/// `budget` and reads the verdict off the run's `X⁺` and blocks
/// (Proposition 4.10). The run reports to `rec` (a `membership::worklist`
/// span and the `deps_fired` / `worklist_steps` counters); pass
/// [`nalist_obs::noop()`] for an answer that moves no metric. A
/// left-hand side outside `Sub(N)` is a [`ClosureError`], reachable only
/// with hand-built targets.
pub fn answer<'a>(
    alg: &'a Algebra,
    sigma: &'a [CompiledDep],
    target: &'a CompiledDep,
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<Answer<'a>, ClosureError> {
    let run = crate::worklist::run(alg, sigma, &target.lhs, budget, rec)?;
    let blocks = run.blocks.iter().map(AtomSet::words);
    let implied = derivable(target.kind, run.closure.words(), blocks, target.rhs.words());
    Ok(Answer {
        alg,
        sigma,
        target,
        run,
        implied,
    })
}

impl Answer<'_> {
    /// Is the target implied by `Σ`?
    #[must_use]
    pub fn implied(&self) -> bool {
        self.implied
    }

    /// The derivation of an implied target, whose final node concludes
    /// exactly the target: the run's firing trail replayed, one fuel unit
    /// per replayed step (see [`mod@crate::certify`]). `None` when the
    /// target is not implied.
    pub fn derivation(self, budget: &Budget) -> Result<Option<ProofDag>, CertifyError> {
        if !self.implied {
            return Ok(None);
        }
        self.prove(budget).map(Some)
    }

    /// The verified counterexample to a target that is not implied: the
    /// combination instance of the run's basis, checked to satisfy `Σ`
    /// and to violate the target (see [`crate::witness`]). `None` when
    /// the target is implied.
    pub fn witness(self, budget: &Budget) -> Result<Option<Witness>, WitnessError> {
        if self.implied {
            return Ok(None);
        }
        self.refute(budget).map(Some)
    }

    /// The certificate for the answer: [`implied_certificate`] on the
    /// derivation, or [`refuted_certificate`] on the witness.
    pub fn certificate(self, budget: &Budget) -> Result<Certificate, EvidenceError> {
        let (alg, sigma, target) = (self.alg, self.sigma, self.target);
        Ok(if self.implied {
            let dag = self.prove(budget).map_err(EvidenceError::Derivation)?;
            implied_certificate(alg, sigma, target, &dag)
        } else {
            let witness = self.refute(budget).map_err(EvidenceError::Witness)?;
            refuted_certificate(alg, sigma, target, &witness)
        })
    }

    fn prove(self, budget: &Budget) -> Result<ProofDag, CertifyError> {
        crate::certify::derive(self.alg, self.sigma, self.target, self.run, budget)
    }

    fn refute(self, budget: &Budget) -> Result<Witness, WitnessError> {
        let basis = DependencyBasis::derive(self.alg, self.run.closure, self.run.blocks);
        crate::witness::verified(self.alg, self.sigma, self.target, &basis, budget)
    }
}

/// Why [`Answer::certificate`] could not build its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvidenceError {
    /// The derivation of an implied target failed.
    Derivation(CertifyError),
    /// The witness to a target that is not implied failed.
    Witness(WitnessError),
}

impl EvidenceError {
    /// The exhausted limit, when the budget ran out.
    #[must_use]
    pub fn resource(&self) -> Option<ResourceExhausted> {
        match self {
            EvidenceError::Derivation(CertifyError::Resource(r))
            | EvidenceError::Witness(WitnessError::Resource(r)) => Some(*r),
            _ => None,
        }
    }
}

impl std::fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvidenceError::Derivation(e) => e.fmt(f),
            EvidenceError::Witness(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EvidenceError {}

/// Renders `Σ` one dependency per entry, in file order.
fn render_sigma(alg: &Algebra, sigma: &[CompiledDep]) -> Vec<String> {
    sigma.iter().map(|d| d.render(alg)).collect()
}

/// Flattens a [`ProofDag`] into certificate nodes. Premise nodes keep
/// only the `Σ` index (the checker resolves it against its own copy);
/// step nodes carry the stable rule id, input indices, rendered
/// parameters and the rendered conclusion.
fn render_derivation(alg: &Algebra, dag: &ProofDag) -> Vec<CertNode> {
    dag.nodes
        .iter()
        .map(|node| match node {
            DagNode::Premise { index, .. } => CertNode::Premise { index: *index },
            DagNode::Step {
                rule,
                inputs,
                params,
                conclusion,
            } => CertNode::Step {
                rule: rule.id().to_owned(),
                inputs: inputs.clone(),
                params: params.iter().map(|p| alg.render(p)).collect(),
                conclusion: conclusion.render(alg),
            },
        })
        .collect()
}

/// Builds a certificate for a positive answer `Σ ⊨ σ`: the derivation
/// is `dag` (whose final node must conclude exactly `dep`, as
/// [`crate::certify::certify_governed`] guarantees).
pub fn implied_certificate(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    dag: &ProofDag,
) -> Certificate {
    Certificate {
        schema: alg.attr().to_string(),
        sigma: render_sigma(alg, sigma),
        statement: Statement::Implies {
            dep: dep.render(alg),
        },
        verdict: Verdict::Implied,
        derivation: render_derivation(alg, dag),
        witness: None,
        basis: None,
    }
}

/// Builds a certificate for a negative answer `Σ ⊭ σ`: the Theorem 4.4
/// counterexample instance. The generator tuple `t1` is pinned to the
/// first entry and `t2` to the last — [`crate::witness::Witness`] stores
/// the instance as an ordered set, so the pinning is re-established here
/// (the checker rejects certificates whose generators sit elsewhere).
pub fn refuted_certificate(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    witness: &Witness,
) -> Certificate {
    let mut tuples = Vec::with_capacity(witness.instance.len());
    tuples.push(witness.t1.to_string());
    for t in witness.instance.iter() {
        if *t != witness.t1 && *t != witness.t2 {
            tuples.push(t.to_string());
        }
    }
    tuples.push(witness.t2.to_string());
    let last = tuples.len() - 1;
    Certificate {
        schema: alg.attr().to_string(),
        sigma: render_sigma(alg, sigma),
        statement: Statement::Implies {
            dep: dep.render(alg),
        },
        verdict: Verdict::NotImplied,
        derivation: Vec::new(),
        witness: Some(WitnessData {
            free_blocks: witness.free_blocks,
            t1: 0,
            t2: last,
            tuples,
        }),
        basis: None,
    }
}

/// Builds a certificate for a `dependency_basis` answer: the shared
/// derivation DAG plus the node map proving `X → X⁺` and each
/// `X ↠ W`.
pub fn basis_certificate(
    alg: &Algebra,
    sigma: &[CompiledDep],
    lhs: &AtomSet,
    cert: &CertifiedBasis,
) -> Certificate {
    Certificate {
        schema: alg.attr().to_string(),
        sigma: render_sigma(alg, sigma),
        statement: Statement::Basis {
            lhs: alg.render(lhs),
        },
        verdict: Verdict::Derived,
        derivation: render_derivation(alg, &cert.dag),
        witness: None,
        basis: Some(BasisData {
            closure: alg.render(&cert.basis.closure),
            blocks: cert.basis.blocks.iter().map(|w| alg.render(w)).collect(),
            closure_node: cert.closure_node,
            block_nodes: cert.block_nodes.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certified_closure_and_basis, certify_governed};
    use crate::witness::refute_governed;
    use nalist_deps::Dependency;
    use nalist_guard::ResourceKind;
    use nalist_types::parser::parse_attr;

    fn setup(schema: &str, deps: &[&str]) -> (Algebra, Vec<CompiledDep>) {
        let n = parse_attr(schema).unwrap();
        let alg = Algebra::new(&n);
        let sigma = deps
            .iter()
            .map(|s| {
                Dependency::parse(alg.attr(), s)
                    .unwrap()
                    .compile(&alg)
                    .unwrap()
            })
            .collect();
        (alg, sigma)
    }

    fn compile(alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(alg.attr(), s)
            .unwrap()
            .compile(alg)
            .unwrap()
    }

    #[test]
    fn emitted_positive_certificate_is_accepted() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"]);
        let dep = compile(&alg, "L(A) -> L(C)");
        let dag = certify_governed(&alg, &sigma, &dep, &Budget::unlimited())
            .unwrap()
            .unwrap();
        let cert = implied_certificate(&alg, &sigma, &dep, &dag);
        let report = nalist_check::verify(
            "L(A, B, C)",
            "L(A) -> L(B)\nL(B) -> L(C)\n",
            &cert,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.verdict, Verdict::Implied);
        // …and the document survives a JSON round trip.
        let reparsed = Certificate::from_json(&cert.to_json()).unwrap();
        assert_eq!(reparsed, cert);
    }

    #[test]
    fn emitted_negative_certificate_is_accepted() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)"]);
        let dep = compile(&alg, "L(A) -> L(C)");
        let witness = refute_governed(&alg, &sigma, &dep, &Budget::unlimited())
            .unwrap()
            .unwrap();
        let cert = refuted_certificate(&alg, &sigma, &dep, &witness);
        let report =
            nalist_check::verify("L(A, B, C)", "L(A) -> L(B)\n", &cert, &Budget::unlimited())
                .unwrap();
        assert_eq!(report.verdict, Verdict::NotImplied);
        assert!(report.tuples >= 2);
    }

    #[test]
    fn evidence_errors_keep_their_half_and_their_resource() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"]);
        let (unlimited, starved) = (Budget::unlimited(), Budget::unlimited().with_fuel(0));
        let implied = compile(&alg, "L(A) -> L(C)");
        let e = answer(&alg, &sigma, &implied, &unlimited, nalist_obs::noop())
            .unwrap()
            .certificate(&starved)
            .unwrap_err();
        assert!(matches!(
            e,
            EvidenceError::Derivation(CertifyError::Resource(_))
        ));
        assert_eq!(e.resource().map(|r| r.kind), Some(ResourceKind::Fuel));
        let refuted = compile(&alg, "L(C) -> L(A)");
        let e = answer(&alg, &sigma, &refuted, &unlimited, nalist_obs::noop())
            .unwrap()
            .certificate(&starved)
            .unwrap_err();
        assert!(matches!(
            e,
            EvidenceError::Witness(WitnessError::Resource(_))
        ));
        assert!(e.to_string().contains("fuel"));
    }

    #[test]
    fn emitted_basis_certificate_is_accepted() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let x = compile(&alg, "L(A) -> L(A)").lhs;
        let cb =
            certified_closure_and_basis(&alg, &sigma, &x, &Budget::unlimited(), nalist_obs::noop())
                .unwrap();
        let cert = basis_certificate(&alg, &sigma, &x, &cb);
        let report =
            nalist_check::verify("L(A, B, C)", "L(A) ->> L(B)\n", &cert, &Budget::unlimited())
                .unwrap();
        assert_eq!(report.verdict, Verdict::Derived);
    }
}
