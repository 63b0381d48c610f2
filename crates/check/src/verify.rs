//! Rule-by-rule certificate verification.
//!
//! [`verify`] takes the *authoritative* schema and `Σ` sources (the
//! files the caller trusts), a parsed [`Certificate`], and a
//! [`Budget`]. Nothing inside the certificate is believed: premises are
//! resolved against the caller's `Σ`, every rule application is
//! re-derived with [`nalist_deps::rules::apply`] and compared against
//! the recorded conclusion, and counterexample instances are re-checked
//! tuple by tuple with the independent satisfaction checker. A
//! certificate produced by a buggy — or malicious — prover therefore
//! cannot make the checker report success.
//!
//! Every loop charges the budget, so size bombs exhaust their fuel or
//! deadline ([`CheckError::Resource`]) instead of monopolising the
//! process.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::rules::{apply, Rule};
use nalist_deps::{CompiledDep, Instance};
use nalist_guard::{Budget, ResourceExhausted};
use nalist_types::error::ParseError;
use nalist_types::parser::{parse_attr_with, ParseLimits};

use crate::format::{CertNode, Certificate, Statement, Verdict};

/// Hard cap on `witness.free_blocks`: the instance has `2^k` tuples, so
/// anything past this is a size bomb regardless of budget. Mirrors the
/// emitter-side `MAX_FREE_BLOCKS` in `nalist-membership` (kept as a
/// separate constant so the checker does not link the engine).
pub const MAX_WITNESS_BLOCKS: usize = 16;

/// A successful verification: what was proved and how much work the
/// replay took (the CLI surfaces the work numbers as metrics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The verified verdict.
    pub verdict: Verdict,
    /// The verified statement, re-rendered from compiled form.
    pub statement: String,
    /// Derivation nodes replayed.
    pub nodes: usize,
    /// Witness tuples re-checked.
    pub tuples: usize,
}

/// Why a well-formed certificate failed verification.
///
/// `SchemaParse`/`DepsParse` indict the *caller's input files* (CLI exit
/// code 2); [`CheckError::Resource`] is budget exhaustion (exit code 3);
/// everything else is a rejection of the certificate itself (exit
/// code 1), addressed to a derivation node where one is at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The schema argument did not parse.
    SchemaParse {
        /// Parser detail.
        detail: String,
    },
    /// The dependency file did not parse or compile.
    DepsParse {
        /// Parser/compiler detail.
        detail: String,
    },
    /// The certificate's embedded schema is not the schema being checked
    /// against.
    SchemaMismatch {
        /// The certificate's schema string.
        cert: String,
    },
    /// The certificate's embedded `Σ` differs from the dependency file.
    SigmaMismatch {
        /// First differing index (or `Σ` length on a length mismatch).
        index: usize,
    },
    /// The statement string did not parse against the schema.
    BadStatement {
        /// Parser detail.
        detail: String,
    },
    /// The verdict and statement kinds disagree (e.g. `derived` on an
    /// `implies` statement).
    VerdictMismatch,
    /// A derivation node failed to replay.
    Node {
        /// Index of the failing node.
        node: usize,
        /// What went wrong.
        reason: NodeError,
    },
    /// A positive verdict with no derivation nodes.
    EmptyDerivation,
    /// The derivation is valid but its final conclusion is not the
    /// statement.
    GoalMismatch {
        /// What the derivation actually concludes.
        concluded: String,
    },
    /// `not-implied` without a witness object.
    MissingWitness,
    /// The witness is structurally or semantically invalid.
    Witness {
        /// Human-readable reason.
        reason: String,
    },
    /// `derived` without a basis object.
    MissingBasis,
    /// The basis node map does not prove the claimed basis.
    Basis {
        /// Human-readable reason.
        reason: String,
    },
    /// The budget ran out before verification finished.
    Resource(ResourceExhausted),
}

/// Node-addressed replay failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// A premise citation is outside `Σ`.
    PremiseOutOfRange {
        /// The cited index.
        index: usize,
    },
    /// The rule id is not one of the fourteen Theorem 4.6 rules.
    UnknownRule {
        /// The unrecognised id.
        id: String,
    },
    /// An input cites this node or a later one (the derivation must be
    /// topologically ordered — this also rejects all cyclic references).
    ForwardRef {
        /// The offending input index.
        reference: usize,
    },
    /// A parameter is not a subattribute of the schema.
    BadParam {
        /// Parser detail.
        detail: String,
    },
    /// The recorded conclusion did not parse against the schema.
    BadConclusion {
        /// Parser detail.
        detail: String,
    },
    /// The rule's side conditions rejected this instance.
    RuleRejected,
    /// The rule applied, but produced a different conclusion than
    /// recorded.
    WrongConclusion {
        /// What the rule actually derives, rendered.
        derived: String,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::PremiseOutOfRange { index } => {
                write!(f, "premise #{index} is outside Σ")
            }
            NodeError::UnknownRule { id } => write!(f, "unknown rule id {id:?}"),
            NodeError::ForwardRef { reference } => {
                write!(f, "input n{reference} is not an earlier node")
            }
            NodeError::BadParam { detail } => write!(f, "bad parameter: {detail}"),
            NodeError::BadConclusion { detail } => write!(f, "bad conclusion: {detail}"),
            NodeError::RuleRejected => write!(f, "rule side conditions rejected the instance"),
            NodeError::WrongConclusion { derived } => {
                write!(f, "rule derives {derived}, not the recorded conclusion")
            }
        }
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::SchemaParse { detail } => write!(f, "schema does not parse: {detail}"),
            CheckError::DepsParse { detail } => {
                write!(f, "dependency file does not parse: {detail}")
            }
            CheckError::SchemaMismatch { cert } => write!(
                f,
                "certificate was issued for schema {cert}, not the schema under check"
            ),
            CheckError::SigmaMismatch { index } => {
                write!(
                    f,
                    "certificate Σ disagrees with the dependency file at #{index}"
                )
            }
            CheckError::BadStatement { detail } => write!(f, "bad statement: {detail}"),
            CheckError::VerdictMismatch => {
                write!(f, "verdict kind does not fit the statement kind")
            }
            CheckError::Node { node, reason } => write!(f, "node n{node}: {reason}"),
            CheckError::EmptyDerivation => write!(f, "positive verdict with empty derivation"),
            CheckError::GoalMismatch { concluded } => {
                write!(f, "derivation concludes {concluded}, not the statement")
            }
            CheckError::MissingWitness => write!(f, "verdict not-implied requires a witness"),
            CheckError::Witness { reason } => write!(f, "witness invalid: {reason}"),
            CheckError::MissingBasis => write!(f, "verdict derived requires a basis object"),
            CheckError::Basis { reason } => write!(f, "basis invalid: {reason}"),
            CheckError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<ResourceExhausted> for CheckError {
    fn from(e: ResourceExhausted) -> Self {
        CheckError::Resource(e)
    }
}

impl CheckError {
    /// True if this is budget exhaustion (CLI exit code 3).
    pub fn is_resource(&self) -> bool {
        matches!(self, CheckError::Resource(_))
    }

    /// True if the *caller's* schema/deps inputs are at fault rather
    /// than the certificate (CLI exit code 2).
    pub fn is_input_error(&self) -> bool {
        matches!(
            self,
            CheckError::SchemaParse { .. } | CheckError::DepsParse { .. }
        )
    }
}

/// Verifies `cert` against the authoritative `schema_src`/`deps_src`.
///
/// On success the certificate's claim holds: an `implied`/`derived`
/// verdict has a valid derivation from `Σ` concluding the statement, a
/// `not-implied` verdict has a concrete instance satisfying `Σ` and
/// violating the statement.
pub fn verify(
    schema_src: &str,
    deps_src: &str,
    cert: &Certificate,
    budget: &Budget,
) -> Result<Report, CheckError> {
    let limits = ParseLimits::from_budget(budget);

    // 1. the trusted inputs: schema and Σ from the caller's files
    let n = parse_attr_with(schema_src, limits).map_err(|e| CheckError::SchemaParse {
        detail: e.to_string(),
    })?;
    let alg = Algebra::try_new(&n, budget)?;
    let mut sigma = Vec::new();
    for line in deps_src.lines() {
        budget.charge(1)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let dep = CompiledDep::parse(&alg, line, limits).map_err(|e| CheckError::DepsParse {
            detail: e.to_string(),
        })?;
        sigma.push(dep);
    }

    // 2. the certificate must have been issued for exactly these inputs
    match parse_attr_with(&cert.schema, limits) {
        Ok(cert_n) if cert_n == n => {}
        _ => {
            return Err(CheckError::SchemaMismatch {
                cert: cert.schema.clone(),
            })
        }
    }
    if cert.sigma.len() != sigma.len() {
        return Err(CheckError::SigmaMismatch { index: sigma.len() });
    }
    for (i, rendered) in cert.sigma.iter().enumerate() {
        budget.charge(1)?;
        if CompiledDep::parse(&alg, rendered, limits).as_ref() != Ok(&sigma[i]) {
            return Err(CheckError::SigmaMismatch { index: i });
        }
    }

    // 3. the statement, read against the trusted schema
    let bad_statement = |e: ParseError| CheckError::BadStatement {
        detail: e.to_string(),
    };
    let target = match (&cert.statement, cert.verdict) {
        (Statement::Implies { dep }, Verdict::Implied | Verdict::NotImplied) => {
            StatementTarget::Dep(CompiledDep::parse(&alg, dep, limits).map_err(bad_statement)?)
        }
        (Statement::Basis { lhs }, Verdict::Derived) => {
            StatementTarget::Lhs(alg.parse_subattr(lhs, limits).map_err(bad_statement)?)
        }
        _ => return Err(CheckError::VerdictMismatch),
    };

    // 4. replay
    match (&target, cert.verdict) {
        (StatementTarget::Dep(dep), Verdict::Implied) => {
            let conclusions = replay(&alg, &sigma, cert, budget)?;
            let last = conclusions.last().ok_or(CheckError::EmptyDerivation)?;
            if last != dep {
                return Err(CheckError::GoalMismatch {
                    concluded: last.render(&alg),
                });
            }
            Ok(Report {
                verdict: cert.verdict,
                statement: dep.render(&alg),
                nodes: conclusions.len(),
                tuples: 0,
            })
        }
        (StatementTarget::Dep(dep), Verdict::NotImplied) => {
            let tuples = check_witness(&alg, &n, &sigma, dep, cert, budget)?;
            Ok(Report {
                verdict: cert.verdict,
                statement: dep.render(&alg),
                nodes: 0,
                tuples,
            })
        }
        (StatementTarget::Lhs(x), Verdict::Derived) => {
            let conclusions = replay(&alg, &sigma, cert, budget)?;
            check_basis(&alg, x, cert, &conclusions, budget)?;
            Ok(Report {
                verdict: cert.verdict,
                statement: alg.render(x),
                nodes: conclusions.len(),
                tuples: 0,
            })
        }
        _ => Err(CheckError::VerdictMismatch),
    }
}

enum StatementTarget {
    Dep(CompiledDep),
    Lhs(AtomSet),
}

/// Replays the derivation node by node, returning every node's verified
/// conclusion.
fn replay(
    alg: &Algebra,
    sigma: &[CompiledDep],
    cert: &Certificate,
    budget: &Budget,
) -> Result<Vec<CompiledDep>, CheckError> {
    let limits = ParseLimits::from_budget(budget);
    let mut conclusions: Vec<CompiledDep> = Vec::with_capacity(cert.derivation.len());
    for (i, node) in cert.derivation.iter().enumerate() {
        let fail = |reason: NodeError| CheckError::Node { node: i, reason };
        budget.charge(1)?;
        match node {
            CertNode::Premise { index } => {
                let dep = sigma
                    .get(*index)
                    .ok_or_else(|| fail(NodeError::PremiseOutOfRange { index: *index }))?;
                conclusions.push(dep.clone());
            }
            CertNode::Step {
                rule,
                inputs,
                params,
                conclusion,
            } => {
                budget.charge((inputs.len() + params.len()) as u64)?;
                let rule = Rule::from_id(rule)
                    .ok_or_else(|| fail(NodeError::UnknownRule { id: rule.clone() }))?;
                let mut premise_refs = Vec::with_capacity(inputs.len());
                for &j in inputs {
                    if j >= i {
                        return Err(fail(NodeError::ForwardRef { reference: j }));
                    }
                    premise_refs.push(&conclusions[j]);
                }
                let mut param_sets = Vec::with_capacity(params.len());
                for p in params {
                    param_sets.push(alg.parse_subattr(p, limits).map_err(|e| {
                        fail(NodeError::BadParam {
                            detail: e.to_string(),
                        })
                    })?);
                }
                let param_refs: Vec<&AtomSet> = param_sets.iter().collect();
                let recorded = CompiledDep::parse(alg, conclusion, limits).map_err(|e| {
                    fail(NodeError::BadConclusion {
                        detail: e.to_string(),
                    })
                })?;
                let derived = apply(alg, rule, &premise_refs, &param_refs)
                    .ok_or_else(|| fail(NodeError::RuleRejected))?;
                if derived != recorded {
                    return Err(fail(NodeError::WrongConclusion {
                        derived: derived.render(alg),
                    }));
                }
                conclusions.push(recorded);
            }
        }
    }
    Ok(conclusions)
}

/// Re-checks a Theorem 4.4 counterexample: the instance must satisfy
/// every dependency of `Σ` and violate the target. Returns the number of
/// tuples checked.
fn check_witness(
    alg: &Algebra,
    n: &nalist_types::NestedAttr,
    sigma: &[CompiledDep],
    target: &CompiledDep,
    cert: &Certificate,
    budget: &Budget,
) -> Result<usize, CheckError> {
    let w = cert.witness.as_ref().ok_or(CheckError::MissingWitness)?;
    let invalid = |reason: String| CheckError::Witness { reason };

    // structural schema: 2^k tuples, generators pinned first and last
    if w.free_blocks == 0 || w.free_blocks > MAX_WITNESS_BLOCKS {
        return Err(invalid(format!(
            "free_blocks {} outside 1..={MAX_WITNESS_BLOCKS}",
            w.free_blocks
        )));
    }
    if w.tuples.len() != 1usize << w.free_blocks {
        return Err(invalid(format!(
            "{} tuples, expected 2^{} = {}",
            w.tuples.len(),
            w.free_blocks,
            1usize << w.free_blocks
        )));
    }
    if w.t1 != 0 || w.t2 != w.tuples.len() - 1 {
        return Err(invalid(
            "generator indices must be the first and last tuple".to_owned(),
        ));
    }

    let mut instance = Instance::new(n.clone());
    for (i, row) in w.tuples.iter().enumerate() {
        budget.charge(1)?;
        budget.check_deadline()?;
        let fresh = instance
            .insert_str(row)
            .map_err(|e| invalid(format!("tuple #{i}: {e}")))?;
        if !fresh {
            return Err(invalid(format!("tuple #{i} is a duplicate")));
        }
    }

    // the semantic heart: r ⊨ Σ …
    for (i, dep) in sigma.iter().enumerate() {
        budget.charge(instance.len() as u64)?;
        budget.check_deadline()?;
        if !instance.satisfies(alg, dep) {
            return Err(invalid(format!(
                "instance violates premise #{i}: {}",
                dep.render(alg)
            )));
        }
    }
    // … and r ⊭ σ
    budget.charge(instance.len() as u64)?;
    if instance.satisfies(alg, target) {
        return Err(invalid(format!(
            "instance satisfies the target {}",
            target.render(alg)
        )));
    }
    Ok(instance.len())
}

/// Checks a `derived` basis claim: the cited nodes must prove `X → X⁺`
/// and `X ↠ W` for every claimed block, and the blocks together with the
/// closure must cover the schema (so no part of `Sub(N)` was silently
/// dropped from the claim).
fn check_basis(
    alg: &Algebra,
    x: &AtomSet,
    cert: &Certificate,
    conclusions: &[CompiledDep],
    budget: &Budget,
) -> Result<(), CheckError> {
    let b = cert.basis.as_ref().ok_or(CheckError::MissingBasis)?;
    let invalid = |reason: String| CheckError::Basis { reason };
    let limits = ParseLimits::from_budget(budget);

    let closure = alg
        .parse_subattr(&b.closure, limits)
        .map_err(|e| invalid(format!("closure: {e}")))?;
    let closure_claim = conclusions
        .get(b.closure_node)
        .ok_or_else(|| invalid(format!("closure_node {} out of range", b.closure_node)))?;
    if *closure_claim != CompiledDep::fd(x.clone(), closure.clone()) {
        return Err(invalid(format!(
            "node n{} concludes {}, not X → X⁺",
            b.closure_node,
            closure_claim.render(alg)
        )));
    }

    if b.block_nodes.len() != b.blocks.len() {
        return Err(invalid(format!(
            "{} blocks but {} block_nodes",
            b.blocks.len(),
            b.block_nodes.len()
        )));
    }
    let mut covered = closure.clone();
    for (k, (block_src, &node)) in b.blocks.iter().zip(&b.block_nodes).enumerate() {
        budget.charge(1)?;
        let block = alg
            .parse_subattr(block_src, limits)
            .map_err(|e| invalid(format!("block #{k}: {e}")))?;
        if block.is_empty() {
            return Err(invalid(format!("block #{k} is λ")));
        }
        let claim = conclusions
            .get(node)
            .ok_or_else(|| invalid(format!("block_nodes[{k}] = {node} out of range")))?;
        if *claim != CompiledDep::mvd(x.clone(), block.clone()) {
            return Err(invalid(format!(
                "node n{node} concludes {}, not X ↠ block #{k}",
                claim.render(alg)
            )));
        }
        covered = alg.join(&covered, &block);
    }
    if covered != alg.top_set() {
        return Err(invalid(
            "closure and blocks do not cover the schema".to_owned(),
        ));
    }
    Ok(())
}
