//! # nalist-gen
//!
//! Workload generation for the evaluation (DESIGN.md experiments):
//!
//! * [`attr_gen`] — random nested attributes with exact atom counts
//!   (`|N| = |SubB(N)|` sweeps for the complexity experiments);
//! * [`sigma_gen`] — random subattributes and dependency sets;
//! * [`edits`] — random `Σ` edit scripts (add/remove/query) for the
//!   incremental-maintenance cross-validation and benchmarks;
//! * [`instance_gen`] — random values/instances and Σ-satisfying
//!   instances via the completeness construction;
//! * [`scenarios`] — fixed named workloads: the paper's pub-crawl
//!   example, a genomic sequence database, and an XML-style order store;
//! * [`defects`] — seeders that plant a known defect (trivial, duplicate,
//!   subsumed, inflated LHS) into a Σ, for exercising the lint rules, and
//!   single-field certificate corrupters for exercising the checker;
//! * [`chaos`] — pathological corpora (depth bombs, atom bombs, megabyte
//!   identifiers, mangled spec files) and fail-point re-exports for the
//!   fault-tolerance harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr_gen;
pub mod chaos;
pub mod defects;
pub mod edits;
pub mod instance_gen;
pub mod scenarios;
pub mod sigma_gen;

pub use attr_gen::{attr_with_atoms, flat_attr, random_attr, repetitive_attr, AttrConfig};
pub use chaos::{durability_corpus, wire_corpus, ChaosCase, DurabilityCase, Expectation, WireCase};
pub use defects::{
    certificate_defects, render_sigma, seed_duplicate, seed_inflated_lhs, seed_trivial,
    seed_weakened, Defect,
};
pub use edits::{random_edit_script, EditConfig, EditOp};
pub use instance_gen::{random_instance, random_value, satisfying_instance, InstanceConfig};
pub use scenarios::Scenario;
pub use sigma_gen::{random_dep, random_nontrivial_dep, random_sigma, random_subattr, SigmaConfig};
