//! # nalist-deps
//!
//! Functional and multi-valued dependencies over nested attributes with
//! base, record and finite list types (Section 4 of Hartmann & Link,
//! ENTCS 91, 2004):
//!
//! * [`Dependency`]/[`dependency::CompiledDep`] — FDs `X → Y` and MVDs
//!   `X ↠ Y` with `X, Y ∈ Sub(N)` (Definition 4.1), triviality via
//!   Lemma 4.3;
//! * [`Instance`] — finite sets `r ⊆ dom(N)` with projection-based
//!   satisfaction checking;
//! * [`join`] — the generalised join and Fagin's lossless-join
//!   characterisation of MVDs (Theorem 4.4);
//! * [`rules`] — the 14 inference rules of Theorem 4.6 (including the
//!   novel *mixed meet rule*), [`proof`] — checkable derivation DAGs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chase;
pub mod dependency;
pub mod footprint;
pub mod instance;
pub mod join;
pub mod proof;
pub mod rules;

pub use chase::{chase, ChaseError, ChaseResult};
pub use dependency::{parse_sigma, CompiledDep, Dependency};
pub use footprint::PreparedDep;
pub use instance::Instance;
pub use nalist_types::parser::DepKind;
pub use proof::{DagNode, ProofDag};
pub use rules::Rule;
