//! # nalist-membership
//!
//! The membership algorithm for FDs and MVDs in the presence of lists
//! (Section 5 of Hartmann & Link, ENTCS 91, 2004):
//!
//! * [`closure`] — Algorithm 5.1: attribute-set closure `X⁺` and
//!   dependency basis `DepB(X)`;
//! * [`worklist`] — the engine that runs Algorithm 5.1's step, on the
//!   change-driven worklist or, with per-step tracing, on the paper's
//!   pass schedule (reproducing Example 5.1 and Figures 3–4);
//! * [`decide`]/[`Reasoner`] — the membership decision `Σ ⊨ σ`
//!   (Proposition 4.10, Theorem 6.4), in `O(|N|⁴·|Σ|)`;
//! * [`witness`] — verified refutation certificates: when `Σ ⊭ σ`, a
//!   concrete instance satisfying `Σ` and violating `σ` is constructed
//!   from the completeness argument of Section 4.2;
//! * [`cert`] — one run of Algorithm 5.1 per target, deciding it and
//!   building its derivation, witness or portable certificate on request;
//! * [`packed`] — the reasoner's cache entry: `X⁺` and the blocks
//!   packed as width-exact words, read in place by queries;
//! * [`persist`] — the snapshot/WAL payload encodings and crash
//!   recovery on top of `nalist-store`;
//! * [`trace`] — paper-notation rendering of algorithm runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod certify;
pub mod closure;
pub mod decide;
pub mod packed;
pub mod persist;
pub mod trace;
pub mod witness;
pub mod worklist;

pub use certify::{
    certified_closure_and_basis, certified_closure_and_basis_governed, certify, certify_governed,
    CertifiedBasis, CertifyError,
};
pub use closure::{
    closure_and_basis, closure_and_basis_governed, ClosureError, DependencyBasis, Trace,
};
pub use decide::{
    default_batch_threads, implies, CacheStats, QueryError, Reasoner, ReasonerError, RestoreError,
    MAX_CACHE_BYTES,
};
pub use packed::PackedBasis;
pub use persist::{
    read_reasoner_snapshot, recover, replay_wal, restore_reasoner, snapshot_payload,
    write_reasoner_snapshot, Decided, PersistError, RecoveryReport, ReplayCounts, WalOp,
};
pub use witness::{refute, refute_governed, Witness, WitnessError};
pub use worklist::{closure_and_basis_traced, step_would_change, WorklistRun};
