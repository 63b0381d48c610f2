//! # nalist-oracle
//!
//! Independent transcriptions of the paper's algorithms, kept as
//! references for tests, experiments and benches. Nothing shipped links
//! this crate: the `nalist` facade and the `nalist` binary answer every
//! question with the engines in `nalist-algebra`, `nalist-deps` and
//! `nalist-membership`, and the test suites check those engines against
//! the modules here.
//!
//! * [`treealg`] — the Brouwerian algebra on attribute trees, following
//!   Definition 3.8 literally; [`laws::verify_brouwerian`] checks the
//!   laws of Theorem 3.9 exhaustively on small lattices;
//! * [`naive`] — the exponential enumeration of `Σ⁺` that Section 5
//!   dismisses as impractical, with proof search over its provenance;
//! * [`passes`] — Algorithm 5.1 on the paper's REPEAT-UNTIL schedule
//!   with clone-and-compare change detection, recording the same
//!   per-step trace as the shipped engine;
//! * [`mod@reference`] — Algorithm 5.1 and the Section 6 pseudo-code on
//!   explicit `SubB` sets of basis-attribute trees;
//! * [`beeri`] — Beeri's relational membership algorithm, which
//!   Algorithm 5.1 generalises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beeri;
pub mod laws;
pub mod naive;
pub mod passes;
pub mod reference;
pub mod treealg;
