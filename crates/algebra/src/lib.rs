//! # nalist-algebra
//!
//! The Brouwerian algebra `(Sub(N), ≤, ⊔, ⊓, ∸, N)` of subattributes of a
//! nested attribute (Section 3.3 and Theorem 3.9 of Hartmann & Link,
//! ENTCS 91, 2004), together with the basis-attribute machinery of
//! Section 4.2 (subattribute basis `SubB(N)`, maximal basis attributes
//! `MaxB(N)`, *possessed* basis attributes).
//!
//! ## Representation
//!
//! `Sub(N)` is isomorphic to the lattice of downward-closed sets of
//! *atoms*, where atoms are the basis attributes: one per flat leaf and
//! one per list node of `N` (see `DESIGN.md`). [`Algebra`] precomputes the
//! atom structure once per ambient attribute; the lattice elements are
//! then plain bitsets ([`AtomSet`]) with word-parallel operations:
//!
//! ```
//! use nalist_algebra::Algebra;
//! use nalist_types::parser::{parse_attr, parse_subattr_of};
//!
//! let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
//! let alg = Algebra::new(&n);
//! let x = alg.from_attr(&parse_subattr_of(&n, "A'(B, C[λ])").unwrap()).unwrap();
//! let xc = alg.compl(&x);
//! assert_eq!(alg.render(&xc), "A'(C[D(E, F[G])])");
//! ```
//!
//! [`lattice`]/[`render`] regenerate the paper's Figures 1 and 2. The
//! tree-level transcription of Definition 3.8 and the law verifier that
//! the tests check this engine against live in `nalist-oracle`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atoms;
pub mod bitset;
mod kernels;
pub mod lattice;
mod notation;
pub mod render;
pub mod subset;

pub use atoms::{Algebra, AlgebraError, AtomId, AtomInfo, AtomKind};
pub use bitset::{AtomSet, WidthClass};
