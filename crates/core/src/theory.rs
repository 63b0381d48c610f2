//! # A guided tour of the theory
//!
//! This module contains no code — it is a narrated walk through the
//! paper's mathematics, with every concept demonstrated by a runnable
//! doctest against the public API. Read it top to bottom to learn both
//! the theory and the library.
//!
//! ## 1. Nested attributes and their values
//!
//! A *nested attribute* is a type expression over flat attributes, record
//! constructors `L(N1, …, Nk)` and finite-list constructors `L[N]`
//! (Definition 3.2). Its domain is built structurally (Definition 3.3):
//!
//! ```
//! use nalist::prelude::*;
//!
//! let n = parse_attr("Playlist(User, Songs[Track])").unwrap();
//! let v = parse_value("(ann, [hey-jude, yesterday])").unwrap();
//! assert!(v.conforms(&n));
//! // lists may be empty — [] ∈ dom(Songs[Track])
//! assert!(parse_value("(bob, [])").unwrap().conforms(&n));
//! ```
//!
//! ## 2. Subattributes: what "part of the data" means
//!
//! `M ≤ N` (Definition 3.4) says `M` carries at most as much information
//! as `N`; operationally there is a projection `π^N_M` (Definition 3.6).
//! The crucial list-specific fact: projecting a list to `L[λ]` keeps its
//! **length** — the shape of a list is information:
//!
//! ```
//! use nalist::prelude::*;
//! use nalist::types::projection::project;
//!
//! let n = parse_attr("Playlist(User, Songs[Track])").unwrap();
//! let shape = parse_subattr_of(&n, "Playlist(Songs[λ])").unwrap();
//! let v = parse_value("(ann, [hey-jude, yesterday])").unwrap();
//! // the projection remembers that two songs were present
//! assert_eq!(project(&n, &shape, &v).unwrap().to_string(), "(ok, [ok, ok])");
//! ```
//!
//! ## 3. The Brouwerian algebra `Sub(N)`
//!
//! In the relational model the subsets of a schema form a Boolean
//! algebra. With lists, `Sub(N)` is only a **Brouwerian (co-Heyting)
//! algebra** (Theorem 3.9): there is a pseudo-difference `∸` adjoint to
//! join, but the complement `Y^C = N ∸ Y` may *overlap* `Y`:
//!
//! ```
//! use nalist::prelude::*;
//!
//! let n = parse_attr("L[A]").unwrap();
//! let alg = Algebra::new(&n);
//! let y = alg.from_attr(&parse_subattr_of(&n, "L[λ]").unwrap()).unwrap();
//! let yc = alg.compl(&y);
//! // the complement of "the list's shape" is the whole attribute:
//! assert_eq!(alg.render(&yc), "L[A]");
//! // so Y ⊓ Y^C = Y ≠ λ — Sub(N) is not Boolean
//! assert_eq!(alg.meet(&y, &yc), y);
//! ```
//!
//! The *basis attributes* `SubB(N)` (Definition 4.7) are the library's
//! atoms: one per flat leaf, one per list node. Everything in `Sub(N)` is
//! a join of basis attributes, and the whole engine works on bitsets of
//! them.
//!
//! ## 4. FDs, MVDs, and the shape subtlety
//!
//! Satisfaction is via projections (Definition 4.1). The running example
//! (Example 4.2) shows an MVD that holds while both component FDs fail:
//!
//! ```
//! use nalist::prelude::*;
//!
//! let s = nalist::gen::scenarios::pubcrawl();
//! let alg = Algebra::new(&s.attr);
//! let holds = |d: &str| {
//!     s.instance
//!         .satisfies_dep(&alg, &Dependency::parse(&s.attr, d).unwrap())
//!         .unwrap()
//! };
//! assert!(holds("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"));
//! assert!(!holds("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"));
//! // …and the shape FD the MVD *forces* (mixed meet):
//! assert!(holds("Pubcrawl(Person) -> Pubcrawl(Visit[λ])"));
//! ```
//!
//! ## 5. The mixed meet rule — the paper's novelty
//!
//! Relationally, an MVD never implies a non-trivial FD. With lists it
//! does: `X ↠ Y ⊢ X → Y ⊓ Y^C`. Intuition: the recombination tuple the
//! MVD demands must take its `Y`-part from one tuple and its `Y^C`-part
//! from another — where the two parts *share* list shapes, those shapes
//! must already agree:
//!
//! ```
//! use nalist::prelude::*;
//!
//! let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
//! let mut r = Reasoner::new(&n);
//! r.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])").unwrap();
//! let unlimited = Budget::unlimited();
//! assert!(r.implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])", &unlimited).unwrap());
//! ```
//!
//! The same phenomenon makes the list-MVD **chase** fallible (no
//! relational analogue):
//!
//! ```
//! use nalist::prelude::*;
//!
//! let n = parse_attr("L[A]").unwrap();
//! let alg = Algebra::new(&n);
//! let sigma = vec![Dependency::parse(&n, "λ ->> L[λ]").unwrap().compile(&alg).unwrap()];
//! let r = Instance::from_strs(n.clone(), &["[]", "[a]"]).unwrap();
//! // two lists of different lengths: the demanded recombination does not
//! // exist as a value — the chase reports it instead of looping
//! assert!(matches!(
//!     chase(&alg, &sigma, &r, 100, &Budget::unlimited(), nalist::obs::noop()),
//!     Err(ChaseError::Unrepairable { .. })
//! ));
//! ```
//!
//! ## 6. The membership algorithm and its certificates
//!
//! Algorithm 5.1 computes the closure `X⁺` and the dependency basis
//! `DepB(X)` in `O(|N|⁴·|Σ|)`; `Σ ⊨ σ` then reduces to a lattice check
//! (Proposition 4.10). Every verdict is *evidenced*: a proof DAG over the
//! 14 rules for "yes", a verified counterexample database for "no":
//!
//! ```
//! use nalist::prelude::*;
//!
//! let n = parse_attr("L(A, B, C)").unwrap();
//! let alg = Algebra::new(&n);
//! let sigma = vec![
//!     Dependency::parse(&n, "L(A) -> L(B)").unwrap().compile(&alg).unwrap(),
//!     Dependency::parse(&n, "L(B) -> L(C)").unwrap().compile(&alg).unwrap(),
//! ];
//! // yes, with a checkable derivation:
//! let yes = Dependency::parse(&n, "L(A) -> L(C)").unwrap().compile(&alg).unwrap();
//! let unlimited = Budget::unlimited();
//! let dag = certify_governed(&alg, &sigma, &yes, &unlimited).unwrap().unwrap();
//! assert_eq!(dag.check(&alg, &sigma).unwrap(), &yes);
//! // no, with a concrete two-tuple counterexample:
//! let no = Dependency::parse(&n, "L(C) -> L(A)").unwrap().compile(&alg).unwrap();
//! let witness = refute_governed(&alg, &sigma, &no, &unlimited).unwrap().unwrap();
//! assert!(witness.instance.satisfies_all(&alg, &sigma));
//! assert!(!witness.instance.satisfies(&alg, &no));
//! ```
//!
//! ## 7. Schema design
//!
//! The membership decision powers the applications the paper motivates:
//! equivalence of dependency sets, redundancy, keys, normal forms, and
//! lossless decomposition (Theorem 4.4):
//!
//! ```
//! use nalist::prelude::*;
//!
//! let s = nalist::gen::scenarios::pubcrawl();
//! let alg = Algebra::new(&s.attr);
//! let sigma: Vec<CompiledDep> =
//!     s.sigma.iter().map(|d| d.compile(&alg).unwrap()).collect();
//! // the shape FD is redundant — it is the mixed-meet consequence
//! let unlimited = Budget::unlimited();
//! assert_eq!(minimal_cover(&alg, &sigma, &unlimited).unwrap().len(), 1);
//! // the schema is not in 4NF; the decomposition along the MVD is lossless
//! assert!(!is_fourth_nf(&alg, &sigma, &unlimited).unwrap());
//! let comps = decompose_4nf(&alg, &sigma, 8, &unlimited).unwrap();
//! let atoms: Vec<AtomSet> = comps.iter().map(|c| c.atoms.clone()).collect();
//! assert!(verify_lossless(&alg, &s.instance, &atoms).unwrap());
//! ```
//!
//! ## 8. Where the paper needed a correction
//!
//! Theorem 4.4 states `r ⊨ X ↠ Y ⟺ r = π_{X⊔Y}(r) ⋈ π_{X⊔Y^C}(r)`. The
//! "⟸" direction fails when `r` violates the mixed-meet FD — see the
//! erratum note on [`nalist_deps::join::lossless_decomposition`] and
//! experiment E-THM44 in `EXPERIMENTS.md`:
//!
//! ```
//! use nalist::prelude::*;
//! use nalist::deps::join::lossless_decomposition;
//!
//! let n = parse_attr("L[A]").unwrap();
//! let alg = Algebra::new(&n);
//! let r = Instance::from_strs(n.clone(), &["[]", "[a]"]).unwrap();
//! let x = alg.bottom_set();
//! let y = alg.from_attr(&parse_subattr_of(&n, "L[λ]").unwrap()).unwrap();
//! // lossless, yet the MVD is violated:
//! assert!(lossless_decomposition(&alg, &r, &x, &y).unwrap());
//! assert!(!r.satisfies_mvd(&alg, &x, &y));
//! // the corrected equivalence adds the mixed-meet FD:
//! let mixed = alg.meet(&y, &alg.compl(&y));
//! assert!(!r.satisfies_fd(&alg, &x, &mixed));
//! ```
