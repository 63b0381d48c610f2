//! Cross-validation of the membership algorithm (experiment E-THM63 and
//! E-BASE2 of DESIGN.md):
//!
//! * Algorithm 5.1 against the *independent* naive closure `Σ⁺` obtained
//!   by saturating the 14 inference rules — exhaustively over all
//!   candidate dependencies on small attributes, and over randomised
//!   workloads;
//! * Algorithm 5.1 against Beeri's classical relational algorithm on flat
//!   record schemas;
//! * refutation witnesses re-verified against the naive closure;
//! * the change-driven worklist engine against the paper-order pass
//!   engine of `nalist-oracle` (bit-for-bit) and the paper-literal
//!   `SubB`-set reference, and the shipped traced run against the pass
//!   engine's trace (step for step), on randomised workloads from
//!   `nalist-gen` (property tests at the bottom of this file).

use nalist::membership::trace::{render_result, render_trace};
use nalist::prelude::*;
use nalist_oracle::beeri::{rel_dependency_basis, RelDep};
use nalist_oracle::naive::{NaiveClosure, NaiveConfig};
use nalist_oracle::passes::{closure_and_basis_paper, closure_and_basis_paper_traced};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exhaustive agreement: on small attributes, for EVERY pair
/// `(X, Y) ∈ Sub(N)²` and both dependency kinds, Algorithm 5.1 answers
/// exactly like the naive rule closure.
fn exhaustive_agreement(attr: &str, sigma_srcs: &[&str]) {
    let n = parse_attr(attr).unwrap();
    let alg = Algebra::new(&n);
    let sigma: Vec<CompiledDep> = sigma_srcs
        .iter()
        .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
        .collect();
    let naive = NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()).unwrap();
    let elements = nalist::algebra::lattice::enumerate_sets(&alg);
    for x in &elements {
        let basis = closure_and_basis(&alg, &sigma, x);
        // the closures must agree
        assert_eq!(
            basis.closure,
            naive.fd_closure_of(x),
            "{attr}: X+ mismatch for X = {}",
            alg.render(x)
        );
        for y in &elements {
            let fd = CompiledDep::fd(x.clone(), y.clone());
            let mvd = CompiledDep::mvd(x.clone(), y.clone());
            assert_eq!(
                basis.fd_derivable(y),
                naive.derives(&fd),
                "{attr}: FD {} disagreement",
                fd.render(&alg)
            );
            assert_eq!(
                basis.mvd_derivable(y),
                naive.derives(&mvd),
                "{attr}: MVD {} disagreement",
                mvd.render(&alg)
            );
        }
    }
}

#[test]
fn exhaustive_flat_schema() {
    exhaustive_agreement("L(A, B, C)", &["L(A) -> L(B)"]);
    exhaustive_agreement("L(A, B, C)", &["L(A) ->> L(B)"]);
    exhaustive_agreement("L(A, B, C)", &["L(A) ->> L(B)", "L(C) -> L(B)"]);
}

#[test]
fn exhaustive_single_list() {
    exhaustive_agreement("L(A, M[B])", &["L(A) -> L(M[λ])"]);
    exhaustive_agreement("L(A, M[B])", &["L(A) ->> L(M[B])"]);
    exhaustive_agreement("L[A]", &["λ ->> L[λ]"]);
}

#[test]
fn exhaustive_nested_lists() {
    exhaustive_agreement("K[L(M[A], B)]", &["K[L(M[λ])] ->> K[L(M[A])]"]);
    exhaustive_agreement(
        "K[L(M[A], B)]",
        &["K[λ] -> K[L(B)]", "K[L(B)] ->> K[L(M[A])]"],
    );
    exhaustive_agreement(
        "L(M[A], P[B])",
        &["L(M[λ]) ->> L(P[B])", "L(P[λ]) -> L(M[λ])"],
    );
}

#[test]
fn randomized_agreement_small_attrs() {
    let mut rng = StdRng::seed_from_u64(2026);
    for round in 0..30 {
        let n = nalist::gen::attr_with_atoms(&mut rng, 3 + (round % 3));
        let alg = Algebra::new(&n);
        if nalist::algebra::lattice::sub_count(&n) > 40 {
            continue;
        }
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count: 3,
                ..Default::default()
            },
        );
        let naive = match NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let elements = nalist::algebra::lattice::enumerate_sets(&alg);
        for x in &elements {
            let basis = closure_and_basis(&alg, &sigma, x);
            assert_eq!(
                basis.closure,
                naive.fd_closure_of(x),
                "round {round}: N = {n}, Σ = {:?}, X = {}",
                sigma.iter().map(|d| d.render(&alg)).collect::<Vec<_>>(),
                alg.render(x)
            );
            for y in &elements {
                assert_eq!(
                    basis.mvd_derivable(y),
                    naive.derives(&CompiledDep::mvd(x.clone(), y.clone())),
                    "round {round}: N = {n}, Σ = {:?}, X = {}, Y = {}",
                    sigma.iter().map(|d| d.render(&alg)).collect::<Vec<_>>(),
                    alg.render(x),
                    alg.render(y)
                );
            }
        }
    }
}

// ------------------------------------------------------------- Beeri (E-BASE2)

/// On flat record schemas, Algorithm 5.1 must agree with the classical
/// relational algorithm — dependency basis and closure alike.
#[test]
fn beeri_agreement_on_flat_schemas() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..50 {
        let width = 6;
        let n = nalist::gen::flat_attr(width);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count: 4,
                ..Default::default()
            },
        );
        let rel_sigma: Vec<RelDep> = sigma
            .iter()
            .map(|d| {
                let lhs = to_mask(&d.lhs);
                let rhs = to_mask(&d.rhs);
                match d.kind {
                    DepKind::Fd => RelDep::Fd { lhs, rhs },
                    DepKind::Mvd => RelDep::Mvd { lhs, rhs },
                }
            })
            .collect();
        for xm in 0u64..(1 << width) {
            let x = from_mask(&alg, xm, width);
            let nested = closure_and_basis(&alg, &sigma, &x);
            let rel = rel_dependency_basis(width, &rel_sigma, xm);
            assert_eq!(
                to_mask(&nested.closure),
                rel.closure,
                "closure mismatch at X={xm:b}"
            );
            // block structure: compare as sorted mask lists restricted to
            // non-closure attributes (both representations keep closure
            // attributes as singletons)
            let mut nb: Vec<u64> = nested.blocks.iter().map(to_mask).collect();
            let mut rb = rel.blocks.clone();
            nb.sort_unstable();
            rb.sort_unstable();
            assert_eq!(nb, rb, "blocks mismatch at X={xm:b}");
        }
    }
}

fn to_mask(s: &AtomSet) -> u64 {
    s.iter().fold(0u64, |m, a| m | (1 << a))
}

fn from_mask(alg: &Algebra, m: u64, width: usize) -> AtomSet {
    let mut s = alg.bottom_set();
    for i in 0..width {
        if m & (1 << i) != 0 {
            s.insert(i);
        }
    }
    s
}

// ------------------------------------------------------------- witnesses

/// For randomised nested workloads: every non-implied dependency gets a
/// witness that satisfies Σ and violates the target (the refute API
/// verifies this internally; here we also check the verdicts against the
/// naive closure).
#[test]
fn witnesses_match_naive_verdicts() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut refuted = 0;
    let mut implied = 0;
    for round in 0..20 {
        let n = nalist::gen::attr_with_atoms(&mut rng, 4);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count: 2,
                ..Default::default()
            },
        );
        let naive = match NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        for _ in 0..10 {
            let dep = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let expected = naive.derives(&dep);
            match refute(&alg, &sigma, &dep)
                .unwrap_or_else(|e| panic!("round {round}: witness machinery failed: {e}"))
            {
                None => {
                    assert!(
                        expected,
                        "round {round}: algorithm says implied, naive disagrees"
                    );
                    implied += 1;
                }
                Some(w) => {
                    assert!(
                        !expected,
                        "round {round}: algorithm refutes, naive says implied"
                    );
                    assert!(w.instance.satisfies_all(&alg, &sigma));
                    assert!(!w.instance.satisfies(&alg, &dep));
                    refuted += 1;
                }
            }
        }
    }
    assert!(
        refuted > 10,
        "want a healthy mix, got {refuted} refutations"
    );
    assert!(
        implied > 10,
        "want a healthy mix, got {implied} implications"
    );
}

/// Proofs extracted from the naive closure check out for dependencies the
/// membership algorithm declares implied.
#[test]
fn proofs_exist_for_implied_dependencies() {
    let n = parse_attr("L(A, M[B], C)").unwrap();
    let alg = Algebra::new(&n);
    let sigma: Vec<CompiledDep> = ["L(A) ->> L(M[B])", "L(C) -> L(M[λ])"]
        .iter()
        .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
        .collect();
    let naive = NaiveClosure::compute(&alg, &sigma, NaiveConfig::default()).unwrap();
    let elements = nalist::algebra::lattice::enumerate_sets(&alg);
    let mut checked = 0;
    for x in &elements {
        let basis = closure_and_basis(&alg, &sigma, x);
        for y in &elements {
            if basis.mvd_derivable(y) {
                let dep = CompiledDep::mvd(x.clone(), y.clone());
                let proof = naive
                    .proof_of(&dep)
                    .unwrap_or_else(|| panic!("no proof for {}", dep.render(&alg)));
                let concluded = proof
                    .check(&alg, &sigma)
                    .unwrap_or_else(|e| panic!("proof fails for {}: {e}", dep.render(&alg)));
                assert_eq!(concluded, &dep, "proof concludes another dependency");
                checked += 1;
            }
        }
    }
    assert!(checked > 50, "checked only {checked} proofs");
}

/// Semantic completeness, exhaustively on a tiny attribute: every
/// dependency the algorithm declares NOT implied gets a verified
/// counterexample, and every combination instance (which satisfies Σ by
/// the completeness construction) satisfies everything declared implied.
#[test]
fn exhaustive_semantic_completeness_tiny() {
    for (attr, deps) in [
        ("L(A, M[B])", vec!["L(A) ->> L(M[B])"]),
        ("L[A]", vec!["λ ->> L[λ]"]),
        ("L(A, B)", vec!["L(A) -> L(B)"]),
    ] {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let elements = nalist::algebra::lattice::enumerate_sets(&alg);
        for x in &elements {
            let basis = closure_and_basis(&alg, &sigma, x);
            let witness = nalist::membership::witness::combination_instance(&alg, &basis)
                .expect("tiny bases");
            assert!(witness.instance.satisfies_all(&alg, &sigma), "{attr}");
            for y in &elements {
                for dep in [
                    CompiledDep::fd(x.clone(), y.clone()),
                    CompiledDep::mvd(x.clone(), y.clone()),
                ] {
                    let implied = nalist::membership::implies(&alg, &sigma, &dep);
                    if implied {
                        // the combination instance models Σ, so it must
                        // satisfy everything implied (soundness)
                        assert!(
                            witness.instance.satisfies(&alg, &dep),
                            "{attr}: implied {} violated by the Σ-model",
                            dep.render(&alg)
                        );
                    } else {
                        // completeness: a verified counterexample exists
                        let w = refute(&alg, &sigma, &dep)
                            .unwrap_or_else(|e| panic!("{attr}: {e}"))
                            .expect("not implied must be refutable");
                        assert!(!w.instance.satisfies(&alg, &dep));
                        assert!(w.instance.satisfies_all(&alg, &sigma));
                    }
                }
            }
        }
    }
}

// ------------------------------------------------- engine cross-validation

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The change-driven worklist engine (the default behind
    /// `closure_and_basis`) produces bit-for-bit the same
    /// `DependencyBasis` as the paper-order pass engine, on random nested
    /// workloads well beyond the sizes the naive closure can cross-check.
    #[test]
    fn worklist_engine_matches_pass_engine(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=48);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let count = rng.gen_range(1..=16);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count,
                ..Default::default()
            },
        );
        for _ in 0..6 {
            let x = nalist::gen::random_subattr(&mut rng, &alg, 0.3);
            let fast = closure_and_basis(&alg, &sigma, &x);
            let paper = closure_and_basis_paper(&alg, &sigma, &x);
            prop_assert_eq!(
                &fast,
                &paper,
                "engines disagree on N = {}, X = {}",
                n,
                alg.render(&x)
            );
            // the traced variant must keep the paper engine's semantics
            let (traced, _) = closure_and_basis_traced(&alg, &sigma, &x, &Budget::unlimited()).unwrap();
            prop_assert_eq!(&traced, &paper);
        }
    }

    /// The shipped traced run — the engine's one step driven on the
    /// paper's pass schedule — records exactly the trace of the oracle's
    /// clone-and-compare pass engine: every field of every step, the
    /// same basis, and the same rendered text, byte for byte.
    #[test]
    fn traced_engine_matches_pass_engine_trace(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=48);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let count = rng.gen_range(1..=16);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count,
                ..Default::default()
            },
        );
        for _ in 0..6 {
            let x = nalist::gen::random_subattr(&mut rng, &alg, 0.3);
            let (basis, trace) =
                closure_and_basis_traced(&alg, &sigma, &x, &Budget::unlimited()).unwrap();
            let (want_basis, want) = closure_and_basis_paper_traced(&alg, &sigma, &x);
            prop_assert_eq!(&basis, &want_basis, "N = {}, X = {}", n, alg.render(&x));
            prop_assert_eq!(&trace, &want, "N = {}, X = {}", n, alg.render(&x));
            prop_assert_eq!(
                render_trace(&alg, &sigma, &trace, &Budget::unlimited()).unwrap()
                    + &render_result(&alg, &basis),
                render_trace(&alg, &sigma, &want, &Budget::unlimited()).unwrap()
                    + &render_result(&alg, &want_basis)
            );
        }
    }

    /// Both engines against the paper-literal `SubB`-set transcription
    /// (`crosscheck` panics on any closure or block disagreement).
    #[test]
    fn engines_match_tree_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(3..=12);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let count = rng.gen_range(1..=5);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count,
                ..Default::default()
            },
        );
        for _ in 0..3 {
            let x = nalist::gen::random_subattr(&mut rng, &alg, 0.35);
            nalist_oracle::reference::crosscheck(&alg, &sigma, &x);
        }
    }

    /// Parallel batch membership answers exactly like one-at-a-time
    /// queries, at several thread counts.
    #[test]
    fn batch_membership_matches_sequential(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=24);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let count = rng.gen_range(1..=8);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count,
                ..Default::default()
            },
        );
        let mut reasoner = Reasoner::new(&n);
        for d in &sigma {
            reasoner.add(d.decompile(&alg)).expect("generated Σ compiles");
        }
        let deps: Vec<Dependency> = (0..12)
            .map(|_| nalist::gen::random_dep(&mut rng, &alg, 0.35, 0.5).decompile(&alg))
            .collect();
        let sequential: Vec<bool> = deps
            .iter()
            .map(|d| reasoner.implies(d).expect("round-tripped deps compile"))
            .collect();
        for threads in [1usize, 2, 4] {
            let fresh = reasoner.clone();
            let batch: Vec<bool> = fresh
                .implies_batch_governed_with(
                    &deps,
                    &Budget::unlimited(),
                    std::num::NonZeroUsize::new(threads).unwrap(),
                )
                .expect("round-tripped deps compile")
                .into_iter()
                .map(|v| v.expect("an unlimited batch answers every item"))
                .collect();
            prop_assert_eq!(&batch, &sequential, "threads = {}", threads);
        }
    }
}
