//! End-to-end properties of the certificate pipeline (experiment E-CERT
//! of DESIGN.md): every engine answer — positive, negative, or a full
//! dependency basis — serialises to a portable JSON certificate that the
//! independent trusted checker accepts; every single-field corruption of
//! such a certificate is rejected; and verdicts are invariant under
//! resource governance.
//!
//! Structured inputs are derived from proptest-generated seeds through
//! the deterministic generators in `nalist-gen`, mirroring
//! `tests/properties.rs`. The golden test at the end pins the exact
//! JSON bytes of one certificate of each kind — regenerate with
//! `UPDATE_GOLDENS=1 cargo test -p nalist --test certificates` after an
//! intentional format change and review the diff.

use nalist::check::{verify, Certificate, CheckError, Report, Verdict};
use nalist::deps::{CompiledDep, ProofDag};
use nalist::gen::{certificate_defects, render_sigma, SigmaConfig};
use nalist::membership::cert::{
    answer, basis_certificate, implied_certificate, refuted_certificate,
};
use nalist::membership::{certified_closure_and_basis, certify_governed, refute_governed};
use nalist::prelude::*;
use nalist_oracle::passes::closure_and_basis_paper;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random reasoning problem: schema, `Σ`, and their file sources.
struct Problem {
    alg: Algebra,
    sigma: Vec<CompiledDep>,
    schema_src: String,
    deps_src: String,
}

fn problem(rng: &mut StdRng) -> Problem {
    let atoms = rng.gen_range(2..=10);
    let n = nalist::gen::attr_with_atoms(rng, atoms);
    let alg = Algebra::new(&n);
    let cfg = SigmaConfig {
        count: rng.gen_range(1..=4),
        ..SigmaConfig::default()
    };
    let sigma = nalist::gen::random_sigma(rng, &alg, &cfg);
    let schema_src = n.to_string();
    let deps_src = render_sigma(&alg, &sigma);
    Problem {
        alg,
        sigma,
        schema_src,
        deps_src,
    }
}

/// Asks the engine about `query` and emits the matching certificate.
fn certificate_for(p: &Problem, query: &CompiledDep) -> Certificate {
    let unlimited = Budget::unlimited();
    answer(&p.alg, &p.sigma, query, &unlimited)
        .expect("compiled queries are downward closed")
        .certificate(&unlimited)
        .expect("every answer carries its evidence")
}

/// A schema of 32–64 atoms with `read-cold`'s densities, where
/// dependencies fire: `Σ` of 32–64 dependencies with left-hand sides at
/// 0.05, right-hand sides at 0.3 and FD share 0.1. Targets are drawn
/// by [`firing_target`].
fn firing_workload(rng: &mut StdRng) -> (Algebra, Vec<CompiledDep>) {
    let atoms = rng.gen_range(32..=64);
    let n = nalist::gen::attr_with_atoms(rng, atoms);
    let alg = Algebra::new(&n);
    let count = rng.gen_range(32..=64);
    let sigma = (0..count)
        .map(|_| nalist::gen::random_nontrivial_dep(rng, &alg, 0.05, 0.3, 0.1))
        .collect();
    (alg, sigma)
}

fn firing_target(rng: &mut StdRng, alg: &Algebra) -> CompiledDep {
    nalist::gen::random_nontrivial_dep(rng, alg, 0.3, 0.3, 0.5)
}

/// What one of the two halves settled a target with.
enum Evidence {
    Derivation(ProofDag),
    Witness(Witness),
}

/// The evidence the two halves give when combined: `certify_governed`,
/// then `refute_governed` for a target it does not imply
/// (`certify_first`, the order perfbench and `/cert` used), or the other
/// way round (the order `decide --cert` used), each under `budget`.
fn combination(
    alg: &Algebra,
    sigma: &[CompiledDep],
    target: &CompiledDep,
    budget: &Budget,
    certify_first: bool,
) -> Evidence {
    let prove = || {
        certify_governed(alg, sigma, target, budget)
            .expect("certify")
            .map(Evidence::Derivation)
    };
    let refute = || {
        refute_governed(alg, sigma, target, budget)
            .expect("refute")
            .map(Evidence::Witness)
    };
    let settled = if certify_first {
        prove().or_else(refute)
    } else {
        refute().or_else(prove)
    };
    settled.expect("one half settles every target")
}

/// One decision per target, the same bytes: the answer path's
/// certificate equals perfbench's combination
/// (`certify_governed` → `implied_certificate`, else `refute_governed` →
/// `refuted_certificate`), and in both orders the answer path spends
/// exactly one worklist run's steps less wherever the combination ran
/// Algorithm 5.1 twice (a refuted target certify-first, an implied one
/// refute-first), and the same fuel elsewhere.
fn assert_one_run_same_bytes(
    alg: &Algebra,
    sigma: &[CompiledDep],
    target: &CompiledDep,
) -> Result<(), TestCaseError> {
    let unlimited = Budget::unlimited();
    let run =
        nalist::membership::worklist::run(alg, sigma, &target.lhs, &unlimited, nalist::obs::noop());
    let steps = run.expect("targets are downward closed").steps;
    let budget = Budget::unlimited();
    let answered = answer(alg, sigma, target, &budget).expect("targets are downward closed");
    let implied = answered.implied();
    let json = answered
        .certificate(&budget)
        .expect("certificate")
        .to_json();
    for certify_first in [true, false] {
        let combined = Budget::unlimited();
        let evidence = combination(alg, sigma, target, &combined, certify_first);
        if certify_first {
            let cert = match evidence {
                Evidence::Derivation(dag) => implied_certificate(alg, sigma, target, &dag),
                Evidence::Witness(w) => refuted_certificate(alg, sigma, target, &w),
            };
            prop_assert_eq!(&cert.to_json(), &json);
        }
        let saved = if implied != certify_first { steps } else { 0 };
        prop_assert_eq!(
            combined.spent(),
            budget.spent() + saved,
            "certify_first {}, implied {}",
            certify_first,
            implied
        );
    }
    Ok(())
}

/// The checker must not accept any single-field mutation of an accepted
/// certificate.
fn assert_all_mutations_rejected(p: &Problem, cert: &Certificate) -> Result<(), TestCaseError> {
    let doc = cert.to_json();
    let defects = certificate_defects(&doc);
    prop_assert!(!defects.is_empty());
    for defect in defects {
        let verdict = match Certificate::from_json(&defect.doc) {
            Err(_) => continue, // rejected at the format layer
            Ok(mutated) => verify(&p.schema_src, &p.deps_src, &mutated, &Budget::unlimited()),
        };
        prop_assert!(
            verdict.is_err(),
            "mutation {} was accepted: {}",
            defect.label,
            defect.doc
        );
    }
    Ok(())
}

/// Verdicts must be invariant under governance: any fuel allowance
/// either reproduces the ungoverned report exactly or fails with a typed
/// resource error — never a different verdict.
fn assert_governance_invariant(
    p: &Problem,
    cert: &Certificate,
    ungoverned: &Report,
) -> Result<(), TestCaseError> {
    for fuel in [0, 1, 10, 1_000, 1_000_000_000] {
        match verify(
            &p.schema_src,
            &p.deps_src,
            cert,
            &Budget::unlimited().with_fuel(fuel),
        ) {
            Ok(report) => prop_assert_eq!(&report, ungoverned),
            Err(e) => prop_assert!(e.is_resource(), "fuel {fuel}: {e}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `implies` answers of both polarities round-trip: emit → JSON →
    /// parse → independent check, with the engine's verdict preserved.
    #[test]
    fn engine_answers_round_trip_through_the_checker(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = problem(&mut rng);
        let query = nalist::gen::random_dep(&mut rng, &p.alg, 0.4, 0.5);
        let engine_says = implies(&p.alg, &p.sigma, &query);

        let cert = certificate_for(&p, &query);
        prop_assert_eq!(
            cert.verdict,
            if engine_says { Verdict::Implied } else { Verdict::NotImplied }
        );

        // the wire format round-trips …
        let reparsed = Certificate::from_json(&cert.to_json()).expect("reparse");
        prop_assert_eq!(&reparsed, &cert);
        // … and the independent checker agrees with the engine
        let report = verify(&p.schema_src, &p.deps_src, &reparsed, &Budget::unlimited())
            .expect("emitted certificate must be accepted");
        prop_assert_eq!(report.verdict, cert.verdict);

        assert_governance_invariant(&p, &cert, &report)?;
        assert_all_mutations_rejected(&p, &cert)?;
    }

    /// `dependency_basis` answers round-trip the same way.
    #[test]
    fn basis_certificates_round_trip_through_the_checker(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = problem(&mut rng);
        let x = nalist::gen::random_subattr(&mut rng, &p.alg, 0.4);
        let cb = certified_closure_and_basis(&p.alg, &p.sigma, &x).expect("basis");
        let cert = basis_certificate(&p.alg, &p.sigma, &x, &cb);

        let reparsed = Certificate::from_json(&cert.to_json()).expect("reparse");
        prop_assert_eq!(&reparsed, &cert);
        let report = verify(&p.schema_src, &p.deps_src, &reparsed, &Budget::unlimited())
            .expect("emitted basis certificate must be accepted");
        prop_assert_eq!(report.verdict, Verdict::Derived);
        prop_assert!(report.nodes > cb.block_nodes.len());

        assert_governance_invariant(&p, &cert, &report)?;
        assert_all_mutations_rejected(&p, &cert)?;
    }

    /// A certificate issued for one problem must not verify against a
    /// materially different one (schema or `Σ` swapped underneath it).
    #[test]
    fn certificates_do_not_transfer_between_problems(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = problem(&mut rng);
        let query = nalist::gen::random_dep(&mut rng, &p.alg, 0.4, 0.5);
        let cert = certificate_for(&p, &query);

        // swap Σ for a strictly larger one: the embedded Σ no longer matches
        let mut grown = p.deps_src.clone();
        grown.push_str(&nalist::gen::random_dep(&mut rng, &p.alg, 0.9, 1.0).render(&p.alg));
        grown.push('\n');
        let swapped_sigma = verify(&p.schema_src, &grown, &cert, &Budget::unlimited());
        prop_assert!(matches!(swapped_sigma, Err(CheckError::SigmaMismatch { .. })));

        // swap the schema for a structurally different one
        let other = "Zz(Q1, Q2, Q3)";
        if p.schema_src != other {
            let swapped_schema = verify(other, "", &cert, &Budget::unlimited());
            prop_assert!(matches!(
                swapped_schema,
                Err(CheckError::SchemaMismatch { .. } | CheckError::SigmaMismatch { .. })
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Certificates replay the worklist engine's firing trail, so they
    /// are tested where dependencies fire ([`firing_workload`]). For every
    /// target the verdict matches `implies`, every derivation checks and
    /// concludes its target, the certified basis is the paper engine's
    /// with each node concluding `X → X⁺` or `X ↠ W`, and the trail is
    /// what it claims: its distinct entries are the fired set, and it is
    /// no longer than `|N| + |MaxB(N)|`, since each firing grows `X⁺` or
    /// refines the partition.
    #[test]
    fn certificates_replay_the_firing_trail_where_dependencies_fire(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (alg, sigma) = firing_workload(&mut rng);
        let max_trail = alg.atom_count() + alg.max_mask().count();
        let unlimited = Budget::unlimited();
        let mut fired = 0;
        for _ in 0..6 {
            let target = firing_target(&mut rng, &alg);
            let x = &target.lhs;

            let run = nalist::membership::worklist::run(&alg, &sigma, x, &unlimited, nalist::obs::noop())
                .expect("targets are downward closed");
            prop_assert!(run.trail.len() <= max_trail, "trail of {} > {max_trail}", run.trail.len());
            let mut distinct = run.trail.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(&distinct, &run.fired);
            fired += run.trail.len();

            let proof = certify_governed(&alg, &sigma, &target, &unlimited).expect("certify");
            prop_assert_eq!(proof.is_some(), implies(&alg, &sigma, &target));
            if let Some(dag) = proof {
                let root = dag.check(&alg, &sigma).expect("derivation checks");
                prop_assert_eq!(root, &target);
            }

            let cb = certified_closure_and_basis(&alg, &sigma, x).expect("basis certifies");
            prop_assert_eq!(&cb.basis, &closure_and_basis_paper(&alg, &sigma, x));
            cb.dag.check(&alg, &sigma).expect("basis derivation checks");
            prop_assert_eq!(cb.dag.conclusion(cb.closure_node), &CompiledDep::fd(x.clone(), cb.basis.closure.clone()));
            prop_assert_eq!(cb.block_nodes.len(), cb.basis.blocks.len());
            for (w, &node) in cb.basis.blocks.iter().zip(&cb.block_nodes) {
                prop_assert_eq!(cb.dag.conclusion(node), &CompiledDep::mvd(x.clone(), w.clone()));
            }
        }
        // the densities make dependencies fire, so the replay has work
        prop_assert!(fired > 0, "no dependency fired for any target");
    }

    /// The answer path decides each target with one run of Algorithm 5.1
    /// and emits exactly the bytes of the two halves combined, on small
    /// problems (both verdicts common) and where dependencies fire
    /// ([`firing_workload`]). There, refuted targets with more than six
    /// free blocks are skipped, as perfbench skips them: their `2^k`-tuple
    /// witness is verified against every member of `Σ` on each of the
    /// three paths.
    #[test]
    fn one_run_answers_match_the_combined_halves(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = problem(&mut rng);
        for _ in 0..8 {
            let query = nalist::gen::random_dep(&mut rng, &p.alg, 0.4, 0.5);
            assert_one_run_same_bytes(&p.alg, &p.sigma, &query)?;
        }
        let (alg, sigma) = firing_workload(&mut rng);
        for _ in 0..4 {
            let target = firing_target(&mut rng, &alg);
            let basis = nalist::membership::closure_and_basis(&alg, &sigma, &target.lhs);
            let refuted = !implies(&alg, &sigma, &target);
            if refuted && basis.free_blocks().len() > 6 {
                continue;
            }
            assert_one_run_same_bytes(&alg, &sigma, &target)?;
        }
    }
}

/// The paper's running example, pinned byte for byte: one certificate of
/// each kind. This is the format-stability contract — any diff here is a
/// wire-format change and must be deliberate (and, if an existing field
/// changes meaning, version-bumped).
#[test]
fn certificate_json_matches_golden() {
    let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
    let alg = Algebra::new(&n);
    let sigma: Vec<CompiledDep> =
        nalist::deps::parse_sigma(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
            .unwrap()
            .into_iter()
            .map(|d| d.compile(&alg).unwrap())
            .collect();
    let p = Problem {
        schema_src: n.to_string(),
        deps_src: render_sigma(&alg, &sigma),
        alg,
        sigma,
    };
    let compile = |s: &str| Dependency::parse(&n, s).unwrap().compile(&p.alg).unwrap();

    let implied = certificate_for(&p, &compile("Pubcrawl(Person) -> Pubcrawl(Visit[λ])"));
    assert_eq!(implied.verdict, Verdict::Implied);
    let refuted = certificate_for(
        &p,
        &compile("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"),
    );
    assert_eq!(refuted.verdict, Verdict::NotImplied);
    let x = p
        .alg
        .from_attr(&parse_subattr_of(&n, "Pubcrawl(Person)").unwrap())
        .unwrap();
    let cb = certified_closure_and_basis(&p.alg, &p.sigma, &x).unwrap();
    let basis = basis_certificate(&p.alg, &p.sigma, &x, &cb);

    // determinism self-check: emission must not depend on iteration order
    assert_eq!(
        certificate_for(&p, &compile("Pubcrawl(Person) -> Pubcrawl(Visit[λ])")).to_json(),
        implied.to_json()
    );

    let mut doc = String::new();
    for (kind, cert) in [
        ("implied", &implied),
        ("refuted", &refuted),
        ("basis", &basis),
    ] {
        // each certificate is accepted before being pinned
        verify(&p.schema_src, &p.deps_src, cert, &Budget::unlimited()).unwrap();
        doc.push_str("# ");
        doc.push_str(kind);
        doc.push('\n');
        doc.push_str(&cert.to_json());
        doc.push('\n');
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/cli_fixtures/certificate_schema.golden");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        doc, expected,
        "certificate wire format changed; rerun with UPDATE_GOLDENS=1 if intentional"
    );
}

/// The v1 documents pinned in the golden files stay parseable and
/// verifiable forever — a reparse guard independent of the emitter.
/// `certificate_schema_pass_engine.golden` holds the implied and basis
/// documents of the earlier certifier, which re-ran Algorithm 5.1's
/// REPEAT-UNTIL passes and so recorded every visited step, not only the
/// fired ones: certificates from earlier builds must stay accepted.
#[test]
fn golden_certificates_reparse_and_verify() {
    let schema = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";
    let deps = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n";
    let mut seen = 0;
    for file in [
        "certificate_schema.golden",
        "certificate_schema_pass_engine.golden",
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/cli_fixtures")
            .join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let cert = Certificate::from_json(line).expect("golden certificate parses");
            verify(schema, deps, &cert, &Budget::unlimited())
                .unwrap_or_else(|e| panic!("{file}: golden certificate rejected: {e}"));
            seen += 1;
        }
    }
    assert_eq!(seen, 5);
}
