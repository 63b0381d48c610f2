//! Property-based tests (experiments E-THM44 and E-THM46 of DESIGN.md):
//! Brouwerian laws on random algebras, soundness of all 14 inference
//! rules on random instances, Theorem 4.4 (MVD ⟺ lossless join), and
//! soundness of the membership algorithm against random data.
//!
//! Structured inputs are derived from proptest-generated seeds through
//! the deterministic generators in `nalist-gen`.

use nalist::deps::rules::{apply, Rule, ALL_RULES};
use nalist::gen::attr_gen::{REPEATED_LABELS, REPEATED_NAMES};
use nalist::prelude::*;
use nalist::types::display::Loose;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sub(rng: &mut StdRng, alg: &Algebra) -> AtomSet {
    nalist::gen::random_subattr(rng, alg, 0.4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Brouwerian adjunction and lattice identities on random algebras
    /// and random element triples.
    #[test]
    fn brouwerian_laws_hold(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=24);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        for _ in 0..20 {
            let a = sub(&mut rng, &alg);
            let b = sub(&mut rng, &alg);
            let c = sub(&mut rng, &alg);
            // adjunction: a ∸ b ≤ c ⟺ a ≤ b ⊔ c
            prop_assert_eq!(alg.le(&alg.pdiff(&a, &b), &c), alg.le(&a, &alg.join(&b, &c)));
            // distributivity
            prop_assert_eq!(
                alg.meet(&a, &alg.join(&b, &c)),
                alg.join(&alg.meet(&a, &b), &alg.meet(&a, &c))
            );
            // X = X^CC ⊔ (X ⊓ X^C)
            prop_assert_eq!(
                a.clone(),
                alg.join(&alg.cc(&a), &alg.meet(&a, &alg.compl(&a)))
            );
            // complement characterisation: a ⊔ a^C = N
            prop_assert_eq!(alg.join(&a, &alg.compl(&a)), alg.top_set());
        }
    }

    /// Tree-level algebra (Definition 3.8 verbatim) agrees with the
    /// bitset engine on random inputs.
    #[test]
    fn tree_and_bitset_engines_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=20);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        for _ in 0..10 {
            let a = sub(&mut rng, &alg);
            let b = sub(&mut rng, &alg);
            let at = alg.to_attr(&a);
            let bt = alg.to_attr(&b);
            let join = nalist_oracle::treealg::tree_join(&at, &bt).unwrap();
            let meet = nalist_oracle::treealg::tree_meet(&at, &bt).unwrap();
            let pdiff = nalist_oracle::treealg::tree_pdiff(&at, &bt).unwrap();
            prop_assert_eq!(alg.from_attr(&join).unwrap(), alg.join(&a, &b));
            prop_assert_eq!(alg.from_attr(&meet).unwrap(), alg.meet(&a, &b));
            prop_assert_eq!(alg.from_attr(&pdiff).unwrap(), alg.pdiff(&a, &b));
        }
    }

    /// Parser/printer round-trip: `Algebra::render` prints what the
    /// tree-level `abbreviate` prints, and the parser reads it back, for
    /// random subattributes of schemas of 1–128 atoms.
    #[test]
    fn abbreviation_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=128);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        for _ in 0..10 {
            let density = rng.gen_range(0.05..0.9);
            let a = nalist::gen::random_subattr(&mut rng, &alg, density);
            render_agrees(&n, &alg, &a)?;
        }
    }

    /// The same on schemas whose siblings repeat labels, where a record
    /// whose abbreviation is ambiguous prints every component.
    #[test]
    fn abbreviation_round_trips_with_repeated_labels(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = nalist::gen::repetitive_attr(&mut rng, 3);
        let alg = Algebra::new(&n);
        for _ in 0..10 {
            let a = sub(&mut rng, &alg);
            render_agrees(&n, &alg, &a)?;
        }
    }

    /// Every one of the 14 inference rules is sound: on a random instance,
    /// whenever the premises are satisfied, so is the conclusion.
    #[test]
    fn all_rules_sound_on_random_instances(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=8);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 10, domain_size: 2, max_list_len: 2 },
        );
        for _ in 0..40 {
            let rule = ALL_RULES[rng.gen_range(0..ALL_RULES.len())];
            let p1 = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let p2 = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let x = sub(&mut rng, &alg);
            let y = sub(&mut rng, &alg);
            let premises: Vec<&CompiledDep> = match rule.arity() {
                0 => vec![],
                1 => vec![&p1],
                _ => vec![&p1, &p2],
            };
            let params: Vec<&AtomSet> = match rule {
                Rule::FdReflexivity | Rule::MvdReflexivity => vec![&x, &y],
                Rule::FdExtension => vec![&x],
                Rule::MvdAugmentation => vec![&x, &y],
                _ => vec![],
            };
            if let Some(conclusion) = apply(&alg, rule, &premises, &params) {
                let premises_hold = premises.iter().all(|p| r.satisfies(&alg, p));
                if premises_hold {
                    prop_assert!(
                        r.satisfies(&alg, &conclusion),
                        "rule {} unsound: premises {:?} hold on\n{}\nbut conclusion {} fails",
                        rule.name(),
                        premises.iter().map(|p| p.render(&alg)).collect::<Vec<_>>(),
                        r,
                        conclusion.render(&alg)
                    );
                }
            }
        }
    }

    /// Theorem 4.4, corrected (see the erratum note in
    /// `nalist-deps::join`): `r ⊨ X ↠ Y` iff the decomposition is
    /// lossless AND `r ⊨ X → Y ⊓ Y^C`. The paper's bare iff fails when
    /// the mixed-meet FD is violated; satisfaction ⟹ losslessness always
    /// holds.
    #[test]
    fn mvd_iff_lossless_join_and_mixed_meet_fd(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=8);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 8, domain_size: 2, max_list_len: 2 },
        );
        for _ in 0..10 {
            let x = sub(&mut rng, &alg);
            let y = sub(&mut rng, &alg);
            let sat = r.satisfies_mvd(&alg, &x, &y);
            let lossless =
                nalist::deps::join::lossless_decomposition(&alg, &r, &x, &y).unwrap();
            let mixed = alg.meet(&y, &alg.compl(&y));
            let fd = r.satisfies_fd(&alg, &x, &mixed);
            prop_assert_eq!(
                sat,
                lossless && fd,
                "X = {}, Y = {}",
                alg.render(&x),
                alg.render(&y)
            );
            // the paper's stated direction: satisfaction ⟹ losslessness
            if sat {
                prop_assert!(lossless);
            }
        }
    }

    /// The erratum's minimal counterexample, pinned: on N = L[A] with
    /// r = {[], [a]}, the decomposition along λ ↠ L[λ] is lossless yet
    /// the MVD is violated.
    #[test]
    fn theorem_44_converse_counterexample(_unit in proptest::strategy::Just(())) {
        let n = parse_attr("L[A]").unwrap();
        let alg = Algebra::new(&n);
        let r = {
            let mut r = Instance::new(n.clone());
            r.insert_str("[]").unwrap();
            r.insert_str("[a]").unwrap();
            r
        };
        let x = alg.bottom_set();
        let y = alg.from_attr(&parse_subattr_of(&n, "L[λ]").unwrap()).unwrap();
        prop_assert!(!r.satisfies_mvd(&alg, &x, &y));
        prop_assert!(nalist::deps::join::lossless_decomposition(&alg, &r, &x, &y).unwrap());
    }

    /// Soundness of the decision procedure end-to-end: if `Σ ⊨ σ` then no
    /// random instance satisfying `Σ` violates `σ`.
    #[test]
    fn implication_sound_on_random_data(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=7);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 2, ..Default::default() },
        );
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 8, domain_size: 2, max_list_len: 2 },
        );
        if !r.satisfies_all(&alg, &sigma) {
            return Ok(()); // only instances modelling Σ are informative
        }
        for _ in 0..10 {
            let dep = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            if nalist::membership::implies(&alg, &sigma, &dep) {
                prop_assert!(
                    r.satisfies(&alg, &dep),
                    "Σ = {:?} ⊨ {} but instance violates it:\n{}",
                    sigma.iter().map(|d| d.render(&alg)).collect::<Vec<_>>(),
                    dep.render(&alg),
                    r
                );
            }
        }
    }

    /// The completeness construction really produces Σ-satisfying
    /// instances (Section 4.2), for random Σ and random X.
    #[test]
    fn combination_instances_satisfy_sigma(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=10);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 3, ..Default::default() },
        );
        if let Some(r) = nalist::gen::satisfying_instance(&mut rng, &alg, &sigma, 0.3) {
            for d in &sigma {
                prop_assert!(
                    r.satisfies(&alg, d),
                    "combination instance violates {} for Σ = {:?}",
                    d.render(&alg),
                    sigma.iter().map(|d| d.render(&alg)).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Monotonicity and idempotence of the closure operator.
    #[test]
    fn closure_is_a_closure_operator(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=12);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 4, ..Default::default() },
        );
        let x = sub(&mut rng, &alg);
        let y = sub(&mut rng, &alg);
        let cx = closure_and_basis(&alg, &sigma, &x).closure;
        // extensive
        prop_assert!(alg.le(&x, &cx));
        // idempotent
        let ccx = closure_and_basis(&alg, &sigma, &cx).closure;
        prop_assert_eq!(&ccx, &cx);
        // monotone
        let xy = alg.join(&x, &y);
        let cxy = closure_and_basis(&alg, &sigma, &xy).closure;
        prop_assert!(alg.le(&cx, &cxy));
    }

    /// The parser never panics: arbitrary byte soup either parses or
    /// yields a structured error.
    #[test]
    fn parser_total_on_arbitrary_input(s in "\\PC{0,60}") {
        let _ = nalist::types::parser::parse_attr(&s);
        let _ = nalist::types::parser::parse_value(&s);
        let _ = nalist::types::parser::parse_loose(&s);
        let n = parse_attr("L(A, B, M[C])").unwrap();
        let _ = nalist::types::parser::parse_subattr_of(&n, &s);
        let _ = Dependency::parse(&n, &s);
    }

    /// Full attributes round-trip through Display/parse.
    #[test]
    fn attr_display_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=25);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let printed = n.to_string();
        let reparsed = nalist::types::parser::parse_attr(&printed).unwrap();
        prop_assert_eq!(reparsed, n);
    }

    /// Values round-trip through Display/parse (string domains only, as
    /// produced by the witness builder and generators).
    #[test]
    fn value_display_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=12);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let v = nalist::gen::random_value(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig::default(),
        );
        let printed = v.to_string();
        let reparsed = parse_value(&printed).unwrap();
        prop_assert_eq!(reparsed, v);
    }

    /// Certified membership agrees with the plain decision procedure and
    /// every emitted certificate re-verifies.
    #[test]
    fn certificates_check_and_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=10);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 3, ..Default::default() },
        );
        for _ in 0..5 {
            let target = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let plain = nalist::membership::implies(&alg, &sigma, &target);
            match certify(&alg, &sigma, &target).expect("random targets certify cleanly") {
                Some(dag) => {
                    prop_assert!(plain);
                    let root = dag.check(&alg, &sigma).expect("certificate must check");
                    prop_assert_eq!(root, &target);
                }
                None => prop_assert!(!plain),
            }
        }
    }

    /// The chase either produces a superset satisfying every MVD, or
    /// fails `Unrepairable` — and then the offending MVD's mixed-meet FD
    /// `X → Y ⊓ Y^C` is genuinely violated by the input instance.
    #[test]
    fn chase_repairs_or_blames_mixed_meet(seed in any::<u64>()) {
        use nalist::deps::chase::{chase, ChaseError};
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=6);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        // MVD-only Σ
        let sigma: Vec<CompiledDep> = (0..2)
            .map(|_| {
                let d = nalist::gen::random_dep(&mut rng, &alg, 0.35, 0.0);
                CompiledDep::mvd(d.lhs, d.rhs)
            })
            .collect();
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 5, domain_size: 2, max_list_len: 2 },
        );
        match chase(&alg, &sigma, &r, 4096) {
            Ok(out) => {
                prop_assert!(out.instance.satisfies_all(&alg, &sigma));
                prop_assert!(out.instance.len() >= r.len());
                for t in r.iter() {
                    prop_assert!(out.instance.contains(t));
                }
            }
            Err(ChaseError::Unrepairable { index, t1, t2 }) => {
                // the witness pair (possibly from a partially chased
                // state) agrees on X but differs on the mixed-meet part —
                // a violation of the FD X → Y⊓Y^C that the mixed meet
                // rule derives from the offending MVD
                use nalist::types::projection::project;
                let d = &sigma[index];
                let x_attr = alg.to_attr(&d.lhs);
                let mixed = alg.to_attr(&alg.meet(&d.rhs, &alg.compl(&d.rhs)));
                prop_assert_eq!(
                    project(&n, &x_attr, &t1).unwrap(),
                    project(&n, &x_attr, &t2).unwrap()
                );
                prop_assert_ne!(
                    project(&n, &mixed, &t1).unwrap(),
                    project(&n, &mixed, &t2).unwrap()
                );
            }
            Err(ChaseError::TooLarge { .. }) => {} // bound hit; fine
            Err(e) => prop_assert!(false, "unexpected chase error: {e}"),
        }
    }

    /// The dependency-basis blocks partition the maximal atoms, and every
    /// block is ^CC-closed.
    #[test]
    fn basis_blocks_partition_maximal_atoms(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=14);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 4, ..Default::default() },
        );
        let x = sub(&mut rng, &alg);
        let basis = closure_and_basis(&alg, &sigma, &x);
        let mut seen = alg.bottom_set();
        for w in &basis.blocks {
            prop_assert!(alg.is_downward_closed(w));
            prop_assert_eq!(&alg.cc(w), w, "block not ^CC-closed: {}", alg.render(w));
            let maxima = alg.maximal_atoms_of(w);
            prop_assert!(!maxima.intersects(&seen), "blocks overlap on maximal atoms");
            seen.union_with(&maxima);
        }
        prop_assert_eq!(&seen, alg.max_mask(), "blocks do not cover MaxB(N)");
    }

    /// Observability is pure observation: the worklist engine and the
    /// chase return bit-identical results whether the recorder is the
    /// no-op or a live [`MetricsRecorder`] — and the live recorder's
    /// counters reflect the work actually done.
    #[test]
    fn observed_runs_are_bit_identical_to_unobserved_runs(seed in any::<u64>()) {
        use nalist::obs::{noop, Counter, MetricsRecorder};

        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=14);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 4, ..Default::default() },
        );
        let budget = Budget::unlimited();
        let metrics = MetricsRecorder::new();
        let mut total_steps = 0u64;
        for _ in 0..5 {
            let x = alg.downward_closure(&sub(&mut rng, &alg));
            let plain = nalist::membership::worklist::run(&alg, &sigma, &x, &budget, noop())
                .expect("noop-observed run succeeds");
            let via_metrics = nalist::membership::worklist::run(&alg, &sigma, &x, &budget, &metrics)
                .expect("metrics-observed run succeeds");
            prop_assert_eq!(&plain, &via_metrics);
            total_steps += plain.steps;
        }
        prop_assert_eq!(metrics.counter(Counter::WorklistSteps), total_steps);

        let instance = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 4, ..Default::default() },
        );
        let plain = nalist::deps::chase::chase_governed(&alg, &sigma, &instance, 1 << 12, &budget);
        let via_noop = nalist::deps::chase::chase_observed(
            &alg, &sigma, &instance, 1 << 12, &budget, noop(),
        );
        let via_metrics = nalist::deps::chase::chase_observed(
            &alg, &sigma, &instance, 1 << 12, &budget, &metrics,
        );
        match (plain, via_noop, via_metrics) {
            (Ok(a), Ok(b), Ok(c)) => {
                prop_assert_eq!(&a.instance, &b.instance);
                prop_assert_eq!(&a.instance, &c.instance);
                prop_assert_eq!((a.rounds, a.added), (b.rounds, b.added));
                prop_assert_eq!((a.rounds, a.added), (c.rounds, c.added));
                prop_assert_eq!(
                    metrics.counter(Counter::ChaseRounds),
                    a.rounds as u64
                );
            }
            (Err(a), Err(b), Err(c)) => {
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(&a, &c);
            }
            _ => prop_assert!(false, "observed and unobserved chase disagree on success"),
        }
    }
}

/// `Algebra::render` of `x` against the tree-level reference
/// `abbreviate`, with the parser reading the text back. Returns whether
/// the text is not the maximal abbreviation, that is, whether some
/// record fell back to printing every component.
fn render_agrees(n: &NestedAttr, alg: &Algebra, x: &AtomSet) -> Result<bool, TestCaseError> {
    use nalist::types::display::{abbreviate, to_loose};
    let tree = alg.to_attr(x);
    let text = alg.render(x);
    prop_assert_eq!(&text, &abbreviate(&tree, n), "in {}", n);
    prop_assert_eq!(
        parse_subattr_of(n, &text),
        Ok(tree.clone()),
        "{} in {}",
        text,
        n
    );
    Ok(text != to_loose(&tree, n).to_string())
}

/// The repeated-label schemas reach the full-arity fallback, so the
/// property above cannot pass with the fallback deleted.
#[test]
fn renderer_oracle_takes_the_fallback() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut fallbacks = 0;
    for _ in 0..64 {
        let n = nalist::gen::repetitive_attr(&mut rng, 3);
        let alg = Algebra::new(&n);
        for _ in 0..8 {
            let x = sub(&mut rng, &alg);
            fallbacks += usize::from(render_agrees(&n, &alg, &x).unwrap());
        }
    }
    assert!(fallbacks > 0);
}

fn pick(rng: &mut StdRng, pool: &[&'static str]) -> &'static str {
    pool[rng.gen_range(0..pool.len())]
}

/// A random loose term shaped mostly like `n`: λs, subsequences of record
/// components, and now and then a name, label or extra component that
/// does not fit.
fn loose_near<'a>(rng: &mut StdRng, n: &'a NestedAttr) -> Loose<'a> {
    match rng.gen_range(0..12) {
        0 => return Loose::Lambda,
        1 => return Loose::Flat(pick(rng, &REPEATED_NAMES)),
        _ => {}
    }
    let label = |rng: &mut StdRng, l: &'a str| {
        if rng.gen_bool(0.9) {
            l
        } else {
            pick(rng, &REPEATED_LABELS)
        }
    };
    match n {
        NestedAttr::Null => Loose::Lambda,
        NestedAttr::Flat(a) => Loose::Flat(a),
        NestedAttr::List(l, inner) => Loose::List(label(rng, l), Box::new(loose_near(rng, inner))),
        NestedAttr::Record(l, cs) => {
            let mut kept = Vec::new();
            for c in cs {
                if rng.gen_bool(0.6) {
                    kept.push(loose_near(rng, c));
                }
            }
            if kept.is_empty() || rng.gen_bool(0.1) {
                let c = &cs[rng.gen_range(0..cs.len())];
                kept.push(loose_near(rng, c));
            }
            Loose::Record(label(rng, l), kept)
        }
    }
}

/// The outcome classes the resolver oracle must cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Resolved {
    NoMatch,
    Unique,
    Ambiguous,
    Saturated,
}

/// `resolve_loose` (one counting pass plus one DP walk) against the
/// reference pair `count_resolutions` + `resolutions`; small counts are
/// also enumerated in full, which checks the count independently. The
/// atom emitter runs on every case too: on success its set is
/// `from_attr` of the tree, on failure its error is the tree path's, and
/// the first resolution's atoms are those of the first enumerated one.
fn resolver_agrees_with_oracle(n: &NestedAttr, d: &Loose) -> Result<Resolved, TestCaseError> {
    use nalist::types::display::{
        count_resolutions, first_resolution, first_resolution_atoms, resolutions,
    };
    use nalist::types::parser::resolve_loose_atoms;
    let src = d.to_string();
    let count = count_resolutions(d, n);
    let got = nalist::types::parser::resolve_loose(n, d, &src);
    let alg = Algebra::new(n);
    let tree_set = got
        .clone()
        .map(|x| alg.from_attr(&x).expect("resolutions are ≤ N"));
    let mut set = AtomSet::empty(alg.atom_count());
    let emitted = resolve_loose_atoms(n, d, &src, |a| set.insert(a)).map(|()| set);
    prop_assert_eq!(&emitted, &tree_set, "{} in {}", src, n);
    let limits = ParseLimits::default();
    prop_assert_eq!(
        alg.parse_subattr(&src, limits),
        tree_set,
        "{} in {}",
        src,
        n
    );
    let class = match count {
        0 => {
            prop_assert!(
                matches!(got, Err(ParseError::NoMatch { .. })),
                "{src} in {n}: {got:?}"
            );
            Resolved::NoMatch
        }
        1 => {
            let all = resolutions(d, n);
            prop_assert_eq!(all.len(), 1, "{} in {}", src, n);
            prop_assert_eq!(&got, &Ok(all[0].clone()), "{} in {}", src, n);
            Resolved::Unique
        }
        c => {
            prop_assert!(
                matches!(got, Err(ParseError::Ambiguous { count, .. }) if count == c as usize),
                "{src} in {n}: count {c}, got {got:?}"
            );
            if c == u64::MAX {
                Resolved::Saturated
            } else {
                Resolved::Ambiguous
            }
        }
    };
    if count <= 64 {
        let all = resolutions(d, n);
        prop_assert_eq!(all.len() as u64, count, "{} in {}", src, n);
        prop_assert_eq!(first_resolution(d, n), (count, all.first().cloned()));
        let mut atoms = Vec::new();
        prop_assert_eq!(first_resolution_atoms(d, n, |a| atoms.push(a)), count);
        let first = all
            .first()
            .map(|x| alg.from_attr(x).unwrap().iter().collect::<Vec<_>>());
        prop_assert_eq!(atoms, first.unwrap_or_default(), "{} in {}", src, n);
    }
    // the text path parses the printed term back to the same outcome
    prop_assert_eq!(parse_subattr_of(n, &src), got, "{} in {}", src, n);
    Ok(class)
}

/// A wide record of mostly `A`s and a loose side of `A`s, `B`s and λs:
/// the count ranges from 0 through C(96, 48) ≫ `u64::MAX`.
fn wide_lambda_case(rng: &mut StdRng) -> (NestedAttr, Loose<'static>) {
    let k: usize = rng.gen_range(1..=96);
    let children = (0..k)
        .map(|_| NestedAttr::flat(if rng.gen_bool(0.95) { "A" } else { "B" }))
        .collect();
    let n = NestedAttr::record("W", children).expect("k ≥ 1");
    let m = match rng.gen_range(0..4) {
        0 => k,
        1 => rng.gen_range(1..=k),
        _ => rng.gen_range(k.div_ceil(3)..=k.div_ceil(2)),
    };
    let ds = (0..m)
        .map(|_| match rng.gen_range(0..10) {
            0 => Loose::Lambda,
            1 => Loose::Flat("B"),
            _ => Loose::Flat("A"),
        })
        .collect();
    (n, Loose::Record("W", ds))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The one-pass resolver yields exactly the reference outcome on
    /// random loose terms (not only printer output) over schemas that
    /// repeat names and labels.
    #[test]
    fn one_pass_resolver_matches_the_enumeration_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = nalist::gen::repetitive_attr(&mut rng, 3);
        for _ in 0..40 {
            let d = loose_near(&mut rng, &n);
            resolver_agrees_with_oracle(&n, &d)?;
        }
    }

    /// The same oracle on wide λ records, where counts saturate.
    #[test]
    fn one_pass_resolver_matches_the_oracle_on_wide_records(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let (n, d) = wide_lambda_case(&mut rng);
            resolver_agrees_with_oracle(&n, &d)?;
        }
    }
}

/// Every flat name and label of `n`, in pre-order.
fn names_of(n: &NestedAttr) -> Vec<&str> {
    fn walk<'a>(n: &'a NestedAttr, out: &mut Vec<&'a str>) {
        match n {
            NestedAttr::Null => {}
            NestedAttr::Flat(a) => out.push(a),
            NestedAttr::List(l, inner) => {
                out.push(l);
                walk(inner, out);
            }
            NestedAttr::Record(l, cs) => {
                out.push(l);
                for c in cs {
                    walk(c, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(n, &mut out);
    out
}

/// The deepest bracket nesting in `text`.
fn nesting(text: &str) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    for c in text.chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                max = max.max(depth);
            }
            ')' | ']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}

/// A random edit of a printed dependency `text` over a schema with the
/// given names, and the limits to read it under: a character deleted
/// (or the text cut there) or doubled, an identifier swapped for another
/// name, nesting one level
/// past the depth limit, the Unicode or unspaced arrows, `lambda` for
/// `λ`, or Unicode whitespace.
fn mutate(rng: &mut StdRng, names: &[&str], text: &str) -> (String, ParseLimits) {
    let limits = ParseLimits::default();
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let (at, c) = chars[rng.gen_range(0..chars.len())];
    let edited = match rng.gen_range(0..7) {
        0 if rng.gen_bool(0.2) => text[..at].to_owned(),
        0 => format!("{}{}", &text[..at], &text[at + c.len_utf8()..]),
        1 => format!("{}{c}{}", &text[..at], &text[at..]),
        2 => {
            let d = nalist::types::parser::parse_dependency_spanned(text).expect("printed");
            let idents: Vec<_> = d.lhs.idents.iter().chain(&d.rhs.idents).collect();
            if idents.is_empty() {
                return (text.to_owned(), limits);
            }
            let (_, span) = idents[rng.gen_range(0..idents.len())];
            let name = names[rng.gen_range(0..names.len())];
            format!("{}{name}{}", &text[..span.start], &text[span.end..])
        }
        3 => {
            let max_depth = nesting(text).saturating_sub(1);
            return (text.to_owned(), ParseLimits { max_depth });
        }
        4 => {
            let arrows = [("->>", "↠"), ("->", "→"), (" ->> ", "->>"), (" -> ", "->")];
            let (from, to) = arrows[rng.gen_range(0..arrows.len())];
            text.replacen(from, to, 1)
        }
        5 => text.replace(
            'λ',
            if rng.gen_bool(0.5) {
                "lambda"
            } else {
                " lambda "
            },
        ),
        _ => {
            let spaces = ['\u{a0}', '\u{2003}', '\u{3000}', '\t', '\n'];
            let space = spaces[rng.gen_range(0..spaces.len())];
            let spread = text.replace(' ', &space.to_string());
            let at = if at <= spread.len() && spread.is_char_boundary(at) {
                at
            } else {
                0
            };
            format!("{}{space}{}", &spread[..at], &spread[at..])
        }
    };
    (edited, limits)
}

/// `CompiledDep::parse` against `Dependency::parse_with` then `compile`
/// on `text`: the same set pair, or the same error.
fn compiled_parse_agrees(
    n: &NestedAttr,
    alg: &Algebra,
    text: &str,
    limits: ParseLimits,
) -> Result<Result<(), ParseError>, TestCaseError> {
    let tree = Dependency::parse_with(n, text, limits)
        .map(|d| d.compile(alg).expect("a resolved dependency compiles"));
    let compiled = CompiledDep::parse(alg, text, limits);
    prop_assert_eq!(&compiled, &tree, "{:?} in {}", text, n);
    Ok(compiled.map(drop))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The compiled parse reads every printed dependency back to the pair
    /// it was printed from, and on edited texts agrees with the tree
    /// path, errors included, on schemas of 1–128 atoms.
    #[test]
    fn compiled_parse_matches_the_tree_path(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=128);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let names = names_of(&n);
        for _ in 0..8 {
            let density = rng.gen_range(0.05..0.9);
            let c = nalist::gen::random_dep(&mut rng, &alg, density, 0.5);
            let text = c.render(&alg);
            prop_assert_eq!(
                CompiledDep::parse(&alg, &text, ParseLimits::default()),
                Ok(c),
                "{} in {}",
                text,
                n
            );
            for _ in 0..8 {
                let (edited, limits) = mutate(&mut rng, &names, &text);
                let _ = compiled_parse_agrees(&n, &alg, &edited, limits)?;
            }
        }
    }
}

/// The edits above reach success and every error the two paths can
/// meet on schemas without repeated labels, so the property cannot pass
/// on errors alone or on successes alone.
#[test]
fn compiled_parse_edits_reach_every_outcome() {
    let mut seen = std::collections::BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..64 {
        let atoms = rng.gen_range(1..=128);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let names = names_of(&n);
        let text = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5).render(&alg);
        for _ in 0..16 {
            let (edited, limits) = mutate(&mut rng, &names, &text);
            let outcome = compiled_parse_agrees(&n, &alg, &edited, limits).unwrap();
            seen.insert(match outcome {
                Ok(()) => "ok",
                Err(ParseError::Unexpected { .. }) => "unexpected",
                Err(ParseError::UnexpectedEnd { .. }) => "end",
                Err(ParseError::NoMatch { .. }) => "no match",
                Err(ParseError::Ambiguous { .. }) => "ambiguous",
                Err(ParseError::TrailingInput { .. }) => "trailing",
                Err(ParseError::TooDeep { .. }) => "too deep",
            });
        }
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        [
            "end",
            "no match",
            "ok",
            "too deep",
            "trailing",
            "unexpected"
        ]
    );
}

/// The oracle's generators reach every outcome class — unique, no
/// match, ambiguous and saturated — so the properties above cannot pass
/// vacuously.
#[test]
fn resolver_oracle_covers_every_outcome() {
    let mut seen = std::collections::BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..64 {
        let n = nalist::gen::repetitive_attr(&mut rng, 3);
        for _ in 0..8 {
            let d = loose_near(&mut rng, &n);
            seen.insert(resolver_agrees_with_oracle(&n, &d).unwrap());
        }
        let (n, d) = wide_lambda_case(&mut rng);
        seen.insert(resolver_agrees_with_oracle(&n, &d).unwrap());
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        [
            Resolved::NoMatch,
            Resolved::Unique,
            Resolved::Ambiguous,
            Resolved::Saturated
        ]
    );
}
