//! The experiment harness: regenerates every figure, worked example and
//! complexity claim of the paper as plain-text tables (the source of
//! EXPERIMENTS.md). Experiment ids refer to the per-experiment index in
//! DESIGN.md.
//!
//! Run with `cargo run --release -p nalist-bench --bin experiments`.

use nalist::algebra::lattice::{enumerate_sets, hasse_edges, sub_count};
use nalist::algebra::render::{basis_listing, full_lattice_dot};
use nalist::membership::trace::{render_result, render_trace};
use nalist::membership::witness::combination_instance;
use nalist::membership::{read_reasoner_snapshot, recover, write_reasoner_snapshot, WalOp};
use nalist::prelude::*;
use nalist::store::WalWriter;
use nalist_bench::{
    flat_workload, fmt_nanos, loglog_slope, median_nanos, nested_workload, run_closures,
    run_closures_paper,
};
use nalist_oracle::laws::verify_brouwerian;
use nalist_oracle::naive::{NaiveClosure, NaiveConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn header(id: &str, title: &str) {
    println!("\n══════════════════════════════════════════════════════════════════");
    println!("{id}  {title}");
    println!("══════════════════════════════════════════════════════════════════");
}

fn main() {
    // optional arg: run only experiments whose id contains the filter,
    // e.g. `cargo run --release -p nalist-bench --bin experiments ENGINE`
    let filter = std::env::args().nth(1);
    let experiments: &[(&str, fn())] = &[
        ("E-FIG1", fig1),
        ("E-FIG2", fig2),
        ("E-EX42", ex42),
        ("E-EX45", ex45),
        ("E-EX48", ex48),
        ("E-EX51", ex51),
        ("E-THM44", thm44_erratum),
        ("E-THM63", correctness),
        ("E-CERT", certificates),
        ("E-REF", reference_ablation),
        ("E-ENGINE", engine_speedup),
        ("E-OBS", obs_overhead),
        ("E-THM64a", scaling_n),
        ("E-THM64b", scaling_sigma),
        ("E-BASE1", vs_naive),
        ("E-OPS", ops),
        ("E-WIT", witness_table),
        ("E-CHASE", chase_table),
        ("E-MINRULES", min_rules),
        ("E-APP", apps),
        ("E-DUR", durability),
        ("E-SERVE", serve_bench),
        ("E-REPL", repl_bench),
    ];
    let mut ran = 0usize;
    for (id, f) in experiments {
        if filter.as_deref().map_or(true, |pat| id.contains(pat)) {
            f();
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no experiment id matches {:?}", filter.unwrap_or_default());
        std::process::exit(2);
    }
    println!("\nall experiments completed");
}

// ------------------------------------------------------------------ E-FIG1

fn fig1() {
    header(
        "E-FIG1",
        "Figure 1: the Brouwerian algebra of J[K(A, L[M(B, C)])]",
    );
    let n = parse_attr("J[K(A, L[M(B, C)])]").unwrap();
    let alg = Algebra::new(&n);
    let sets = enumerate_sets(&alg);
    let edges = hasse_edges(&sets);
    println!(
        "|Sub(N)| = {} (structural count: {})",
        sets.len(),
        sub_count(&n)
    );
    println!("Hasse edges = {}", edges.len());
    match verify_brouwerian(&alg, &sets) {
        Ok(()) => {
            println!("Brouwerian laws: all verified (bounds, lattice, distributivity, adjunction)");
        }
        Err(v) => println!("LAW VIOLATION: {v}"),
    }
    println!("elements:");
    let mut rendered: Vec<String> = sets.iter().map(|s| alg.render(s)).collect();
    rendered.sort_by_key(|s| s.len());
    for r in rendered {
        println!("  {r}");
    }
    let dot = full_lattice_dot(&alg);
    let path = std::env::temp_dir().join("nalist_fig1.dot");
    if std::fs::write(&path, dot).is_ok() {
        println!("DOT diagram written to {}", path.display());
    }
}

// ------------------------------------------------------------------ E-FIG2

fn fig2() {
    header(
        "E-FIG2",
        "Figure 2 / Example 4.12: subattribute basis of K[L(M[N'(A, B)], C)]",
    );
    let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
    let alg = Algebra::new(&n);
    let x = alg
        .from_attr(&parse_subattr_of(&n, "K[L(M[N'(A, B)], λ)]").unwrap())
        .unwrap();
    println!("X = {}", alg.render(&x));
    print!("{}", basis_listing(&alg, Some(&x)));
    println!("paper: X possesses K[L(M[λ])] but does not possess K[λ] — reproduced above");
}

// ------------------------------------------------------------------ E-EX42

fn ex42() {
    header(
        "E-EX42",
        "Example 4.2: satisfaction on the Pubcrawl snapshot",
    );
    let s = nalist::gen::scenarios::pubcrawl();
    let alg = Algebra::new(&s.attr);
    println!("r has {} tuples over {}", s.instance.len(), s.attr);
    for (dep, paper_says) in [
        ("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])", false),
        ("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Beer)])", false),
        ("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])", true),
        ("Pubcrawl(Person) -> Pubcrawl(Visit[λ])", true),
    ] {
        let d = Dependency::parse(&s.attr, dep).unwrap();
        let got = s.instance.satisfies_dep(&alg, &d).unwrap();
        println!(
            "r ⊨ {dep:<52} measured: {:<5} paper: {:<5} {}",
            got,
            paper_says,
            if got == paper_says {
                "✓"
            } else {
                "✗ MISMATCH"
            }
        );
    }
}

// ------------------------------------------------------------------ E-EX45

fn ex45() {
    header(
        "E-EX45",
        "Example 4.5: lossless decomposition along Person ↠ Visit[Drink(Pub)]",
    );
    let s = nalist::gen::scenarios::pubcrawl();
    let alg = Algebra::new(&s.attr);
    let d = Dependency::parse(&s.attr, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        .unwrap()
        .compile(&alg)
        .unwrap();
    let (pub_side, beer_side) = binary_split(&alg, &d);
    let p_pub = s.instance.project(&alg.to_attr(&pub_side)).unwrap();
    let p_beer = s.instance.project(&alg.to_attr(&beer_side)).unwrap();
    println!(
        "component 1 = {} ({} tuples; paper: 4)",
        alg.render(&pub_side),
        p_pub.len()
    );
    println!(
        "component 2 = {} ({} tuples; paper: 5)",
        alg.render(&beer_side),
        p_beer.len()
    );
    let ok = verify_lossless(&alg, &s.instance, &[pub_side, beer_side]).unwrap();
    println!("generalised join reconstructs r: {ok} (paper: true)");
}

// ------------------------------------------------------------------ E-EX48

fn ex48() {
    header("E-EX48", "Example 4.8: SubB / MaxB of A'(B, C[D(E, F[G])])");
    let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
    let alg = Algebra::new(&n);
    print!("{}", basis_listing(&alg, None));
    println!("paper: SubB has 5 elements, MaxB = {{A(B), A(C[D(E)]), A(C[D(F[G])])}} — reproduced");
}

// ------------------------------------------------------------------ E-EX51

fn ex51() {
    header(
        "E-EX51",
        "Example 5.1 / Figures 3–4: full Algorithm 5.1 trace",
    );
    let n =
        parse_attr("L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))").unwrap();
    let alg = Algebra::new(&n);
    let sigma: Vec<CompiledDep> = [
        "L1(L5[λ], L7(F, L8[L9(G)], I)) ->> L1(L2[L3[L4(C)]], L5[L6(E)])",
        "L1(L2[L3[λ]], L7(F)) -> L1(L2[L3[L4(A)]], L7(L8[L9(G)], I))",
        "L1(L7(F, L8[L9(L10[λ])])) ->> L1(L2[L3[λ]], L5[L6(D)])",
    ]
    .iter()
    .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
    .collect();
    let x = alg
        .from_attr(&parse_subattr_of(&n, "L1(L7(F, L8[L9(L10[H])]))").unwrap())
        .unwrap();
    let (basis, trace) = closure_and_basis_traced(&alg, &sigma, &x, &Budget::unlimited())
        .expect("X is downward closed and the budget unlimited");
    let rendered = render_trace(&alg, &sigma, &trace, &Budget::unlimited())
        .expect("an unlimited budget has no deadline");
    print!("{rendered}");
    print!("{}", render_result(&alg, &basis));
    println!(
        "paper: X+ = L1(L2[L3[L4(A)]], L5[λ], L7(F, L8[L9(G, L10[H])], I)) and a \
         13-element DepB — both reproduced ({} basis elements)",
        basis.basis.len()
    );
}

// ------------------------------------------------------------------ E-THM44 erratum

fn thm44_erratum() {
    header(
        "E-THM44",
        "Theorem 4.4 and its erratum: satisfaction vs lossless join",
    );
    let n = parse_attr("L[A]").unwrap();
    let alg = Algebra::new(&n);
    let mut r = Instance::new(n.clone());
    r.insert_str("[]").unwrap();
    r.insert_str("[a]").unwrap();
    let x = alg.bottom_set();
    let y = alg
        .from_attr(&parse_subattr_of(&n, "L[λ]").unwrap())
        .unwrap();
    let sat = r.satisfies_mvd(&alg, &x, &y);
    let lossless = nalist::deps::join::lossless_decomposition(&alg, &r, &x, &y).unwrap();
    println!("N = L[A], r = {{[], [a]}}, X = λ, Y = L[λ] (so Y^C = N):");
    println!("  r ⊨ X ↠ Y:                     {sat}");
    println!("  r = π_XY(r) ⋈ π_XY^C(r):       {lossless}");
    println!(
        "  → the paper's iff fails in the ⟸ direction; the corrected equivalence\n\
         \u{20}   (r ⊨ X↠Y ⟺ lossless ∧ r ⊨ X→Y⊓Y^C) is property-tested in tests/properties.rs"
    );
}

// ------------------------------------------------------------------ E-THM63

fn correctness() {
    header(
        "E-THM63",
        "Theorem 6.3: Algorithm 5.1 vs independent rule-closure ground truth",
    );
    let mut rng = StdRng::seed_from_u64(99);
    let mut attrs = 0usize;
    let mut verdicts = 0usize;
    let mut mismatches = 0usize;
    for round in 0..12 {
        let atoms = 3 + round % 3;
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        if sub_count(&n) > 40 {
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
        attrs += 1;
        let elements = enumerate_sets(&alg);
        for xq in &elements {
            let basis = closure_and_basis(&alg, &sigma, xq);
            for yq in &elements {
                verdicts += 2;
                if basis.fd_derivable(yq) != naive.derives(&CompiledDep::fd(xq.clone(), yq.clone()))
                {
                    mismatches += 1;
                }
                if basis.mvd_derivable(yq)
                    != naive.derives(&CompiledDep::mvd(xq.clone(), yq.clone()))
                {
                    mismatches += 1;
                }
            }
        }
    }
    println!(
        "random workloads: {attrs} attributes, {verdicts} exhaustive (X, Y, kind) verdicts \
         compared, {mismatches} mismatches"
    );
    println!(
        "paper claim: the algorithm is correct (Theorem 6.3) — {}",
        if mismatches == 0 {
            "confirmed on all sampled inputs"
        } else {
            "VIOLATED"
        }
    );
}

// ------------------------------------------------------------------ E-CERT

fn certificates() {
    header(
        "E-CERT",
        "Lemma 6.1, constructively: machine-checked certificates from Algorithm 5.1",
    );
    let mut rng = StdRng::seed_from_u64(2024);
    let mut implied = 0usize;
    let mut refuted = 0usize;
    let mut total_nodes = 0usize;
    let mut max_nodes = 0usize;
    for _ in 0..20 {
        let n = nalist::gen::attr_with_atoms(&mut rng, 8);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count: 4,
                ..Default::default()
            },
        );
        for _ in 0..10 {
            let target = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            match nalist::membership::certify(&alg, &sigma, &target)
                .expect("random targets never produce invalid rule instances")
            {
                Some(dag) => {
                    dag.check(&alg, &sigma).expect("certificate must re-verify");
                    implied += 1;
                    total_nodes += dag.len();
                    max_nodes = max_nodes.max(dag.len());
                }
                None => refuted += 1,
            }
        }
    }
    println!(
        "200 random membership queries over |N| = 8, |Σ| = 4: {implied} implied \
         (all certificates re-verified by the independent checker), {refuted} not implied"
    );
    println!(
        "certificate size: mean {} nodes, max {max_nodes} nodes — polynomial, \
         vs. the exponential search space the naive engine walks",
        total_nodes.checked_div(implied).unwrap_or(0)
    );
    // the overhead where dependencies fire: read-cold-shaped left-hand
    // sides (|Σ| = 64, left-hand sides at density 0.05), where a closure
    // fires about a dozen dependencies and the replay has work to do
    let cw = nalist_bench::cold_query_workload(7, 32, 64, 32);
    let (alg, sigma) = (cw.reasoner.algebra(), cw.reasoner.compiled_sigma());
    let lhss: Vec<AtomSet> = cw
        .queries
        .iter()
        .map(|q| q.compile(alg).expect("workload queries compile").lhs)
        .collect();
    let rec = nalist::obs::MetricsRecorder::new();
    let mut nodes = 0usize;
    for x in &lhss {
        nalist::membership::worklist::run(alg, sigma, x, &Budget::unlimited(), &rec)
            .expect("workload left-hand sides are downward closed");
        nodes += nalist::membership::certified_closure_and_basis(alg, sigma, x)
            .expect("benchmark workloads certify cleanly")
            .dag
            .len();
    }
    let t = median_nanos(5, || {
        for x in &lhss {
            std::hint::black_box(
                nalist::membership::certified_closure_and_basis(alg, sigma, x)
                    .expect("benchmark workloads certify cleanly")
                    .dag
                    .len(),
            );
        }
    }) / lhss.len() as u128;
    let plain = median_nanos(5, || {
        for x in &lhss {
            std::hint::black_box(closure_and_basis(alg, sigma, x));
        }
    }) / lhss.len() as u128;
    let per_query = |total: u64| total as f64 / lhss.len() as f64;
    println!(
        "overhead at |N| = 32, |Σ| = 64, {} fresh left-hand sides (read-cold densities): \
         certified run {} vs plain {} per query ({:.1}×); {:.1} dependencies fired in \
         {:.1} worklist steps and {:.0} DAG nodes per query",
        lhss.len(),
        fmt_nanos(t),
        fmt_nanos(plain),
        t as f64 / plain.max(1) as f64,
        per_query(rec.counter(nalist::obs::Counter::DepsFired)),
        per_query(rec.counter(nalist::obs::Counter::WorklistSteps)),
        per_query(nodes as u64)
    );

    // the portable wire format: serialized certificate size, and the
    // cost of *checking* a certificate (nalist-check, no engine) vs
    // *proving* the answer from scratch
    use nalist::check::{verify, Certificate};
    use nalist::membership::cert::answer;
    use nalist::prelude::Budget;

    let mut rng = StdRng::seed_from_u64(7);
    let n = nalist::gen::attr_with_atoms(&mut rng, 8);
    let alg = Algebra::new(&n);
    let sigma = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: 4,
            ..Default::default()
        },
    );
    let schema_src = n.to_string();
    let deps_src = nalist::gen::render_sigma(&alg, &sigma);
    let budget = Budget::unlimited();
    let mut implied_targets = Vec::new();
    let mut docs = Vec::new();
    let (mut pos_bytes, mut neg_bytes, mut pos, mut neg) = (0usize, 0usize, 0usize, 0usize);
    for _ in 0..50 {
        let target = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
        let answered =
            answer(&alg, &sigma, &target, &budget, nalist::obs::noop()).expect("compiled targets");
        let implied = answered.implied();
        let cert = answered
            .certificate(&budget)
            .expect("benchmark workloads stay within witness limits");
        if implied {
            pos_bytes += cert.to_json().len();
            pos += 1;
            implied_targets.push(target);
        } else {
            neg_bytes += cert.to_json().len();
            neg += 1;
        }
        docs.push(cert);
    }
    println!(
        "wire format (|N| = 8, |Σ| = 4): mean {} B per positive certificate ({pos}), \
         mean {} B per negative certificate ({neg})",
        pos_bytes.checked_div(pos).unwrap_or(0),
        neg_bytes.checked_div(neg).unwrap_or(0)
    );
    let t_check = median_nanos(5, || {
        for cert in &docs {
            std::hint::black_box(
                verify(&schema_src, &deps_src, cert, &budget)
                    .expect("emitted certificates are accepted"),
            );
        }
    }) / docs.len() as u128;
    let t_prove = median_nanos(5, || {
        for target in &implied_targets {
            std::hint::black_box(
                nalist::membership::certify(&alg, &sigma, target).expect("certify"),
            );
        }
    }) / implied_targets.len().max(1) as u128;
    let t_parse = median_nanos(5, || {
        for cert in &docs {
            std::hint::black_box(Certificate::from_json(&cert.to_json()).expect("round trip"));
        }
    }) / docs.len() as u128;
    println!(
        "trusted checker: {} per certificate (+ {} JSON parse) vs {} to prove from \
         scratch — the replay pays for re-parsing every rendered notation, the \
         price of not trusting the engine's compiled state",
        fmt_nanos(t_check),
        fmt_nanos(t_parse),
        fmt_nanos(t_prove)
    );
}

// ------------------------------------------------------------------ E-OBS

/// Observability overhead on the E-ENGINE closure workload: the plain
/// entry point vs the observed one under (a) the no-op recorder
/// (compile-away path) and (b) a live `MetricsRecorder` (the `--metrics`
/// hot path: relaxed atomic counters, one coarse span per fixpoint).
fn obs_overhead() {
    use nalist::obs::{noop, MetricsRecorder};

    header(
        "E-OBS",
        "Recorder overhead on closure workloads (per nested_workload run)",
    );
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>8} {:>12} {:>8}",
        "|N|", "|Σ|", "plain", "noop", "Δ", "metrics", "Δ"
    );
    for (atoms, sigma_count) in [(32usize, 16usize), (64, 32), (128, 48)] {
        let w = nested_workload(7, atoms, sigma_count);
        let t_plain = median_nanos(9, || {
            std::hint::black_box(nalist_bench::run_closures(&w));
        });
        let t_noop = median_nanos(9, || {
            std::hint::black_box(nalist_bench::run_closures_observed(&w, noop()));
        });
        let rec = MetricsRecorder::new();
        let t_metrics = median_nanos(9, || {
            std::hint::black_box(nalist_bench::run_closures_observed(&w, &rec));
        });
        let pct = |t: u128| (t as f64 / t_plain.max(1) as f64 - 1.0) * 100.0;
        println!(
            "{:>6} {:>6} {:>12} {:>12} {:>+7.1}% {:>12} {:>+7.1}%",
            atoms,
            sigma_count,
            fmt_nanos(t_plain),
            fmt_nanos(t_noop),
            pct(t_noop),
            fmt_nanos(t_metrics),
            pct(t_metrics)
        );
    }
    println!(
        "the no-op recorder is the default on every CLI path without --metrics/--trace;\n\
         the live recorder's hot path is relaxed atomics only (spans are per-fixpoint,\n\
         not per-step), so the --metrics budget is ≤5% on the pinned E-ENGINE workload"
    );
}

// ------------------------------------------------------------------ E-REF

fn reference_ablation() {
    header(
        "E-REF",
        "Engine ablation: bitset atom engine vs the paper-literal SubB-set engine",
    );
    use nalist_oracle::reference::{decompile_sigma, reference_closure_and_basis};
    println!(
        "{:>6} {:>16} {:>16} {:>9}",
        "|N|", "paper-literal", "bitset engine", "speedup"
    );
    for atoms in [6usize, 10, 14, 18] {
        let w = nalist_bench::nested_workload(11, atoms, 4);
        let tree_sigma = decompile_sigma(&w.alg, &w.sigma);
        let n_attr = w.alg.attr().clone();
        let xs: Vec<_> = w.queries.iter().map(|q| w.alg.to_attr(q)).collect();
        let t_ref = median_nanos(3, || {
            for x in &xs {
                std::hint::black_box(
                    reference_closure_and_basis(&n_attr, &tree_sigma, x)
                        .closure
                        .len(),
                );
            }
        });
        let t_fast = median_nanos(5, || {
            std::hint::black_box(nalist_bench::run_closures(&w));
        });
        println!(
            "{:>6} {:>16} {:>16} {:>8}x",
            atoms,
            fmt_nanos(t_ref),
            fmt_nanos(t_fast),
            t_ref / t_fast.max(1)
        );
    }
    println!(
        "both engines produce identical closures and blocks (asserted in \
         tests/crossval and the reference module's own tests)"
    );
}

// ------------------------------------------------------------------ E-ENGINE

/// Worklist engine vs the paper-order pass engine, plus parallel batch
/// throughput. Also emits the machine-readable `BENCH_closure.json`
/// consumed by CI dashboards / CHANGES.md.
fn engine_speedup() {
    use std::num::NonZeroUsize;

    header(
        "E-ENGINE",
        "Change-driven worklist engine vs paper-order pass engine",
    );
    let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut json_rows: Vec<String> = Vec::new();
    println!(
        "{:>6} {:>6} {:>6} {:>14} {:>14} {:>9}",
        "|N|", "|Σ|", "width", "pass engine", "worklist", "speedup"
    );
    for (atoms, sigma_count) in [
        (16usize, 8usize),
        (32, 16),
        (64, 32),
        (96, 32),
        (128, 48),
        (256, 48),
        (512, 48),
        (1024, 48),
    ] {
        let w = nested_workload(7, atoms, sigma_count);
        let width = w.alg.width_class().name();
        // the paper engine costs ~0.3s per run at |N| = 1024; fewer
        // median samples keep the largest size affordable while the
        // rest use enough samples to tame single-CPU scheduling noise
        let runs = if atoms >= 1024 { 5 } else { 9 };
        let t_paper = median_nanos(runs, || {
            std::hint::black_box(run_closures_paper(&w));
        });
        let t_fast = median_nanos(runs, || {
            std::hint::black_box(run_closures(&w));
        });
        let speedup = t_paper as f64 / t_fast.max(1) as f64;
        println!(
            "{:>6} {:>6} {:>6} {:>14} {:>14} {:>8.1}x",
            atoms,
            sigma_count,
            width,
            fmt_nanos(t_paper),
            fmt_nanos(t_fast),
            speedup
        );
        json_rows.push(format!(
            "  {{\"id\": \"nested_workload(seed=7, atoms={atoms}, sigma={sigma_count})\", \
             \"atoms\": {atoms}, \"sigma\": {sigma_count}, \"width_class\": \"{width}\", \
             \"cpus\": {cpus}, \
             \"median_ns_pass_engine\": {t_paper}, \"median_ns_worklist\": {t_fast}, \
             \"speedup\": {speedup:.2}}}"
        ));
    }
    println!("both engines produce identical output (asserted per query in tests/crossval.rs)");

    // Per-core scaling curves at two universe sizes: the classic
    // 64-atom workload (w2) and a 256-atom one (w4) that used to sit on
    // the heap fallback. Queries reuse left-hand sides the way
    // cover/key/normal-form workloads do, so the batch exercises both
    // the shared cache and the cold groups the workers claim.
    for (atoms, sigma_count, n_queries, pool_size) in
        [(64usize, 32usize, 256usize, 32usize), (256, 48, 128, 16)]
    {
        let w = nested_workload(8, atoms, sigma_count);
        let width = w.alg.width_class().name();
        println!(
            "\nbatch membership throughput (|N| = {atoms}, |Σ| = {sigma_count}, \
             {n_queries} queries over {pool_size} distinct LHSs, {cpus} CPU(s) available):"
        );
        let r = {
            let mut r = Reasoner::new(&w.attr);
            for d in &w.sigma {
                r.add(d.decompile(&w.alg)).expect("generated Σ compiles");
            }
            r
        };
        let mut rng = StdRng::seed_from_u64(9);
        let lhs_pool: Vec<AtomSet> = (0..pool_size)
            .map(|_| nalist::gen::random_subattr(&mut rng, &w.alg, 0.3))
            .collect();
        let compiled: Vec<CompiledDep> = (0..n_queries)
            .map(|i| {
                let lhs = lhs_pool[i % lhs_pool.len()].clone();
                let rhs = nalist::gen::random_subattr(&mut rng, &w.alg, 0.3);
                if i % 3 == 0 {
                    CompiledDep::fd(lhs, rhs)
                } else {
                    CompiledDep::mvd(lhs, rhs)
                }
            })
            .collect();
        let queries: Vec<Dependency> = compiled.iter().map(|c| c.decompile(&w.alg)).collect();
        let runs = if atoms >= 256 { 3 } else { 5 };
        let t_uncached = median_nanos(runs, || {
            for c in &compiled {
                std::hint::black_box(nalist::membership::implies(&w.alg, &w.sigma, c));
            }
        });
        println!(
            "  uncached per-query implies(): {:>12}  ({:>9.0} queries/s)",
            fmt_nanos(t_uncached),
            queries.len() as f64 / (t_uncached as f64 / 1e9)
        );
        let mut t_one_thread = 0u128;
        for threads in [1usize, 2, 4, 8] {
            // clone per run: each measurement starts from a cold cache
            let t = median_nanos(runs, || {
                let fresh = r.clone();
                let verdicts = fresh
                    .implies_batch_governed_with(
                        &queries,
                        &Budget::unlimited(),
                        NonZeroUsize::new(threads).unwrap(),
                    )
                    .expect("queries compile");
                std::hint::black_box(verdicts.len());
            });
            if threads == 1 {
                t_one_thread = t;
            }
            let qps = queries.len() as f64 / (t as f64 / 1e9);
            let vs_uncached = t_uncached as f64 / t.max(1) as f64;
            let vs_one = t_one_thread as f64 / t.max(1) as f64;
            println!(
                "  batch, {threads} thread(s): {:>12}  ({:>9.0} queries/s, {vs_uncached:.1}x vs \
                 uncached, {vs_one:.2}x vs 1 thread)",
                fmt_nanos(t),
                qps
            );
            json_rows.push(format!(
                "  {{\"id\": \"implies_batch(seed=8, atoms={atoms}, sigma={sigma_count}, \
                 queries={n_queries}, lhs_pool={pool_size})\", \
                 \"atoms\": {atoms}, \"sigma\": {sigma_count}, \"width_class\": \"{width}\", \
                 \"threads\": {threads}, \"cpus\": {cpus}, \
                 \"median_ns\": {t}, \"median_ns_uncached_baseline\": {t_uncached}, \
                 \"queries_per_sec\": {qps:.0}, \"speedup_vs_uncached\": {vs_uncached:.2}, \
                 \"speedup_vs_1_thread\": {vs_one:.2}}}"
            ));
        }
        if cpus == 1 {
            println!(
                "  note: thread-scaling is bounded by the {cpus} CPU visible to this container; \
                 the vs-1-thread column measures scheduling overhead, not the engine"
            );
        }
    }

    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_closure.json", &json) {
        Ok(()) => println!("machine-readable results written to BENCH_closure.json"),
        Err(e) => println!("could not write BENCH_closure.json: {e}"),
    }

    incremental_maintenance();
}

/// Incremental Σ maintenance: re-query cost over a warm LHS pool after a
/// single-dependency edit, selective invalidation vs the cache-clearing
/// baseline (the pre-incremental `Reasoner::add` behaviour). Emits
/// `BENCH_incremental.json`.
fn incremental_maintenance() {
    let ew = nalist_bench::incremental_edit_workload(10, 64, 32, 32);
    let requery = |r: &Reasoner| {
        let mut acc = 0usize;
        for x in &ew.lhss {
            acc += r.dependency_basis(x).basis.len();
        }
        acc
    };
    // how much of the warm cache the edit actually touches
    let mut probe = ew.reasoner.clone();
    probe.add(ew.edit.clone()).expect("edit compiles");
    let after_add = probe.cache_stats();
    println!(
        "\nincremental Σ maintenance (|N| = 64, |Σ| = 32, 32-LHS warm pool, one narrow FD edit):\n\
         \u{20} the edit evicts {} of {} cached bases ({} retained)",
        after_add.evicted,
        after_add.evicted + after_add.retained,
        after_add.retained
    );
    let mut json_rows: Vec<String> = Vec::new();
    println!(
        "{:>24} {:>14} {:>14} {:>9}",
        "re-query after", "cache-clearing", "incremental", "speedup"
    );
    for (label, remove) in [("add", false), ("remove", true)] {
        // for the remove row, start from a reasoner warm for Σ ∪ {edit}
        let warm = if remove {
            let mut w = ew.reasoner.clone();
            w.add(ew.edit.clone()).expect("edit compiles");
            for x in &ew.lhss {
                w.dependency_basis(x);
            }
            w
        } else {
            ew.reasoner.clone()
        };
        let apply = |r: &mut Reasoner| {
            if remove {
                assert!(r.remove(&ew.edit).expect("edit compiles"), "edit is in Σ");
            } else {
                r.add(ew.edit.clone()).expect("edit compiles");
            }
        };
        // both sides time the FIRST re-query of the whole pool after the
        // same edit (edit + clone applied outside the timer): the
        // incremental side recomputes only the evicted bases, the
        // baseline models the old clear-on-edit behaviour where every
        // edit empties the cache and every re-query recomputes
        let timed_requery = |clear: bool| {
            let mut samples: Vec<u128> = (0..5)
                .map(|_| {
                    let mut r = warm.clone();
                    apply(&mut r);
                    if clear {
                        r.clear_cache();
                    }
                    let t = std::time::Instant::now();
                    std::hint::black_box(requery(&r));
                    t.elapsed().as_nanos()
                })
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let t_cold = timed_requery(true);
        let t_inc = timed_requery(false);
        let speedup = t_cold as f64 / t_inc.max(1) as f64;
        println!(
            "{:>24} {:>14} {:>14} {:>8.1}x",
            format!("{label} one FD"),
            fmt_nanos(t_cold),
            fmt_nanos(t_inc),
            speedup
        );
        json_rows.push(format!(
            "  {{\"id\": \"incremental_{label}(seed=10, atoms=64, sigma=32, lhs_pool=32)\", \
             \"atoms\": 64, \"sigma\": 32, \"lhs_pool\": 32, \"edit\": \"{label}\", \
             \"median_ns_cache_clearing\": {t_cold}, \"median_ns_incremental\": {t_inc}, \
             \"speedup\": {speedup:.2}, \
             \"entries_evicted_by_add\": {}, \"entries_retained_by_add\": {}}}",
            after_add.evicted, after_add.retained
        ));
    }
    println!(
        "incremental answers are bit-identical to from-scratch recomputation \
         (proptest-asserted in tests/incremental.rs)"
    );
    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_incremental.json", &json) {
        Ok(()) => println!("machine-readable results written to BENCH_incremental.json"),
        Err(e) => println!("could not write BENCH_incremental.json: {e}"),
    }
}

// ------------------------------------------------------------------ E-THM64a

fn scaling_n() {
    header(
        "E-THM64a",
        "Theorem 6.4: closure + dependency basis time vs |N| (|Σ| = 8 fixed)",
    );
    println!("random nested workloads (mean of 6 seeds per size):");
    println!("{:>8} {:>14}", "|N|", "mean time");
    let mut points = Vec::new();
    for atoms in [8usize, 16, 32, 64, 128, 256] {
        let mut total = 0u128;
        let seeds = 6;
        for seed in 0..seeds {
            let w = nested_workload(42 + seed, atoms, 8);
            total += median_nanos(3, || {
                std::hint::black_box(run_closures(&w));
            });
        }
        let mean = total / seeds as u128;
        points.push((atoms as f64, mean as f64));
        println!("{:>8} {:>14}", atoms, fmt_nanos(mean));
    }
    let slope = loglog_slope(&points);
    println!("fitted exponent: |N|^{slope:.2} on random workloads");

    println!("\nadversarial FD chain (reverse order, |Σ| = |N| - 1, forces Θ(|N|) passes):");
    println!("{:>8} {:>14}", "|N|", "median time");
    let mut chain_points = Vec::new();
    for atoms in [8usize, 16, 32, 64, 128, 256] {
        let w = nalist_bench::chain_workload(atoms);
        let t = median_nanos(5, || {
            std::hint::black_box(run_closures(&w));
        });
        chain_points.push((atoms as f64, t as f64));
        println!("{:>8} {:>14}", atoms, fmt_nanos(t));
    }
    let chain_slope = loglog_slope(&chain_points);
    println!(
        "fitted exponent: |N|^{chain_slope:.2} — the paper's worst-case bound is |N|^4 \
         (with |Σ| ≈ |N| this workload exercises the superlinear regime)"
    );
}

// ------------------------------------------------------------------ E-THM64b

fn scaling_sigma() {
    header(
        "E-THM64b",
        "Theorem 6.4: closure time vs |Σ| (|N| = 32 fixed)",
    );
    println!("{:>8} {:>14}", "|Σ|", "median time");
    let mut points = Vec::new();
    for count in [2usize, 4, 8, 16, 32, 64] {
        let w = nested_workload(43, 32, count);
        let t = median_nanos(5, || {
            std::hint::black_box(run_closures(&w));
        });
        points.push((count as f64, t as f64));
        println!("{:>8} {:>14}", count, fmt_nanos(t));
    }
    let slope = loglog_slope(&points);
    println!("fitted exponent: |Σ|^{slope:.2} — paper's bound is linear in |Σ|");
}

// ------------------------------------------------------------------ E-BASE1

fn vs_naive() {
    header(
        "E-BASE1",
        "Section 5: Algorithm 5.1 vs the naive rule-closure enumeration",
    );
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>10}",
        "|N|", "|Sub(N)|", "naive", "Algorithm 5.1", "speedup"
    );
    for width in [3usize, 4, 5] {
        let w = flat_workload(44, width, 3);
        let naive_t = median_nanos(3, || {
            let c = NaiveClosure::compute(&w.alg, &w.sigma, NaiveConfig::default()).unwrap();
            std::hint::black_box(c.stats().derived);
        });
        let alg_t = median_nanos(5, || {
            for q in &w.queries {
                std::hint::black_box(closure_and_basis(&w.alg, &w.sigma, q).closure.count());
            }
        }) / w.queries.len() as u128;
        println!(
            "{:>6} {:>8} {:>14} {:>14} {:>9}x",
            width,
            sub_count(&w.attr),
            fmt_nanos(naive_t),
            fmt_nanos(alg_t),
            naive_t / alg_t.max(1)
        );
    }
    println!(
        "the naive closure saturates Σ+ over all of Sub(N) (|Sub(N)| = 2^|N| on flat\n\
         schemas) — exponential, exactly the paper's \"time consuming and therefore\n\
         impractical\" enumeration; Algorithm 5.1 answers per-query in polynomial time"
    );
    // E-BASE2: Beeri comparison on flat schemas
    println!("\nE-BASE2: Beeri's relational algorithm vs Algorithm 5.1 (flat width 12, |Σ| = 8)");
    let w = flat_workload(45, 12, 8);
    use nalist_oracle::beeri::{rel_dependency_basis, RelDep};
    let rel_sigma: Vec<RelDep> = w
        .sigma
        .iter()
        .map(|d| {
            let lhs = d.lhs.iter().fold(0u64, |m, a| m | (1 << a));
            let rhs = d.rhs.iter().fold(0u64, |m, a| m | (1 << a));
            match d.kind {
                DepKind::Fd => RelDep::Fd { lhs, rhs },
                DepKind::Mvd => RelDep::Mvd { lhs, rhs },
            }
        })
        .collect();
    let rel_t = median_nanos(7, || {
        for q in &w.queries {
            let m = q.iter().fold(0u64, |m, a| m | (1 << a));
            std::hint::black_box(rel_dependency_basis(12, &rel_sigma, m).closure);
        }
    });
    let nested_t = median_nanos(7, || {
        std::hint::black_box(run_closures(&w));
    });
    println!(
        "  Beeri (u64 masks): {}   Algorithm 5.1 (atom bitsets): {}   \
         — same dependency bases (cross-validated in tests/crossval.rs)",
        fmt_nanos(rel_t),
        fmt_nanos(nested_t)
    );
}

// ------------------------------------------------------------------ E-OPS

fn ops() {
    header(
        "E-OPS",
        "Section 6 per-operation costs (bitset engine vs tree reference)",
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "|N|", "join", "meet", "pdiff", "compl", "tree join (abl.)"
    );
    for atoms in [16usize, 64, 256, 1024] {
        let mut rng = StdRng::seed_from_u64(atoms as u64);
        let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&attr);
        let xs: Vec<AtomSet> = (0..32)
            .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.4))
            .collect();
        let trees: Vec<NestedAttr> = xs.iter().map(|x| alg.to_attr(x)).collect();
        let pairs: Vec<(usize, usize)> = (0..32).map(|i| (i, (i * 7 + 3) % 32)).collect();
        let t_join = median_nanos(9, || {
            for &(i, j) in &pairs {
                std::hint::black_box(alg.join(&xs[i], &xs[j]));
            }
        }) / 32;
        let t_meet = median_nanos(9, || {
            for &(i, j) in &pairs {
                std::hint::black_box(alg.meet(&xs[i], &xs[j]));
            }
        }) / 32;
        let t_pdiff = median_nanos(9, || {
            for &(i, j) in &pairs {
                std::hint::black_box(alg.pdiff(&xs[i], &xs[j]));
            }
        }) / 32;
        let t_compl = median_nanos(9, || {
            for &(i, _) in &pairs {
                std::hint::black_box(alg.compl(&xs[i]));
            }
        }) / 32;
        let t_tree = median_nanos(9, || {
            for &(i, j) in &pairs {
                std::hint::black_box(
                    nalist_oracle::treealg::tree_join(&trees[i], &trees[j]).unwrap(),
                );
            }
        }) / 32;
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>14}",
            atoms,
            fmt_nanos(t_join),
            fmt_nanos(t_meet),
            fmt_nanos(t_pdiff),
            fmt_nanos(t_compl),
            fmt_nanos(t_tree)
        );
    }
    println!(
        "paper: ⊔/⊓ linear, ∸ and ^C quadratic-bounded in |N| — measured growth is consistent"
    );
}

// ------------------------------------------------------------------ E-WIT

fn witness_table() {
    header(
        "E-WIT",
        "Section 4.2: counterexample (combination-instance) construction",
    );
    println!(
        "{:>12} {:>10} {:>14}",
        "free blocks", "tuples", "median time"
    );
    for k in [1usize, 2, 4, 6, 8, 10] {
        // k free blocks: flat schema A0 … A{k}, X = {A0}, empty Σ gives one
        // complement block; FDs split it into singletons
        let width = k + 1;
        let attr = nalist::gen::flat_attr(width);
        let alg = Algebra::new(&attr);
        let mut sigma: Vec<CompiledDep> = Vec::new();
        for i in 1..k {
            // A0 ↠ Ai: each becomes its own block
            let mut lhs = alg.bottom_set();
            lhs.insert(0);
            let mut rhs = alg.bottom_set();
            rhs.insert(i);
            sigma.push(CompiledDep::mvd(lhs, rhs));
        }
        let mut x = alg.bottom_set();
        x.insert(0);
        let basis = closure_and_basis(&alg, &sigma, &x);
        let free = basis.free_blocks().len();
        let t = median_nanos(5, || {
            std::hint::black_box(combination_instance(&alg, &basis).unwrap().instance.len());
        });
        let tuples = combination_instance(&alg, &basis).unwrap().instance.len();
        println!("{:>12} {:>10} {:>14}", free, tuples, fmt_nanos(t));
    }
    println!("tuple count is 2^k by construction — witnesses stay practical for small bases");
}

// ------------------------------------------------------------------ E-CHASE

fn chase_table() {
    header(
        "E-CHASE",
        "MVD chase over nested instances: repair rates and the mixed-meet failure mode",
    );
    use nalist::deps::chase::{chase, ChaseError};
    let mut rng = StdRng::seed_from_u64(31);
    let mut repaired = 0usize;
    let mut already = 0usize;
    let mut unrepairable = 0usize;
    let mut too_large = 0usize;
    let mut added_total = 0usize;
    for _ in 0..100 {
        let n = nalist::gen::attr_with_atoms(&mut rng, 6);
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = (0..2)
            .map(|_| {
                let d = nalist::gen::random_dep(&mut rng, &alg, 0.35, 0.0);
                CompiledDep::mvd(d.lhs, d.rhs)
            })
            .collect();
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig {
                rows: 5,
                domain_size: 2,
                max_list_len: 2,
            },
        );
        match chase(&alg, &sigma, &r, 4096) {
            Ok(out) if out.added == 0 => already += 1,
            Ok(out) => {
                repaired += 1;
                added_total += out.added;
            }
            Err(ChaseError::Unrepairable { index, t1, t2 }) => {
                // confirm the characterisation on the returned witness
                // pair: agree on X, disagree on the mixed-meet part
                let d = &sigma[index];
                let x_attr = alg.to_attr(&d.lhs);
                let mixed = alg.to_attr(&alg.meet(&d.rhs, &alg.compl(&d.rhs)));
                use nalist::types::projection::project;
                assert_eq!(
                    project(&n, &x_attr, &t1).unwrap(),
                    project(&n, &x_attr, &t2).unwrap()
                );
                assert_ne!(
                    project(&n, &mixed, &t1).unwrap(),
                    project(&n, &mixed, &t2).unwrap()
                );
                unrepairable += 1;
            }
            Err(ChaseError::TooLarge { .. }) => too_large += 1,
            Err(e) => panic!("unexpected chase error: {e}"),
        }
    }
    println!(
        "100 random (instance, MVD-only Σ) workloads: {already} already satisfied, \
         {repaired} repaired (mean +{} tuples), {unrepairable} unrepairable, {too_large} over budget",
        added_total.checked_div(repaired).unwrap_or(0)
    );
    println!(
        "every unrepairable case coincided with a violation of the mixed-meet FD \
         X → Y⊓Y^C — the relational chase never fails; the list chase fails exactly there"
    );
}

// ------------------------------------------------------------------ E-MINRULES

fn min_rules() {
    header(
        "E-MINRULES",
        "Section 7's open question: redundancy of the 14 inference rules",
    );
    use nalist::deps::rules::ALL_RULES;
    let battery: Vec<(Algebra, Vec<CompiledDep>)> = [
        ("L(A, B, C)", vec!["L(A) -> L(B)", "L(B) -> L(C)"]),
        ("L(A, B, C)", vec!["L(A) ->> L(B)", "L(C) -> L(B)"]),
        ("L[A]", vec!["λ ->> L[λ]"]),
        ("L(A, M[B])", vec!["L(A) ->> L(M[B])"]),
        (
            "L(M[A], P[B])",
            vec!["L(M[λ]) ->> L(P[B])", "L(P[λ]) -> L(M[λ])"],
        ),
    ]
    .iter()
    .map(|(attr, deps)| {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        (alg, sigma)
    })
    .collect();
    for rule in ALL_RULES {
        let mut verdict = "empirically redundant";
        for (i, (alg, sigma)) in battery.iter().enumerate() {
            let full = NaiveClosure::compute(alg, sigma, NaiveConfig::default())
                .unwrap()
                .all();
            let cfg = NaiveConfig {
                rules: ALL_RULES.iter().copied().filter(|r| *r != rule).collect(),
                ..NaiveConfig::default()
            };
            let without = NaiveClosure::compute(alg, sigma, cfg).unwrap().all();
            if without.len() != full.len() {
                verdict = Box::leak(
                    format!("NECESSARY (witness: battery workload #{i})").into_boxed_str(),
                );
                break;
            }
        }
        println!("  {:<28} {}", rule.name(), verdict);
    }
    println!(
        "note: with the generalised coalescence rule the mixed meet rule is subsumed\n\
         (dropping BOTH loses λ → L[λ] from λ ↠ L[λ]); see tests/rule_minimality.rs"
    );
}

// ------------------------------------------------------------------ E-APP

fn apps() {
    header("E-APP", "Section 1.3 applications on the named scenarios");
    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>8} {:>6} {:>10}",
        "scenario", "|N|", "|Σ|", "cover", "keys", "4NF", "components"
    );
    for s in nalist::gen::scenarios::all() {
        let alg = Algebra::new(&s.attr);
        let sigma: Vec<CompiledDep> = s.sigma.iter().map(|d| d.compile(&alg).unwrap()).collect();
        let cover = minimal_cover(&alg, &sigma);
        let keys = candidate_keys(&alg, &sigma, 8);
        let nf = is_fourth_nf(&alg, &sigma);
        let comps = decompose_4nf(&alg, &sigma, 8);
        let atom_sets: Vec<AtomSet> = comps.iter().map(|c| c.atoms.clone()).collect();
        let lossless = verify_lossless(&alg, &s.instance, &atom_sets).unwrap();
        println!(
            "{:<12} {:>6} {:>6} {:>8} {:>8} {:>6} {:>7} ({})",
            s.name,
            s.attr.basis_size(),
            sigma.len(),
            cover.len(),
            keys.len(),
            nf,
            comps.len(),
            if lossless {
                "lossless ✓"
            } else {
                "LOSSY ✗"
            }
        );
    }
}

// ------------------------------------------------------------------ E-DUR

/// Durability costs (DESIGN.md "Durability & crash recovery"): snapshot
/// size and atomic-write time as `|Σ|` and the warm-cache population
/// grow, WAL append latency with and without fsync, and warm recovery
/// (snapshot + WAL tail) against a cold from-scratch replay of the same
/// history.
fn durability() {
    header(
        "E-DUR",
        "durability: snapshot cost, WAL append latency, recovery vs cold replay",
    );
    let budget = Budget::unlimited();
    let rec: std::sync::Arc<dyn nalist::obs::Recorder> =
        std::sync::Arc::new(nalist::obs::NoopRecorder);
    let dir = std::env::temp_dir().join(format!("nalist-edur-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for E-DUR artifacts");
    let mut json_rows: Vec<String> = Vec::new();
    let median = |mut samples: Vec<u128>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };

    // -- snapshot size & write time vs |Σ| and cache entries -----------
    println!("\nsnapshot size and atomic-write time (median of 5, 32-LHS pool):");
    println!(
        "{:>6} {:>6} {:>8} {:>12} {:>12} {:>12}",
        "|N|", "|Σ|", "cache", "bytes", "payload", "write"
    );
    for &(atoms, sigma) in &[(64usize, 8usize), (64, 32), (256, 8), (256, 32)] {
        let ew = nalist_bench::incremental_edit_workload(10, atoms, sigma, 32);
        let cold = {
            let c = ew.reasoner.clone();
            c.clear_cache();
            c
        };
        for (label, r) in [("0", &cold), ("warm", &ew.reasoner)] {
            let entries = r.cache_stats().entries;
            let payload = snapshot_payload(r).len();
            let path = dir.join(format!("snap-{atoms}-{sigma}-{label}.bin"));
            let mut bytes = 0u64;
            let t_write = median(
                (0..5)
                    .map(|_| {
                        let t = std::time::Instant::now();
                        bytes = write_reasoner_snapshot(&path, r, &budget, rec.as_ref())
                            .expect("snapshot writes");
                        t.elapsed().as_nanos()
                    })
                    .collect(),
            );
            println!(
                "{atoms:>6} {sigma:>6} {entries:>8} {bytes:>12} {payload:>12} {:>12}",
                fmt_nanos(t_write)
            );
            json_rows.push(format!(
                "  {{\"id\": \"snapshot(atoms={atoms}, sigma={sigma}, cache={entries})\", \
                 \"atoms\": {atoms}, \"sigma\": {sigma}, \"cache_entries\": {entries}, \
                 \"file_bytes\": {bytes}, \"payload_bytes\": {payload}, \
                 \"median_write_ns\": {t_write}}}"
            ));
        }
    }
    println!("cache column: snapshot carries the warm entries, so recovery skips recomputing them");

    // -- WAL append latency, with and without fsync ---------------------
    let ew = nalist_bench::incremental_edit_workload(10, 64, 32, 32);
    let add_record = WalOp::Add(ew.edit.to_string()).encode();
    println!(
        "\nWAL append latency ({}-byte `+` record, median per append):",
        add_record.len()
    );
    println!("{:>8} {:>10} {:>14}", "fsync", "appends", "median");
    for (fsync, appends) in [(false, 256usize), (true, 64usize)] {
        let path = dir.join(format!("append-{fsync}.wal"));
        let mut w = WalWriter::create(&path, fsync).expect("WAL creates");
        let t_append = median(
            (0..appends)
                .map(|_| {
                    let t = std::time::Instant::now();
                    w.append(&add_record, &budget, rec.as_ref())
                        .expect("append");
                    t.elapsed().as_nanos()
                })
                .collect(),
        );
        println!("{fsync:>8} {appends:>10} {:>14}", fmt_nanos(t_append));
        json_rows.push(format!(
            "  {{\"id\": \"wal_append(fsync={fsync})\", \"fsync\": {fsync}, \
             \"appends\": {appends}, \"record_bytes\": {}, \"median_append_ns\": {t_append}}}",
            add_record.len()
        ));
    }
    println!("fsync-off batches edits between snapshots; fsync-on is the durable default");

    // -- recovery (snapshot + WAL tail) vs cold full replay -------------
    // two workload families: `random` (32 random deps, cheap µs-scale
    // queries) and the paper's adversarial FD `chain` (|Σ| = |N| - 1,
    // every basis query forces Θ(|N|) passes — expensive to recompute)
    let scenarios: Vec<(&str, usize, Reasoner, Vec<AtomSet>, Dependency)> = {
        let mut v = Vec::new();
        for &atoms in &[64usize, 256] {
            let ew = nalist_bench::incremental_edit_workload(10, atoms, 32, 32);
            v.push(("random", atoms, ew.reasoner, ew.lhss, ew.edit));
        }
        for &atoms in &[64usize, 256] {
            let w = nalist_bench::chain_workload(atoms);
            let mut r = Reasoner::new(&w.attr);
            for d in &w.sigma {
                r.add(d.decompile(&w.alg)).expect("chain Σ compiles");
            }
            let pool: Vec<AtomSet> = (0..8)
                .map(|i| {
                    let mut x = w.alg.bottom_set();
                    x.insert(i * atoms / 8);
                    x
                })
                .collect();
            for x in &pool {
                std::hint::black_box(r.dependency_basis(x));
            }
            let mut lhs = w.alg.bottom_set();
            lhs.insert(atoms - 1);
            let mut rhs = w.alg.bottom_set();
            rhs.insert(0);
            let edit = CompiledDep::fd(lhs, rhs).decompile(&w.alg);
            v.push(("chain", atoms, r, pool, edit));
        }
        v
    };
    println!("\nrecovery vs cold replay of the full history (3-op WAL tail, median of 5):");
    println!(
        "{:>8} {:>6} {:>6} {:>6} {:>14} {:>14} {:>9}",
        "workload", "|N|", "|Σ|", "pool", "cold replay", "recover", "speedup"
    );
    for (name, atoms, r, pool, edit_dep) in &scenarios {
        let sigma_len = r.compiled_sigma().len();
        let snap = dir.join(format!("recover-{name}-{atoms}.snap"));
        write_reasoner_snapshot(&snap, r, &budget, rec.as_ref()).expect("snapshot writes");
        let wal = dir.join(format!("recover-{name}-{atoms}.wal"));
        let edit = edit_dep.to_string();
        let tail = [
            WalOp::Header {
                schema: r.attr().to_string(),
            },
            WalOp::Add(edit.clone()),
            WalOp::Query(edit.clone()),
            WalOp::Remove(edit.clone()),
        ];
        let mut w = WalWriter::create(&wal, true).expect("WAL creates");
        for op in &tail {
            w.append(&op.encode(), &budget, rec.as_ref())
                .expect("append");
        }
        drop(w);
        // cold replay: rebuild the reasoner from nothing and re-run the
        // entire history the snapshot+WAL pair encodes — every add, every
        // cache-warming query, then the tail
        let sigma: Vec<Dependency> = r
            .compiled_sigma()
            .iter()
            .map(|c| c.decompile(r.algebra()))
            .collect();
        let t_cold = median(
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let mut fresh = Reasoner::new(r.attr());
                    for d in &sigma {
                        fresh.add(d.clone()).expect("Σ re-adds");
                    }
                    for x in pool {
                        std::hint::black_box(fresh.dependency_basis(x));
                    }
                    fresh.add_str(&edit).expect("edit re-adds");
                    fresh.implies_str(&edit).expect("edit queries");
                    assert!(fresh.remove_str(&edit).expect("edit removes"));
                    t.elapsed().as_nanos()
                })
                .collect(),
        );
        let t_recover = median(
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let report = recover(&snap, Some(&wal), &budget, std::sync::Arc::clone(&rec))
                        .expect("recovers");
                    assert_eq!(report.replayed(), 3);
                    t.elapsed().as_nanos()
                })
                .collect(),
        );
        let speedup = t_cold as f64 / t_recover.max(1) as f64;
        println!(
            "{name:>8} {atoms:>6} {sigma_len:>6} {:>6} {:>14} {:>14} {speedup:>8.1}x",
            pool.len(),
            fmt_nanos(t_cold),
            fmt_nanos(t_recover)
        );
        json_rows.push(format!(
            "  {{\"id\": \"recovery(workload={name}, atoms={atoms}, sigma={sigma_len}, \
             lhs_pool={}, wal_tail_ops=3)\", \
             \"workload\": \"{name}\", \"atoms\": {atoms}, \"sigma\": {sigma_len}, \
             \"lhs_pool\": {}, \"wal_tail_ops\": 3, \
             \"median_cold_replay_ns\": {t_cold}, \"median_recover_ns\": {t_recover}, \
             \"speedup\": {speedup:.2}}}",
            pool.len(),
            pool.len()
        ));
    }
    println!(
        "recovery loads the cache warm from the snapshot and replays only the WAL tail:\n\
         it wins most when cached bases are expensive to recompute (chain), and on the\n\
         easy random workloads it wins by reading the snapshot's texts straight to atom\n\
         sets, where the cold replay recomputes every basis;\n\
         bit-identity with the live process is proptest-asserted in tests/durability.rs"
    );

    // -- long WAL tails: replay against parsing every record ------------
    // the baseline applies the log record by record through `add_str` /
    // `remove_str`, parsing each text; `recover` resolves each distinct
    // text once
    println!("\nlong WAL tails, 32-atom schema, |Σ| = 8 snapshot + 2000 edits (median of 5):");
    println!(
        "{:>9} {:>8} {:>6} {:>16} {:>14} {:>9}",
        "tail", "records", "texts", "parse per record", "recover", "speedup"
    );
    for (name, texts) in [("toggle", 32usize), ("distinct", 2000)] {
        let rw = nalist_bench::recovery_workload(&dir, 7, 32, texts, 2000);
        let parse_per_record = || {
            let mut r = read_reasoner_snapshot(&rw.snapshot, &budget, std::sync::Arc::clone(&rec))
                .expect("snapshot restores");
            let log = nalist::store::read_wal(&rw.wal).expect("WAL reads");
            for (offset, payload) in log.records() {
                match WalOp::decode(payload, offset).expect("record decodes") {
                    WalOp::Header { .. } => {}
                    WalOp::Add(text) => r.add_str(&text).expect("add replays"),
                    WalOp::Remove(text) => {
                        r.remove_str(&text).expect("remove replays");
                    }
                    WalOp::Query(text) => {
                        r.implies_str(&text).expect("query replays");
                    }
                }
            }
            r
        };
        let recovered = || {
            recover(
                &rw.snapshot,
                Some(&rw.wal),
                &budget,
                std::sync::Arc::clone(&rec),
            )
            .expect("recovers")
        };
        assert_eq!(
            snapshot_payload(&parse_per_record()),
            snapshot_payload(&recovered().reasoner),
            "both replays reach the same state"
        );
        let t_parse = median(
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(parse_per_record());
                    t.elapsed().as_nanos()
                })
                .collect(),
        );
        let t_recover = median(
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(recovered());
                    t.elapsed().as_nanos()
                })
                .collect(),
        );
        let speedup = t_parse as f64 / t_recover.max(1) as f64;
        println!(
            "{name:>9} {:>8} {texts:>6} {:>16} {:>14} {speedup:>8.1}x",
            2000,
            fmt_nanos(t_parse),
            fmt_nanos(t_recover)
        );
        json_rows.push(format!(
            "  {{\"id\": \"wal_tail(tail={name}, atoms=32, sigma=8, records=2000, texts={texts})\", \
             \"tail\": \"{name}\", \"atoms\": 32, \"sigma\": 8, \"records\": 2000, \
             \"texts\": {texts}, \"median_parse_per_record_ns\": {t_parse}, \
             \"median_recover_ns\": {t_recover}, \"speedup\": {speedup:.2}}}"
        ));
    }
    println!(
        "recovery resolves each distinct record text once and re-adds repeats from their\n\
         compiled form: a toggling tail pays 32 parses instead of 2000, while never-\n\
         repeating texts are parsed once each either way"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_durability.json", &json) {
        Ok(()) => println!("machine-readable results written to BENCH_durability.json"),
        Err(e) => println!("could not write BENCH_durability.json: {e}"),
    }
}

// ------------------------------------------------------------------ E-SERVE

/// The multi-tenant HTTP service under open-loop load: the two
/// documented overload answers — `429` when per-request budgets run
/// out, `503` when the accept queue is full. Emits `BENCH_serve.json`.
/// Steady-state serving is measured by `perfbench/`.
fn serve_bench() {
    use nalist::obs::MetricsRecorder;
    use nalist::serve::{loadgen, LoadgenConfig, ServerConfig};
    use std::sync::Arc;

    header("E-SERVE", "the HTTP service under open-loop load");
    let dir = std::env::temp_dir().join(format!("nalist-e-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("wal dir");
    let mut json_rows: Vec<String> = Vec::new();

    let lcfg = |addr: &str, edit_ratio: f64, reuse: bool| LoadgenConfig {
        addr: addr.to_string(),
        tenants: 3,
        atoms: 10,
        pool: 64,
        rps: 300.0,
        duration_ms: 2_500,
        conns: 3,
        edit_ratio,
        zipf_s: 1.1,
        seed: 42,
        reuse_tenants: reuse,
        verify: None,
    };

    // Seed: one unmeasured churny run on a roomy durable server creates
    // the tenants and journals their edits to the WAL directory.
    let seed_cfg = ServerConfig {
        workers: 4,
        queue_cap: 64,
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let seed = nalist::serve::server::start(&seed_cfg, Arc::new(MetricsRecorder::new()))
        .expect("server starts");
    loadgen::run(&lcfg(&seed.local_addr().to_string(), 0.30, false)).expect("loadgen runs");
    seed.shutdown();

    // Stage 1: budget overload. The seeded tenants come back from the
    // WAL directory (recovery runs unbudgeted), but every *request* now
    // gets a tiny fuel cap — hard queries answer 429 instead of
    // degrading the tenants that stay within budget.
    let cfg2 = ServerConfig {
        workers: 4,
        queue_cap: 64,
        fuel: Some(64),
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let srv2 = nalist::serve::server::start(&cfg2, Arc::new(MetricsRecorder::new()))
        .expect("server restarts");
    let addr2 = srv2.local_addr().to_string();
    let report = loadgen::run(&lcfg(&addr2, 0.10, true)).expect("loadgen runs");
    let rejected = report.status_429;
    println!(
        "\n{:>18} {:>8} {:>9} {:>6} {:>6} {:>5} {:>9} {:>9}",
        "stage", "offered", "achieved", "ok", "429", "503", "p50 µs", "p99 µs"
    );
    println!(
        "{:>18} {:>8.0} {:>9.0} {:>6} {:>6} {:>5} {:>9} {:>9}",
        "overload(fuel=64)",
        report.offered_rps,
        report.achieved_rps,
        report.ok,
        report.status_429,
        report.status_503,
        report.p50_us,
        report.p99_us,
    );
    let rj = report.to_json();
    json_rows.push(format!(
        "  {{\"id\": \"overload(kind=budget, fuel=64, tenants=3)\", \
         \"stage\": \"overload(budget)\", \"tenants\": 3, \"fuel\": \"64\", {}}}",
        &rj[1..rj.len() - 1]
    ));
    srv2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Stage 2: accept-queue overload. One worker, a queue of two, and a
    // burst of eight idle connections: everything past workers + queue
    // is shed at accept time with a structured 503 + Retry-After.
    let cfg3 = ServerConfig {
        workers: 1,
        queue_cap: 2,
        read_timeout_ms: 500,
        ..ServerConfig::default()
    };
    let srv3 =
        nalist::serve::server::start(&cfg3, Arc::new(MetricsRecorder::new())).expect("server");
    let addr3 = srv3.local_addr();
    let burst = 8usize;
    let mut socks = Vec::new();
    for _ in 0..burst {
        let s = std::net::TcpStream::connect(addr3).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_millis(1_500)))
            .expect("read timeout");
        socks.push(s);
    }
    let mut shed_503 = 0usize;
    let mut accepted_idle = 0usize;
    for s in &mut socks {
        let mut buf = [0u8; 256];
        match std::io::Read::read(s, &mut buf) {
            Ok(n) if n > 0 => {
                let text = String::from_utf8_lossy(&buf[..n]);
                assert!(
                    text.starts_with("HTTP/1.1 503"),
                    "unexpected acceptor answer: {text}"
                );
                assert!(text.to_ascii_lowercase().contains("retry-after"));
                shed_503 += 1;
            }
            _ => accepted_idle += 1,
        }
    }
    drop(socks);
    assert!(
        shed_503 >= burst - 4,
        "expected most of the burst shed, got {shed_503}/{burst}"
    );
    println!(
        "\noverload point (acceptor): burst of {burst} idle conns at workers=1, queue=2:\n\
         {accepted_idle} accepted, {shed_503} shed with `503 + Retry-After` before any\n\
         worker time was spent on them; under per-request fuel caps, {rejected} hard\n\
         requests above answered `429 resource_exhausted` while cheap ones kept flowing"
    );
    json_rows.push(format!(
        "  {{\"id\": \"overload(kind=acceptor, workers=1, queue=2, burst={burst})\", \
         \"stage\": \"overload(acceptor)\", \"burst\": {burst}, \
         \"accepted_idle\": {accepted_idle}, \"rejects_503\": {shed_503}}}"
    ));
    srv3.shutdown();

    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("machine-readable results written to BENCH_serve.json"),
        Err(e) => println!("could not write BENCH_serve.json: {e}"),
    }
}

// ------------------------------------------------------------------ E-REPL

/// Leader/follower replication: cold bootstrap time, steady-state lag
/// under churn with the post-churn drain rate, a certificate-verified
/// leader/follower comparison (`loadgen --verify`), and read scale-out
/// across two followers. Emits `BENCH_repl.json`.
#[allow(clippy::too_many_lines)]
fn repl_bench() {
    use nalist::obs::MetricsRecorder;
    use nalist::serve::{loadgen, FollowerConfig, LoadgenConfig, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    header("E-REPL", "leader/follower replication");
    let dir = std::env::temp_dir().join(format!("nalist-e-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("wal dir");
    let mut json_rows: Vec<String> = Vec::new();

    let counter = |rec: &Arc<MetricsRecorder>, name: &str| -> u64 {
        rec.snapshot()
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let wait_for = |what: &str, mut ok: Box<dyn FnMut() -> bool>| -> u64 {
        let t0 = Instant::now();
        loop {
            if ok() {
                return t0.elapsed().as_millis() as u64;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let lcfg = |addr: &str, rps: f64, edit_ratio: f64, reuse: bool| LoadgenConfig {
        addr: addr.to_string(),
        tenants: 3,
        atoms: 10,
        pool: 64,
        rps,
        duration_ms: 2_000,
        conns: 3,
        edit_ratio,
        zipf_s: 1.1,
        seed: 7,
        reuse_tenants: reuse,
        verify: None,
    };

    // The leader, seeded by a short churny loadgen run so the three
    // tenants carry real Σs and the WAL real history.
    let cfg = ServerConfig {
        workers: 4,
        wal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let leader =
        nalist::serve::server::start(&cfg, Arc::new(MetricsRecorder::new())).expect("leader");
    let laddr = leader.local_addr().to_string();
    let seed_cfg = LoadgenConfig {
        duration_ms: 1_000,
        ..lcfg(&laddr, 200.0, 0.3, false)
    };
    loadgen::run(&seed_cfg).expect("seed loadgen");

    // Stage 1: cold bootstrap — time from follower start to the
    // readiness latch (every tenant snapshot-installed and caught up).
    let f1_rec = Arc::new(MetricsRecorder::new());
    let fcfg = |leader: &str| FollowerConfig {
        server: ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        leader: leader.to_string(),
        poll_wait_ms: 200,
    };
    let f1 = nalist::serve::start_follower(&fcfg(&laddr), f1_rec.clone()).expect("follower 1");
    let f1_status = Arc::clone(f1.status());
    let bootstrap_ms = wait_for("follower 1 readiness", {
        let s = Arc::clone(&f1_status);
        Box::new(move || s.ready())
    });
    println!(
        "\ncold bootstrap: 3 tenants snapshot-installed and caught up in {bootstrap_ms} ms \
         ({} snapshot(s) shipped)",
        f1_status.bootstraps()
    );
    json_rows.push(format!(
        "  {{\"id\": \"bootstrap(tenants=3)\", \"stage\": \"bootstrap\", \
         \"bootstrap_ms\": {bootstrap_ms}, \"bootstraps\": {}}}",
        f1_status.bootstraps()
    ));

    // Stage 2: steady-state lag under churn — sample the follower's
    // byte lag while an edit-heavy loadgen hammers the leader, then
    // time the post-churn drain back to zero lag.
    let sampling = Arc::new(AtomicBool::new(true));
    let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sampler = {
        let stop = Arc::clone(&sampling);
        let samples = Arc::clone(&samples);
        let status = Arc::clone(&f1_status);
        std::thread::spawn(move || {
            while stop.load(Ordering::SeqCst) {
                samples.lock().unwrap().push(status.lag().1);
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };
    let applied_before = counter(&f1_rec, "repl_records_applied");
    let churn_t0 = Instant::now();
    let churn = loadgen::run(&lcfg(&laddr, 300.0, 0.5, true)).expect("churn loadgen");
    let drain_ms = wait_for("follower 1 to drain", {
        let s = Arc::clone(&f1_status);
        Box::new(move || s.lag() == (0, 0))
    });
    let churn_elapsed = churn_t0.elapsed();
    sampling.store(false, Ordering::SeqCst);
    let _ = sampler.join();
    let applied = counter(&f1_rec, "repl_records_applied") - applied_before;
    let lag_samples = samples.lock().unwrap();
    let max_lag = lag_samples.iter().copied().max().unwrap_or(0);
    let mean_lag = lag_samples.iter().sum::<u64>() as f64 / lag_samples.len().max(1) as f64;
    let applied_per_s = applied as f64 / churn_elapsed.as_secs_f64();
    println!(
        "churn ({:.0} rps offered, edit ratio 0.5): {applied} records replayed \
         ({applied_per_s:.0}/s); byte lag max {max_lag}, mean {mean_lag:.0}; \
         drained to zero {drain_ms} ms after the churn stopped",
        churn.offered_rps
    );
    json_rows.push(format!(
        "  {{\"id\": \"churn(rps=300, edit_ratio=0.5)\", \"stage\": \"churn\", \
         \"records_applied\": {applied}, \"applied_per_s\": {applied_per_s:.1}, \
         \"max_lag_bytes\": {max_lag}, \"mean_lag_bytes\": {mean_lag:.1}, \
         \"drain_ms\": {drain_ms}}}"
    ));

    // Stage 3: the certificate-verified comparison — `--verify` routes
    // the same queries to leader and follower, requires byte-identical
    // answers, and runs follower certificates through the independent
    // trusted checker.
    let faddr1 = f1.local_addr().to_string();
    let verify_cfg = LoadgenConfig {
        verify: Some(faddr1.clone()),
        duration_ms: 1_000,
        ..lcfg(&laddr, 200.0, 0.2, true)
    };
    let verified = loadgen::run(&verify_cfg).expect("verify loadgen");
    let v = verified.verify.as_ref().expect("verify report");
    assert!(!v.failed(), "leader/follower verification failed");
    println!(
        "verified: {} Σ comparisons, {} query answers byte-identical, \
         {} follower certificates accepted by the trusted checker",
        v.sigma_compared, v.queries_compared, v.certs_checked
    );
    let vr = verified.to_json();
    json_rows.push(format!(
        "  {{\"id\": \"verify(follower=1)\", \"stage\": \"verify\", {}}}",
        &vr[1..vr.len() - 1]
    ));

    // Stage 4: read scale-out — the same read-only offered load against
    // the leader alone, then split across leader + two followers.
    let f2 = nalist::serve::start_follower(&fcfg(&laddr), Arc::new(MetricsRecorder::new()))
        .expect("follower 2");
    let f2_status = Arc::clone(f2.status());
    wait_for("follower 2 readiness", Box::new(move || f2_status.ready()));
    let faddr2 = f2.local_addr().to_string();
    let solo = loadgen::run(&LoadgenConfig {
        conns: 6,
        ..lcfg(&laddr, 6_000.0, 0.0, true)
    })
    .expect("solo loadgen");
    println!(
        "read-only, leader alone:        offered {:>6.0} rps, achieved {:>6.0} rps, \
         p99 {} µs",
        solo.offered_rps, solo.achieved_rps, solo.p99_us
    );
    let targets = [laddr.clone(), faddr1, faddr2];
    let parts: Vec<loadgen::LoadgenReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .map(|addr| {
                let cfg = LoadgenConfig {
                    conns: 2,
                    ..lcfg(addr, 2_000.0, 0.0, true)
                };
                scope.spawn(move || loadgen::run(&cfg).expect("scale-out loadgen"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let total_achieved: f64 = parts.iter().map(|r| r.achieved_rps).sum();
    let worst_p99 = parts.iter().map(|r| r.p99_us).max().unwrap_or(0);
    println!(
        "read-only, leader+2 followers:  offered {:>6.0} rps, achieved {:>6.0} rps, \
         worst p99 {} µs",
        parts.iter().map(|r| r.offered_rps).sum::<f64>(),
        total_achieved,
        worst_p99
    );
    json_rows.push(format!(
        "  {{\"id\": \"scaleout(leader-only)\", \"stage\": \"scaleout\", \
         \"targets\": 1, \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \
         \"p99_us\": {}}}",
        solo.offered_rps, solo.achieved_rps, solo.p99_us
    ));
    json_rows.push(format!(
        "  {{\"id\": \"scaleout(leader+2-followers)\", \"stage\": \"scaleout\", \
         \"targets\": 3, \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \
         \"p99_us\": {worst_p99}}}",
        parts.iter().map(|r| r.offered_rps).sum::<f64>(),
        total_achieved
    ));

    f2.shutdown();
    f1.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_repl.json", &json) {
        Ok(()) => println!("machine-readable results written to BENCH_repl.json"),
        Err(e) => println!("could not write BENCH_repl.json: {e}"),
    }
}
