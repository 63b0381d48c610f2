//! Every worked example, figure, and concrete claim in the paper,
//! reproduced exactly (experiments E-FIG1, E-FIG2, E-EX42, E-EX45, E-EX48,
//! E-EX51/E-FIG3/E-FIG4 of DESIGN.md).

use nalist::algebra::lattice::{enumerate_sets, hasse_edges, sub_count};
use nalist::algebra::render::{basis_listing, full_lattice_dot};
use nalist::membership::trace::{render_result, render_trace};
use nalist::prelude::*;
use nalist_oracle::laws::verify_brouwerian;

// ---------------------------------------------------------------- Figure 1

#[test]
fn fig1_lattice() {
    // The Brouwerian algebra of J[K(A, L[M(B, C)])]: 11 elements,
    // verified to satisfy all Brouwerian laws; DOT regenerates the figure.
    let n = parse_attr("J[K(A, L[M(B, C)])]").unwrap();
    assert_eq!(sub_count(&n), 11);
    let alg = Algebra::new(&n);
    let sets = enumerate_sets(&alg);
    assert_eq!(sets.len(), 11);
    verify_brouwerian(&alg, &sets).unwrap();
    let edges = hasse_edges(&sets);
    // hand-derived cover count for this lattice (atom poset J below
    // everything, L below B and C): 16 covering pairs
    assert_eq!(edges.len(), 16);
    let dot = full_lattice_dot(&alg);
    assert!(dot.contains("J[K(A, L[M(B, C)])]"));
    assert!(dot.contains('λ'));
}

#[test]
fn fig1_non_boolean() {
    // Sub(N) is not Boolean: the paper's Y = L[λ] example on N = L[A].
    let n = parse_attr("L[A]").unwrap();
    let alg = Algebra::new(&n);
    let y = alg
        .from_attr(&parse_subattr_of(&n, "L[λ]").unwrap())
        .unwrap();
    let yc = alg.compl(&y);
    assert_eq!(alg.render(&yc), "L[A]"); // Y^C = N
    assert_eq!(alg.meet(&y, &yc), y); // Y ⊓ Y^C = Y ≠ λ
    assert!(!alg.meet(&y, &yc).is_empty());
    assert!(alg.cc(&y).is_empty()); // Y^CC = λ ≠ Y
}

// ---------------------------------------------------------------- Figure 2 / Example 4.12

#[test]
fn fig2_possession() {
    let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
    let alg = Algebra::new(&n);
    // SubB(N): K[λ], K[L(M[λ])], K[L(M[N'(A)])], K[L(M[N'(B)])], K[L(C)]
    let rendered: Vec<String> = alg
        .atoms()
        .iter()
        .map(|a| nalist::types::display::abbreviate(&alg.to_attr(&a.below), &n))
        .collect();
    assert_eq!(
        rendered,
        vec![
            "K[λ]",
            "K[L(M[λ])]",
            "K[L(M[N'(A)])]",
            "K[L(M[N'(B)])]",
            "K[L(C)]"
        ]
    );
    // Example 4.12: X = K[L(M[N'(A, B)], λ)] possesses K[L(M[λ])] but not K[λ].
    let x = alg
        .from_attr(&parse_subattr_of(&n, "K[L(M[N'(A, B)], λ)]").unwrap())
        .unwrap();
    assert!(alg.possessed_by(1, &x)); // M-atom
    assert!(!alg.possessed_by(0, &x)); // K-atom
    let listing = basis_listing(&alg, Some(&x));
    assert!(listing.contains("K[λ] [non-maximal] — in X, not possessed by X"));
    assert!(listing.contains("K[L(M[λ])] [non-maximal] — in X, possessed by X"));
}

// ---------------------------------------------------------------- Example 4.2

fn pubcrawl() -> (NestedAttr, Algebra, Instance) {
    let s = nalist::gen::scenarios::pubcrawl();
    let alg = Algebra::new(&s.attr);
    (s.attr, alg, s.instance)
}

#[test]
fn pubcrawl_verdicts() {
    let (n, alg, r) = pubcrawl();
    assert_eq!(r.len(), 7);
    let check = |src: &str| {
        let d = Dependency::parse(&n, src).unwrap();
        r.satisfies_dep(&alg, &d).unwrap()
    };
    // "Obviously, the FD Person → Visit[Drink(Pub)] is not satisfied by r"
    assert!(!check("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"));
    // "neither is the FD Person → Visit[Drink(Beer)]"
    assert!(!check("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Beer)])"));
    // "However, ⊨_r Person ↠ Visit[Drink(Pub)]"
    assert!(check("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"));
    // "Note that ⊨_r Person → Visit[λ] holds" — the person determines the
    // number of bars visited
    assert!(check("Pubcrawl(Person) -> Pubcrawl(Visit[λ])"));
}

// ---------------------------------------------------------------- Example 4.5

#[test]
fn pubcrawl_decomposition() {
    let (n, alg, r) = pubcrawl();
    let d = Dependency::parse(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        .unwrap()
        .compile(&alg)
        .unwrap();
    let (pub_side, beer_side) = binary_split(&alg, &d);
    assert_eq!(alg.render(&pub_side), "Pubcrawl(Person, Visit[Drink(Pub)])");
    assert_eq!(
        alg.render(&beer_side),
        "Pubcrawl(Person, Visit[Drink(Beer)])"
    );

    // the paper lists the two projections explicitly: 5 beer-side tuples,
    // 4 pub-side tuples
    let beer_proj = r.project(&alg.to_attr(&beer_side)).unwrap();
    let pub_proj = r.project(&alg.to_attr(&pub_side)).unwrap();
    assert_eq!(beer_proj.len(), 5);
    assert_eq!(pub_proj.len(), 4);
    // spot-check two of the paper's listed projection tuples
    assert!(beer_proj
        .iter()
        .any(|t| t.to_string() == "(Sven, [(Lübzer, ok), (Kindl, ok)])"
            || t.to_string() == "(Sven, [(Lübzer), (Kindl)])"));
    // Theorem 4.4: the join reconstructs r exactly
    assert!(verify_lossless(&alg, &r, &[pub_side, beer_side]).unwrap());
}

// ---------------------------------------------------------------- Example 4.8

#[test]
fn ex48_basis() {
    let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
    let alg = Algebra::new(&n);
    let rendered: Vec<String> = alg
        .atoms()
        .iter()
        .map(|a| nalist::types::display::abbreviate(&alg.to_attr(&a.below), &n))
        .collect();
    // paper: SubB = {A(B), A(C[λ]), A(C[D(F[λ])]), A(C[D(E)]), A(C[D(F[G])])}
    assert_eq!(rendered.len(), 5);
    for expected in [
        "A'(B)",
        "A'(C[λ])",
        "A'(C[D(F[λ])])",
        "A'(C[D(E)])",
        "A'(C[D(F[G])])",
    ] {
        assert!(
            rendered.contains(&expected.to_string()),
            "{expected} missing"
        );
    }
    // maximal: A(B), A(C[D(E)]), A(C[D(F[G])]); non-maximal: the list atoms
    let maximal: Vec<String> = alg
        .atoms()
        .iter()
        .filter(|a| a.maximal)
        .map(|a| nalist::types::display::abbreviate(&alg.to_attr(&a.below), &n))
        .collect();
    assert_eq!(maximal, vec!["A'(B)", "A'(C[D(E)])", "A'(C[D(F[G])])"]);
}

// ---------------------------------------------------------------- Example 5.1 / Figures 3–4

fn example_51() -> (NestedAttr, Algebra, Vec<CompiledDep>, AtomSet) {
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
    (n, alg, sigma, x)
}

#[test]
fn example_51_closure_and_basis() {
    let (_, alg, sigma, x) = example_51();
    let basis = closure_and_basis(&alg, &sigma, &x);
    // paper: X+_alg = L1(L2[L3[L4(A)]], L5[λ], L7(F, L8[L9(G, L10[H])], I))
    assert_eq!(
        alg.render(&basis.closure),
        "L1(L2[L3[L4(A)]], L5[λ], L7(F, L8[L9(G, L10[H])], I))"
    );
    // paper: DepB_alg(X) has exactly these 13 elements
    let rendered: Vec<String> = basis.basis.iter().map(|b| alg.render(b)).collect();
    let expected = [
        "L1(L2[λ])",
        "L1(L2[L3[λ]])",
        "L1(L2[L3[L4(A)]])",
        "L1(L5[λ])",
        "L1(L7(F))",
        "L1(L7(L8[λ]))",
        "L1(L7(L8[L9(G)]))",
        "L1(L7(L8[L9(L10[λ])]))",
        "L1(L7(L8[L9(L10[H])]))",
        "L1(L7(I))",
        "L1(L5[L6(D)])",
        "L1(L2[L3[L4(B)]])",
        "L1(L2[L3[L4(C)]], L5[L6(E)])",
    ];
    assert_eq!(rendered.len(), expected.len());
    for e in expected {
        assert!(rendered.contains(&e.to_string()), "missing {e}");
    }
}

#[test]
fn example_51_full_trace() {
    // Figure 3 (initialisation), both passes' intermediate states, and
    // Figure 4 (final state), compared against the paper's text.
    let (_, alg, sigma, x) = example_51();
    let (basis, trace) = closure_and_basis_traced(&alg, &sigma, &x, &Budget::unlimited()).unwrap();
    let rendered = render_trace(&alg, &sigma, &trace, &Budget::unlimited()).unwrap();

    // initialisation (Figure 3): X_new = X and the three initial blocks
    assert!(rendered.contains("X_new = L1(L7(F, L8[L9(L10[H])]))"));
    assert!(rendered.contains(
        "DB_new = {L1(L7(F)); L1(L7(L8[L9(L10[H])])); \
         L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(L8[L9(G)], I))}"
    ));

    // pass 1 (i)/(ii): Ū is the big block, Ṽ = λ, no changes
    assert!(rendered.contains("Ū = L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(L8[L9(G)], I)), Ṽ = λ"));
    assert!(rendered.contains("no changes"));

    // pass 1 (iii): U3 ↠ V3 fires
    assert!(rendered.contains("X_new = L1(L2[L3[λ]], L5[λ], L7(F, L8[L9(L10[H])]))"));
    assert!(rendered.contains("L1(L5[L6(D)])"));
    assert!(rendered.contains("L1(L2[L3[L4(A, B, C)]], L5[L6(E)], L7(L8[L9(G)], I))"));

    // pass 2 (i): U2 → V2 fires
    assert!(rendered.contains("X_new = L1(L2[L3[L4(A)]], L5[λ], L7(F, L8[L9(G, L10[H])], I))"));
    assert!(rendered.contains("L1(L2[L3[L4(B, C)]], L5[L6(E)])"));

    // pass 2 (ii): U1 ↠ V1 splits {B,C,E} into {B} and {C,E}
    assert!(rendered.contains("L1(L2[L3[L4(B)]])"));
    assert!(rendered.contains("L1(L2[L3[L4(C)]], L5[L6(E)])"));

    // exactly three passes: two changing + one fixpoint confirmation
    assert_eq!(trace.passes.len(), 3);
    assert!(trace.passes[2].iter().all(|s| !s.changed));

    // final result (Figure 4)
    let result = render_result(&alg, &basis);
    assert!(result.starts_with("X+ = L1(L2[L3[L4(A)]], L5[λ], L7(F, L8[L9(G, L10[H])], I))"));

    // and the whole text, pass for pass, string for string: regenerate
    // with `UPDATE_GOLDENS=1 cargo test -p nalist --test paper_examples`
    // after an intentional change and review the diff
    let text = rendered + &result;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/cli_fixtures/example_51_trace.golden");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        text, expected,
        "Example 5.1 trace changed; rerun with UPDATE_GOLDENS=1 if intentional"
    );
}

#[test]
fn example_51_membership_queries() {
    // Proposition 4.10 applied to the computed dependency basis.
    let (n, alg, sigma, x) = example_51();
    let basis = closure_and_basis(&alg, &sigma, &x);
    let sub = |s: &str| alg.from_attr(&parse_subattr_of(&n, s).unwrap()).unwrap();
    // FD: anything below X+ follows
    assert!(basis.fd_derivable(&sub("L1(L2[L3[L4(A)]], L7(I))")));
    assert!(!basis.fd_derivable(&sub("L1(L2[L3[L4(B)]])")));
    // MVD: unions of basis elements follow
    assert!(basis.mvd_derivable(&sub("L1(L2[L3[L4(B)]])")));
    assert!(basis.mvd_derivable(&sub("L1(L2[L3[L4(C)]], L5[L6(E)])")));
    assert!(basis.mvd_derivable(&sub("L1(L2[L3[L4(B)]], L5[L6(D)])")));
    // but splitting the {C, E} block is not derivable
    assert!(!basis.mvd_derivable(&sub("L1(L2[L3[L4(C)]])")));
    assert!(!basis.mvd_derivable(&sub("L1(L5[L6(E)])")));
}

// ---------------------------------------------------------------- abbreviation conventions (§3.3)

#[test]
fn section_33_abbreviations() {
    let n = parse_attr("L1(A, B, L2[L3(C, D)])").unwrap();
    let x = parse_subattr_of(&n, "L1(A, L2[λ])").unwrap();
    assert_eq!(x.to_string(), "L1(A, λ, L2[L3(λ, λ)])");
    assert_eq!(nalist::types::display::abbreviate(&x, &n), "L1(A, L2[λ])");

    // "the subattribute L(A, λ) of L(A, A) cannot be abbreviated by L(A)"
    let m = parse_attr("L(A, A)").unwrap();
    let y = NestedAttr::record("L", vec![NestedAttr::flat("A"), NestedAttr::Null]).unwrap();
    assert_eq!(nalist::types::display::abbreviate(&y, &m), "L(A, λ)");
}
