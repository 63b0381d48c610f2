//! A *literal* transcription of Algorithm 5.1 and the Section 6
//! pseudo-code, operating on explicit `SubB` sets of basis-attribute
//! trees — no bitsets, no precomputed masks.
//!
//! The production engine ([`nalist_membership::closure`]) represents subattributes as
//! downward-closed atom bitsets with precomputed possession masks. This
//! module instead follows the paper's own data structures word for word:
//!
//! * a subattribute is the set `SubB(X)` of its basis attributes, each a
//!   [`NestedAttr`] tree;
//! * `⊔`/`⊓` are set union/intersection (`SubB(X ⊔ Y) = SubB(X) ∪
//!   SubB(Y)`, Section 6);
//! * the pseudo-difference follows the paper's two-loop procedure
//!   (remove `SubB(Y)`, then re-add `SubB(A)` for every surviving `A`);
//! * the Brouwerian complement is `N ∸ X`, and `Z^CC` is computed as a
//!   literal double complement;
//! * possession is decided by the Section 6 characterisation
//!   `U' ∈ SubB(W) ∧ U' ∉ SubB(W^C)`;
//! * the `Ū` computation is the paper's WHILE/FOR loop.
//!
//! It exists for two reasons: as an independent cross-check of the
//! optimised engine (they are asserted equal on every tested input), and
//! as the baseline of the engine ablation benchmark (DESIGN.md,
//! `benches/algebra_ops.rs` / the `experiments` harness).

use std::collections::BTreeSet;

use nalist_algebra::Algebra;
use nalist_deps::{CompiledDep, DepKind};
use nalist_types::attr::NestedAttr;
use nalist_types::subattr::is_strict_subattr;

/// `SubB(X)` as an explicit set of basis-attribute trees.
pub type SubbSet = BTreeSet<NestedAttr>;

/// The basis attributes of a nested attribute, as canonical subattribute
/// trees (Definition 4.7): one per flat leaf and one per list node.
pub fn subb(n: &NestedAttr) -> SubbSet {
    match n {
        NestedAttr::Null => BTreeSet::new(),
        NestedAttr::Flat(_) => std::iter::once(n.clone()).collect(),
        NestedAttr::Record(l, children) => {
            let mut out = BTreeSet::new();
            for (i, c) in children.iter().enumerate() {
                for b in subb(c) {
                    let components: Vec<NestedAttr> = children
                        .iter()
                        .enumerate()
                        .map(|(j, cj)| if j == i { b.clone() } else { cj.bottom() })
                        .collect();
                    out.insert(NestedAttr::Record(l.clone(), components));
                }
            }
            out
        }
        NestedAttr::List(l, inner) => {
            let mut out = BTreeSet::new();
            out.insert(NestedAttr::List(l.clone(), Box::new(inner.bottom())));
            for b in subb(inner) {
                out.insert(NestedAttr::List(l.clone(), Box::new(b)));
            }
            out
        }
    }
}

/// Join: `SubB(X ⊔ Y) = SubB(X) ∪ SubB(Y)` (Section 6).
pub fn join(x: &SubbSet, y: &SubbSet) -> SubbSet {
    x.union(y).cloned().collect()
}

/// Meet: `SubB(X ⊓ Y) = SubB(X) ∩ SubB(Y)` (Section 6).
pub fn meet(x: &SubbSet, y: &SubbSet) -> SubbSet {
    x.intersection(y).cloned().collect()
}

/// The paper's pseudo-difference procedure (Section 6, verbatim):
///
/// ```text
/// SubB(X ∸ Y) := SubB(X);
/// FOR ALL A ∈ SubB(X) DO
///   IF A ∈ SubB(Y) THEN SubB(X∸Y) := SubB(X∸Y) − {A};
/// FOR ALL A ∈ SubB(X∸Y) DO
///   SubB(X∸Y) := SubB(X∸Y) ∪ SubB(A);
/// ```
pub fn pdiff(x: &SubbSet, y: &SubbSet) -> SubbSet {
    let mut out: SubbSet = x.clone();
    for a in x {
        if y.contains(a) {
            out.remove(a);
        }
    }
    let survivors: Vec<NestedAttr> = out.iter().cloned().collect();
    for a in &survivors {
        out.extend(subb(a));
    }
    out
}

/// Brouwerian complement `X^C = N ∸ X`.
pub fn compl(top: &SubbSet, x: &SubbSet) -> SubbSet {
    pdiff(top, x)
}

/// `Z^CC`, computed as the literal double complement.
pub fn cc(top: &SubbSet, z: &SubbSet) -> SubbSet {
    compl(top, &compl(top, z))
}

/// Is the basis attribute `u` possessed by `W` — Section 6's
/// characterisation `U' ∈ SubB(W) ∧ U' ∉ SubB(W^C)`?
pub fn possessed(top: &SubbSet, w: &SubbSet, u: &NestedAttr) -> bool {
    w.contains(u) && !compl(top, w).contains(u)
}

/// `MaxB` of a `SubB` set relative to the ambient basis: the members with
/// no *strictly larger* basis attribute in `SubB(N)` (Definition 4.7).
pub fn maximal_members(top: &SubbSet, x: &SubbSet) -> SubbSet {
    x.iter()
        .filter(|a| top.iter().all(|b| !is_strict_subattr(a, b)))
        .cloned()
        .collect()
}

/// The result of the reference run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceBasis {
    /// `SubB(X⁺)`.
    pub closure: SubbSet,
    /// The final `DB_new` blocks (each a `SubB` set).
    pub blocks: BTreeSet<SubbSet>,
}

/// Algorithm 5.1, transcribed literally over `SubB` sets.
pub fn reference_closure_and_basis(
    n: &NestedAttr,
    sigma: &[(DepKind, NestedAttr, NestedAttr)],
    x: &NestedAttr,
) -> ReferenceBasis {
    let top = subb(n);
    let mut x_new = subb(x);
    // DB_new := MaxB(X^CC) ∪ {X^C}
    let mut db: BTreeSet<SubbSet> = BTreeSet::new();
    for m in maximal_members(&top, &cc(&top, &x_new)) {
        db.insert(subb(&m));
    }
    let xc = compl(&top, &x_new);
    if !xc.is_empty() {
        db.insert(xc);
    }

    // process FDs first, then MVDs, per pass (the paper's loop order)
    let ordered: Vec<&(DepKind, NestedAttr, NestedAttr)> = sigma
        .iter()
        .filter(|d| d.0 == DepKind::Fd)
        .chain(sigma.iter().filter(|d| d.0 == DepKind::Mvd))
        .collect();

    loop {
        let x_old = x_new.clone();
        let db_old = db.clone();
        for (kind, u, v) in ordered.iter().copied() {
            // Ū via the paper's WHILE/FOR loop: join blocks owning an
            // anchor basis attribute of U outside X_new
            let u_basis = subb(u);
            let mut ubar: SubbSet = BTreeSet::new();
            for w in &db {
                let anchored = u_basis
                    .iter()
                    .any(|a| !x_new.contains(a) && possessed(&top, w, a));
                if anchored {
                    ubar = join(&ubar, w);
                }
            }
            let vtilde = pdiff(&subb(v), &ubar);
            if vtilde.is_empty() {
                continue;
            }
            match kind {
                DepKind::Fd => {
                    x_new = join(&x_new, &vtilde);
                    let mut next: BTreeSet<SubbSet> = BTreeSet::new();
                    for w in &db {
                        let reduced = cc(&top, &pdiff(w, &vtilde));
                        if !reduced.is_empty() {
                            next.insert(reduced);
                        }
                    }
                    for m in maximal_members(&top, &cc(&top, &vtilde)) {
                        next.insert(subb(&m));
                    }
                    db = next;
                }
                DepKind::Mvd => {
                    x_new = join(&x_new, &meet(&vtilde, &compl(&top, &vtilde)));
                    let mut next: BTreeSet<SubbSet> = BTreeSet::new();
                    for w in &db {
                        let inter = cc(&top, &meet(&vtilde, w));
                        if !inter.is_empty() && inter != *w {
                            next.insert(inter);
                            next.insert(cc(&top, &pdiff(w, &vtilde)));
                        } else {
                            next.insert(w.clone());
                        }
                    }
                    db = next;
                }
            }
        }
        if x_new == x_old && db == db_old {
            break;
        }
    }
    ReferenceBasis {
        closure: x_new,
        blocks: db,
    }
}

/// Converts a compiled `Σ` back to the tree form the reference engine
/// consumes.
pub fn decompile_sigma(
    alg: &Algebra,
    sigma: &[CompiledDep],
) -> Vec<(DepKind, NestedAttr, NestedAttr)> {
    sigma
        .iter()
        .map(|d| (d.kind, alg.to_attr(&d.lhs), alg.to_attr(&d.rhs)))
        .collect()
}

/// The basis attribute `b(a)` of atom `a`, as a subattribute tree of `N`.
fn basis_attr(alg: &Algebra, a: usize) -> NestedAttr {
    alg.to_attr(&alg.atom(a).below)
}

/// Asserts the reference engine agrees with the bitset engine for the
/// given input; returns the shared `(closure, blocks)` rendered via the
/// bitset algebra. Panics on disagreement (used by tests and the
/// `experiments` harness self-check).
pub fn crosscheck(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &nalist_algebra::AtomSet,
) -> nalist_membership::DependencyBasis {
    let fast = nalist_membership::closure_and_basis(alg, sigma, x);
    let tree_sigma = decompile_sigma(alg, sigma);
    let reference = reference_closure_and_basis(alg.attr(), &tree_sigma, &alg.to_attr(x));
    // compare closures
    let fast_closure_set: SubbSet = fast.closure.iter().map(|a| basis_attr(alg, a)).collect();
    assert_eq!(
        fast_closure_set, reference.closure,
        "closure mismatch between engines"
    );
    // compare block families
    let fast_blocks: BTreeSet<SubbSet> = fast
        .blocks
        .iter()
        .map(|w| w.iter().map(|a| basis_attr(alg, a)).collect())
        .collect();
    assert_eq!(
        fast_blocks, reference.blocks,
        "block mismatch between engines"
    );
    fast
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    #[test]
    fn subb_matches_algebra_atoms() {
        for src in [
            "A'(B, C[D(E, F[G])])",
            "K[L(M[N'(A, B)], C)]",
            "L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))",
        ] {
            let n = parse_attr(src).unwrap();
            let alg = Algebra::new(&n);
            let expected: SubbSet = (0..alg.atom_count()).map(|a| basis_attr(&alg, a)).collect();
            assert_eq!(subb(&n), expected, "{src}");
        }
    }

    #[test]
    fn pseudo_difference_matches_bitset() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        let top = subb(&n);
        for xs in nalist_algebra::lattice::enumerate_sets(&alg) {
            for ys in nalist_algebra::lattice::enumerate_sets(&alg) {
                let x: SubbSet = xs.iter().map(|a| basis_attr(&alg, a)).collect();
                let y: SubbSet = ys.iter().map(|a| basis_attr(&alg, a)).collect();
                let got = pdiff(&x, &y);
                let want: SubbSet = alg
                    .pdiff(&xs, &ys)
                    .iter()
                    .map(|a| basis_attr(&alg, a))
                    .collect();
                assert_eq!(got, want);
                // and the double complement
                let got_cc = cc(&top, &x);
                let want_cc: SubbSet = alg.cc(&xs).iter().map(|a| basis_attr(&alg, a)).collect();
                assert_eq!(got_cc, want_cc);
            }
        }
    }

    #[test]
    fn example_51_reference_run() {
        let n = parse_attr("L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))")
            .unwrap();
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
        let basis = crosscheck(&alg, &sigma, &x);
        assert_eq!(
            alg.render(&basis.closure),
            "L1(L2[L3[L4(A)]], L5[λ], L7(F, L8[L9(G, L10[H])], I))"
        );
    }

    #[test]
    fn engines_agree_on_random_workloads() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(314);
        for _ in 0..15 {
            let atoms = rng.gen_range(2..=10);
            let n = nalist_gen_attr(&mut rng, atoms);
            let alg = Algebra::new(&n);
            let sigma: Vec<CompiledDep> = (0..3).map(|_| random_dep(&mut rng, &alg)).collect();
            for _ in 0..3 {
                let x = random_sub(&mut rng, &alg);
                crosscheck(&alg, &sigma, &x);
            }
        }
    }

    // small local generators to avoid a dev-dependency cycle with nalist-gen
    fn nalist_gen_attr(rng: &mut impl rand::Rng, atoms: usize) -> NestedAttr {
        // simple recursive generator: records and lists over `atoms` leaves
        fn go(
            rng: &mut impl rand::Rng,
            budget: usize,
            next: &mut usize,
            depth: usize,
        ) -> NestedAttr {
            if budget == 1 {
                let id = *next;
                *next += 1;
                return if depth < 3 && rng.gen_bool(0.3) {
                    NestedAttr::list(format!("L{id}"), NestedAttr::Null)
                } else {
                    NestedAttr::flat(format!("A{id}"))
                };
            }
            if depth < 3 && rng.gen_bool(0.4) {
                let id = *next;
                *next += 1;
                NestedAttr::list(format!("L{id}"), go(rng, budget - 1, next, depth + 1))
            } else {
                let split = rng.gen_range(1..budget);
                let id = *next;
                *next += 1;
                NestedAttr::record(
                    format!("R{id}"),
                    vec![
                        go(rng, split, next, depth + 1),
                        go(rng, budget - split, next, depth + 1),
                    ],
                )
                .unwrap()
            }
        }
        let mut next = 0;
        let children = vec![go(rng, atoms, &mut next, 1)];
        NestedAttr::record("Root", children).unwrap()
    }

    fn random_sub(rng: &mut impl rand::Rng, alg: &Algebra) -> nalist_algebra::AtomSet {
        let mut s = alg.bottom_set();
        for a in 0..alg.atom_count() {
            if rng.gen_bool(0.4) {
                s.insert(a);
            }
        }
        alg.downward_closure(&s)
    }

    fn random_dep(rng: &mut impl rand::Rng, alg: &Algebra) -> CompiledDep {
        let lhs = random_sub(rng, alg);
        let rhs = random_sub(rng, alg);
        if rng.gen_bool(0.5) {
            CompiledDep::fd(lhs, rhs)
        } else {
            CompiledDep::mvd(lhs, rhs)
        }
    }

    #[test]
    fn possession_matches_bitset() {
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let alg = Algebra::new(&n);
        let top = subb(&n);
        for ws in nalist_algebra::lattice::enumerate_sets(&alg) {
            let w: SubbSet = ws.iter().map(|a| basis_attr(&alg, a)).collect();
            for id in 0..alg.atom_count() {
                let u = basis_attr(&alg, id);
                let fast = ws.contains(id) && alg.possessed_by(id, &ws);
                assert_eq!(possessed(&top, &w, &u), fast);
            }
        }
    }
}
