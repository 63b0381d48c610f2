//! Algorithm 5.1 on the paper's REPEAT-UNTIL schedule, with the
//! paper's own control flow: `DB_new` is a `BTreeSet` of blocks, every
//! pass processes every dependency in FD-then-MVD order, each step
//! builds the next state from scratch and detects change by comparing
//! it with the old one, and the fixpoint is detected by comparing the
//! state cloned at the start of the pass.
//!
//! The shipped engine ([`nalist_membership::worklist`]) runs one step
//! implementation on two schedules. The tests check its traced pass
//! schedule against [`closure_and_basis_paper_traced`] in every field
//! of the [`Trace`], and its worklist against
//! [`closure_and_basis_paper`]; the `experiments` harness times the
//! worklist against this engine (experiment E-ENGINE).

use std::collections::BTreeSet;

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::{CompiledDep, DepKind};
use nalist_membership::closure::StepTrace;
use nalist_membership::{DependencyBasis, Trace};

fn sorted(db: &BTreeSet<AtomSet>) -> Vec<AtomSet> {
    db.iter().cloned().collect()
}

/// Computes `X⁺` and `DepB(X)` with the pass engine (process every
/// dependency every pass, clone-and-compare fixpoint detection).
pub fn closure_and_basis_paper(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
) -> DependencyBasis {
    run(alg, sigma, x, None)
}

/// [`closure_and_basis_paper`], recording every step of every pass.
pub fn closure_and_basis_paper_traced(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
) -> (DependencyBasis, Trace) {
    let mut trace = Trace {
        init_x: AtomSet::empty(alg.atom_count()),
        init_db: Vec::new(),
        order: Vec::new(),
        passes: Vec::new(),
    };
    let basis = run(alg, sigma, x, Some(&mut trace));
    (basis, trace)
}

fn run(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    mut trace: Option<&mut Trace>,
) -> DependencyBasis {
    debug_assert!(alg.is_downward_closed(x), "X must be an element of Sub(N)");

    // the paper's loop processes all FDs, then all MVDs, per pass
    let order: Vec<usize> = (0..sigma.len())
        .filter(|&i| sigma[i].kind == DepKind::Fd)
        .chain((0..sigma.len()).filter(|&i| sigma[i].kind == DepKind::Mvd))
        .collect();

    let mut x_new = x.clone();
    let mut db: BTreeSet<AtomSet> = BTreeSet::new();
    // DB_new := MaxB(X^CC) ∪ {X^C}
    for m in alg.maximal_atoms_of(x).iter() {
        db.insert(alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [m])));
    }
    let xc = alg.compl(x);
    if !xc.is_empty() {
        db.insert(xc);
    }

    if let Some(t) = trace.as_deref_mut() {
        t.init_x = x_new.clone();
        t.init_db = sorted(&db);
        t.order = order.clone();
    }

    loop {
        let x_old = x_new.clone();
        let db_old = db.clone();
        let mut pass_steps: Vec<StepTrace> = Vec::new();

        for (k, &i) in order.iter().enumerate() {
            let dep = &sigma[i];
            // Ū := ⊔{W ∈ DB | ∃ atom a possessed by W, a ∉ X_new, a ∈ SubB(U)}
            let mut ubar = AtomSet::empty(alg.atom_count());
            for w in &db {
                let anchored = dep
                    .lhs
                    .iter()
                    .any(|a| !x_new.contains(a) && alg.possessed_by(a, w));
                if anchored {
                    ubar.union_with(w);
                }
            }
            let vtilde = alg.pdiff(&dep.rhs, &ubar);
            let mut changed = false;
            if !vtilde.is_empty() {
                match dep.kind {
                    DepKind::Fd => {
                        let x_next = alg.join(&x_new, &vtilde);
                        let mut db_next: BTreeSet<AtomSet> = BTreeSet::new();
                        for w in &db {
                            let reduced = alg.cc(&alg.pdiff(w, &vtilde));
                            if !reduced.is_empty() {
                                db_next.insert(reduced);
                            }
                        }
                        for m in alg.maximal_atoms_of(&vtilde).iter() {
                            db_next.insert(
                                alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [m])),
                            );
                        }
                        changed = x_next != x_new || db_next != db;
                        x_new = x_next;
                        db = db_next;
                    }
                    DepKind::Mvd => {
                        // mixed meet rule: X_new ⊔= Ṽ ⊓ Ṽ^C
                        let x_next = alg.join(&x_new, &alg.meet(&vtilde, &alg.compl(&vtilde)));
                        let mut db_next: BTreeSet<AtomSet> = BTreeSet::new();
                        for w in &db {
                            let inter = alg.cc(&alg.meet(&vtilde, w));
                            if !inter.is_empty() && inter != *w {
                                db_next.insert(inter);
                                db_next.insert(alg.cc(&alg.pdiff(w, &vtilde)));
                            } else {
                                db_next.insert(w.clone());
                            }
                        }
                        changed = x_next != x_new || db_next != db;
                        x_new = x_next;
                        db = db_next;
                    }
                }
            }
            if trace.is_some() {
                pass_steps.push(StepTrace {
                    dep_index: k,
                    ubar,
                    vtilde,
                    changed,
                    x_after: x_new.clone(),
                    db_after: sorted(&db),
                });
            }
        }

        if let Some(t) = trace.as_deref_mut() {
            t.passes.push(pass_steps);
        }
        if x_new == x_old && db == db_old {
            break;
        }
    }

    // DepB(X) := SubB(X⁺) ∪ DB_new, straight from the definition: this
    // engine is the reference the shared derivation is checked against
    let mut basis: BTreeSet<AtomSet> = db.clone();
    for a in x_new.iter() {
        basis.insert(alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [a])));
    }
    DependencyBasis {
        closure: x_new,
        blocks: sorted(&db),
        basis: basis.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_membership::closure_and_basis;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn check(attr: &str, deps: &[&str], xs: &[&str]) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        for x in xs {
            let set = alg.from_attr(&parse_subattr_of(&n, x).unwrap()).unwrap();
            let fast = closure_and_basis(&alg, &sigma, &set);
            let paper = closure_and_basis_paper(&alg, &sigma, &set);
            assert_eq!(fast, paper, "X = {x} on {attr} with {deps:?}");
        }
    }

    #[test]
    fn agrees_with_paper_engine_on_relational_schemas() {
        check(
            "L(A, B, C, D)",
            &["L(A) -> L(B)", "L(B) ->> L(C)", "L(C, D) -> L(A)"],
            &["λ", "L(A)", "L(B)", "L(C, D)", "L(A, B, C, D)"],
        );
    }

    #[test]
    fn agrees_with_paper_engine_on_nested_schemas() {
        check(
            "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
            &[
                "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
                "Pubcrawl(Visit[λ]) -> Pubcrawl(Person)",
            ],
            &["λ", "Pubcrawl(Person)", "Pubcrawl(Visit[λ])"],
        );
        check(
            "A'(B, C[D(E, F[G])])",
            &[
                "A'(B) ->> A'(C[D(E)])",
                "A'(C[λ]) -> A'(B)",
                "A'(C[D(F[λ])]) ->> A'(B, C[D(E)])",
            ],
            &["λ", "A'(B)", "A'(C[λ])", "A'(B, C[D(E, F[λ])])"],
        );
    }

    #[test]
    fn agrees_on_the_paper_running_example() {
        check(
            "L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))",
            &[
                "L1(L2[λ]) -> L1(L5[L6(D, λ)])",
                "L1(L5[L6(D, E)]) ->> L1(L7(F, λ, λ))",
                "L1(L7(λ, L8[λ], λ)) ->> L1(L2[L3[λ]])",
                "L1(L7(F, λ, I)) -> L1(L7(λ, L8[L9(G, λ)], λ))",
            ],
            &["λ", "L1(L2[λ])", "L1(L5[L6(D, E)])", "L1(L7(F, λ, I))"],
        );
    }

    #[test]
    fn empty_sigma_and_top_bottom() {
        check("L(A, B, C)", &[], &["λ", "L(A)", "L(A, B, C)"]);
        check("L[A]", &["λ ->> L[λ]"], &["λ", "L[λ]", "L[A]"]);
    }
}
