//! Lossless decomposition driven by MVDs (Theorem 4.4): an instance
//! satisfying `X ↠ Y` is exactly the generalised join of its projections
//! onto `X ⊔ Y` and `X ⊔ Y^C`.
//!
//! [`binary_split`] computes the two component attributes for a
//! dependency; [`decompose_4nf`] repeatedly splits on 4NF violations
//! until every component is violation-free (each split is guaranteed
//! lossless by Theorem 4.4); [`verify_lossless`] checks a decomposition
//! against a concrete instance.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::join::generalized_join;
use nalist_deps::{CompiledDep, DepKind, Instance};
use nalist_membership::closure::closure_and_basis;
use nalist_types::attr::NestedAttr;
use nalist_types::error::TypeError;

/// One component of a decomposition: the component attribute together
/// with the dependencies of `Σ` that transfer to it syntactically (both
/// sides below the component).
#[derive(Debug, Clone)]
pub struct Component {
    /// The component attribute (a subattribute of the original `N`).
    pub attr: NestedAttr,
    /// Its atom set in the original algebra.
    pub atoms: AtomSet,
    /// Dependencies of `Σ` whose both sides lie within the component.
    pub local_deps: Vec<CompiledDep>,
}

/// Splits `N` along a dependency `X → Y` / `X ↠ Y` into
/// `X ⊔ Y` and `X ⊔ Y^C` (the Theorem 4.4 decomposition).
pub fn binary_split(alg: &Algebra, dep: &CompiledDep) -> (AtomSet, AtomSet) {
    let left = alg.join(&dep.lhs, &dep.rhs);
    let right = alg.join(&dep.lhs, &alg.compl(&dep.rhs));
    (left, right)
}

/// Verifies on a concrete instance that projecting `r` onto the component
/// atom sets and re-joining reproduces `r` (the operational content of
/// Theorem 4.4).
pub fn verify_lossless(
    alg: &Algebra,
    r: &Instance,
    components: &[AtomSet],
) -> Result<bool, TypeError> {
    assert!(!components.is_empty(), "need at least one component");
    let mut acc = r.project(&alg.to_attr(&components[0]))?;
    for c in &components[1..] {
        let p = r.project(&alg.to_attr(c))?;
        acc = generalized_join(alg, &acc, &p)?;
    }
    // compare against r projected onto the union of components
    let mut union = alg.bottom_set();
    for c in components {
        union.union_with(c);
    }
    let target = r.project(&alg.to_attr(&union))?;
    Ok(acc == target)
}

/// Dependencies of `Σ` that transfer to a component syntactically: both
/// sides below the component attribute (their validity in the projection
/// follows from validity in `r`).
fn local_deps(alg: &Algebra, sigma: &[CompiledDep], component: &AtomSet) -> Vec<CompiledDep> {
    sigma
        .iter()
        .filter(|d| alg.le(&d.lhs, component) && alg.le(&d.rhs, component))
        .cloned()
        .collect()
}

/// Recursively decomposes `(N, Σ)` into 4NF-with-lists components by
/// splitting on violating dependencies (Theorem 4.4 guarantees each split
/// is lossless). Dependencies are propagated *syntactically*: a component
/// keeps the members of `Σ` fully contained in it. As in the relational
/// case this may under-approximate the projected dependency set (implied
/// dependencies straddling the split can be lost — dependency
/// preservation is not guaranteed by 4NF decomposition).
///
/// `max_components` bounds the recursion as a safety valve.
pub fn decompose_4nf(
    alg: &Algebra,
    sigma: &[CompiledDep],
    max_components: usize,
) -> Vec<Component> {
    let mut work: Vec<(AtomSet, Vec<CompiledDep>)> = vec![(alg.top_set(), sigma.to_vec())];
    let mut done: Vec<Component> = Vec::new();
    while let Some((atoms, deps)) = work.pop() {
        if done.len() + work.len() + 1 >= max_components {
            done.push(component(alg, atoms, deps));
            continue;
        }
        // find a violating dependency *within this component*
        let violating = deps.iter().position(|d| {
            !d.is_trivial_within(alg, &atoms)
                && closure_and_basis(alg, &deps, &d.lhs)
                    .closure
                    .intersect(&atoms)
                    != atoms
        });
        match violating {
            None => done.push(component(alg, atoms, deps)),
            Some(i) => {
                let d = &deps[i];
                let (l, r) = binary_split(alg, d);
                let l = l.intersect(&atoms);
                let r = r.intersect(&atoms);
                if l == atoms || r == atoms {
                    // split does not reduce the component; stop here
                    done.push(component(alg, atoms, deps));
                    continue;
                }
                let dl = local_deps(alg, &deps, &l);
                let dr = local_deps(alg, &deps, &r);
                work.push((l, dl));
                work.push((r, dr));
            }
        }
    }
    done.sort_by(|a, b| a.atoms.cmp(&b.atoms));
    done
}

fn component(alg: &Algebra, atoms: AtomSet, deps: Vec<CompiledDep>) -> Component {
    Component {
        attr: alg.to_attr(&atoms),
        atoms,
        local_deps: deps,
    }
}

/// Dependency preservation: does the union of the components' local
/// dependency sets still imply every member of the original `Σ`?
/// Returns the indices of the *lost* dependencies (empty = preserving).
///
/// As in the relational theory, 4NF decomposition is lossless but not
/// necessarily dependency-preserving; this check makes the trade-off
/// visible to the designer.
pub fn lost_dependencies(
    alg: &Algebra,
    sigma: &[CompiledDep],
    components: &[Component],
) -> Vec<usize> {
    let pooled: Vec<CompiledDep> = components
        .iter()
        .flat_map(|c| c.local_deps.iter().cloned())
        .collect();
    (0..sigma.len())
        .filter(|&i| !nalist_membership::implies(alg, &pooled, &sigma[i]))
        .collect()
}

/// Is the decomposition dependency-preserving?
pub fn is_dependency_preserving(
    alg: &Algebra,
    sigma: &[CompiledDep],
    components: &[Component],
) -> bool {
    lost_dependencies(alg, sigma, components).is_empty()
}

trait TrivialWithin {
    fn is_trivial_within(&self, alg: &Algebra, component: &AtomSet) -> bool;
}

impl TrivialWithin for CompiledDep {
    /// Lemma 4.3 relativised to a component `M`: `Y ≤ X`, or (for MVDs)
    /// `X ⊔ Y ⊇ M`.
    fn is_trivial_within(&self, alg: &Algebra, component: &AtomSet) -> bool {
        let rhs_in = self.rhs.intersect(component);
        if alg.le(&rhs_in, &self.lhs) {
            return true;
        }
        match self.kind {
            DepKind::Fd => false,
            DepKind::Mvd => component.is_subset(&alg.join(&self.lhs, &self.rhs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_types::parser::parse_attr;

    fn setup(attr: &str, deps: &[&str]) -> (Algebra, Vec<CompiledDep>) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        (alg, sigma)
    }

    #[test]
    fn pubcrawl_splits_into_beer_and_pub_sides() {
        let (alg, sigma) = setup(
            "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
            &["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"],
        );
        let (l, r) = binary_split(&alg, &sigma[0]);
        assert_eq!(alg.render(&l), "Pubcrawl(Person, Visit[Drink(Pub)])");
        assert_eq!(alg.render(&r), "Pubcrawl(Person, Visit[Drink(Beer)])");
    }

    #[test]
    fn lossless_verified_on_pubcrawl_instance() {
        let (alg, sigma) = setup(
            "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
            &["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"],
        );
        let r = Instance::from_strs(
            alg.attr().clone(),
            &[
                "(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])",
                "(Sven, [(Kindl, Deanos), (Lübzer, Highflyers)])",
                "(Sebastian, [])",
            ],
        )
        .unwrap();
        let (l, rr) = binary_split(&alg, &sigma[0]);
        assert!(verify_lossless(&alg, &r, &[l, rr]).unwrap());
    }

    #[test]
    fn lossy_components_detected() {
        let (alg, _) = setup("L(A, B, C)", &[]);
        let r = Instance::from_strs(alg.attr().clone(), &["(a, b1, c1)", "(a, b2, c2)"]).unwrap();
        // splitting B from C without an MVD loses information
        let n = alg.attr().clone();
        let ab = alg
            .from_attr(&nalist_types::parser::parse_subattr_of(&n, "L(A, B)").unwrap())
            .unwrap();
        let ac = alg
            .from_attr(&nalist_types::parser::parse_subattr_of(&n, "L(A, C)").unwrap())
            .unwrap();
        assert!(!verify_lossless(&alg, &r, &[ab, ac]).unwrap());
    }

    #[test]
    fn decompose_until_4nf() {
        let (alg, sigma) = setup(
            "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
            &["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"],
        );
        let comps = decompose_4nf(&alg, &sigma, 8);
        assert_eq!(comps.len(), 2);
        let names: Vec<String> = comps.iter().map(|c| alg.render(&c.atoms)).collect();
        assert!(names.contains(&"Pubcrawl(Person, Visit[Drink(Pub)])".to_string()));
        assert!(names.contains(&"Pubcrawl(Person, Visit[Drink(Beer)])".to_string()));
    }

    #[test]
    fn already_4nf_stays_whole() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B, C)"]);
        let comps = decompose_4nf(&alg, &sigma, 8);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].atoms, alg.top_set());
        assert_eq!(comps[0].local_deps.len(), 1);
    }

    #[test]
    fn dependency_preservation_detected() {
        // preserving case: the split components keep their dependencies
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let comps = decompose_4nf(&alg, &sigma, 8);
        assert!(is_dependency_preserving(&alg, &sigma, &comps));

        // lossy case: the classic B → C straddling a split on A ↠ B
        let (alg2, sigma2) = setup("L(A, B, C)", &["L(A) ->> L(B)", "L(B) -> L(C)"]);
        let d = &sigma2[0];
        let (l, r) = binary_split(&alg2, d);
        let comps2 = vec![
            component(&alg2, l.clone(), local_deps(&alg2, &sigma2, &l)),
            component(&alg2, r.clone(), local_deps(&alg2, &sigma2, &r)),
        ];
        // B → C has B in one component and C in the other: lost
        let lost = lost_dependencies(&alg2, &sigma2, &comps2);
        assert_eq!(lost, vec![1]);
        assert!(!is_dependency_preserving(&alg2, &sigma2, &comps2));
    }

    #[test]
    fn relational_textbook_example() {
        // R(A, B, C): A ↠ B splits into (A, B) and (A, C).
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let comps = decompose_4nf(&alg, &sigma, 8);
        assert_eq!(comps.len(), 2);
        // verify the split is lossless on a satisfying instance
        let r = Instance::from_strs(
            alg.attr().clone(),
            &["(a, b1, c1)", "(a, b1, c2)", "(a, b2, c1)", "(a, b2, c2)"],
        )
        .unwrap();
        let atom_sets: Vec<AtomSet> = comps.iter().map(|c| c.atoms.clone()).collect();
        assert!(verify_lossless(&alg, &r, &atom_sets).unwrap());
    }
}
