//! Candidate keys for nested schemas: subattributes `X` whose closure is
//! the whole attribute (`X⁺ = N`) and that are minimal with this property.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::CompiledDep;
use nalist_guard::{Budget, ResourceExhausted};

use crate::closure;

/// Is `X` a superkey (`X⁺ = N`)?
pub fn is_superkey(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    Ok(closure(alg, sigma, x, budget)? == alg.top_set())
}

/// Is `X` a candidate key (a superkey none of whose proper subattributes
/// is a superkey)?
pub fn is_candidate_key(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<bool, ResourceExhausted> {
    if !is_superkey(alg, sigma, x, budget)? {
        return Ok(false);
    }
    for smaller in shrink_steps(alg, x) {
        if is_superkey(alg, sigma, &smaller, budget)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// All downward-closed sets obtained by removing one maximal-within-`x`
/// atom (the lattice's lower covers of `x`).
fn shrink_steps(alg: &Algebra, x: &AtomSet) -> Vec<AtomSet> {
    x.iter()
        .filter(|&a| alg.atom(a).above.iter().all(|b| b == a || !x.contains(b)))
        .map(|a| {
            let mut s = x.clone();
            s.remove(a);
            s
        })
        .collect()
}

/// Greedily minimises a superkey to a candidate key (deterministic:
/// always drops the highest-numbered droppable atom first).
///
/// # Panics
/// Panics if `x` is not a superkey.
pub fn minimize_superkey(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<AtomSet, ResourceExhausted> {
    assert!(
        is_superkey(alg, sigma, x, budget)?,
        "minimize_superkey requires a superkey"
    );
    let mut key = x.clone();
    loop {
        let mut shrunk = false;
        let mut steps = shrink_steps(alg, &key);
        steps.reverse();
        for smaller in steps {
            if is_superkey(alg, sigma, &smaller, budget)? {
                key = smaller;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return Ok(key);
        }
    }
}

/// Enumerates candidate keys by breadth-first search downward from `N`,
/// capped at `limit` results (the number of candidate keys can be
/// exponential). Results are deterministic and duplicate-free.
pub fn candidate_keys(
    alg: &Algebra,
    sigma: &[CompiledDep],
    limit: usize,
    budget: &Budget,
) -> Result<Vec<AtomSet>, ResourceExhausted> {
    use std::collections::BTreeSet;
    let mut keys: Vec<AtomSet> = Vec::new();
    let mut visited: BTreeSet<AtomSet> = BTreeSet::new();
    let mut frontier: Vec<AtomSet> = vec![alg.top_set()];
    visited.insert(alg.top_set());
    while let Some(x) = frontier.pop() {
        if keys.len() >= limit {
            break;
        }
        if !is_superkey(alg, sigma, &x, budget)? {
            continue;
        }
        let mut smaller_superkeys: Vec<AtomSet> = Vec::new();
        for s in shrink_steps(alg, &x) {
            if is_superkey(alg, sigma, &s, budget)? {
                smaller_superkeys.push(s);
            }
        }
        if smaller_superkeys.is_empty() {
            if !keys.contains(&x) {
                keys.push(x);
            }
        } else {
            for s in smaller_superkeys {
                if visited.insert(s.clone()) {
                    frontier.push(s);
                }
            }
        }
    }
    keys.sort();
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn setup(attr: &str, deps: &[&str]) -> (Algebra, Vec<CompiledDep>) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        (alg, sigma)
    }

    fn sub(alg: &Algebra, s: &str) -> AtomSet {
        alg.from_attr(&parse_subattr_of(alg.attr(), s).unwrap())
            .unwrap()
    }

    #[test]
    fn simple_key() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B, C)"]);
        let a = sub(&alg, "L(A)");
        assert!(is_superkey(&alg, &sigma, &a, &Budget::unlimited()).unwrap());
        assert!(is_candidate_key(&alg, &sigma, &a, &Budget::unlimited()).unwrap());
        assert!(is_superkey(&alg, &sigma, &alg.top_set(), &Budget::unlimited()).unwrap());
        assert!(!is_candidate_key(&alg, &sigma, &alg.top_set(), &Budget::unlimited()).unwrap());
        let keys = candidate_keys(&alg, &sigma, 10, &Budget::unlimited()).unwrap();
        assert_eq!(keys, vec![a]);
    }

    #[test]
    fn two_candidate_keys() {
        let (alg, sigma) = setup("L(A, B)", &["L(A) -> L(B)", "L(B) -> L(A)"]);
        let keys = candidate_keys(&alg, &sigma, 10, &Budget::unlimited()).unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&sub(&alg, "L(A)")));
        assert!(keys.contains(&sub(&alg, "L(B)")));
    }

    #[test]
    fn minimize_superkey_reaches_key() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"]);
        let key = minimize_superkey(&alg, &sigma, &alg.top_set(), &Budget::unlimited()).unwrap();
        assert_eq!(alg.render(&key), "L(A)");
        assert!(is_candidate_key(&alg, &sigma, &key, &Budget::unlimited()).unwrap());
    }

    #[test]
    fn list_shape_key() {
        // Person ↠ Pub-list plus shape FDs do not make Person a key, but
        // Person ⊔ full visit list is one.
        let n = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";
        let (alg, sigma) = setup(n, &["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"]);
        let person = sub(&alg, "Pubcrawl(Person)");
        assert!(!is_superkey(&alg, &sigma, &person, &Budget::unlimited()).unwrap());
        assert!(is_superkey(&alg, &sigma, &alg.top_set(), &Budget::unlimited()).unwrap());
        let keys = candidate_keys(&alg, &sigma, 10, &Budget::unlimited()).unwrap();
        assert!(!keys.is_empty());
        for k in &keys {
            assert!(is_candidate_key(&alg, &sigma, k, &Budget::unlimited()).unwrap());
        }
    }

    #[test]
    fn key_enumeration_complete_vs_bruteforce() {
        // on small algebras, candidate_keys must find exactly the minimal
        // superkeys a brute-force scan over all of Sub(N) finds
        for (attr, deps) in [
            ("L(A, B, C)", vec!["L(A) -> L(B)", "L(B) -> L(A)"]),
            ("L(A, M[B])", vec!["L(A) -> L(M[B])"]),
            ("K[L(M[A], B)]", vec!["K[L(B)] -> K[L(M[A])]"]),
            ("L(A, B, C)", vec!["L(A) ->> L(B)"]),
        ] {
            let (alg, sigma) = setup(attr, &deps);
            let found = candidate_keys(&alg, &sigma, 64, &Budget::unlimited()).unwrap();
            let mut brute: Vec<AtomSet> = Vec::new();
            let elements = nalist_algebra::lattice::enumerate_sets(&alg);
            for x in &elements {
                if !is_superkey(&alg, &sigma, x, &Budget::unlimited()).unwrap() {
                    continue;
                }
                let minimal = elements
                    .iter()
                    .filter(|y| alg.le(y, x) && **y != *x)
                    .all(|y| !is_superkey(&alg, &sigma, y, &Budget::unlimited()).unwrap());
                if minimal {
                    brute.push(x.clone());
                }
            }
            brute.sort();
            assert_eq!(found, brute, "{attr} with {deps:?}");
        }
    }

    #[test]
    fn key_with_no_dependencies_is_top() {
        let (alg, sigma) = setup("L(A, B)", &[]);
        let keys = candidate_keys(&alg, &sigma, 10, &Budget::unlimited()).unwrap();
        assert_eq!(keys, vec![alg.top_set()]);
    }
}
