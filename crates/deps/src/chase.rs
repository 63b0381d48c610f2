//! The chase for MVDs over nested instances: repair an instance to
//! satisfy a set of dependencies by adding the recombination tuples the
//! MVDs demand (Definition 4.1), or report why no repair exists.
//!
//! In the relational model the MVD chase always succeeds: the required
//! recombination tuple of any two `X`-agreeing tuples always *exists* as
//! a value. **With lists this fails in a characteristic way**: the
//! recombination of `t1`'s `X⊔Y`-projection with `t2`'s
//! `X⊔Y^C`-projection is only a value when the two agree on the overlap
//! `X ⊔ (Y ⊓ Y^C)` — list shapes shared by both sides. An unrepairable
//! chase step is therefore exactly a violation of the FD `X → Y ⊓ Y^C`
//! that the paper's *mixed meet rule* derives from `X ↠ Y`; the chase
//! makes that rule's semantic content operational.
//!
//! FDs cannot be repaired by adding tuples, so they are checked and
//! reported rather than chased.

use nalist_algebra::Algebra;
use nalist_guard::{Budget, ResourceExhausted};
use nalist_obs::{site, Counter, Recorder};
use nalist_types::parser::DepKind;
use nalist_types::value::Value;

use crate::dependency::CompiledDep;
use crate::instance::Instance;
use crate::join::merge_values;

/// The result of a successful chase.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The repaired instance (a superset of the input; satisfies every
    /// MVD of `Σ`).
    pub instance: Instance,
    /// Number of tuples added.
    pub added: usize,
    /// Number of chase rounds until fixpoint.
    pub rounds: usize,
}

/// Why the chase stopped without producing a repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseError {
    /// An FD of `Σ` is violated; adding tuples cannot fix that.
    FdViolated {
        /// Index of the FD in `Σ`.
        index: usize,
    },
    /// An MVD demanded a recombination tuple that does not exist as a
    /// value — the two witnesses agree on `X` but disagree on the shared
    /// list shapes `Y ⊓ Y^C` (the mixed-meet part), so the (possibly
    /// partially chased) instance violates the FD `X → Y ⊓ Y^C` that the
    /// mixed meet rule derives from the MVD. This is the list-specific
    /// failure mode absent from the relational chase. Note the witnesses
    /// may be tuples *added* by earlier chase steps of other MVDs, not
    /// necessarily tuples of the input instance.
    Unrepairable {
        /// Index of the MVD in `Σ`.
        index: usize,
        /// A witness pair whose recombination cannot exist.
        t1: Box<Value>,
        /// The second witness.
        t2: Box<Value>,
    },
    /// The instance grew past the configured bound.
    TooLarge {
        /// The configured bound.
        max_tuples: usize,
    },
    /// The chase ran out of its resource [`Budget`] (fuel or deadline)
    /// before reaching a fixpoint.
    Resource(ResourceExhausted),
}

impl std::fmt::Display for ChaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaseError::FdViolated { index } => {
                write!(f, "FD #{index} is violated; the chase cannot repair FDs")
            }
            ChaseError::Unrepairable { index, t1, t2 } => write!(
                f,
                "MVD #{index} demands a recombination of {t1} and {t2} that does not \
                 exist as a value (shared list shapes disagree — the mixed-meet FD is violated)"
            ),
            ChaseError::TooLarge { max_tuples } => {
                write!(f, "chase exceeded {max_tuples} tuples")
            }
            ChaseError::Resource(e) => write!(f, "chase stopped: {e}"),
        }
    }
}

impl std::error::Error for ChaseError {}

/// Chases `instance` with the MVDs of `sigma` until every MVD is
/// satisfied, then checks the FDs. `max_tuples` bounds the blow-up.
pub fn chase(
    alg: &Algebra,
    sigma: &[CompiledDep],
    instance: &Instance,
    max_tuples: usize,
) -> Result<ChaseResult, ChaseError> {
    chase_governed(alg, sigma, instance, max_tuples, &Budget::unlimited())
}

/// [`chase`] under a resource [`Budget`]: fuel is charged per projected
/// tuple and per attempted recombination (the two places where chase work
/// actually accrues), so runaway fixpoints stop with
/// [`ChaseError::Resource`] instead of spinning past their deadline.
pub fn chase_governed(
    alg: &Algebra,
    sigma: &[CompiledDep],
    instance: &Instance,
    max_tuples: usize,
    budget: &Budget,
) -> Result<ChaseResult, ChaseError> {
    budget
        .failpoint("deps::chase")
        .map_err(ChaseError::Resource)?;
    let mut r = instance.clone();
    let original = instance.len();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        for (index, dep) in sigma.iter().enumerate() {
            if dep.kind != DepKind::Mvd {
                continue;
            }
            let x_attr = alg.to_attr(&dep.lhs);
            let left_attr = alg.to_attr(&alg.join(&dep.lhs, &dep.rhs));
            let right_attr = alg.to_attr(&alg.join(&dep.lhs, &alg.compl(&dep.rhs)));
            // group tuples by π_X, remembering a representative per side
            use std::collections::BTreeMap;
            let mut groups: BTreeMap<Value, Vec<(Value, Value, Value)>> = BTreeMap::new();
            for t in r.iter() {
                budget.charge(1).map_err(ChaseError::Resource)?;
                let px = nalist_types::projection::project_unchecked(r.attr(), &x_attr, t)
                    .expect("tuples conform");
                let pl = nalist_types::projection::project_unchecked(r.attr(), &left_attr, t)
                    .expect("tuples conform");
                let pr = nalist_types::projection::project_unchecked(r.attr(), &right_attr, t)
                    .expect("tuples conform");
                groups.entry(px).or_default().push((pl, pr, t.clone()));
            }
            for members in groups.values() {
                for (l1, _, t1) in members {
                    for (_, r2, t2) in members {
                        budget.charge(1).map_err(ChaseError::Resource)?;
                        match merge_values(&left_attr, &right_attr, l1, r2) {
                            Some(t) => {
                                if !r.contains(&t) {
                                    if r.len() >= max_tuples {
                                        return Err(ChaseError::TooLarge { max_tuples });
                                    }
                                    r.insert(t).expect("merged values conform");
                                    changed = true;
                                }
                            }
                            None => {
                                return Err(ChaseError::Unrepairable {
                                    index,
                                    t1: Box::new(t1.clone()),
                                    t2: Box::new(t2.clone()),
                                });
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // FDs are checked, not repaired
    for (index, dep) in sigma.iter().enumerate() {
        if dep.kind == DepKind::Fd && !r.satisfies(alg, dep) {
            return Err(ChaseError::FdViolated { index });
        }
    }
    debug_assert!(r.satisfies_all(alg, sigma));
    Ok(ChaseResult {
        added: r.len() - original,
        rounds,
        instance: r,
    })
}

/// [`chase_governed`] with an observability [`Recorder`]: one span per
/// chase (payload in = input tuples, payload out = tuples added) plus
/// the [`Counter::ChaseRounds`] and [`Counter::ChaseTuples`] work
/// counters. With a disabled recorder this is exactly
/// [`chase_governed`] — no span, no counter traffic.
pub fn chase_observed(
    alg: &Algebra,
    sigma: &[CompiledDep],
    instance: &Instance,
    max_tuples: usize,
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<ChaseResult, ChaseError> {
    if !rec.enabled() {
        return chase_governed(alg, sigma, instance, max_tuples, budget);
    }
    let token = rec.enter(site::CHASE, instance.len() as u64);
    let result = chase_governed(alg, sigma, instance, max_tuples, budget);
    match &result {
        Ok(out) => {
            rec.add(Counter::ChaseRounds, out.rounds as u64);
            rec.add(Counter::ChaseTuples, out.added as u64);
            rec.exit(token, out.added as u64);
        }
        Err(_) => rec.exit(token, 0),
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;
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
    fn relational_chase_completes_the_cross_product() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let r = Instance::from_strs(alg.attr().clone(), &["(a, b1, c1)", "(a, b2, c2)"]).unwrap();
        assert!(!r.satisfies(&alg, &sigma[0]));
        let out = chase(&alg, &sigma, &r, 100).unwrap();
        assert_eq!(out.instance.len(), 4); // full cross product
        assert_eq!(out.added, 2);
        assert!(out.instance.satisfies(&alg, &sigma[0]));
        // the original tuples survive
        for t in r.iter() {
            assert!(out.instance.contains(t));
        }
    }

    #[test]
    fn satisfied_instance_is_a_fixpoint() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let r = Instance::from_strs(
            alg.attr().clone(),
            &["(a, b1, c1)", "(a, b1, c2)", "(a, b2, c1)", "(a, b2, c2)"],
        )
        .unwrap();
        let out = chase(&alg, &sigma, &r, 100).unwrap();
        assert_eq!(out.added, 0);
        assert_eq!(out.instance, r);
    }

    #[test]
    fn list_shape_conflict_is_unrepairable() {
        // λ ↠ L[λ] with lists of different lengths: the recombination
        // cannot exist — exactly the mixed-meet FD λ → L[λ] failing.
        let (alg, sigma) = setup("L[A]", &["λ ->> L[λ]"]);
        let r = Instance::from_strs(alg.attr().clone(), &["[]", "[a]"]).unwrap();
        match chase(&alg, &sigma, &r, 100) {
            Err(ChaseError::Unrepairable { index: 0, .. }) => {}
            other => panic!("expected Unrepairable, got {other:?}"),
        }
        // with matching shapes the chase succeeds
        let ok = Instance::from_strs(alg.attr().clone(), &["[a]", "[b]"]).unwrap();
        let out = chase(&alg, &sigma, &ok, 100).unwrap();
        assert!(out.instance.satisfies(&alg, &sigma[0]));
    }

    #[test]
    fn nested_chase_on_pubcrawl_fragment() {
        // two Sven tuples that satisfy the shape FD but not the MVD:
        // chasing adds the two missing beer/pub recombinations
        let (alg, sigma) = setup(
            "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
            &["Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])"],
        );
        let r = Instance::from_strs(
            alg.attr().clone(),
            &[
                "(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])",
                "(Sven, [(Kindl, Deanos), (Lübzer, Highflyers)])",
            ],
        )
        .unwrap();
        // this fragment already satisfies the MVD (it is its own chase)
        let out = chase(&alg, &sigma, &r, 100).unwrap();
        assert_eq!(out.added, 0);
        // drop one tuple: now the MVD fails and the chase restores it
        let partial = Instance::from_strs(
            alg.attr().clone(),
            &[
                "(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])",
                "(Sven, [(Kindl, Highflyers), (Lübzer, Deanos)])",
            ],
        )
        .unwrap();
        let out = chase(&alg, &sigma, &partial, 100).unwrap();
        assert!(out.instance.satisfies(&alg, &sigma[0]));
        assert_eq!(out.added, 2);
    }

    #[test]
    fn fd_violation_reported_not_repaired() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)", "L(A) -> L(C)"]);
        let r = Instance::from_strs(alg.attr().clone(), &["(a, b1, c1)", "(a, b2, c2)"]).unwrap();
        assert_eq!(
            chase(&alg, &sigma, &r, 100).unwrap_err(),
            ChaseError::FdViolated { index: 1 }
        );
    }

    #[test]
    fn growth_bound_enforced() {
        let (alg, sigma) = setup("L(A, B, C, D)", &["L(A) ->> L(B)", "L(A) ->> L(C)"]);
        // 4 tuples whose chase needs the full 2×2×2 grid (8 tuples)
        let r = Instance::from_strs(alg.attr().clone(), &["(a, b1, c1, d1)", "(a, b2, c2, d2)"])
            .unwrap();
        assert_eq!(
            chase(&alg, &sigma, &r, 3).unwrap_err(),
            ChaseError::TooLarge { max_tuples: 3 }
        );
        let out = chase(&alg, &sigma, &r, 100).unwrap();
        assert!(out.instance.satisfies_all(&alg, &sigma));
        assert!(out.instance.len() >= 8, "{}", out.instance.len());
    }

    #[test]
    fn governed_chase_stops_at_fuel() {
        let (alg, sigma) = setup("L(A, B, C, D)", &["L(A) ->> L(B)", "L(A) ->> L(C)"]);
        let r = Instance::from_strs(alg.attr().clone(), &["(a, b1, c1, d1)", "(a, b2, c2, d2)"])
            .unwrap();
        let starved = Budget::unlimited().with_fuel(3);
        match chase_governed(&alg, &sigma, &r, 100, &starved) {
            Err(ChaseError::Resource(e)) => {
                assert_eq!(e.kind, nalist_guard::ResourceKind::Fuel);
            }
            other => panic!("expected Resource, got {other:?}"),
        }
        // With ample fuel the governed chase agrees with the ungoverned one.
        let roomy = Budget::unlimited().with_fuel(1_000_000);
        let out = chase_governed(&alg, &sigma, &r, 100, &roomy).unwrap();
        assert_eq!(out.instance, chase(&alg, &sigma, &r, 100).unwrap().instance);
    }

    #[test]
    fn governed_chase_failpoint() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let r = Instance::from_strs(alg.attr().clone(), &["(a, b1, c1)"]).unwrap();
        let b = Budget::unlimited().with_failpoint(nalist_guard::FailPoint::every(
            "deps::chase",
            nalist_guard::FailAction::ExhaustFuel,
        ));
        assert!(matches!(
            chase_governed(&alg, &sigma, &r, 100, &b),
            Err(ChaseError::Resource(_))
        ));
    }

    #[test]
    fn observed_chase_matches_governed_and_counts_work() {
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let r = Instance::from_strs(alg.attr().clone(), &["(a, b1, c1)", "(a, b2, c2)"]).unwrap();
        let budget = Budget::unlimited();
        let plain = chase_governed(&alg, &sigma, &r, 100, &budget).unwrap();
        let rec = nalist_obs::MetricsRecorder::new();
        let observed = chase_observed(&alg, &sigma, &r, 100, &budget, &rec).unwrap();
        assert_eq!(observed.instance, plain.instance);
        assert_eq!(observed.rounds, plain.rounds);
        let snap = rec.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(counter("chase_rounds"), plain.rounds as u64);
        assert_eq!(counter("chase_tuples"), plain.added as u64);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].site, nalist_obs::site::CHASE);
        assert_eq!(snap.spans[0].payload_out, plain.added as u64);
        // the disabled recorder takes the zero-cost path
        let quiet = chase_observed(&alg, &sigma, &r, 100, &budget, nalist_obs::noop()).unwrap();
        assert_eq!(quiet.instance, plain.instance);
    }

    #[test]
    fn chase_of_witness_instance_is_identity() {
        // witnesses from the completeness construction already satisfy Σ
        let (alg, sigma) = setup("L(A, M[B], C)", &["L(A) ->> L(M[B])"]);
        let x = alg
            .from_attr(&nalist_types::parser::parse_subattr_of(alg.attr(), "L(A)").unwrap())
            .unwrap();
        // NOTE: uses the deps-level machinery only; the witness itself is
        // exercised in the membership crate. Here: chase idempotence on a
        // manually built satisfying instance.
        let _ = x;
        let r =
            Instance::from_strs(alg.attr().clone(), &["(a, [m1], c1)", "(a, [m2], c1)"]).unwrap();
        let out = chase(&alg, &sigma, &r, 100).unwrap();
        assert_eq!(out.added, 0);
    }
}
