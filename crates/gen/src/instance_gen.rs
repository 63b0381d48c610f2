//! Random and Σ-satisfying instance generation.

use nalist_algebra::Algebra;
use nalist_deps::{CompiledDep, Instance};
use nalist_membership::closure::closure_and_basis;
use nalist_membership::witness::combination_instance;
use nalist_types::attr::NestedAttr;
use nalist_types::value::Value;
use rand::Rng;

/// Parameters for random value generation.
#[derive(Debug, Clone, Copy)]
pub struct InstanceConfig {
    /// Number of tuples to attempt (duplicates collapse).
    pub rows: usize,
    /// Distinct base values per flat attribute (small domains make
    /// dependency violations/satisfactions likely).
    pub domain_size: u32,
    /// Maximum list length.
    pub max_list_len: usize,
}

impl Default for InstanceConfig {
    fn default() -> Self {
        InstanceConfig {
            rows: 16,
            domain_size: 3,
            max_list_len: 3,
        }
    }
}

/// A uniformly random value of `dom(n)` under the configured shape.
pub fn random_value(rng: &mut impl Rng, n: &NestedAttr, cfg: &InstanceConfig) -> Value {
    match n {
        NestedAttr::Null => Value::Ok,
        NestedAttr::Flat(name) => {
            Value::str(format!("{name}#{}", rng.gen_range(0..cfg.domain_size)))
        }
        NestedAttr::Record(_, children) => {
            Value::Tuple(children.iter().map(|c| random_value(rng, c, cfg)).collect())
        }
        NestedAttr::List(_, inner) => {
            let len = rng.gen_range(0..=cfg.max_list_len);
            Value::List((0..len).map(|_| random_value(rng, inner, cfg)).collect())
        }
    }
}

/// A random instance over `n` (no dependency guarantees).
pub fn random_instance(rng: &mut impl Rng, n: &NestedAttr, cfg: &InstanceConfig) -> Instance {
    let mut r = Instance::new(n.clone());
    for _ in 0..cfg.rows {
        let v = random_value(rng, n, cfg);
        r.insert(v).expect("random values conform by construction");
    }
    r
}

/// An instance guaranteed to satisfy `Σ`: the completeness-construction
/// combination instance for a random left-hand side `X` (Section 4.2 of
/// the paper). Returns `None` if the construction would exceed the block
/// limit.
pub fn satisfying_instance(
    rng: &mut impl Rng,
    alg: &Algebra,
    sigma: &[CompiledDep],
    density: f64,
) -> Option<Instance> {
    let x = crate::sigma_gen::random_subattr(rng, alg, density);
    let basis = closure_and_basis(alg, sigma, &x);
    combination_instance(alg, &basis, &nalist_guard::Budget::unlimited())
        .ok()
        .map(|w| w.instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr_gen::attr_with_atoms;
    use crate::sigma_gen::{random_sigma, SigmaConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_values_conform() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let n = attr_with_atoms(&mut rng, 12);
            let v = random_value(&mut rng, &n, &InstanceConfig::default());
            assert!(v.conforms(&n), "{v} !: {n}");
        }
    }

    #[test]
    fn random_instances_have_rows() {
        let mut rng = StdRng::seed_from_u64(22);
        let n = attr_with_atoms(&mut rng, 10);
        let r = random_instance(&mut rng, &n, &InstanceConfig::default());
        assert!(!r.is_empty());
        assert!(r.len() <= 16);
    }

    #[test]
    fn satisfying_instances_satisfy() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let n = attr_with_atoms(&mut rng, 10);
            let alg = Algebra::new(&n);
            let sigma = random_sigma(
                &mut rng,
                &alg,
                &SigmaConfig {
                    count: 3,
                    ..SigmaConfig::default()
                },
            );
            if let Some(r) = satisfying_instance(&mut rng, &alg, &sigma, 0.3) {
                for d in &sigma {
                    assert!(r.satisfies(&alg, d), "instance violates {}", d.render(&alg));
                }
            }
        }
    }

    #[test]
    fn empty_lists_possible() {
        let mut rng = StdRng::seed_from_u64(24);
        let n = nalist_types::parser::parse_attr("L[A]").unwrap();
        let cfg = InstanceConfig {
            rows: 64,
            ..InstanceConfig::default()
        };
        let r = random_instance(&mut rng, &n, &cfg);
        assert!(r
            .iter()
            .any(|v| matches!(v, Value::List(items) if items.is_empty())));
    }
}
