//! Random dependency-set generation over a fixed algebra.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::CompiledDep;
use rand::Rng;

/// Parameters for random `Σ` generation.
#[derive(Debug, Clone, Copy)]
pub struct SigmaConfig {
    /// Number of dependencies.
    pub count: usize,
    /// Probability that a dependency is an FD (otherwise an MVD).
    pub fd_prob: f64,
    /// Expected fraction of atoms on each side.
    pub density: f64,
    /// Skip dependencies that are trivial by Lemma 4.3.
    pub skip_trivial: bool,
}

impl Default for SigmaConfig {
    fn default() -> Self {
        SigmaConfig {
            count: 8,
            fd_prob: 0.5,
            density: 0.3,
            skip_trivial: true,
        }
    }
}

/// A random element of `Sub(N)`: pick atoms independently with the given
/// density, then close downward.
pub fn random_subattr(rng: &mut impl Rng, alg: &Algebra, density: f64) -> AtomSet {
    let mut picked = AtomSet::empty(alg.atom_count());
    for a in 0..alg.atom_count() {
        if rng.gen_bool(density) {
            picked.insert(a);
        }
    }
    alg.downward_closure(&picked)
}

/// A random dependency with the given density and FD probability.
pub fn random_dep(rng: &mut impl Rng, alg: &Algebra, density: f64, fd_prob: f64) -> CompiledDep {
    let lhs = random_subattr(rng, alg, density);
    let rhs = random_subattr(rng, alg, density);
    if rng.gen_bool(fd_prob) {
        CompiledDep::fd(lhs, rhs)
    } else {
        CompiledDep::mvd(lhs, rhs)
    }
}

/// A non-trivial random dependency with a non-empty left-hand side of
/// density `lhs` and a right-hand side of density `rhs`, an FD with
/// probability `fd_prob`. Left-hand sides sparser than the right-hand
/// sides make dependencies fire: `read-cold`'s `Σ` draws them at 0.05
/// and 0.3 with FD share 0.1, its queries at 0.3, 0.3 and 0.5.
///
/// # Panics
///
/// When 65,536 draws in a row give no such dependency, as on a one-atom
/// schema, where every dependency with a non-empty left-hand side is
/// trivial.
pub fn random_nontrivial_dep(
    rng: &mut impl Rng,
    alg: &Algebra,
    lhs: f64,
    rhs: f64,
    fd_prob: f64,
) -> CompiledDep {
    for _ in 0..1 << 16 {
        let l = random_subattr(rng, alg, lhs);
        if l.is_empty() {
            continue;
        }
        let r = random_subattr(rng, alg, rhs);
        let d = if rng.gen_bool(fd_prob) {
            CompiledDep::fd(l, r)
        } else {
            CompiledDep::mvd(l, r)
        };
        if !d.is_trivial(alg) {
            return d;
        }
    }
    panic!(
        "random_nontrivial_dep: 65536 draws gave no non-trivial dependency with a non-empty \
         left-hand side on {}",
        alg.attr()
    );
}

/// A random dependency set; with `skip_trivial`, trivial candidates are
/// re-rolled a bounded number of times (trivial ones may still appear in
/// degenerate algebras where everything is trivial).
pub fn random_sigma(rng: &mut impl Rng, alg: &Algebra, cfg: &SigmaConfig) -> Vec<CompiledDep> {
    let mut out = Vec::with_capacity(cfg.count);
    for _ in 0..cfg.count {
        let mut dep = random_dep(rng, alg, cfg.density, cfg.fd_prob);
        if cfg.skip_trivial {
            for _ in 0..32 {
                if !dep.is_trivial(alg) {
                    break;
                }
                dep = random_dep(rng, alg, cfg.density, cfg.fd_prob);
            }
        }
        out.push(dep);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr_gen::attr_with_atoms;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_subattrs_are_lattice_elements() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = attr_with_atoms(&mut rng, 20);
        let alg = Algebra::new(&n);
        for _ in 0..50 {
            let x = random_subattr(&mut rng, &alg, 0.4);
            assert!(alg.is_downward_closed(&x));
        }
    }

    #[test]
    #[should_panic(expected = "no non-trivial dependency")]
    fn nontrivial_deps_do_not_exist_on_one_atom() {
        // the only non-empty left-hand side is the whole schema, so every
        // dependency drawn is trivial; this used to loop forever
        let n = nalist_types::parser::parse_attr("R(A)").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        random_nontrivial_dep(&mut rng, &Algebra::new(&n), 0.5, 0.5, 0.5);
    }

    #[test]
    fn density_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = attr_with_atoms(&mut rng, 10);
        let alg = Algebra::new(&n);
        assert!(random_subattr(&mut rng, &alg, 0.0).is_empty());
        assert_eq!(random_subattr(&mut rng, &alg, 1.0), alg.top_set());
    }

    #[test]
    fn sigma_respects_count_and_mostly_nontrivial() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = attr_with_atoms(&mut rng, 15);
        let alg = Algebra::new(&n);
        let sigma = random_sigma(&mut rng, &alg, &SigmaConfig::default());
        assert_eq!(sigma.len(), 8);
        let trivial = sigma.iter().filter(|d| d.is_trivial(&alg)).count();
        assert!(trivial <= 2, "{trivial} trivial dependencies");
    }

    #[test]
    fn deterministic_for_seed() {
        let n = attr_with_atoms(&mut StdRng::seed_from_u64(6), 12);
        let alg = Algebra::new(&n);
        let s1 = random_sigma(&mut StdRng::seed_from_u64(9), &alg, &SigmaConfig::default());
        let s2 = random_sigma(&mut StdRng::seed_from_u64(9), &alg, &SigmaConfig::default());
        assert_eq!(s1, s2);
    }
}
