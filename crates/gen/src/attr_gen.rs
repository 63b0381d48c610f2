//! Random nested-attribute generation for the evaluation workloads
//! (experiments E-THM64a/b of DESIGN.md).
//!
//! The paper's size measure is `|N| = |SubB(N)|` — the number of atoms
//! (flat leaves + list nodes). [`attr_with_atoms`] produces attributes of
//! an exact atom count with controllable list density and nesting depth,
//! so complexity sweeps can hold everything but `|N|` fixed.

use nalist_types::attr::NestedAttr;
use rand::Rng;

/// Shape parameters for random attribute generation.
#[derive(Debug, Clone, Copy)]
pub struct AttrConfig {
    /// Target number of atoms `|SubB(N)|` (exact).
    pub atoms: usize,
    /// Probability that a generated atom is a list node rather than a
    /// flat leaf (0 produces a flat relational schema).
    pub list_prob: f64,
    /// Maximum nesting depth of list/record structure.
    pub max_depth: usize,
    /// Maximum children per record node.
    pub max_fanout: usize,
}

impl Default for AttrConfig {
    fn default() -> Self {
        AttrConfig {
            atoms: 12,
            list_prob: 0.3,
            max_depth: 5,
            max_fanout: 4,
        }
    }
}

/// Generates a nested attribute with exactly `cfg.atoms` atoms.
///
/// The root is always a record (mirroring real schemas); fresh names
/// `A0, A1, …` / `L0, L1, …` keep flats and labels disjoint.
pub fn random_attr(rng: &mut impl Rng, cfg: &AttrConfig) -> NestedAttr {
    let mut next_flat = 0usize;
    let mut next_label = 0usize;
    let children = gen_children(rng, cfg, cfg.atoms, 1, &mut next_flat, &mut next_label);
    let label = fresh_label(&mut next_label);
    NestedAttr::record(label, children).expect("atoms ≥ 1 produces children")
}

/// Convenience: a random attribute with exactly `atoms` atoms and default
/// shape parameters.
pub fn attr_with_atoms(rng: &mut impl Rng, atoms: usize) -> NestedAttr {
    random_attr(
        rng,
        &AttrConfig {
            atoms,
            ..AttrConfig::default()
        },
    )
}

/// The flat names of [`repetitive_attr`]: a pool of two, so that
/// siblings repeat them.
pub const REPEATED_NAMES: [&str; 2] = ["A", "B"];

/// The record and list labels of [`repetitive_attr`], a pool of two.
pub const REPEATED_LABELS: [&str; 2] = ["L", "M"];

/// A random attribute of depth at most `depth` over [`REPEATED_NAMES`]
/// and [`REPEATED_LABELS`], so that siblings repeat names and labels as
/// Definition 3.2 allows and [`random_attr`] never does. Leaving out a
/// bottom can then make a text name two subattributes, as `L(A)` does in
/// `L(A, A)` (§3.3).
pub fn repetitive_attr(rng: &mut impl Rng, depth: u32) -> NestedAttr {
    if depth == 0 || rng.gen_bool(0.3) {
        return NestedAttr::flat(pick(rng, &REPEATED_NAMES));
    }
    let label = pick(rng, &REPEATED_LABELS);
    if rng.gen_bool(0.25) {
        return NestedAttr::list(label, repetitive_attr(rng, depth - 1));
    }
    let k = rng.gen_range(1..=4);
    let children = (0..k).map(|_| repetitive_attr(rng, depth - 1)).collect();
    NestedAttr::record(label, children).expect("k ≥ 1")
}

fn pick(rng: &mut impl Rng, pool: &[&str]) -> String {
    pool[rng.gen_range(0..pool.len())].to_owned()
}

/// A flat relational schema `L(A0, …, A{n-1})` (the RDM special case).
pub fn flat_attr(atoms: usize) -> NestedAttr {
    NestedAttr::record(
        "R",
        (0..atoms)
            .map(|i| NestedAttr::flat(format!("A{i}")))
            .collect(),
    )
    .expect("atoms ≥ 1")
}

fn fresh_flat(next: &mut usize) -> String {
    let name = format!("A{next}");
    *next += 1;
    name
}

fn fresh_label(next: &mut usize) -> String {
    let name = format!("L{next}");
    *next += 1;
    name
}

/// Generates a list of sibling attributes that together contribute
/// exactly `budget` atoms.
fn gen_children(
    rng: &mut impl Rng,
    cfg: &AttrConfig,
    budget: usize,
    depth: usize,
    next_flat: &mut usize,
    next_label: &mut usize,
) -> Vec<NestedAttr> {
    let mut out = Vec::new();
    let mut remaining = budget;
    while remaining > 0 {
        let take = if out.len() + 1 >= cfg.max_fanout {
            remaining
        } else {
            rng.gen_range(1..=remaining)
        };
        out.push(gen_one(rng, cfg, take, depth, next_flat, next_label));
        remaining -= take;
    }
    out
}

/// Generates one attribute contributing exactly `budget ≥ 1` atoms.
fn gen_one(
    rng: &mut impl Rng,
    cfg: &AttrConfig,
    budget: usize,
    depth: usize,
    next_flat: &mut usize,
    next_label: &mut usize,
) -> NestedAttr {
    debug_assert!(budget >= 1);
    if depth >= cfg.max_depth && budget > 1 {
        // depth exhausted: flatten the remaining budget into one record
        let children: Vec<NestedAttr> = (0..budget)
            .map(|_| NestedAttr::flat(fresh_flat(next_flat)))
            .collect();
        return NestedAttr::record(fresh_label(next_label), children).expect("budget ≥ 1");
    }
    if budget == 1 {
        // a single atom: flat leaf, or an information-less list L[λ]
        if depth < cfg.max_depth && rng.gen_bool(cfg.list_prob) {
            NestedAttr::list(fresh_label(next_label), NestedAttr::Null)
        } else {
            NestedAttr::flat(fresh_flat(next_flat))
        }
    } else if depth < cfg.max_depth && rng.gen_bool(cfg.list_prob) {
        // list node costs one atom; content takes the rest
        let inner_budget = budget - 1;
        let inner = if depth + 1 < cfg.max_depth && rng.gen_bool(0.5) {
            // wrap multiple children in a record; the record occupies its
            // own level, so the children sit two levels below the list
            let children = gen_children(rng, cfg, inner_budget, depth + 2, next_flat, next_label);
            if children.len() == 1 {
                children.into_iter().next().expect("one child")
            } else {
                NestedAttr::record(fresh_label(next_label), children).expect("children ≥ 1")
            }
        } else {
            gen_one(rng, cfg, inner_budget, depth + 1, next_flat, next_label)
        };
        NestedAttr::list(fresh_label(next_label), inner)
    } else {
        // record with ≥ 2 children splitting the budget
        let children = gen_children(rng, cfg, budget, depth + 1, next_flat, next_label);
        if children.len() == 1 {
            children.into_iter().next().expect("one child")
        } else {
            NestedAttr::record(fresh_label(next_label), children).expect("children ≥ 1")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_atom_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        for atoms in 1..=40 {
            for _ in 0..5 {
                let n = attr_with_atoms(&mut rng, atoms);
                assert_eq!(n.basis_size(), atoms, "{n}");
                n.validate().unwrap();
            }
        }
    }

    #[test]
    fn flat_config_produces_relational_schema() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = AttrConfig {
            atoms: 10,
            list_prob: 0.0,
            ..AttrConfig::default()
        };
        let n = random_attr(&mut rng, &cfg);
        assert_eq!(n.list_node_count(), 0);
        assert_eq!(n.flat_leaf_count(), 10);
    }

    #[test]
    fn high_list_prob_produces_lists() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = AttrConfig {
            atoms: 20,
            list_prob: 0.9,
            ..AttrConfig::default()
        };
        let n = random_attr(&mut rng, &cfg);
        assert!(n.list_node_count() > 0);
        assert_eq!(n.basis_size(), 20);
    }

    #[test]
    fn depth_bounded() {
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = AttrConfig {
            atoms: 30,
            list_prob: 0.8,
            max_depth: 3,
            max_fanout: 3,
        };
        for _ in 0..10 {
            let n = random_attr(&mut rng, &cfg);
            // one extra level for the flattening record at the depth limit
            assert!(
                n.depth() <= cfg.max_depth + 2,
                "depth {} for {n}",
                n.depth()
            );
            assert_eq!(n.basis_size(), 30);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = attr_with_atoms(&mut StdRng::seed_from_u64(42), 15);
        let b = attr_with_atoms(&mut StdRng::seed_from_u64(42), 15);
        assert_eq!(a, b);
    }

    #[test]
    fn names_disjoint() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = attr_with_atoms(&mut rng, 25);
        nalist_types::Universe::from_attr(&n).unwrap();
    }

    #[test]
    fn flat_attr_shape() {
        let n = flat_attr(5);
        assert_eq!(n.to_string(), "R(A0, A1, A2, A3, A4)");
        assert_eq!(n.basis_size(), 5);
    }
}
