//! Width-class pinning tests.
//!
//! `AtomSet` picks its word representation (`w2`/`w4`/`w8` inline
//! arrays, heap `Vec<u64>` beyond 512 atoms) purely from capacity, and
//! every binary operation dispatches once to a width-specialized kernel.
//! These tests pin three things at the *boundary* capacities where a
//! representation hand-off could silently change behaviour:
//!
//! * every operation (including the fused `union_with_changed` /
//!   `union_andnot` / `intersects_excluding` kernels) agrees with a
//!   naive `BTreeSet` model at each boundary capacity — so the classes
//!   agree with each *other* by transitivity, and the tail-word masking
//!   of partially used words (63/65/127/129/…) cannot leak bits;
//! * embedding one logical set at every capacity yields identical
//!   observable behaviour (iteration, counts, op results) regardless of
//!   which class hosts it;
//! * the worklist and paper-order engines stay bit-identical on random
//!   workloads at universe sizes straddling each class boundary.

use std::collections::BTreeSet;

use nalist::prelude::*;
use nalist_oracle::passes::closure_and_basis_paper;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Capacities one below, at, and one above each representation
/// boundary (64-bit word edges and the w2/w4/w8/heap class edges).
const BOUNDARY_CAPS: &[usize] = &[63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513];

fn class_for(cap: usize) -> WidthClass {
    if cap <= 128 {
        WidthClass::W2
    } else if cap <= 256 {
        WidthClass::W4
    } else if cap <= 512 {
        WidthClass::W8
    } else {
        WidthClass::Heap
    }
}

#[test]
fn width_class_selection_at_boundaries() {
    for &cap in BOUNDARY_CAPS {
        assert_eq!(
            WidthClass::for_capacity(cap),
            class_for(cap),
            "capacity {cap}"
        );
    }
}

fn random_model(rng: &mut StdRng, cap: usize, density: f64) -> (AtomSet, BTreeSet<usize>) {
    let model: BTreeSet<usize> = (0..cap).filter(|_| rng.gen_bool(density)).collect();
    let set = AtomSet::from_indices(cap, model.iter().copied());
    (set, model)
}

fn assert_matches_model(set: &AtomSet, model: &BTreeSet<usize>, what: &str, cap: usize) {
    assert_eq!(set.count(), model.len(), "{what}: count at capacity {cap}");
    assert_eq!(
        set.is_empty(),
        model.is_empty(),
        "{what}: is_empty at capacity {cap}"
    );
    let got: Vec<usize> = set.iter().collect();
    let want: Vec<usize> = model.iter().copied().collect();
    assert_eq!(got, want, "{what}: iteration at capacity {cap}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every `AtomSet` operation agrees with the `BTreeSet` model at
    /// every boundary capacity — the same random draw is replayed at
    /// each capacity, so all four width classes are checked against the
    /// same reference each case.
    #[test]
    fn operations_match_set_model_at_boundary_capacities(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for &cap in BOUNDARY_CAPS {
            let (a, ma) = random_model(&mut rng, cap, 0.3);
            let (b, mb) = random_model(&mut rng, cap, 0.3);
            let (e, me) = random_model(&mut rng, cap, 0.2);

            assert_matches_model(&a.union(&b), &(&ma | &mb), "union", cap);
            assert_matches_model(&a.intersect(&b), &(&ma & &mb), "intersect", cap);
            assert_matches_model(&a.difference(&b), &(&ma - &mb), "difference", cap);
            prop_assert_eq!(a.is_subset(&b), ma.is_subset(&mb), "is_subset at {}", cap);
            prop_assert_eq!(a.intersects(&b), !(&ma & &mb).is_empty(), "intersects at {}", cap);
            prop_assert_eq!(
                a.intersects_excluding(&b, &e),
                !(&(&ma & &mb) - &me).is_empty(),
                "intersects_excluding at {}", cap
            );

            // fused kernels vs their composed equivalents
            let mut fused = a.clone();
            let grew = fused.union_with_changed(&b);
            prop_assert_eq!(&fused, &a.union(&b), "union_with_changed result at {}", cap);
            prop_assert_eq!(grew, !mb.is_subset(&ma), "union_with_changed grew at {}", cap);
            let mut fused = a.clone();
            fused.union_andnot(&b, &e);
            prop_assert_eq!(&fused, &a.union(&b.difference(&e)), "union_andnot at {}", cap);

            // tail-word hygiene: the full set is exact, its complement
            // of anything stays inside the universe
            let full = AtomSet::full(cap);
            prop_assert_eq!(full.count(), cap, "full().count() at {}", cap);
            prop_assert_eq!(full.iter().max(), Some(cap - 1), "full().iter() max at {}", cap);
            prop_assert_eq!(&full.union(&a), &full, "full ∪ a at {}", cap);
            assert_matches_model(
                &full.difference(&a),
                &(&(0..cap).collect::<BTreeSet<_>>() - &ma),
                "complement",
                cap,
            );

            // single-bit traffic at the last (tail-masked) index
            let mut edge = a.clone();
            edge.insert(cap - 1);
            prop_assert!(edge.contains(cap - 1));
            edge.remove(cap - 1);
            prop_assert!(!edge.contains(cap - 1));
            let mut expect = ma.clone();
            expect.remove(&(cap - 1));
            assert_matches_model(&edge, &expect, "insert/remove edge bit", cap);
        }
    }

    /// The same logical set embedded at every boundary capacity behaves
    /// identically no matter which width class hosts it.
    #[test]
    fn classes_agree_on_embedded_sets(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // indices fit the smallest capacity so every class can hold them
        let lo: BTreeSet<usize> = (0..63).filter(|_| rng.gen_bool(0.3)).collect();
        let hi: BTreeSet<usize> = (0..63).filter(|_| rng.gen_bool(0.3)).collect();
        let reference: Vec<usize> = (&lo | &hi).into_iter().collect();
        for &cap in BOUNDARY_CAPS {
            let a = AtomSet::from_indices(cap, lo.iter().copied());
            let b = AtomSet::from_indices(cap, hi.iter().copied());
            let got: Vec<usize> = a.union(&b).iter().collect();
            prop_assert_eq!(&got, &reference, "embedded union at capacity {}", cap);
            prop_assert_eq!(
                a.is_subset(&b),
                lo.is_subset(&hi),
                "embedded is_subset at capacity {}", cap
            );
            prop_assert_eq!(a.count(), lo.len(), "embedded count at capacity {}", cap);
        }
    }
}

/// The worklist engine and the paper-order pass engine stay bit-for-bit
/// identical on random workloads whose universes straddle every width
/// class — the w2-only legacy sizes are covered by `tests/crossval.rs`,
/// this pins the w4/w8/heap kernels and the hand-offs between them.
#[test]
fn engines_agree_across_width_classes() {
    for &atoms in &[63usize, 65, 127, 129, 255, 257, 511, 513] {
        let mut rng = StdRng::seed_from_u64(atoms as u64);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        assert_eq!(alg.width_class(), class_for(atoms), "|N| = {atoms}");
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig {
                count: 12,
                ..Default::default()
            },
        );
        for q in 0..3 {
            let x = nalist::gen::random_subattr(&mut rng, &alg, 0.3);
            let fast = closure_and_basis(&alg, &sigma, &x);
            let paper = closure_and_basis_paper(&alg, &sigma, &x);
            assert_eq!(
                fast,
                paper,
                "engines disagree at |N| = {atoms} (query {q}, X = {})",
                alg.render(&x)
            );
        }
    }
}
