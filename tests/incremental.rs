//! Cross-validation of incremental `Σ` maintenance (the delta-closure
//! cache of DESIGN.md's "Incremental maintenance & invalidation"):
//! random interleaved add/remove/query scripts replayed on ONE long-lived
//! [`Reasoner`] — whose cache survives edits via selective eviction —
//! against a reasoner rebuilt from scratch after every single edit.
//!
//! The contract under test is exact, not approximate: after any prefix of
//! edits, every verdict and every `DependencyBasis` the incremental
//! reasoner produces must be bit-identical to a from-scratch recompute
//! (soundness of the `fired`-set / one-step-replay eviction rules rests
//! on the confluence theorem, Theorem 6.3 of the paper).

use nalist::gen::{random_edit_script, EditConfig, EditOp};
use nalist::membership::MAX_CACHE_BYTES;
use nalist::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rebuilds a fresh reasoner holding exactly `live`.
fn from_scratch(n: &NestedAttr, alg: &Algebra, live: &[CompiledDep]) -> Reasoner {
    let mut r = Reasoner::new(n);
    for d in live {
        r.add(d.decompile(alg)).expect("generated Σ compiles");
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Interleaved add/remove/query: the long-lived incremental reasoner
    /// answers every query, and reports every queried LHS's dependency
    /// basis, bit-identically to a reasoner rebuilt from scratch after
    /// each edit.
    #[test]
    fn interleaved_edits_match_from_scratch(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=20);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());

        let mut incremental = Reasoner::new(&n);
        let mut live: Vec<CompiledDep> = Vec::new();
        for (step, op) in script.iter().enumerate() {
            match op {
                EditOp::Add(d) => {
                    incremental.add(d.decompile(&alg)).expect("generated Σ compiles");
                    live.push(d.clone());
                }
                EditOp::Remove(d) => {
                    let removed = incremental
                        .remove(&d.decompile(&alg))
                        .expect("round-tripped deps compile");
                    prop_assert!(removed, "step {}: script removes a live dependency", step);
                    let i = live.iter().position(|have| have == d).expect("live");
                    live.remove(i);
                }
                EditOp::Query(d) => {
                    let scratch = from_scratch(&n, &alg, &live);
                    let unlimited = Budget::unlimited();
                    let want = scratch.implies(d, &unlimited).expect("compiled over N");
                    let got = incremental.implies(d, &unlimited).expect("compiled over N");
                    prop_assert_eq!(got, want, "step {}: verdict diverged", step);
                    // the cached basis itself must be bit-identical, not
                    // merely verdict-equivalent
                    prop_assert_eq!(
                        incremental.dependency_basis(&d.lhs),
                        scratch.dependency_basis(&d.lhs),
                        "step {}: basis diverged after {} edits",
                        step,
                        live.len()
                    );
                }
            }
        }
        // final state: every live LHS agrees too, from whatever mix of
        // warm and evicted entries the script left behind
        let scratch = from_scratch(&n, &alg, &live);
        for d in &live {
            prop_assert_eq!(
                incremental.dependency_basis(&d.lhs),
                scratch.dependency_basis(&d.lhs)
            );
        }
    }

    /// Stable dependency ids: across any interleaving of `add` and
    /// `remove_at`, the reasoner's id column matches a trivial model
    /// that hands out ids from a never-reused counter — removals leave
    /// holes, and no id is ever reassigned. (The durability layer keys
    /// cache fired-sets on these ids; reuse would silently corrupt a
    /// recovered cache.)
    #[test]
    fn dependency_ids_are_stable_across_interleaved_edits(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=16);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let mut r = Reasoner::new(&n);
        let mut model: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for _ in 0..40 {
            if model.is_empty() || rng.gen_bool(0.6) {
                let d = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
                r.add(d.decompile(&alg)).expect("generated Σ compiles");
                model.push(next);
                next += 1;
            } else {
                let i = rng.gen_range(0..model.len());
                r.remove_at(i);
                model.remove(i);
            }
            prop_assert_eq!(r.dep_ids(), &model[..]);
            prop_assert_eq!(r.next_dep_id(), next);
        }
    }

    /// A reasoner recovered from a snapshot is not merely equivalent to
    /// the live one — it *stays* bit-identical under further edits: the
    /// same cache entries survive, the same entries are evicted, and
    /// every subsequent snapshot payload is byte-equal. This is the
    /// property that makes crash recovery transparent to the cache.
    #[test]
    fn recovered_reasoner_tracks_live_bit_identically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=16);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());
        let cut = rng.gen_range(0..=script.len());
        let apply = |r: &mut Reasoner, op: &EditOp| match op {
            EditOp::Add(d) => {
                r.add(d.decompile(&alg)).expect("generated Σ compiles");
            }
            EditOp::Remove(d) => {
                assert!(r.remove(&d.decompile(&alg)).expect("compiles"));
            }
            EditOp::Query(d) => {
                r.implies(d, &Budget::unlimited()).expect("compiled over N");
            }
        };
        let mut live = Reasoner::new(&n);
        for op in &script[..cut] {
            apply(&mut live, op);
        }
        let payload = snapshot_payload(&live);
        let mut recovered = nalist::membership::restore_reasoner(
            &payload,
            &Budget::unlimited(),
            std::sync::Arc::new(nalist::obs::NoopRecorder),
        )
        .expect("own snapshot restores");
        prop_assert_eq!(snapshot_payload(&recovered), payload);
        for (step, op) in script[cut..].iter().enumerate() {
            apply(&mut live, op);
            apply(&mut recovered, op);
            prop_assert_eq!(
                snapshot_payload(&recovered),
                snapshot_payload(&live),
                "diverged {} edit(s) after recovery",
                step + 1
            );
        }
        let (a, b) = (recovered.cache_stats(), live.cache_stats());
        prop_assert_eq!(a.entries, b.entries, "cache sizes diverged");
    }

    /// The same interleaving under a resource budget. A roomy budget must
    /// agree exactly with the ungoverned answer; a starved budget may
    /// refuse with `Resource`, but any answer it does return must be
    /// correct (budget-truncated runs never populate the cache, so later
    /// queries can't observe a partial basis either).
    #[test]
    fn governed_interleaved_edits_are_resource_or_correct(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=16);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(
            &mut rng,
            &alg,
            &EditConfig { ops: 16, ..EditConfig::default() },
        );

        let roomy = Budget::unlimited().with_fuel(50_000_000);
        let starved = Budget::unlimited().with_fuel(rng.gen_range(1..=40));
        let mut incremental = Reasoner::new(&n);
        let mut live: Vec<CompiledDep> = Vec::new();
        for (step, op) in script.iter().enumerate() {
            match op {
                EditOp::Add(d) => {
                    incremental.add(d.decompile(&alg)).expect("generated Σ compiles");
                    live.push(d.clone());
                }
                EditOp::Remove(d) => {
                    prop_assert!(incremental
                        .remove(&d.decompile(&alg))
                        .expect("round-tripped deps compile"));
                    let i = live.iter().position(|have| have == d).expect("live");
                    live.remove(i);
                }
                EditOp::Query(d) => {
                    let want = from_scratch(&n, &alg, &live)
                        .implies(d, &Budget::unlimited())
                        .expect("compiled over N");
                    prop_assert_eq!(
                        incremental.implies(d, &roomy).expect("roomy budget"),
                        want,
                        "step {}: governed verdict diverged",
                        step
                    );
                    match incremental.implies(d, &starved) {
                        Ok(got) => prop_assert_eq!(
                            got, want,
                            "step {}: starved budget returned a WRONG verdict",
                            step
                        ),
                        Err(ClosureError::Resource(_)) => {}
                        Err(e) => prop_assert!(false, "step {step}: unexpected error {e}"),
                    }
                }
            }
        }
    }
}

/// Prop 4.10 straight from `DepB(X)`: an FD holds iff `Y ⊆ X⁺`, an MVD
/// iff `Y` is the join of the `DepB(X)` elements below it.
fn paper_verdict(basis: &DependencyBasis, q: &CompiledDep) -> bool {
    match q.kind {
        DepKind::Fd => q.rhs.is_subset(&basis.closure),
        DepKind::Mvd => {
            let mut join = AtomSet::empty(q.rhs.capacity());
            for b in basis.basis.iter().filter(|b| b.is_subset(&q.rhs)) {
                join.union_with(b);
            }
            join == q.rhs
        }
    }
}

/// `r`'s bases and verdicts for `queries` against the uncached paper
/// engine over `live`.
fn check_against_paper(
    r: &Reasoner,
    alg: &Algebra,
    live: &[CompiledDep],
    queries: &[CompiledDep],
    stage: &str,
) -> Result<(), TestCaseError> {
    for q in queries {
        let want = nalist_oracle::passes::closure_and_basis_paper(alg, live, &q.lhs);
        // DepB(X) = SubB(X⁺) ∪ X^M, deduplicated and sorted, by definition
        let mut depb: std::collections::BTreeSet<AtomSet> = want.blocks.iter().cloned().collect();
        depb.extend(want.closure.iter().map(|a| alg.atom(a).below.clone()));
        prop_assert!(want.basis.iter().eq(&depb), "{}: DepB(X)", stage);
        let verdict = r.implies(q, &Budget::unlimited()).expect("compiled over N");
        prop_assert_eq!(verdict, paper_verdict(&want, q), "{}: verdict", stage);
        prop_assert_eq!(r.dependency_basis(&q.lhs), want, "{}: basis", stage);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// The packed cache at every width: on both sides of each word
    /// boundary and width class, up to the heap fallback past 512 atoms,
    /// the cached reasoner's bases and verdicts equal the uncached paper
    /// engine's after misses, hits, add and remove evictions, and a
    /// snapshot round trip.
    #[test]
    fn packed_cache_matches_paper_engine_at_every_width(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for atoms in [63usize, 64, 65, 128, 129, 256, 257, 513] {
            let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
            let alg = Algebra::new(&n);
            prop_assert_eq!(alg.atom_count(), atoms);
            let sigma_cfg = nalist::gen::SigmaConfig { count: 6, density: 0.1, ..Default::default() };
            let mut live = nalist::gen::random_sigma(&mut rng, &alg, &sigma_cfg);
            let queries: Vec<CompiledDep> = (0..4)
                .map(|_| nalist::gen::random_dep(&mut rng, &alg, 0.3, 0.5))
                .collect();
            let mut r = from_scratch(&n, &alg, &live);
            check_against_paper(&r, &alg, &live, &queries, "misses")?;
            check_against_paper(&r, &alg, &live, &queries, "hits")?;
            // an FD anchored at the first query's left-hand side fires in
            // that entry, so the add must evict it and, once the entry is
            // recomputed, the remove must evict it again
            let anchored = CompiledDep::fd(
                queries[0].lhs.clone(),
                nalist::gen::random_subattr(&mut rng, &alg, 0.3),
            );
            r.add(anchored.decompile(&alg)).expect("generated Σ compiles");
            live.push(anchored);
            check_against_paper(&r, &alg, &live, &queries, "after an add")?;
            r.remove_at(live.len() - 1);
            live.pop();
            check_against_paper(&r, &alg, &live, &queries, "after a remove")?;
            let payload = snapshot_payload(&r);
            let back = nalist::membership::restore_reasoner(
                &payload,
                &Budget::unlimited(),
                std::sync::Arc::new(nalist::obs::NoopRecorder),
            )
            .expect("own snapshot restores");
            prop_assert_eq!(snapshot_payload(&back), payload);
            prop_assert_eq!(back.cache_stats().bytes, r.cache_stats().bytes);
            check_against_paper(&back, &alg, &live, &queries, "after a restore")?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    /// Past the cache's byte bound: fresh left-hand sides fill the cache
    /// until an insert flushes it, with adds and removes mixed in. After
    /// every operation the cache holds at most `MAX_CACHE_BYTES` (or a
    /// single entry), and every verdict equals the uncached
    /// `membership::implies`. A reasoner restored from the snapshot at a
    /// random cut, part-way through refilling after the first flush, and
    /// fed the remaining operations has the live reasoner's snapshot
    /// payload after each one, through the next flush.
    #[test]
    fn bounded_cache_flushes_identically_after_a_restore(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(32..=129);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        // Σ has sparse left-hand sides, so it fires in most closures; the
        // edits add and remove dependencies with dense ones, which evict
        // a few entries each instead of emptying the cache
        let sigma: Vec<CompiledDep> = (0..32)
            .map(|_| nalist::gen::random_dep(&mut rng, &alg, 0.08, 0.3))
            .collect();
        let mut live = from_scratch(&n, &alg, &sigma);
        let mut added: Vec<Dependency> = Vec::new();
        let mut restored: Option<Reasoner> = None;
        let cut_at = rng.gen_range(0.5..0.95) * MAX_CACHE_BYTES as f64;
        let mut seen = std::collections::HashSet::new();
        let (mut flushes, mut flushes_after_cut, mut tail) = (0, 0, 16);
        for step in 0..20_000 {
            let before = live.cache_stats();
            if restored.is_none() && flushes > 0 && before.bytes as f64 >= cut_at {
                let payload = snapshot_payload(&live);
                let back = nalist::membership::restore_reasoner(
                    &payload,
                    &Budget::unlimited(),
                    std::sync::Arc::new(nalist::obs::NoopRecorder),
                )
                .expect("own snapshot restores");
                prop_assert_eq!(snapshot_payload(&back), payload);
                restored = Some(back);
            }
            let roll = rng.gen_range(0..100);
            if roll < 2 && !added.is_empty() {
                let d = added.swap_remove(rng.gen_range(0..added.len()));
                for r in std::iter::once(&mut live).chain(restored.as_mut()) {
                    prop_assert!(r.remove(&d).expect("compiles"));
                }
            } else if roll < 4 {
                let d = nalist::gen::random_dep(&mut rng, &alg, 0.85, 0.3).decompile(&alg);
                for r in std::iter::once(&mut live).chain(restored.as_mut()) {
                    r.add(d.clone()).expect("generated Σ compiles");
                }
                added.push(d);
            } else {
                let q = loop {
                    let q = nalist::gen::random_dep(&mut rng, &alg, 0.3, 0.5);
                    if seen.insert(q.lhs.clone()) {
                        break q;
                    }
                };
                let unlimited = Budget::unlimited();
                let want = nalist::membership::implies(&alg, live.compiled_sigma(), &q, &unlimited)
                    .expect("unlimited budget");
                prop_assert_eq!(live.implies(&q, &unlimited).expect("compiled over N"), want, "step {}", step);
                if let Some(r) = &restored {
                    prop_assert_eq!(r.implies(&q, &unlimited).expect("compiled over N"), want, "step {}", step);
                }
            }
            let stats = live.cache_stats();
            prop_assert!(
                stats.bytes <= MAX_CACHE_BYTES || stats.entries == 1,
                "step {}: {:?}",
                step,
                stats
            );
            let flushed = stats.capacity_evicted > before.capacity_evicted;
            flushes += u32::from(flushed);
            if let Some(r) = &restored {
                prop_assert_eq!(
                    snapshot_payload(r),
                    snapshot_payload(&live),
                    "step {}: diverged after the restore",
                    step
                );
                flushes_after_cut += u32::from(flushed);
                if flushes_after_cut > 0 {
                    tail -= 1;
                    if tail == 0 {
                        break;
                    }
                }
            }
        }
        prop_assert!(flushes >= 2 && flushes_after_cut >= 1, "{} flushes, {} after the cut", flushes, flushes_after_cut);
    }
}
