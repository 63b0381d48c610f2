//! Parallel batch determinism.
//!
//! The batch planner's groups are claimed, warm before cold, from one
//! shared cursor by the calling thread and its scoped workers. Which
//! worker runs which group is nondeterministic by design; the *results*
//! must not be. These tests pin that contract: identical verdicts,
//! per-item errors and panic confinement across thread counts and
//! repeated runs, the planner's one-compute-per-distinct-LHS cache
//! invariant however the workers split the groups, and the basis
//! cache's byte bound under concurrent inserts.

use std::num::NonZeroUsize;
use std::sync::Arc;

use nalist::guard::{Budget, FailAction, FailPoint};
use nalist::membership::MAX_CACHE_BYTES;
use nalist::obs::{Counter, MetricsRecorder};
use nalist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn threads(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// The verdicts of an unlimited batch on `t` threads, every item
/// answered.
fn batch(r: &Reasoner, queries: &[Dependency], t: usize) -> Vec<bool> {
    r.implies_batch_governed_with(queries, &Budget::unlimited(), threads(t))
        .expect("queries compile")
        .into_iter()
        .map(|v| v.expect("an unlimited batch answers every item"))
        .collect()
}

/// Runs `f` with the default panic hook silenced, so intentionally
/// injected panics don't spray backtraces over test output.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// A reasoner over a mid-sized universe with a query mix that reuses
/// left-hand sides (warm + cold groups in one plan).
fn workload(
    atoms: usize,
    sigma: usize,
    queries: usize,
    pool: usize,
) -> (Reasoner, Vec<Dependency>) {
    let mut rng = StdRng::seed_from_u64(42);
    let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&n);
    let deps = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: sigma,
            ..Default::default()
        },
    );
    let mut r = Reasoner::new(&n);
    for d in &deps {
        r.add(d.decompile(&alg)).expect("generated Σ compiles");
    }
    let lhs_pool: Vec<AtomSet> = (0..pool)
        .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.3))
        .collect();
    let queries = (0..queries)
        .map(|i| {
            let lhs = lhs_pool[i % lhs_pool.len()].clone();
            let rhs = nalist::gen::random_subattr(&mut rng, &alg, 0.3);
            let c = if i % 3 == 0 {
                nalist::deps::CompiledDep::fd(lhs, rhs)
            } else {
                nalist::deps::CompiledDep::mvd(lhs, rhs)
            };
            c.decompile(&alg)
        })
        .collect();
    (r, queries)
}

/// Batch verdicts are identical across thread counts and across
/// repeated runs at the same thread count, warm or cold cache.
#[test]
fn verdicts_identical_across_thread_counts_and_runs() {
    let (r, queries) = workload(80, 24, 96, 12);
    let baseline = batch(&r.clone(), &queries, 1);
    for t in [1usize, 2, 8] {
        for run in 0..2 {
            // fresh clone: cold cache each time
            let cold = batch(&r.clone(), &queries, t);
            assert_eq!(cold, baseline, "cold cache, threads = {t}, run = {run}");
        }
        // warm cache: same reasoner queried twice
        let warm_r = r.clone();
        batch(&warm_r, &queries, t);
        let warm = batch(&warm_r, &queries, t);
        assert_eq!(warm, baseline, "warm cache, threads = {t}");
    }
}

/// One Algorithm 5.1 run per distinct LHS, however the workers split
/// the groups between them.
#[test]
fn cache_misses_equal_distinct_lhss_under_stealing() {
    for t in [1usize, 2, 8] {
        let (r, queries) = workload(80, 24, 96, 12);
        let fresh = r.clone();
        batch(&fresh, &queries, t);
        let stats = fresh.cache_stats();
        assert_eq!(
            stats.misses, 12,
            "threads = {t}: one miss per distinct LHS, whichever worker ran it"
        );
        assert_eq!(stats.entries, 12, "threads = {t}");
    }
}

/// The batch counters are recorded when observability is on, and every
/// cold group is computed exactly once.
#[test]
fn batch_counters_account_for_every_cold_group() {
    let (r, queries) = workload(80, 24, 96, 12);
    for t in [2usize, 8] {
        let rec = Arc::new(MetricsRecorder::new());
        let fresh = r.clone().with_recorder(rec.clone());
        batch(&fresh, &queries, t);
        assert_eq!(
            rec.counter(Counter::BatchThreads),
            t as u64,
            "threads = {t}"
        );
        assert_eq!(rec.counter(Counter::BatchQueries), 96, "threads = {t}");
        // 12 cold groups (nothing cached): one miss each, no hit
        assert_eq!(rec.counter(Counter::CacheMisses), 12, "threads = {t}");
        assert_eq!(rec.counter(Counter::CacheHits), 0, "threads = {t}");
    }
}

/// The basis cache holds at most [`MAX_CACHE_BYTES`] even while eight
/// workers insert into it at once: the flush check and the insert run
/// under one lock. Batches of never-repeating left-hand sides on the
/// shape of perf_smoke's cache row (32 atoms, |Σ| = 64) take the cache
/// past its bound twice.
#[test]
fn cache_stays_within_its_byte_bound_under_concurrent_inserts() {
    let mut rng = StdRng::seed_from_u64(7);
    let n = nalist::gen::attr_with_atoms(&mut rng, 32);
    let alg = Algebra::new(&n);
    let mut r = Reasoner::new(&n);
    for _ in 0..64 {
        let d = nalist::gen::random_nontrivial_dep(&mut rng, &alg, 0.05, 0.3, 0.1);
        r.add(d.decompile(&alg)).expect("generated Σ compiles");
    }
    let mut seen = std::collections::HashSet::new();
    let mut queries = Vec::new();
    while queries.len() < 1500 {
        let d = nalist::gen::random_nontrivial_dep(&mut rng, &alg, 0.3, 0.3, 0.5);
        if seen.insert(d.lhs.clone()) {
            queries.push(d.decompile(&alg));
        }
    }
    let sequential = r.clone();
    for chunk in queries.chunks(125) {
        let verdicts = batch(&r, chunk, 8);
        assert_eq!(verdicts, batch(&sequential, chunk, 1));
        let stats = r.cache_stats();
        assert!(stats.bytes <= MAX_CACHE_BYTES, "{stats:?}");
        assert_eq!(
            stats.entries + stats.capacity_evicted,
            stats.misses,
            "{stats:?}"
        );
    }
    assert!(
        r.cache_stats().capacity_evicted > 0,
        "the batches must pass the bound"
    );
}

/// Panic confinement is per-item and deterministic in *which* items it
/// can affect: under an injected panic on the first closure run, the
/// failing group's members report `Panicked` while every other item
/// still answers — at any thread count.
#[test]
fn injected_panic_stays_confined_under_stealing() {
    let (r, queries) = workload(80, 24, 24, 4);
    for t in [1usize, 2, 8] {
        let fresh = r.clone();
        let budget = Budget::unlimited().with_failpoint(FailPoint::nth(
            "membership::closure",
            1,
            FailAction::Panic,
        ));
        let verdicts = quiet_panics(|| {
            fresh
                .implies_batch_governed_with(&queries, &budget, threads(t))
                .expect("batch itself survives an item panic")
        });
        let panicked = verdicts
            .iter()
            .filter(|v| matches!(v, Err(QueryError::Panicked { .. })))
            .count();
        let answered = verdicts.iter().filter(|v| v.is_ok()).count();
        assert!(
            panicked >= 1,
            "threads = {t}: the injected panic must surface as QueryError::Panicked"
        );
        assert_eq!(
            panicked + answered,
            verdicts.len(),
            "threads = {t}: every item either answered or reported its panic"
        );
        // with 4 distinct LHSs and members spread round-robin, the
        // non-panicking groups must still have answered
        assert!(
            answered >= verdicts.len() / 2,
            "threads = {t}: panic confinement leaked past one group \
             ({answered} answered of {})",
            verdicts.len()
        );
    }
}
