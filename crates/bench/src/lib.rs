//! # nalist-bench
//!
//! Shared workload builders and measurement helpers for the benchmark
//! suite and the `experiments` binary (see the per-experiment index in
//! DESIGN.md). Criterion benches handle statistically careful timing;
//! the helpers here provide the deterministic workloads both consume, a
//! simple median-of-runs timer for the `experiments` tables, and a
//! log-log slope fit for empirical complexity exponents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nalist::membership::{write_reasoner_snapshot, WalOp};
use nalist::obs::NoopRecorder;
use nalist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic closure workload: ambient algebra, `Σ`, and a list of
/// query left-hand sides.
pub struct Workload {
    /// The ambient attribute.
    pub attr: NestedAttr,
    /// Its algebra.
    pub alg: Algebra,
    /// The dependency set.
    pub sigma: Vec<CompiledDep>,
    /// LHS inputs for closure/dependency-basis queries.
    pub queries: Vec<AtomSet>,
}

/// Builds a nested workload with exactly `atoms` atoms and `sigma_count`
/// non-trivial dependencies, deterministic in `seed`.
pub fn nested_workload(seed: u64, atoms: usize, sigma_count: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&attr);
    let sigma = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: sigma_count,
            ..Default::default()
        },
    );
    let queries: Vec<AtomSet> = (0..8)
        .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.3))
        .collect();
    Workload {
        attr,
        alg,
        sigma,
        queries,
    }
}

/// Builds a flat (relational) workload of the given width.
pub fn flat_workload(seed: u64, width: usize, sigma_count: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let attr = nalist::gen::flat_attr(width);
    let alg = Algebra::new(&attr);
    let sigma = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: sigma_count,
            ..Default::default()
        },
    );
    let queries: Vec<AtomSet> = (0..8)
        .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.3))
        .collect();
    Workload {
        attr,
        alg,
        sigma,
        queries,
    }
}

/// A deterministic incremental-edit workload: a [`Reasoner`] warm for a
/// pool of query left-hand sides, plus a non-trivial dependency to
/// `add`/`remove` — the unit of work the incremental-maintenance
/// benchmarks measure (re-query cost after a `Σ` edit, incremental vs
/// cache-clearing).
pub struct EditWorkload {
    /// Reasoner over the generated schema, `Σ` loaded, every LHS in
    /// `lhss` already queried (cache warm).
    pub reasoner: Reasoner,
    /// The query pool.
    pub lhss: Vec<AtomSet>,
    /// A narrow non-trivial FD to add and/or remove.
    pub edit: Dependency,
}

/// Builds an [`EditWorkload`] with exactly `atoms` atoms, `sigma_count`
/// dependencies and `lhs_count` warm query LHSs, deterministic in
/// `seed`.
pub fn incremental_edit_workload(
    seed: u64,
    atoms: usize,
    sigma_count: usize,
    lhs_count: usize,
) -> EditWorkload {
    let w = nested_workload(seed, atoms, sigma_count);
    let mut r = Reasoner::new(&w.attr);
    for d in &w.sigma {
        r.add(d.decompile(&w.alg)).expect("generated Σ compiles");
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let lhss: Vec<AtomSet> = (0..lhs_count)
        .map(|_| nalist::gen::random_subattr(&mut rng, &w.alg, 0.3))
        .collect();
    // anchor the edit's LHS inside the first pool entry so it
    // demonstrably fires there (selective eviction has real work to do),
    // with a fresh random RHS so most other cached bases survive —
    // realistic single-constraint churn touches a small part of the
    // schema
    let anchor = lhss.first().cloned().unwrap_or_else(|| w.alg.bottom_set());
    let fresh_edit = |rng: &mut StdRng| {
        CompiledDep::fd(
            w.alg
                .meet(&anchor, &nalist::gen::random_subattr(rng, &w.alg, 0.7)),
            nalist::gen::random_subattr(rng, &w.alg, 0.15),
        )
    };
    let mut edit = fresh_edit(&mut rng);
    for _ in 0..32 {
        if !edit.is_trivial(&w.alg) && !edit.lhs.is_empty() {
            break;
        }
        edit = fresh_edit(&mut rng);
    }
    let edit = edit.decompile(&w.alg);
    for x in &lhss {
        r.dependency_basis(x);
    }
    EditWorkload {
        reasoner: r,
        lhss,
        edit,
    }
}

/// A `read-cold`-shaped query stream: a reasoner whose `Σ` has sparse
/// left-hand sides, so the closure of a fresh left-hand side fires many
/// of its dependencies, and queries that never repeat a left-hand side,
/// so every one of them misses the cache and inserts an entry. The input
/// of the cache row of `perf_smoke`.
pub struct ColdQueryWorkload {
    /// Reasoner over the generated schema with `Σ` loaded, cache cold.
    pub reasoner: Reasoner,
    /// Queries with pairwise distinct left-hand sides, compiled over the
    /// reasoner's algebra.
    pub queries: Vec<CompiledDep>,
}

/// Draws in a row that find no new left-hand side before
/// [`cold_query_workload`] gives up on a schema too small for `count`.
const STALE_DRAWS: usize = 1 << 16;

/// Builds a [`ColdQueryWorkload`] over an `atoms`-atom schema,
/// deterministic in `seed`: `sigma_count` dependencies with left-hand
/// side density 0.05, right-hand side density 0.3 and FD share 0.1, and
/// `count` queries with both sides at density 0.3 and FD share 0.5.
///
/// # Panics
///
/// When the schema yields fewer than `count` distinct left-hand sides:
/// after 65,536 draws in a row without a new one, with a message naming
/// the shortfall.
pub fn cold_query_workload(
    seed: u64,
    atoms: usize,
    sigma_count: usize,
    count: usize,
) -> ColdQueryWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&attr);
    let mut reasoner = Reasoner::new(&attr);
    for _ in 0..sigma_count {
        let d = nalist::gen::random_nontrivial_dep(&mut rng, &alg, 0.05, 0.3, 0.1);
        reasoner
            .add(d.decompile(&alg))
            .expect("generated Σ compiles");
    }
    let mut seen = HashSet::new();
    let mut queries = Vec::with_capacity(count);
    let mut stale = 0;
    while queries.len() < count {
        let d = nalist::gen::random_nontrivial_dep(&mut rng, &alg, 0.3, 0.3, 0.5);
        if seen.insert(d.lhs.clone()) {
            queries.push(d);
            stale = 0;
            continue;
        }
        stale += 1;
        assert!(
            stale < STALE_DRAWS,
            "cold_query_workload(seed {seed}, {atoms} atoms): found only {} distinct \
             left-hand sides for {count} queries, {} short (no new one in {STALE_DRAWS} \
             draws in a row)",
            queries.len(),
            count - queries.len()
        );
    }
    ColdQueryWorkload { reasoner, queries }
}

/// Dependency texts in the paper's abbreviated notation over one schema:
/// the input of the notation-parsing rows of `perf_smoke`.
pub struct ParseWorkload {
    /// The ambient attribute the texts resolve against.
    pub attr: NestedAttr,
    /// Its algebra, which the compiled parse emits atoms of.
    pub alg: Algebra,
    /// `X -> Y` / `X ->> Y` lines as the printer renders them.
    pub texts: Vec<String>,
}

/// Builds a [`ParseWorkload`] of `count` random dependencies over an
/// `atoms`-atom schema, deterministic in `seed`.
pub fn parse_workload(seed: u64, atoms: usize, count: usize) -> ParseWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&attr);
    let texts = (0..count)
        .map(|_| nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5).render(&alg))
        .collect();
    ParseWorkload { attr, alg, texts }
}

/// Parses every text of `w` once (the unit of work of the parsing row)
/// and returns how many resolved.
pub fn run_parses(w: &ParseWorkload) -> usize {
    w.texts
        .iter()
        .filter(|t| Dependency::parse_with(&w.attr, t, ParseLimits::default()).is_ok())
        .count()
}

/// Parses every text of `w` once straight to its compiled form (the
/// unit of work of the compiled parsing row) and returns how many
/// resolved.
pub fn run_compiled_parses(w: &ParseWorkload) -> usize {
    w.texts
        .iter()
        .filter(|t| CompiledDep::parse(&w.alg, t, ParseLimits::default()).is_ok())
        .count()
}

/// A snapshot and a journaled WAL tail on disk: the input of the replay
/// row of `perf_smoke` and of E-DUR's long-tail recovery rows.
pub struct RecoveryWorkload {
    /// The snapshot file.
    pub snapshot: PathBuf,
    /// The WAL file: a header record, then the edit records.
    pub wal: PathBuf,
}

/// Writes a [`RecoveryWorkload`] into `dir`, deterministic in `seed`:
/// the snapshot of a reasoner holding 8 random dependencies over an
/// `atoms`-atom schema, and a WAL tail of `edits` records over `texts`
/// distinct dependency texts, record `k` toggling text `k mod texts` —
/// `+` while it is out of `Σ`, `-` while it is in. With `texts ==
/// edits` every record adds a text never seen before.
pub fn recovery_workload(
    dir: &Path,
    seed: u64,
    atoms: usize,
    texts: usize,
    edits: usize,
) -> RecoveryWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&attr);
    let mut r = Reasoner::new(&attr);
    let sigma_cfg = nalist::gen::SigmaConfig {
        count: 8,
        ..Default::default()
    };
    for d in nalist::gen::random_sigma(&mut rng, &alg, &sigma_cfg) {
        r.add(d.decompile(&alg)).expect("generated Σ compiles");
    }
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(texts);
    while pool.len() < texts {
        let text = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5).render(&alg);
        if seen.insert(text.clone()) {
            pool.push(text);
        }
    }
    let budget = Budget::unlimited();
    let snapshot = dir.join(format!("recovery-{seed}-{atoms}-{texts}-{edits}.snap"));
    write_reasoner_snapshot(&snapshot, &r, &budget, &NoopRecorder).expect("snapshot writes");
    let wal = snapshot.with_extension("wal");
    let mut w = WalWriter::create(&wal, false).expect("WAL creates");
    let mut append = |op: WalOp| {
        w.append(&op.encode(), &budget, &NoopRecorder)
            .expect("append");
    };
    append(WalOp::Header {
        schema: attr.to_string(),
    });
    let mut present = vec![false; texts];
    for k in 0..edits {
        let i = k % texts;
        let text = pool[i].clone();
        append(if present[i] {
            WalOp::Remove(text)
        } else {
            WalOp::Add(text)
        });
        present[i] = !present[i];
    }
    RecoveryWorkload { snapshot, wal }
}

/// An adversarial workload for the worst-case pass count of
/// Algorithm 5.1: a flat FD chain `A0 → A1, …, A{n-2} → A{n-1}` listed in
/// *reverse* order, so each REPEAT-UNTIL pass can absorb only one more
/// link when closing `{A0}` — forcing `Θ(|N|)` passes of `Θ(|Σ|)` steps.
pub fn chain_workload(atoms: usize) -> Workload {
    let attr = nalist::gen::flat_attr(atoms);
    let alg = Algebra::new(&attr);
    let mut sigma = Vec::with_capacity(atoms.saturating_sub(1));
    for i in (0..atoms - 1).rev() {
        let mut lhs = alg.bottom_set();
        lhs.insert(i);
        let mut rhs = alg.bottom_set();
        rhs.insert(i + 1);
        sigma.push(CompiledDep::fd(lhs, rhs));
    }
    let mut x = alg.bottom_set();
    x.insert(0);
    Workload {
        attr,
        alg,
        sigma,
        queries: vec![x],
    }
}

/// Runs every query's closure + dependency basis once (the unit of work
/// all scaling benches measure), on the default (worklist) engine.
pub fn run_closures(w: &Workload) -> usize {
    let mut acc = 0usize;
    for q in &w.queries {
        let b = closure_and_basis(&w.alg, &w.sigma, q);
        acc += b.closure.count() + b.blocks.len();
    }
    acc
}

/// The same unit of work as [`run_closures`], through the worklist
/// engine with the given recorder. With the no-op recorder this measures the
/// observability seam's disabled-path overhead (expected: none); with a
/// [`nalist::obs::MetricsRecorder`] the recorder's counters afterwards
/// hold machine-independent work totals (worklist steps, dependencies
/// fired) for the whole workload.
pub fn run_closures_observed(w: &Workload, rec: &dyn nalist::obs::Recorder) -> usize {
    let budget = Budget::unlimited();
    let mut acc = 0usize;
    for q in &w.queries {
        let run = nalist::membership::worklist::run(&w.alg, &w.sigma, q, &budget, rec)
            .expect("workload queries are downward closed and the budget unlimited");
        acc += run.closure.count() + run.blocks.len();
    }
    acc
}

/// The same unit of work as [`run_closures`], on the paper-faithful pass
/// engine — the baseline the worklist engine is measured against.
pub fn run_closures_paper(w: &Workload) -> usize {
    let mut acc = 0usize;
    for q in &w.queries {
        let b = nalist_oracle::passes::closure_and_basis_paper(&w.alg, &w.sigma, q);
        acc += b.closure.count() + b.blocks.len();
    }
    acc
}

/// Median wall-clock time of `runs` executions of `f`, in nanoseconds.
pub fn median_nanos(runs: usize, mut f: impl FnMut()) -> u128 {
    assert!(runs >= 1);
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the empirical
/// complexity exponent of a measurement series.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Formats nanoseconds human-readably.
pub fn fmt_nanos(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = nested_workload(1, 12, 4);
        let b = nested_workload(1, 12, 4);
        assert_eq!(a.attr, b.attr);
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(run_closures(&a), run_closures(&b));
    }

    #[test]
    fn edit_workload_is_warm_and_deterministic() {
        let a = incremental_edit_workload(10, 16, 8, 6);
        let b = incremental_edit_workload(10, 16, 8, 6);
        assert_eq!(a.edit, b.edit);
        assert_eq!(a.lhss, b.lhss);
        // warm: re-querying the pool on a fresh-counter clone is all hits
        let warm = a.reasoner.clone();
        for x in &a.lhss {
            warm.dependency_basis(x);
        }
        let stats = warm.cache_stats();
        assert_eq!(stats.misses, 0, "pool was not warm");
        assert_eq!(stats.hits, a.lhss.len() as u64);
    }

    #[test]
    fn observed_runner_matches_plain_and_counts_deterministically() {
        use nalist::obs::{noop, Counter, MetricsRecorder};
        let w = nested_workload(7, 32, 16);
        assert_eq!(run_closures(&w), run_closures_observed(&w, noop()));
        let (a, b) = (MetricsRecorder::new(), MetricsRecorder::new());
        assert_eq!(run_closures(&w), run_closures_observed(&w, &a));
        run_closures_observed(&w, &b);
        for c in [Counter::WorklistSteps, Counter::DepsFired] {
            assert_eq!(a.counter(c), b.counter(c), "{} not deterministic", c.name());
        }
        assert!(a.counter(Counter::WorklistSteps) > 0);
        // every link of the FD chain fires when closing {A0}
        let chain = chain_workload(16);
        let rec = MetricsRecorder::new();
        run_closures_observed(&chain, &rec);
        assert_eq!(rec.counter(Counter::DepsFired), 15);
    }

    #[test]
    #[should_panic(expected = "short")]
    fn cold_query_workload_names_its_shortfall_on_a_tiny_schema() {
        // 8 atoms hold fewer distinct left-hand sides than 60 queries
        // need; this used to loop forever
        cold_query_workload(7, 8, 8, 60);
    }

    #[test]
    fn slope_of_cubic_is_three() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64, (i as f64).powi(3) * 7.0))
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 3.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn fmt_nanos_ranges() {
        assert_eq!(fmt_nanos(500), "500 ns");
        assert_eq!(fmt_nanos(2_500), "2.50 µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50 ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50 s");
    }

    #[test]
    fn median_is_stable() {
        let mut calls = 0;
        let m = median_nanos(5, || calls += 1);
        assert_eq!(calls, 5);
        assert!(m > 0);
    }
}
