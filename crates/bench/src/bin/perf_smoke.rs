//! CI perf smoke test: times a pinned tiny workload and fails (exit 1)
//! if wall time regresses more than 3x against the checked-in baseline
//! `ci/perf_baseline.json`. The wall-clock bound is deliberately loose —
//! CI boxes are noisy; it catches order-of-magnitude regressions (a
//! dropped cache, an accidental O(n²) pass), not percent-level drift.
//!
//! The baseline additionally pins machine-independent *work counters*
//! (worklist steps, dependencies fired, cache hit/miss/evict totals on
//! the incremental-edit workload), recorded through the `nalist-obs`
//! seam. Those are deterministic, so they are compared **exactly**: any
//! drift means the engine is doing different work, which either is a bug
//! or deserves a reviewed re-bless.
//!
//! A separate row times `Dependency::parse_with` over 256 dependency
//! texts on a 32-atom schema against its own baseline field
//! (`parse_ns`) with the same 3x limit, so a return to a resolver that
//! enumerates resolutions fails here. The compiled parsing row times
//! `CompiledDep::parse` over the same texts (`compiled_parse_ns`, same
//! limit), the path recovery and single queries take: borrowed names,
//! one counting pass per side and atoms emitted in pre-order, with no
//! tree built. On a 2-vCPU VM it read 1.5–2.3 ms where the tree path
//! read 2.6–3.9 ms in the same runs, so the 3x limit catches an
//! order-of-magnitude slip, not a return to the tree path. Another times
//! `membership::recover` of a snapshot plus a 2000-record WAL tail
//! toggling 32 texts on a 32-atom schema (`recover_ns`, same limit), so
//! a replay that re-parses every record fails here; its
//! `recovery_replayed_ops` counter is pinned with the others.
//!
//! The cache row answers 2000 `read-cold`-shaped queries — fresh
//! left-hand sides over a 32-atom schema whose 64 dependencies fire
//! often — through `Reasoner::implies`, and pins the cache's entries,
//! bytes and capacity evictions plus the dependencies fired and worklist
//! steps with the other counters. The row crosses the cache's byte
//! bound, so it fails when the cache holds more than `MAX_CACHE_BYTES`,
//! and when an entry averages more than `MAX_ENTRY_BYTES`, so a return
//! to materialised `DepB` lists or inline-width sets fails here.
//!
//! The certification row certifies every target of a 200-query
//! `read-cold`-shaped stream with `certify_governed` (`cert_ns`, same
//! 3x limit) and pins how many are implied and the total nodes of their
//! derivations. Certificates replay only the steps that fired in the
//! worklist engine; the earlier certifier re-ran Algorithm 5.1's
//! REPEAT-UNTIL passes and recorded 111,331 nodes on this row, so a
//! return to the pass loop fails here.
//!
//! The rendering row prints every `Σ` member and both sides of every
//! query of the certification row's workload in the paper's notation
//! (`render_ns`, same 3x limit). `Algebra::render` walks the flattened
//! schema once per set. The earlier renderer built each set's tree and
//! recounted the resolutions of the whole text at every record: on a
//! 2-vCPU VM it took 7–11 ms on this row against 0.3–0.5 ms, so a
//! return to it fails here.
//!
//! The same run asserts the observability seam's disabled cost: the
//! pinned closure workload through the observed entry point with the
//! no-op recorder must not be measurably slower than the plain path.
//!
//! Re-bless the baseline after an intentional perf change with
//! `UPDATE_PERF_BASELINE=1 cargo run --release -p nalist-bench --bin perf_smoke`.

use std::sync::Arc;

use nalist::deps::CompiledDep;
use nalist::guard::Budget;
use nalist::membership::{certify_governed, recover, MAX_CACHE_BYTES};
use nalist::obs::{noop, Counter, MetricsRecorder, NoopRecorder};
use nalist_bench::{
    cold_query_workload, fmt_nanos, incremental_edit_workload, median_nanos, nested_workload,
    parse_workload, recovery_workload, run_closures, run_closures_observed, run_compiled_parses,
    run_parses,
};

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/perf_baseline.json");
const MAX_RATIO: f64 = 3.0;
/// Ceiling for the no-op recorder's overhead on the closure workload.
/// The disabled path is a single inlined `enabled()` check per entry
/// point, so anything measurable here is a regression in the seam; the
/// bound still leaves generous room for scheduler noise.
const MAX_NOOP_RATIO: f64 = 1.5;
/// Ceiling on the cache row's average packed entry: `X⁺`, about 28
/// blocks and the fired ids of a 32-atom entry take some 400 bytes.
const MAX_ENTRY_BYTES: u64 = 1024;

/// The work counters pinned by the baseline, in file order. The
/// `wide_*` pair comes from a 256-atom workload, so the w4
/// width-specialized kernel path is pinned alongside the w2 one; the
/// `cold_*` five from the cache row, the `cert_*` pair from the
/// certification row.
const WORK_COUNTERS: &[&str] = &[
    "worklist_steps",
    "deps_fired",
    "wide_worklist_steps",
    "wide_deps_fired",
    "edit_cache_hits",
    "edit_cache_misses",
    "edit_cache_evicted",
    "edit_cache_retained",
    "recovery_replayed_ops",
    "cold_cache_entries",
    "cold_cache_bytes",
    "cold_cache_capacity_evicted",
    "cold_deps_fired",
    "cold_worklist_steps",
    "cert_implied",
    "cert_dag_nodes",
];

/// Extracts `"field": <digits>` from a hand-written JSON object — the
/// baseline file is emitted by this binary, so the grammar is fixed and
/// a full parser would be dead weight.
fn parse_field(text: &str, field: &str) -> Option<u128> {
    let key = format!("\"{field}\"");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn main() {
    // pinned workloads, small enough that the whole binary runs in a few
    // seconds even on a loaded CI box
    let w = nested_workload(7, 32, 16);
    let closure_ns = median_nanos(7, || {
        std::hint::black_box(run_closures(&w));
    });
    let noop_ns = median_nanos(7, || {
        std::hint::black_box(run_closures_observed(&w, noop()));
    });
    // a 256-atom universe: exercises the w4 width class end to end,
    // guarding against a reintroduced representation cliff past 128
    let w_wide = nested_workload(7, 256, 48);
    let wide_ns = median_nanos(5, || {
        std::hint::black_box(run_closures(&w_wide));
    });
    let ew = incremental_edit_workload(10, 32, 16, 16);
    let edit_ns = median_nanos(7, || {
        let mut inc = ew.reasoner.clone();
        inc.add(ew.edit.clone()).expect("edit compiles");
        let mut acc = 0usize;
        for x in &ew.lhss {
            acc += inc.dependency_basis(x).basis.len();
        }
        std::hint::black_box(acc);
    });
    let total_ns = closure_ns + wide_ns + edit_ns;
    println!(
        "perf smoke: closure {} + wide closure {} + incremental edit {} = {}",
        fmt_nanos(closure_ns),
        fmt_nanos(wide_ns),
        fmt_nanos(edit_ns),
        fmt_nanos(total_ns)
    );
    // notation parsing: every text resolves, so the row times resolution
    // and not an early error
    let pw = parse_workload(7, 32, 256);
    assert_eq!(run_parses(&pw), pw.texts.len(), "printer output must parse");
    let parse_ns = median_nanos(7, || {
        std::hint::black_box(run_parses(&pw));
    });
    println!(
        "notation parsing: {} dependency texts in {}",
        pw.texts.len(),
        fmt_nanos(parse_ns)
    );
    assert_eq!(
        run_compiled_parses(&pw),
        pw.texts.len(),
        "printer output must parse"
    );
    let compiled_parse_ns = median_nanos(7, || {
        std::hint::black_box(run_compiled_parses(&pw));
    });
    println!(
        "compiled notation parsing: {} dependency texts in {}",
        pw.texts.len(),
        fmt_nanos(compiled_parse_ns)
    );
    // WAL replay: most records repeat one of the 32 texts
    let dir = std::env::temp_dir().join(format!("nalist-perf-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for the replay row");
    let rw = recovery_workload(&dir, 7, 32, 32, 2000);
    let unlimited = Budget::unlimited();
    let recover_ns = median_nanos(7, || {
        let report = recover(
            &rw.snapshot,
            Some(&rw.wal),
            &unlimited,
            Arc::new(NoopRecorder),
        )
        .expect("the replay row recovers");
        std::hint::black_box(report.replayed());
    });
    println!(
        "WAL replay: 2000 records over 32 texts in {}",
        fmt_nanos(recover_ns)
    );

    // machine-independent work counters, one instrumented pass each
    let closure_rec = MetricsRecorder::new();
    std::hint::black_box(run_closures_observed(&w, &closure_rec));
    let wide_rec = MetricsRecorder::new();
    std::hint::black_box(run_closures_observed(&w_wide, &wide_rec));
    let edit_rec = Arc::new(MetricsRecorder::new());
    let mut inc = ew.reasoner.clone().with_recorder(edit_rec.clone());
    inc.add(ew.edit.clone()).expect("edit compiles");
    for x in &ew.lhss {
        std::hint::black_box(inc.dependency_basis(x).basis.len());
    }
    let recover_rec = Arc::new(MetricsRecorder::new());
    recover(&rw.snapshot, Some(&rw.wal), &unlimited, recover_rec.clone())
        .expect("the replay row recovers");
    let _ = std::fs::remove_dir_all(&dir);
    // the cache row: every query misses, fires dependencies and inserts,
    // so the cache flushes each time it reaches its byte bound
    let cw = cold_query_workload(7, 32, 64, 2000);
    let cold_rec = Arc::new(MetricsRecorder::new());
    let cold = cw.reasoner.clone().with_recorder(cold_rec.clone());
    for q in &cw.queries {
        std::hint::black_box(cold.implies(q).expect("the cache row's queries compile"));
    }
    let cold_stats = cold.cache_stats();
    println!(
        "cache row: {} queries, {} entries in {} bytes ({} per entry), {} flushed by the bound",
        cw.queries.len(),
        cold_stats.entries,
        cold_stats.bytes,
        cold_stats.bytes / cold_stats.entries.max(1),
        cold_stats.capacity_evicted
    );
    // the certification row: implied targets get a derivation, the
    // others are decided from the closure alone
    let certw = cold_query_workload(7, 32, 64, 200);
    let cert_alg = certw.reasoner.algebra();
    let cert_sigma = certw.reasoner.compiled_sigma();
    let cert_targets: Vec<CompiledDep> = certw
        .queries
        .iter()
        .map(|q| {
            q.compile(cert_alg)
                .expect("the certification row's queries compile")
        })
        .collect();
    let certify_all = || {
        let (mut implied, mut nodes) = (0u64, 0u64);
        for t in &cert_targets {
            let proof = certify_governed(cert_alg, cert_sigma, t, &unlimited)
                .expect("the certification row certifies");
            if let Some(dag) = proof {
                implied += 1;
                nodes += dag.len() as u64;
            }
        }
        (implied, nodes)
    };
    let (cert_implied, cert_dag_nodes) = certify_all();
    let cert_ns = median_nanos(3, || {
        std::hint::black_box(certify_all());
    });
    println!(
        "certification row: {} targets, {cert_implied} implied with {cert_dag_nodes} \
         derivation nodes in all, in {}",
        cert_targets.len(),
        fmt_nanos(cert_ns)
    );
    // the rendering row: the same Σ and targets, printed
    let render_all = || {
        let sides = cert_sigma.iter().chain(&cert_targets);
        sides.map(|d| d.render(cert_alg).len()).sum::<usize>()
    };
    let render_ns = median_nanos(7, || {
        std::hint::black_box(render_all());
    });
    println!(
        "rendering row: {} dependencies, {} bytes of text, in {}",
        cert_sigma.len() + cert_targets.len(),
        render_all(),
        fmt_nanos(render_ns)
    );
    let work = [
        closure_rec.counter(Counter::WorklistSteps),
        closure_rec.counter(Counter::DepsFired),
        wide_rec.counter(Counter::WorklistSteps),
        wide_rec.counter(Counter::DepsFired),
        edit_rec.counter(Counter::CacheHits),
        edit_rec.counter(Counter::CacheMisses),
        edit_rec.counter(Counter::CacheEvicted),
        edit_rec.counter(Counter::CacheRetained),
        recover_rec.counter(Counter::RecoveryReplayedOps),
        cold_stats.entries,
        cold_stats.bytes,
        cold_stats.capacity_evicted,
        cold_rec.counter(Counter::DepsFired),
        cold_rec.counter(Counter::WorklistSteps),
        cert_implied,
        cert_dag_nodes,
    ];
    print!("work counters:");
    for (name, value) in WORK_COUNTERS.iter().zip(work) {
        print!(" {name}={value}");
    }
    println!();

    if std::env::var_os("UPDATE_PERF_BASELINE").is_some() {
        let mut json = format!(
            "{{\n  \"closure_ns\": {closure_ns},\n  \"edit_ns\": {edit_ns},\n  \"total_ns\": {total_ns},\n  \"parse_ns\": {parse_ns},\n  \"recover_ns\": {recover_ns},\n  \"cert_ns\": {cert_ns},\n  \"render_ns\": {render_ns},\n  \"compiled_parse_ns\": {compiled_parse_ns}"
        );
        for (name, value) in WORK_COUNTERS.iter().zip(work) {
            json.push_str(&format!(",\n  \"{name}\": {value}"));
        }
        json.push_str("\n}\n");
        std::fs::write(BASELINE_PATH, json).unwrap_or_else(|e| {
            eprintln!("cannot write {BASELINE_PATH}: {e}");
            std::process::exit(2);
        });
        println!("baseline blessed: {BASELINE_PATH}");
        return;
    }

    let text = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        eprintln!(
            "cannot read {BASELINE_PATH}: {e}\n\
             run with UPDATE_PERF_BASELINE=1 to create it"
        );
        std::process::exit(2);
    });
    let baseline = parse_field(&text, "total_ns").unwrap_or_else(|| {
        eprintln!("no \"total_ns\" field in {BASELINE_PATH}");
        std::process::exit(2);
    });
    let ratio = total_ns as f64 / baseline.max(1) as f64;
    println!(
        "baseline total {} → ratio {ratio:.2} (limit {MAX_RATIO:.1})",
        fmt_nanos(baseline)
    );
    let mut failed = false;
    if ratio > MAX_RATIO {
        eprintln!(
            "PERF REGRESSION: pinned workload is {ratio:.2}x the checked-in baseline \
             (limit {MAX_RATIO:.1}x). If intentional, re-bless with UPDATE_PERF_BASELINE=1."
        );
        failed = true;
    }
    for (field, what, ns) in [
        ("parse_ns", "notation parsing", parse_ns),
        ("recover_ns", "WAL replay", recover_ns),
        ("cert_ns", "certification", cert_ns),
        ("render_ns", "rendering", render_ns),
        (
            "compiled_parse_ns",
            "compiled notation parsing",
            compiled_parse_ns,
        ),
    ] {
        let row_baseline = parse_field(&text, field).unwrap_or_else(|| {
            eprintln!("no \"{field}\" field in {BASELINE_PATH}");
            std::process::exit(2);
        });
        let row_ratio = ns as f64 / row_baseline.max(1) as f64;
        println!(
            "baseline {what} {} → ratio {row_ratio:.2} (limit {MAX_RATIO:.1})",
            fmt_nanos(row_baseline)
        );
        if row_ratio > MAX_RATIO {
            eprintln!(
                "PERF REGRESSION: {what} is {row_ratio:.2}x the checked-in baseline \
                 (limit {MAX_RATIO:.1}x). If intentional, re-bless with UPDATE_PERF_BASELINE=1."
            );
            failed = true;
        }
    }
    let noop_ratio = noop_ns as f64 / closure_ns.max(1) as f64;
    println!(
        "no-op recorder: observed path {} vs plain {} → ratio {noop_ratio:.2} \
         (limit {MAX_NOOP_RATIO:.1})",
        fmt_nanos(noop_ns),
        fmt_nanos(closure_ns)
    );
    if noop_ratio > MAX_NOOP_RATIO {
        eprintln!(
            "OBSERVABILITY OVERHEAD: the disabled-recorder path is {noop_ratio:.2}x the \
             plain path (limit {MAX_NOOP_RATIO:.1}x); the no-op seam must cost nothing."
        );
        failed = true;
    }
    if cold_stats.bytes > MAX_CACHE_BYTES {
        eprintln!(
            "CACHE BOUND: the cache row holds {} bytes, more than the bound of \
             {MAX_CACHE_BYTES}; an insert past the bound must flush the cache first.",
            cold_stats.bytes
        );
        failed = true;
    }
    if cold_stats.bytes > MAX_ENTRY_BYTES * cold_stats.entries {
        eprintln!(
            "CACHE ENTRY SIZE: the cache row holds {} bytes in {} entries, more than \
             {MAX_ENTRY_BYTES} bytes per entry; entries must stay packed.",
            cold_stats.bytes, cold_stats.entries
        );
        failed = true;
    }
    for (name, value) in WORK_COUNTERS.iter().zip(work) {
        match parse_field(&text, name) {
            Some(expected) if expected == u128::from(value) => {}
            Some(expected) => {
                eprintln!(
                    "WORK COUNTER DRIFT: {name} = {value}, baseline pins {expected}. The \
                     engine is doing different work on an identical pinned workload; if \
                     intentional, re-bless with UPDATE_PERF_BASELINE=1 and review the diff."
                );
                failed = true;
            }
            None => {
                eprintln!(
                    "no \"{name}\" field in {BASELINE_PATH}; re-bless with \
                     UPDATE_PERF_BASELINE=1"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf smoke passed");
}
