//! Turning a run into metrics: the end-to-end set, the per-layer set,
//! the human-readable report and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::drive::Phase;
use crate::gate::Findings;
use crate::stats::{self, Summary};
use crate::trace::{self, Traced};
use crate::workload::{Inputs, OpKind, Req, Workload, BATCH};
use crate::Run;

/// End-to-end metrics gated in `BENCHMARK.json` and carried by the
/// result line of `--trace 0`: `(name, unit)`. A metric is gated when
/// ten seeds give it a quartile spread below a third of its bound;
/// `setup_s` is gated regardless. The others are printed by name but
/// not gated (README).
pub const END_TO_END: [(&str, &str); 2] = [("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer timings (each reported as `.mean`, `.p50`, `.p99`, `.n`):
/// `(metric, unit, span name, divisor from nanoseconds)`. Spans named
/// `-` come from the correctness gate rather than the traced run.
pub const TIMINGS: [(&str, &str, &str, f64); 19] = [
    ("serve.api.query_us", "us", "serve.api.query", 1e3),
    ("serve.api.edit_us", "us", "serve.api.edit", 1e3),
    ("serve.api.cert_us", "us", "serve.api.cert", 1e3),
    ("types.json.parse_us", "us", "types.json.parse", 1e3),
    ("types.parser.dep_us", "us", "types.parser.dep", 1e3),
    ("deps.compile_us", "us", "deps.compile", 1e3),
    (
        "membership.closure.hit_us",
        "us",
        "membership.closure.hit",
        1e3,
    ),
    (
        "membership.closure.miss_us",
        "us",
        "membership.closure.miss",
        1e3,
    ),
    (
        "membership.batch.us_per_query",
        "us",
        "membership.batch",
        1e3 * BATCH as f64,
    ),
    ("membership.edit.add_us", "us", "membership.edit.add", 1e3),
    (
        "membership.edit.remove_us",
        "us",
        "membership.edit.remove",
        1e3,
    ),
    ("membership.certify.us", "us", "membership.certify", 1e3),
    ("membership.witness.us", "us", "membership.witness", 1e3),
    ("membership.cert.kb", "KiB", "-", 1.0),
    (
        "membership.persist.recover_ms",
        "ms",
        "membership.persist.recover",
        1e6,
    ),
    (
        "membership.persist.snapshot_encode_us",
        "us",
        "membership.persist.snapshot_encode",
        1e3,
    ),
    ("store.wal.append_us", "us", "store.wal.append", 1e3),
    ("store.snapshot.write_ms", "ms", "store.snapshot.write", 1e6),
    ("check.verify_us", "us", "-", 1.0),
];

/// Per-layer ratios and counts from `/metrics` deltas and the harness:
/// `(metric, unit)`, in output order.
pub const COUNTS: [(&str, &str); 28] = [
    ("serve.server.request_us", "us"),
    ("serve.server.request_us.n", "count"),
    ("serve.server.residual_us", "us"),
    ("serve.server.keepalive_reuse_ratio", "ratio"),
    ("serve.server.keepalive_reuse_ratio.base", "count"),
    ("membership.closure.deps_fired_per_miss", "ratio"),
    ("membership.closure.deps_fired_per_miss.base", "count"),
    ("membership.closure.worklist_steps_per_miss", "ratio"),
    ("membership.closure.worklist_steps_per_miss.base", "count"),
    ("membership.cache.hit_ratio", "ratio"),
    ("membership.cache.hit_ratio.base", "count"),
    ("membership.cache.evicted_per_edit", "ratio"),
    ("membership.cache.evicted_per_edit.base", "count"),
    ("store.wal.fsyncs_per_edit", "ratio"),
    ("store.wal.fsyncs_per_edit.base", "count"),
    ("obs.spans_per_request", "ratio"),
    ("obs.spans_per_request.base", "count"),
    ("obs.metrics_kb", "KiB"),
    ("engine.deps_fired", "count"),
    ("engine.worklist_steps", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.wal_fsyncs", "count"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_us", "us"),
    ("input.lhs_repeat_share", "ratio"),
    ("input.basis_differs_share", "ratio"),
    ("input.edit_share", "ratio"),
];

/// Every per-layer metric name with its unit, in output order.
#[cfg(test)]
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit, _, _) in TIMINGS {
        for stat in ["mean", "p50", "p99"] {
            out.push((format!("{name}.{stat}"), unit));
        }
        out.push((format!("{name}.n"), "count"));
    }
    out.extend(COUNTS.iter().map(|(n, u)| ((*n).to_string(), *u)));
    out
}

/// Run-independent facts for the report.
#[derive(Debug)]
pub struct Context<'a> {
    /// Which workload ran.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Source revision.
    pub rev: &'a str,
    /// CPUs available.
    pub nproc: usize,
    /// Keep-alive connections used.
    pub conns: usize,
    /// The generated inputs.
    pub inputs: &'a Inputs,
}

/// A finished report.
#[derive(Debug)]
pub struct Output {
    /// Human-readable lines.
    pub text: String,
    /// The full result record (JSON).
    pub record: String,
    /// The result line (JSON).
    pub line: String,
    /// Whether every answer was right and every request succeeded.
    pub correct: bool,
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// Latencies in µs from due time of one op type in a phase, sorted;
/// failures count as infinitely late.
fn latencies(phase: &Phase, lists: &[&[Req]], kind: OpKind) -> Vec<f64> {
    let mut v: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| lists[s.conn][s.ix].op.kind() == kind)
        .map(|s| {
            if s.ok() {
                s.latency_us()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    stats::sort(&mut v);
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn json_num(v: f64) -> String {
    // Failed requests make a latency infinite; JSON has no infinity.
    let v = if v.is_finite() { v } else { 1e12 };
    format!("{v}")
}

fn metrics_json(ms: &[Metric]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Assembles metrics and text from a run.
#[must_use]
pub fn assemble(ctx: &Context, run: &Run, findings: &Findings, traced: Option<&Traced>) -> Output {
    let inputs = ctx.inputs;
    let fixed_lists: Vec<&[Req]> = inputs.conns.iter().map(|c| c.fixed.as_slice()).collect();
    let mut text = String::new();
    let w = &mut text;
    let _ = writeln!(
        w,
        "perfbench {} seed={} seconds={} rev={} nproc={} conns={} trace={}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        ctx.rev,
        ctx.nproc,
        ctx.conns,
        u8::from(traced.is_some())
    );
    let f = &inputs.floors;
    let _ = writeln!(
        w,
        "inputs: lhs_repeat_share={:.4} basis_differs_share={:.4} edit_share={:.4} \
         fixed-rate requests: {} queries, {} edits, {} certs; offered {} req/s",
        f.lhs_repeat_share,
        f.basis_differs_share,
        f.edit_share,
        f.fixed_counts[0],
        f.fixed_counts[1],
        f.fixed_counts[2],
        inputs.spec.rate
    );

    // phases
    let phase_line = |w: &mut String, name: &str, p: &Phase| {
        let late: Vec<f64> = {
            let mut v: Vec<f64> = p.samples.iter().map(|s| s.late_ns as f64 / 1e3).collect();
            stats::sort(&mut v);
            v
        };
        let _ = writeln!(
            w,
            "phase {name}: sent {} succeeded {} failed {} over {:.3} s; gen_late_p99_us {:.1}",
            p.samples.len(),
            p.succeeded(),
            p.samples.len() - p.succeeded(),
            p.elapsed_ns as f64 / 1e9,
            stats::percentile(&late, 99.0).unwrap_or(0.0)
        );
    };
    for (i, warm) in run.warmups.iter().enumerate() {
        phase_line(w, &format!("set-up {}", i + 1), warm);
    }
    phase_line(w, "fixed-rate", &run.fixed);
    phase_line(w, "capacity", &run.capacity);
    let attempted = run.warmups.iter().map(|p| p.samples.len()).sum::<usize>()
        + run.fixed.samples.len()
        + run.capacity.samples.len()
        + run.sigma_checks;
    let failed = findings.failed() + traced.map_or(0, |t| t.failures);
    let _ = writeln!(
        w,
        "phase checks: sent {} Σ listings; gate checked {} answers, {} failed requests, {} wrong",
        run.sigma_checks, findings.checked, findings.failed_requests, findings.wrong
    );
    for note in &findings.notes {
        let _ = writeln!(w, "  problem: {note}");
    }

    // end to end
    let q = latencies(&run.fixed, &fixed_lists, OpKind::Query);
    let e = latencies(&run.fixed, &fixed_lists, OpKind::Edit);
    let c = latencies(&run.fixed, &fixed_lists, OpKind::Cert);
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(0.0);
    let mut e2e: Vec<Metric> = vec![
        ("query_p50_us".into(), pct(&q, 50.0), "us"),
        ("query_p99_us".into(), pct(&q, 99.0), "us"),
    ];
    if !e.is_empty() {
        e2e.push(("edit_p50_us".into(), pct(&e, 50.0), "us"));
        e2e.push(("edit_p99_us".into(), pct(&e, 99.0), "us"));
    }
    if !c.is_empty() {
        e2e.push(("cert_p50_us".into(), pct(&c, 50.0), "us"));
        e2e.push(("cert_p90_us".into(), pct(&c, 90.0), "us"));
    }
    e2e.extend([
        (
            "sat_rps".into(),
            ratio(
                run.capacity.succeeded() as f64,
                run.capacity.elapsed_ns as f64 / 1e9,
            ),
            "req/s",
        ),
        (
            "cpu_us_per_op".into(),
            ratio(run.cpu_ns as f64 / 1e3, run.fixed.succeeded() as f64),
            "us",
        ),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MB"),
        ("end_rss_mb".into(), run.final_rss_mb, "MB"),
        (
            "setup_s".into(),
            stats::median(&run.setups).unwrap_or(0.0),
            "s",
        ),
        (
            "error_ratio".into(),
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ]);
    let gated: Vec<Metric> = END_TO_END
        .iter()
        .filter_map(|(name, _)| e2e.iter().find(|m| m.0 == *name).cloned())
        .collect();
    let round = |xs: &[f64]| {
        xs.iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    };
    let _ = writeln!(
        w,
        "samples: {} queries (tail rule supports p{}), {} edits (p{}), {} certs (p{}); \
         set-ups {:?} s, server CPU in each set-up {:?} s",
        q.len(),
        stats::tail_percentile(q.len()).unwrap_or(0.0),
        e.len(),
        stats::tail_percentile(e.len()).unwrap_or(0.0),
        c.len(),
        stats::tail_percentile(c.len()).unwrap_or(0.0),
        round(&run.setups),
        round(&run.setup_cpus),
    );
    for (n, v, u) in &e2e {
        let gate = if gated.iter().any(|g| g.0 == *n) {
            " (gated)"
        } else {
            ""
        };
        let _ = writeln!(w, "{n} = {v:.3} {u}{gate}");
    }

    // per layer
    let layer = per_layer(ctx, run, findings, traced, &fixed_lists);
    if let Some(t) = traced {
        stage_table(w, run, t, &layer, &fixed_lists);
    }
    for (n, v, u) in &layer {
        let _ = writeln!(w, "  {n} = {v:.3} {u}");
    }

    let correct = failed == 0;
    let line_metrics = if traced.is_some() { &layer } else { &gated };
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(line_metrics)
    );
    let all: Vec<Metric> = e2e.iter().chain(&layer).cloned().collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"rev\": \"{}\", \"nproc\": {}, \
         \"conns\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"setups_s\": {:?}, \"setup_cpus_s\": {:?}, \"metrics\": {}}}\n",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        ctx.rev,
        ctx.nproc,
        ctx.conns,
        u8::from(traced.is_some()),
        run.setups,
        run.setup_cpus,
        metrics_json(&all)
    );
    Output {
        text,
        record,
        line,
        correct,
    }
}

/// The per-layer metrics (all of them, zero where the workload has no
/// such traffic, with the sample count saying so).
fn per_layer(
    ctx: &Context,
    run: &Run,
    findings: &Findings,
    traced: Option<&Traced>,
    fixed_lists: &[&[Req]],
) -> Vec<Metric> {
    let mut by_span: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    if let Some(t) = traced {
        for s in &t.spans {
            by_span.entry(s.name).or_default().push(s.dur_ns() as f64);
        }
    }
    let mut out: Vec<Metric> = Vec::new();
    for (name, unit, span, div) in TIMINGS {
        let samples: Vec<f64> = match name {
            "membership.cert.kb" => findings.cert_kb.clone(),
            "check.verify_us" => findings.verify_us.clone(),
            _ => by_span
                .get(span)
                .map(|v| v.iter().map(|x| x / div).collect())
                .unwrap_or_default(),
        };
        let s = Summary::of(&samples);
        out.push((format!("{name}.mean"), s.mean, unit));
        out.push((format!("{name}.p50"), s.p50, unit));
        out.push((format!("{name}.p99"), s.p99, unit));
        out.push((format!("{name}.n"), s.n as f64, "count"));
    }
    let d = run.metrics[1].since(&run.metrics[0]);
    let edits = run
        .fixed
        .samples
        .iter()
        .filter(|s| s.ok() && fixed_lists[s.conn][s.ix].op.kind() == OpKind::Edit)
        .count() as f64;
    let requests = d.counter("requests");
    let (hits, misses) = (d.counter("cache_hits"), d.counter("cache_misses"));
    let request_us = ratio(d.request_ns / 1e3, d.request_count);
    let client_mean = {
        let ok: Vec<f64> = run
            .fixed
            .samples
            .iter()
            .filter(|s| s.ok())
            .map(crate::drive::Sample::latency_us)
            .collect();
        stats::mean(&ok).unwrap_or(0.0)
    };
    let late: Vec<f64> = {
        let mut v: Vec<f64> = run
            .fixed
            .samples
            .iter()
            .map(|s| s.late_ns as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    };
    let overhead = traced.map_or(0.0, |t| t.overhead_us(None));
    let f = &ctx.inputs.floors;
    let values: [f64; 28] = [
        request_us,
        d.request_count,
        client_mean - request_us,
        ratio(d.counter("keepalive_reuses"), requests),
        requests,
        ratio(d.counter("deps_fired"), misses),
        misses,
        ratio(d.counter("worklist_steps"), misses),
        misses,
        ratio(hits, hits + misses),
        hits + misses,
        ratio(d.counter("cache_evicted"), edits),
        edits,
        ratio(d.counter("wal_fsyncs"), edits),
        edits,
        ratio(d.spans, requests),
        requests,
        run.metrics[2].bytes as f64 / 1024.0,
        d.counter("deps_fired"),
        d.counter("worklist_steps"),
        hits,
        misses,
        d.counter("wal_fsyncs"),
        stats::percentile(&late, 99.0).unwrap_or(0.0),
        overhead,
        f.lhs_repeat_share,
        f.basis_differs_share,
        f.edit_share,
    ];
    out.extend(
        COUNTS
            .iter()
            .zip(values)
            .map(|((n, u), v)| ((*n).to_string(), v, *u)),
    );
    out
}

/// Layers of the stage table, named after crates and modules.
const LAYERS: [&str; 9] = [
    "types.json",
    "types.parser",
    "deps",
    "membership.closure",
    "membership.edit",
    "membership.certify",
    "membership.witness",
    "store.wal",
    "membership.batch",
];

/// Layer a span belongs to, for the stage table; a request root's own
/// self time is the harness's glue between layer calls.
fn layer_of(name: &str) -> &str {
    LAYERS
        .iter()
        .find(|l| {
            name.strip_prefix(**l)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .copied()
        .unwrap_or("harness glue")
}

/// Per op type: mean self time per layer per request, the stage sum
/// next to the handler, server and client times, and the residual.
fn stage_table(w: &mut String, run: &Run, t: &Traced, layer: &[Metric], fixed_lists: &[&[Req]]) {
    let selfs = trace::self_times(&t.spans);
    let mut root_of = vec![0usize; t.spans.len()];
    for (i, s) in t.spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
    }
    let lookup = |name: &str| {
        layer
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let _ = writeln!(
        w,
        "traced run: {} requests replayed in-process ({} handler failures)",
        t.requests, t.failures
    );
    for kind in OpKind::ALL {
        let root = trace::root_name(kind);
        let n = t.spans.iter().filter(|s| s.name == root).count();
        if n == 0 {
            continue;
        }
        let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (i, s) in t.spans.iter().enumerate() {
            if t.spans[root_of[i]].name == root {
                *per_layer.entry(layer_of(s.name)).or_default() += selfs[i] as f64 / 1e3;
            }
        }
        let sum: f64 = per_layer.values().sum::<f64>() / n as f64;
        let client: Vec<f64> = latencies(&run.fixed, fixed_lists, kind)
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        let client_mean = stats::mean(&client).unwrap_or(0.0);
        let api = lookup(&format!("serve.api.{}_us.mean", kind.name()));
        let server = lookup("serve.server.request_us");
        let _ = writeln!(
            w,
            "stages for {} ({n} traced requests), mean self time per request:",
            kind.name()
        );
        let mut rows: Vec<(&str, f64)> =
            per_layer.iter().map(|(k, v)| (*k, v / n as f64)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (k, v) in &rows {
            let _ = writeln!(
                w,
                "  {k:<28} {v:>12.2} us  {:>5.1}%",
                100.0 * v / sum.max(1e-9)
            );
        }
        if let Some((top, v)) = rows.iter().find(|(k, _)| *k != "harness glue") {
            let _ = writeln!(
                w,
                "  largest layer: {top} ({:.1}% of the stage sum)",
                100.0 * v / sum.max(1e-9)
            );
        }
        let _ = writeln!(
            w,
            "  stage sum (traced) {sum:.2} us | serve.api.{}_us (untraced handler) {api:.2} us \
             | serve.server.request_us (all ops) {server:.2} us | client mean {client_mean:.2} us \
             | residual over the handler (wire, queue, lock wait) {:.2} us \
             | tracing overhead (decomposed path traced - untraced) {:.2} us",
            kind.name(),
            client_mean - api,
            t.overhead_us(Some(kind))
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_letters_digits_underscore_dot_and_dash() {
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| (*n).to_string())
            .chain(per_layer_names().into_iter().map(|(n, _)| n))
            .chain(Workload::ALL.iter().map(|w| w.name().to_string()))
            .collect();
        for n in &names {
            assert!(valid(n), "bad metric name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names repeat");
        assert!(!valid("a b") && !valid("p99%") && !valid(".x"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = nalist_types::json::parse(&doc).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(nalist_types::json::Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(nalist_types::json::Json::as_str).unwrap();
                    (s("name").to_string(), s("unit").to_string())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(nalist_types::json::Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(nalist_types::json::Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
