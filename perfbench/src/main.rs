//! The serve benchmark: `nalist serve` under three named workloads,
//! end to end over HTTP, with a separate traced in-process run for the
//! per-layer figures. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <read-hot|read-cold|write-churn> --seed <n>
//!           --seconds <s> --trace <0|1> --nalist <bin> --work <dir>
//!           [--rev <revision>]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any answer was wrong or any request
//! failed, 2 when the run could not be carried out.

#![forbid(unsafe_code)]

mod daemon;
mod drive;
mod gate;
mod http;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nalist_guard::Budget;
use nalist_membership::WalOp;
use nalist_store::WalWriter;

use crate::daemon::{scrape, Daemon, Metrics};
use crate::drive::Phase;
use crate::gate::Gate;
use crate::http::Conn;
use crate::workload::{Inputs, Req, Workload};

/// Launches before the timed phases; the last one serves them.
const SETUPS_BEFORE: usize = 5;

/// Launches after the timed phases. `setup_s` is the median over all
/// launches, so it samples the machine at both ends of the run.
const SETUPS_AFTER: usize = 4;

/// Share of `--seconds` spent in the fixed-rate phase; the rest is the
/// closed-loop capacity phase.
const FIXED_SHARE: f64 = 0.7;

/// Share of `--seconds` the traced replay may take.
const TRACE_SHARE: f64 = 0.3;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    nalist: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |v: String, flag: &str| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("bad {flag} value {v}"))
    };
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds: num(get("--seconds")?, "--seconds")?.max(1.0),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        nalist: PathBuf::from(get("--nalist")?),
        work: PathBuf::from(get("--work")?),
        rev: get("--rev").unwrap_or_else(|_| "unknown".to_string()),
    })
}

/// Writes the starting wal-dir: per tenant a snapshot holding the base
/// Σ and a WAL holding the header plus the journaled history.
fn prepare_start(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let budget = Budget::unlimited();
    for t in &inputs.tenants {
        let mut r = nalist_membership::Reasoner::new(&t.attr);
        for d in &t.base {
            r.add_str(d).map_err(|e| format!("{}: {e}", t.name))?;
        }
        nalist_membership::write_reasoner_snapshot(
            &dir.join(format!("{}.snap", t.name)),
            &r,
            &budget,
            nalist_obs::noop(),
        )
        .map_err(|e| e.to_string())?;
        let mut w = WalWriter::create(&dir.join(format!("{}.wal", t.name)), false)
            .map_err(|e| e.to_string())?;
        let header = WalOp::Header { schema: t.schema() };
        for op in std::iter::once(&header).chain(&t.history) {
            w.append(&op.encode(), &budget, nalist_obs::noop())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Opens the benchmark's keep-alive connections.
fn open_conns(addr: std::net::SocketAddr, n: usize) -> Result<Vec<Option<Conn>>, String> {
    (0..n)
        .map(|_| {
            Conn::open(addr)
                .map(Some)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))
        })
        .collect()
}

/// The first open connection, for scrapes and checks between windows.
fn first(conns: &mut [Option<Conn>]) -> Result<&mut Conn, String> {
    conns
        .iter_mut()
        .flatten()
        .next()
        .ok_or_else(|| "no open connection left".to_string())
}

/// One launch: copy the starting wal-dir, start the server, connect and
/// warm up. Records the set-up time and the warm-up phase in `run`;
/// returns the daemon and its connections.
fn launch(
    args: &Args,
    inputs: &Inputs,
    conns_n: usize,
    run: &mut Run,
) -> Result<(Daemon, Vec<Option<Conn>>), String> {
    let dir = args.work.join("run");
    trace::copy_dir(&args.work.join("start"), &dir)?;
    let t0 = Instant::now();
    let daemon = Daemon::launch(&args.nalist, &dir, &args.work)?;
    let mut conns = open_conns(daemon.addr, conns_n)?;
    let warm = drive::open_loop(&mut conns[..1], daemon.addr, &[&inputs.warmup]);
    run.setups.push(t0.elapsed().as_secs_f64());
    run.setup_cpus.push(daemon.cpu_ns()? as f64 / 1e9);
    run.warmups.push(warm);
    Ok((daemon, conns))
}

/// Fetches every tenant's Σ listing: `(status, body)`, status 0 on an
/// I/O failure.
fn fetch_sigma(conn: &mut Conn, inputs: &Inputs) -> Vec<(u16, String)> {
    inputs
        .tenants
        .iter()
        .map(|t| {
            conn.call("GET", &format!("/v1/{}/sigma", t.name), None)
                .unwrap_or((0, String::new()))
        })
        .collect()
}

/// Checks fetched Σ listings against the gate's model.
fn check_sigma(gate: &mut Gate, listings: &[(u16, String)], when: &str) -> usize {
    for (i, (status, body)) in listings.iter().enumerate() {
        gate.check_sigma(i, *status, body, when);
    }
    listings.len()
}

/// Everything measured in one run, for [`report`].
#[derive(Debug, Default)]
pub struct Run {
    /// Set-up time of each launch, seconds.
    pub setups: Vec<f64>,
    /// Server CPU used by the end of each launch's warm-up, seconds.
    pub setup_cpus: Vec<f64>,
    /// Warm-up phases (one per launch).
    pub warmups: Vec<Phase>,
    /// The fixed-rate phase.
    pub fixed: Phase,
    /// The closed-loop phase.
    pub capacity: Phase,
    /// `/metrics` before the fixed window, after it, and at the end.
    pub metrics: [Metrics; 3],
    /// Server CPU over the fixed-rate window, nanoseconds.
    pub cpu_ns: u64,
    /// Server `VmHWM` after the fixed-rate window, MiB.
    pub peak_rss_mb: f64,
    /// Server `VmHWM` at the end of the run, MiB.
    pub final_rss_mb: f64,
    /// Extra requests sent for Σ checks.
    pub sigma_checks: usize,
}

/// Progress line on stderr, stamped with seconds since start.
fn progress(t0: Instant, what: &str) {
    eprintln!("perfbench [{:6.2}s] {what}", t0.elapsed().as_secs_f64());
}

fn execute(args: &Args) -> Result<ExitCode, String> {
    let t0 = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let conns_n = nproc.clamp(1, 2);
    let fixed_ns = (args.seconds * FIXED_SHARE * 1e9) as u64;
    let capacity = Duration::from_secs_f64(args.seconds * (1.0 - FIXED_SHARE));
    let inputs = workload::generate(
        args.workload.spec(),
        args.seed,
        conns_n,
        fixed_ns,
        capacity.as_nanos() as u64,
    )?;
    progress(t0, "inputs generated");
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let start = args.work.join("start");
    prepare_start(&inputs, &start)?;
    progress(t0, "starting wal-dir written");
    let mut gate = Gate::new(&inputs);
    let mut run = Run::default();

    let mut live = None;
    for i in 0..SETUPS_BEFORE {
        let (daemon, conns) = launch(args, &inputs, conns_n, &mut run)?;
        if i + 1 < SETUPS_BEFORE {
            drop(conns);
            daemon.stop()?;
        } else {
            live = Some((daemon, conns));
        }
    }
    let (daemon, mut conns) = live.expect("at least one launch");
    progress(t0, "set-ups done");
    let fixed_lists: Vec<&[Req]> = inputs.conns.iter().map(|c| c.fixed.as_slice()).collect();
    let cap_lists: Vec<&[Req]> = inputs.conns.iter().map(|c| c.capacity.as_slice()).collect();

    run.metrics[0] = scrape(first(&mut conns)?)?;
    let cpu0 = daemon.cpu_ns()?;
    run.fixed = drive::open_loop(&mut conns, daemon.addr, &fixed_lists);
    run.cpu_ns = daemon.cpu_ns()? - cpu0;
    // Resident set before each scrape: rendering a `/metrics` document
    // copies the daemon's whole span buffer, which is the harness's
    // doing, not the traffic's.
    run.peak_rss_mb = daemon.peak_rss_mb()?;
    run.metrics[1] = scrape(first(&mut conns)?)?;
    run.capacity = drive::closed_loop(&mut conns, daemon.addr, &cap_lists, capacity);
    run.final_rss_mb = daemon.peak_rss_mb()?;
    run.metrics[2] = scrape(first(&mut conns)?)?;
    let after_run = fetch_sigma(first(&mut conns)?, &inputs);
    progress(t0, "timed phases done");
    drop(conns);
    daemon.stop()?;
    let after_restart = if args.workload == Workload::WriteChurn {
        // The journal must reproduce the same Σ after a restart.
        let daemon = Daemon::launch(&args.nalist, &args.work.join("run"), &args.work)?;
        let mut conn = Conn::open(daemon.addr).map_err(|e| e.to_string())?;
        let listings = fetch_sigma(&mut conn, &inputs);
        drop(conn);
        daemon.stop()?;
        listings
    } else {
        Vec::new()
    };
    for _ in 0..SETUPS_AFTER {
        let (daemon, conns) = launch(args, &inputs, conns_n, &mut run)?;
        drop(conns);
        daemon.stop()?;
    }

    progress(t0, "server stopped");
    for warm in &run.warmups {
        gate.check_phase(&[&inputs.warmup], warm);
    }
    gate.check_phase(&fixed_lists, &run.fixed);
    gate.check_phase(&cap_lists, &run.capacity);
    run.sigma_checks += check_sigma(&mut gate, &after_run, "after the run");
    run.sigma_checks += check_sigma(&mut gate, &after_restart, "after a restart");

    progress(t0, "answers checked");
    let traced = if args.trace {
        let t = trace::replay(
            &inputs,
            &start,
            &args.work,
            Duration::from_secs_f64(args.seconds * TRACE_SHARE),
        )?;
        trace::write_spans(&t.spans, &args.work.join("spans.jsonl"))?;
        progress(t0, "traced run done");
        Some(t)
    } else {
        None
    };

    let ctx = report::Context {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        rev: &args.rev,
        nproc,
        conns: conns_n,
        inputs: &inputs,
    };
    let out = report::assemble(&ctx, &run, &gate.findings, traced.as_ref());
    print!("{}", out.text);
    let path = args.work.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, &out.record)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", out.line);
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
