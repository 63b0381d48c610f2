//! # nalist-cli
//!
//! Command-line reasoner for functional and multi-valued dependencies
//! over nested record/list schemas. All logic lives in [`run`] so that it
//! is directly testable; `main` only forwards `std::env::args` and files.
//!
//! The command set (one [`CommandSpec`] row per subcommand — the same
//! table drives the dispatcher, `usage_text()` and `nalist help`):
//!
//! ```text
//! nalist decide    <schema> <deps-file> <dependency>   decide Σ ⊨ σ (witness on "no")
//! nalist check     <schema> <deps-file> <cert-file>    verify a proof certificate without
//!                                                      the engine (trusted checker)
//! nalist batch     <schema> <deps-file> <queries-file> [--threads N]
//!                                                      decide Σ ⊨ σ for many σ in parallel
//! nalist replay    <schema> <script-file>              replay a Σ edit script (add/remove/
//!                                                      query) on the incremental reasoner
//!                                                      [--wal <log>] journals every op first
//! nalist snapshot  <schema> <deps-file> <out>          write a crash-safe snapshot of the
//!                                                      reasoner state [--warm <queries>]
//! nalist recover   <snapshot> [--wal <log>]            rebuild a reasoner from a snapshot
//!                                                      plus an optional WAL tail
//! nalist prove     <schema> <deps-file> <dependency>   emit a machine-checked derivation
//! nalist closure   <schema> <deps-file> <subattr>      attribute-set closure X⁺
//! nalist basis     <schema> <deps-file> <subattr>      dependency basis DepB(X)
//! nalist trace     <schema> <deps-file> <subattr>      Algorithm 5.1 step-by-step
//! nalist verify    <schema> <deps-file> <data-file>    check an instance against Σ
//! nalist chase     <schema> <deps-file> <data-file>    repair an instance (MVD chase)
//! nalist normalize <schema> <deps-file>                cover, keys, 4NF, decomposition
//! nalist lint      <schema> <deps-file> [--deny warnings] [--format json]
//!                                                      static analysis (rules L001–L009)
//! nalist lattice   <schema> [--dot]                    Sub(N) summary / DOT diagram
//! nalist serve     <addr> [--wal-dir <dir>]            multi-tenant HTTP reasoning
//!                                                      service (one reasoner per tenant)
//! nalist loadgen   <addr> [--rps N] [--duration-ms N]  open-loop load generator against
//!                                                      a running `nalist serve`
//! nalist help      [command]                           this listing / per-command help
//! ```
//!
//! `<schema>` is a nested attribute in the paper's notation, e.g.
//! `"Pubcrawl(Person, Visit[Drink(Beer, Pub)])"`. Dependency files hold
//! one `X -> Y` / `X ->> Y` per line (`#` comments allowed); data files
//! hold one tuple literal per line, e.g. `(Sven, [(Lübzer, Deanos)])`.
//!
//! `nalist lint` exits 0 when the spec is clean, 1 when any
//! error-severity finding (or, under `--deny warnings`, any finding at
//! all) is reported; like rustc, the diagnostics go to stderr in that
//! case.
//!
//! Every command additionally accepts the global resource flags
//! `--timeout <ms>`, `--max-atoms <n>` and `--max-depth <n>` (anywhere
//! on the command line). They bound the wall clock, the schema's basis
//! size and the nesting depth of any parsed input; exceeding one yields
//! a structured error and exit code 3.
//!
//! Observability rides on two more global flags: `--metrics <path>`
//! writes work counters, latency histograms and the span log as a JSON
//! document (schema in the `nalist-obs` crate docs; written even when
//! the command fails, so a metrics file exists for every exit code),
//! and `--trace` appends a rustc-style span tree to the output. With
//! neither flag the dispatcher runs on the no-op recorder and the
//! observed code paths compile away entirely. Under `--metrics` or
//! `--trace`, `batch` additionally reports a per-query timing
//! breakdown.
//!
//! `nalist decide`, `nalist prove` and `nalist basis` additionally
//! accept `--cert <path>`: on success they write a portable JSON proof
//! certificate (format documented in the `nalist-check` crate) that
//! `nalist check` can later verify without re-running the engine.
//!
//! Exit codes: 0 success, 1 domain error (refuted query, lint findings,
//! malformed spec contents, rejected certificate, a WAL record that no
//! longer replays), 2 usage or file-access error (also: an invalid
//! proof-rule instance surfaced by `prove`, an unreadable certificate
//! document, or a corrupt/unreadable snapshot or WAL), 3 resource
//! exhaustion.
//!
//! Snapshot and WAL files are binary (checksummed; see the
//! `nalist-store` crate) and are read and written directly on the real
//! filesystem — they bypass the text-oriented [`Files`] seam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use nalist::membership::cert::{self, implied_certificate, refuted_certificate, EvidenceError};
use nalist::membership::trace::{render_result, render_trace};
use nalist::membership::{recover, write_reasoner_snapshot, WalOp};
use nalist::obs::{
    fmt_ns, site, Counter, MetricsRecorder, MetricsSnapshot, NoopRecorder, Recorder,
};
use nalist::prelude::*;
use nalist::schema::cover::redundant_indices;
use nalist::schema::normalform::fourth_nf_violations;

/// Exit code for resource exhaustion (deadline, fuel, atom or depth
/// caps).
pub const EXIT_RESOURCE: i32 = 3;

/// CLI failure: a message for stderr plus a suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (1 = domain error, 2 = usage or file error,
    /// 3 = resource exhaustion).
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError {
            message: format!("{}\n\n{}", msg.into(), usage_text()),
            code: 2,
        }
    }

    fn domain(msg: impl std::fmt::Display) -> Self {
        CliError {
            message: msg.to_string(),
            code: 1,
        }
    }

    /// File-access failures: same code as usage errors (the input never
    /// reached the reasoner) but without the usage dump — the message
    /// already names the offending path.
    fn file(msg: impl std::fmt::Display) -> Self {
        CliError {
            message: msg.to_string(),
            code: 2,
        }
    }

    fn resource(msg: impl std::fmt::Display) -> Self {
        CliError {
            message: msg.to_string(),
            code: EXIT_RESOURCE,
        }
    }

    /// Maps a [`ReasonerError`], routing resource exhaustion to exit
    /// code 3 and everything else to the domain-error code.
    fn reasoner(e: &ReasonerError) -> Self {
        match e {
            ReasonerError::Resource(r) => CliError::resource(r),
            other => CliError::domain(other),
        }
    }
}

/// One row of the command table: everything the dispatcher, the usage
/// string and `nalist help` need to know about a subcommand.
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// Subcommand name as typed by the user.
    pub name: &'static str,
    /// Argument synopsis (without the program or command name).
    pub synopsis: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The full command table, in display order. [`run`] dispatches only on
/// names present here, so the usage text can never drift out of sync
/// with the dispatcher again.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "decide",
        synopsis: "<schema> <deps-file> <dependency> [--cert <path>]",
        summary: "decide Σ ⊨ σ; prints a counterexample database on \"no\"",
    },
    CommandSpec {
        name: "check",
        synopsis: "<schema> <deps-file> <cert-file> [--format json]",
        summary: "verify a proof certificate against Σ without the engine",
    },
    CommandSpec {
        name: "batch",
        synopsis: "<schema> <deps-file> <queries-file> [--threads N]",
        summary: "decide Σ ⊨ σ for every query line, in parallel (default: one thread per CPU)",
    },
    CommandSpec {
        name: "replay",
        synopsis: "<schema> <script-file> [--wal <log>]",
        summary: "replay a Σ edit script (add/remove/query) incrementally",
    },
    CommandSpec {
        name: "snapshot",
        synopsis: "<schema> <deps-file> <out> [--warm <queries-file>]",
        summary: "write a crash-safe snapshot of the reasoner state (Σ, ids, warm cache)",
    },
    CommandSpec {
        name: "recover",
        synopsis: "<snapshot> [--wal <log>]",
        summary: "rebuild the reasoner from a snapshot, replaying an optional WAL tail",
    },
    CommandSpec {
        name: "prove",
        synopsis: "<schema> <deps-file> <dependency> [--cert <path>]",
        summary: "emit a machine-checked derivation in the 14-rule system",
    },
    CommandSpec {
        name: "closure",
        synopsis: "<schema> <deps-file> <subattr>",
        summary: "attribute-set closure X⁺ under Σ",
    },
    CommandSpec {
        name: "basis",
        synopsis: "<schema> <deps-file> <subattr> [--cert <path>]",
        summary: "dependency basis DepB(X)",
    },
    CommandSpec {
        name: "trace",
        synopsis: "<schema> <deps-file> <subattr>",
        summary: "replay Algorithm 5.1 step by step",
    },
    CommandSpec {
        name: "verify",
        synopsis: "<schema> <deps-file> <data-file>",
        summary: "check a database instance against every dependency in Σ",
    },
    CommandSpec {
        name: "chase",
        synopsis: "<schema> <deps-file> <data-file>",
        summary: "repair an instance by chasing the MVDs of Σ",
    },
    CommandSpec {
        name: "normalize",
        synopsis: "<schema> <deps-file>",
        summary: "minimal cover, candidate keys, 4NF check, decomposition",
    },
    CommandSpec {
        name: "lint",
        synopsis: "<schema> <deps-file> [--deny warnings] [--format json] [--explain <rule>]",
        summary: "static analysis of the spec (rules L001–L009, with fix-its)",
    },
    CommandSpec {
        name: "lattice",
        synopsis: "<schema> [--dot]",
        summary: "Sub(N) summary, basis listing, optional DOT diagram",
    },
    CommandSpec {
        name: "serve",
        synopsis: "<addr> [--workers N] [--queue N] [--wal-dir <dir>] [--follow <leader>] [--request-fuel N] [--request-deadline-ms N] [--read-timeout-ms N] [--port-file <path>] [--max-requests N] [--stop-file <path>]",
        summary: "serve many named schemas over HTTP, one live reasoner per tenant",
    },
    CommandSpec {
        name: "loadgen",
        synopsis: "<addr> [--tenants N] [--rps N] [--duration-ms N] [--conns N] [--pool N] [--atoms N] [--edit-ratio F] [--zipf S] [--seed N] [--reuse-tenants] [--verify <follower>]",
        summary: "open-loop load generator against a running `nalist serve`",
    },
    CommandSpec {
        name: "help",
        synopsis: "[command]",
        summary: "show this listing, or details for one command",
    },
];

fn command(name: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// One row of the global-flag table: flags accepted by *every* command,
/// extracted before dispatch. The same table drives extraction and the
/// usage text.
#[derive(Debug, Clone, Copy)]
pub struct GlobalFlagSpec {
    /// Flag as typed, e.g. `--timeout`.
    pub name: &'static str,
    /// Value placeholder for the usage text.
    pub value: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Global resource-governance flags, in display order.
pub const GLOBAL_FLAGS: &[GlobalFlagSpec] = &[
    GlobalFlagSpec {
        name: "--timeout",
        value: "<ms>",
        summary: "wall-clock deadline for the whole command (exit 3 when exceeded)",
    },
    GlobalFlagSpec {
        name: "--max-atoms",
        value: "<n>",
        summary: "refuse schemas with more than n basis attributes (exit 3)",
    },
    GlobalFlagSpec {
        name: "--max-depth",
        value: "<n>",
        summary: "refuse inputs nested deeper than n levels (exit 3)",
    },
];

/// Splits the global resource flags out of `args` (they may appear
/// anywhere) and folds them into a [`Budget`]. The remaining arguments
/// are returned for normal dispatch.
pub fn extract_global_flags(args: &[String]) -> Result<(Vec<String>, Budget), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut budget = Budget::unlimited();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(spec) = GLOBAL_FLAGS.iter().find(|f| f.name == arg.as_str()) else {
            rest.push(arg.clone());
            continue;
        };
        let raw = it.next().ok_or_else(|| {
            CliError::usage(format!("{} requires a value {}", spec.name, spec.value))
        })?;
        let n: u64 = raw
            .parse()
            .map_err(|e| CliError::usage(format!("bad {} value '{raw}': {e}", spec.name)))?;
        budget = match spec.name {
            "--timeout" => budget.with_deadline_in(Duration::from_millis(n)),
            "--max-atoms" => budget.with_max_atoms(n),
            "--max-depth" => budget.with_max_depth(n),
            _ => unreachable!("flag came from GLOBAL_FLAGS"),
        };
    }
    Ok((rest, budget))
}

/// Observability flags, accepted by every command (same table contract
/// as [`GLOBAL_FLAGS`]). `--trace` takes no value (empty `value`
/// column).
pub const OBS_FLAGS: &[GlobalFlagSpec] = &[
    GlobalFlagSpec {
        name: "--metrics",
        value: "<path>",
        summary: "write work counters, histograms and spans as JSON to <path>",
    },
    GlobalFlagSpec {
        name: "--trace",
        value: "",
        summary: "append a span tree (rustc-style) to the command output",
    },
];

/// Observability options extracted from the command line (see
/// [`OBS_FLAGS`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Destination for the metrics JSON document (`--metrics <path>`).
    pub metrics: Option<String>,
    /// Append the span tree to the output (`--trace`).
    pub trace: bool,
}

impl ObsOptions {
    /// True when any observability output was requested. When false,
    /// [`run`] stays on the no-op recorder and pays nothing.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.trace || self.metrics.is_some()
    }
}

/// Splits the observability flags out of `args` (they may appear
/// anywhere). The remaining arguments are returned for normal dispatch.
pub fn extract_obs_flags(args: &[String]) -> Result<(Vec<String>, ObsOptions), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut opts = ObsOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => opts.trace = true,
            "--metrics" => {
                let path = it
                    .next()
                    .ok_or_else(|| CliError::usage("--metrics requires a value <path>"))?;
                opts.metrics = Some(path.clone());
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, opts))
}

/// The usage text, generated from [`COMMANDS`] and [`GLOBAL_FLAGS`].
pub fn usage_text() -> String {
    let width = COMMANDS.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut out = String::from("usage:\n");
    for c in COMMANDS {
        writeln!(out, "  nalist {:width$} {}", c.name, c.synopsis).unwrap();
    }
    out.push_str("\nglobal flags (any command):\n");
    let label = |f: &GlobalFlagSpec| {
        if f.value.is_empty() {
            f.name.to_string()
        } else {
            format!("{} {}", f.name, f.value)
        }
    };
    let fwidth = GLOBAL_FLAGS
        .iter()
        .chain(OBS_FLAGS)
        .map(|f| label(f).len())
        .max()
        .unwrap_or(0);
    for f in GLOBAL_FLAGS.iter().chain(OBS_FLAGS) {
        let flag = label(f);
        writeln!(out, "  {flag:fwidth$}  {}", f.summary).unwrap();
    }
    out.push_str(
        "\n<schema> is a nested attribute, e.g. 'Pubcrawl(Person, Visit[Drink(Beer, Pub)])'.
Dependency and query files hold one 'X -> Y' or 'X ->> Y' per line; data
files one tuple literal per line. '#' starts a comment in either. Pass
'-' as a file argument to read it from stdin. See 'nalist help <command>'
for details on one command.

exit codes: 0 success, 1 domain error, 2 usage or file error,
3 resource budget exhausted.",
    );
    out
}

/// An owned, thread-safe file writer returned by [`Files::writer`].
pub type FileWriter = Box<dyn Fn(&str, &str) -> Result<(), String> + Send>;

/// File access used by [`run`]; injectable for tests.
pub trait Files {
    /// Reads a whole file to a string.
    fn read(&self, path: &str) -> Result<String, String>;

    /// Writes a whole file (used by `--metrics`). The default refuses:
    /// test doubles that never expect writes need not implement it.
    fn write(&self, path: &str, content: &str) -> Result<(), String> {
        let _ = content;
        Err(format!("cannot write {path}: read-only file source"))
    }

    /// An owned, thread-safe writer reaching the same destination as
    /// [`Files::write`], or `None` when writes cannot outlive the
    /// calling frame (the read-only test default). Long-lived commands
    /// (`serve`, `loadgen`) use it to flush in-progress `--metrics`
    /// snapshots from a background thread while the command runs.
    fn writer(&self) -> Option<FileWriter> {
        None
    }
}

/// Real filesystem access.
pub struct OsFiles;

impl Files for OsFiles {
    fn read(&self, path: &str) -> Result<String, String> {
        if path == "-" {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            return Ok(buf);
        }
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// All CLI file outputs (metrics JSON, certificates) go through the
    /// store layer's atomic write: temp file, fsync, rename. A crash
    /// mid-write leaves the previous file intact, never a torn one.
    fn write(&self, path: &str, content: &str) -> Result<(), String> {
        nalist::store::atomic_write(std::path::Path::new(path), content.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))
    }

    fn writer(&self) -> Option<FileWriter> {
        Some(Box::new(|path, content| {
            nalist::store::atomic_write(std::path::Path::new(path), content.as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))
        }))
    }
}

/// An unparsable schema is a domain error (exit 1) — except depth-limit
/// violations, which honour the resource contract `--max-depth`
/// documents (exit 3).
fn schema_error(e: &ParseError) -> CliError {
    let message = format!("bad schema attribute: {e}");
    match e {
        ParseError::TooDeep { .. } => CliError::resource(message),
        _ => CliError::domain(message),
    }
}

fn load_reasoner(
    files: &dyn Files,
    schema: &str,
    deps_path: &str,
    budget: &Budget,
    rec: &Arc<dyn Recorder>,
) -> Result<Reasoner, CliError> {
    let limits = ParseLimits::from_budget(budget);
    let n = parse_attr_with(schema, limits).map_err(|e| schema_error(&e))?;
    let mut r =
        Reasoner::try_new_observed(&n, budget, Arc::clone(rec)).map_err(CliError::resource)?;
    let text = files.read(deps_path).map_err(CliError::file)?;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let dep = Dependency::parse_with(r.attr(), line, limits)
            .map_err(|e| CliError::domain(format!("{deps_path}:{}: {e}", lineno + 1)))?;
        r.add(dep)
            .map_err(|e| CliError::domain(format!("{deps_path}:{}: {e}", lineno + 1)))?;
    }
    Ok(r)
}

/// Parses `dep` as a dependency over the reasoner's `N`, as its
/// compiled pair.
fn parse_target(r: &Reasoner, dep: &str, budget: &Budget) -> Result<CompiledDep, CliError> {
    CompiledDep::parse(r.algebra(), dep, ParseLimits::from_budget(budget))
        .map_err(|e| CliError::domain(format!("bad dependency: {e}")))
}

/// Parses `sub` as a subattribute of the reasoner's `N`, as its atom set.
fn parse_sub(r: &Reasoner, sub: &str, budget: &Budget) -> Result<AtomSet, CliError> {
    r.algebra()
        .parse_subattr(sub, ParseLimits::from_budget(budget))
        .map_err(|e| CliError::domain(format!("bad subattribute: {e}")))
}

fn checkpoint(budget: &Budget) -> Result<(), CliError> {
    budget.check_deadline().map_err(CliError::resource)
}

/// Executes a CLI invocation; `args` excludes the program name.
/// Observability flags come out first (see [`OBS_FLAGS`]), then the
/// global resource flags (see [`GLOBAL_FLAGS`]); everything else is
/// dispatched with the resulting [`Budget`]. Without `--metrics` or
/// `--trace` the command runs on the no-op recorder — the observed
/// paths cost nothing and the output is byte-identical to older
/// releases.
pub fn run(args: &[String], files: &dyn Files) -> Result<String, CliError> {
    let (rest, obs) = extract_obs_flags(args)?;
    let (rest, budget) = extract_global_flags(&rest)?;
    if obs.enabled() {
        run_observed(&rest, files, &budget, &obs)
    } else {
        run_with_budget(&rest, files, &budget)
    }
}

/// [`run`] with an explicit [`Budget`] — the injection point for
/// fault-tolerance tests (fail points, pre-armed deadlines). Runs on
/// the no-op recorder.
pub fn run_with_budget(
    args: &[String],
    files: &dyn Files,
    budget: &Budget,
) -> Result<String, CliError> {
    let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
    dispatch(args, files, budget, &rec)
}

/// [`run`] with injected [`FailPoint`](nalist::guard::FailPoint)s folded
/// into the budget parsed from the command line. This is how `main` arms
/// the `NALIST_FAILPOINT` environment hook (and how the crash-recovery CI
/// job crashes a release binary at a chosen store site) without any
/// library code reading process environment.
pub fn run_with_failpoints(
    args: &[String],
    files: &dyn Files,
    failpoints: Vec<nalist::guard::FailPoint>,
) -> Result<String, CliError> {
    let (rest, obs) = extract_obs_flags(args)?;
    let (rest, mut budget) = extract_global_flags(&rest)?;
    for fp in failpoints {
        budget = budget.with_failpoint(fp);
    }
    if obs.enabled() {
        run_observed(&rest, files, &budget, &obs)
    } else {
        run_with_budget(&rest, files, &budget)
    }
}

/// Parses a `NALIST_FAILPOINT`-style spec: `<site>=<action>` with
/// `action` one of `panic`, `exhaust` (every hit) or `panic@N` /
/// `exhaust@N` (only the `N`-th hit, 0-based). Multiple specs separated
/// by `;`. Returns `Err` with a message on a malformed spec.
pub fn parse_failpoint_spec(spec: &str) -> Result<Vec<nalist::guard::FailPoint>, String> {
    use nalist::guard::{FailAction, FailPoint};
    let mut out = Vec::new();
    for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let (site, action) = part
            .trim()
            .split_once('=')
            .ok_or_else(|| format!("bad fail-point spec {part:?} (expected <site>=<action>)"))?;
        let (name, nth) = match action.split_once('@') {
            Some((name, n)) => {
                let n: u64 = n
                    .parse()
                    .map_err(|e| format!("bad fail-point hit index {n:?}: {e}"))?;
                (name, Some(n))
            }
            None => (action, None),
        };
        let act = match name {
            "panic" => FailAction::Panic,
            "exhaust" => FailAction::ExhaustFuel,
            other => {
                return Err(format!(
                    "unknown fail-point action {other:?} (expected panic or exhaust)"
                ))
            }
        };
        out.push(match nth {
            Some(n) => FailPoint::nth(site, n, act),
            None => FailPoint::every(site, act),
        });
    }
    Ok(out)
}

/// [`run`] under a live [`MetricsRecorder`]: the whole command runs
/// inside a root `cli::command` span, the budget's spent fuel lands in
/// the `fuel_spent` counter at exit, `--metrics` serialises the final
/// snapshot as JSON (even when the command fails — every exit code
/// leaves a metrics file), and `--trace` appends the rendered span
/// tree to the output (or to the error message).
fn run_observed(
    args: &[String],
    files: &dyn Files,
    budget: &Budget,
    obs: &ObsOptions,
) -> Result<String, CliError> {
    // One-shot commands keep every span (`--trace` prints the whole
    // tree); the daemon's buffer is capped so it cannot grow with uptime.
    let metrics = Arc::new(if args.first().is_some_and(|c| c == "serve") {
        MetricsRecorder::with_span_cap(nalist::serve::server::SPAN_CAP)
    } else {
        MetricsRecorder::new()
    });
    let rec: Arc<dyn Recorder> = metrics.clone();
    let token = rec.enter(site::CLI_COMMAND, args.len() as u64);
    // Long-lived commands flush an in-progress snapshot every 500 ms so
    // `--metrics` is useful *while* the daemon runs, not only at exit.
    // The final write below still lands the authoritative document: the
    // `finalized` latch flips *before* the join, and the flusher
    // re-checks it immediately before every write, so no interleaving
    // can stamp `in_progress: true` over the final snapshot.
    let finalized = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flusher = obs.metrics.as_ref().and_then(|path| {
        let cmd = args.first().filter(|c| *c == "serve" || *c == "loadgen")?;
        let write = files.writer()?;
        let (cmd, path) = (cmd.clone(), path.clone());
        let m = Arc::clone(&metrics);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let done = Arc::clone(&finalized);
        let handle = std::thread::spawn(move || {
            let mut waited_ms = 0u64;
            loop {
                // Sleep in 50 ms steps so a shutdown is noticed fast
                // instead of waiting out a full flush period.
                std::thread::sleep(Duration::from_millis(50));
                if stopped.load(std::sync::atomic::Ordering::SeqCst)
                    || done.load(std::sync::atomic::Ordering::SeqCst)
                {
                    return;
                }
                waited_ms += 50;
                if waited_ms < 500 {
                    continue;
                }
                waited_ms = 0;
                let doc = nalist::obs::render_snapshot_json(&cmd, 0, true, &m.snapshot());
                if done.load(std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                let _ = write(&path, &doc);
            }
        });
        Some((stop, handle))
    });
    let mut result = dispatch(args, files, budget, &rec);
    finalized.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some((stop, handle)) = flusher {
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = handle.join();
    }
    rec.add(Counter::FuelSpent, budget.spent());
    rec.exit(token, u64::from(result.is_ok()));
    let snap = metrics.snapshot();
    if args.first().is_some_and(|c| c == "batch") {
        if let Ok(out) = &mut result {
            out.push_str(&batch_timing_breakdown(&snap));
        }
    }
    if let Some(path) = &obs.metrics {
        let exit_code = match &result {
            Ok(_) => 0,
            Err(e) => e.code,
        };
        let doc = render_metrics_json(args, exit_code, &snap);
        match files.write(path, &doc) {
            // A failed metrics write must never mask the command's own
            // error; it only surfaces when the command itself succeeded.
            Err(e) if result.is_ok() => return Err(CliError::file(e)),
            _ => {}
        }
    }
    if obs.trace {
        let tree = metrics.render_trace();
        match &mut result {
            Ok(out) => {
                if !out.is_empty() && !out.ends_with('\n') {
                    out.push('\n');
                }
                out.push_str(&tree);
            }
            Err(e) => {
                e.message.push('\n');
                e.message.push_str(tree.trim_end());
            }
        }
    }
    result
}

/// Per-query latency lines for `batch`, reconstructed from the
/// `batch::query` spans (enter payload: query index; exit payload: 1
/// when the query was answered without error).
fn batch_timing_breakdown(snap: &MetricsSnapshot) -> String {
    let mut queries: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.site == site::BATCH_QUERY)
        .collect();
    if queries.is_empty() {
        return String::new();
    }
    queries.sort_by_key(|s| s.payload_in);
    let mut out = String::from("per-query timing:\n");
    for s in &queries {
        writeln!(
            out,
            "  query {:>4}  {:>10}  {}",
            s.payload_in,
            fmt_ns(s.dur_ns),
            if s.payload_out == 1 { "ok" } else { "err" }
        )
        .unwrap();
    }
    out
}

/// Serialises a [`MetricsSnapshot`] as the `--metrics` JSON document.
/// Delegates to [`nalist::obs::render_snapshot_json`] (`schema_version`
/// 2), which the serve path reuses for `GET /metrics` and for periodic
/// mid-run flushes.
fn render_metrics_json(args: &[String], exit_code: i32, snap: &MetricsSnapshot) -> String {
    let command = args.first().map_or("", String::as_str);
    nalist::obs::render_snapshot_json(command, exit_code, false, snap)
}

/// The dispatcher proper: one arm per [`COMMANDS`] row, running under
/// `budget` and reporting to `rec`.
fn dispatch(
    args: &[String],
    files: &dyn Files,
    budget: &Budget,
    rec: &Arc<dyn Recorder>,
) -> Result<String, CliError> {
    let mut out = String::new();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => return Err(CliError::usage("missing command")),
    };
    let spec = command(cmd).ok_or_else(|| {
        let hint = COMMANDS
            .iter()
            .find(|c| c.name.starts_with(cmd) || cmd.starts_with(c.name))
            .map(|c| format!(" (did you mean `{}`?)", c.name))
            .unwrap_or_default();
        CliError::usage(format!("unknown command `{cmd}`{hint}"))
    })?;
    match (cmd, rest) {
        ("decide", [schema, deps, dep, flags @ ..]) => {
            let cert_path = parse_cert_flag("decide", flags)?;
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let alg = r.algebra();
            let target = parse_target(&r, dep, budget)?;
            checkpoint(budget)?;
            let answer =
                cert::answer(alg, r.compiled_sigma(), &target, budget).map_err(closure_error)?;
            if answer.implied() {
                writeln!(out, "IMPLIED: Σ ⊨ {}", target.render(alg)).unwrap();
                if let Some(path) = cert_path {
                    let cert = answer.certificate(budget).map_err(evidence_error)?;
                    write_certificate(files, path, &cert, &mut out)?;
                }
            } else {
                let w = answer
                    .witness(budget)
                    .map_err(witness_error)?
                    .ok_or_else(|| {
                        CliError::domain("internal: not implied but no witness found")
                    })?;
                writeln!(out, "NOT IMPLIED: Σ ⊭ {}", target.render(alg)).unwrap();
                writeln!(
                    out,
                    "counterexample ({} tuples; satisfies Σ, violates the dependency):",
                    w.instance.len()
                )
                .unwrap();
                for t in w.instance.iter() {
                    writeln!(out, "  {t}").unwrap();
                }
                if let Some(path) = cert_path {
                    let cert = refuted_certificate(alg, r.compiled_sigma(), &target, &w);
                    write_certificate(files, path, &cert, &mut out)?;
                }
            }
        }
        ("check", [schema, deps, cert_file, flags @ ..]) => {
            let format = parse_check_flags(flags)?;
            let deps_src = files.read(deps).map_err(CliError::file)?;
            let cert_src = files.read(cert_file).map_err(CliError::file)?;
            let cert = Certificate::from_json(&cert_src).map_err(|e| CliError {
                message: format!("{cert_file}: {e}"),
                code: 2,
            })?;
            let token = rec.enter(site::CHECK_VERIFY, cert.derivation.len() as u64);
            let result = check_certificate(schema, &deps_src, &cert, budget);
            rec.exit(token, u64::from(result.is_ok()));
            match result {
                Ok(report) => {
                    rec.add(Counter::CertNodes, report.nodes as u64);
                    rec.add(Counter::CertTuples, report.tuples as u64);
                    match format {
                        CheckFormat::Human => {
                            writeln!(
                                out,
                                "ACCEPTED: certificate verifies ({})",
                                report.verdict.as_str()
                            )
                            .unwrap();
                            writeln!(out, "statement: {}", report.statement).unwrap();
                            writeln!(
                                out,
                                "replayed {} derivation node(s), re-checked {} tuple(s)",
                                report.nodes, report.tuples
                            )
                            .unwrap();
                        }
                        CheckFormat::Json => {
                            out.push_str(&render_check_json(Ok(&report)));
                            out.push('\n');
                        }
                    }
                }
                Err(e) => {
                    let code = if e.is_resource() {
                        EXIT_RESOURCE
                    } else if e.is_input_error() {
                        2
                    } else {
                        1
                    };
                    let message = match format {
                        CheckFormat::Human => format!("REJECTED: {e}"),
                        CheckFormat::Json => render_check_json(Err(&e)),
                    };
                    return Err(CliError { message, code });
                }
            }
        }
        ("batch", [schema, deps, queries, flags @ ..]) => {
            let threads = match flags {
                [] => default_batch_threads(),
                [flag, n] if flag == "--threads" => n
                    .parse::<std::num::NonZeroUsize>()
                    .map_err(|e| CliError::usage(format!("bad --threads value '{n}': {e}")))?,
                _ => return Err(CliError::usage("unknown flags for batch")),
            };
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let alg = r.algebra();
            let text = files.read(queries).map_err(CliError::file)?;
            let limits = ParseLimits::from_budget(budget);
            let mut targets = Vec::new();
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let dep = Dependency::parse_with(r.attr(), line, limits)
                    .map_err(|e| CliError::domain(format!("{queries}:{}: {e}", lineno + 1)))?;
                targets.push(dep);
            }
            let verdicts = r
                .implies_batch_governed_with(&targets, budget, threads)
                .map_err(|e| CliError::reasoner(&e))?;
            let (mut implied, mut failed) = (0, 0);
            for (dep, verdict) in targets.iter().zip(&verdicts) {
                let c = dep.compile(alg).expect("batch already compiled it");
                match verdict {
                    Ok(true) => {
                        implied += 1;
                        writeln!(out, "IMPLIED      {}", c.render(alg)).unwrap();
                    }
                    Ok(false) => {
                        writeln!(out, "NOT IMPLIED  {}", c.render(alg)).unwrap();
                    }
                    Err(e) => {
                        failed += 1;
                        writeln!(out, "ERROR        {}: {e}", c.render(alg)).unwrap();
                    }
                }
            }
            let decided = verdicts.len() - failed;
            write!(
                out,
                "{implied}/{decided} implied, {} not",
                decided - implied
            )
            .unwrap();
            if failed > 0 {
                writeln!(out, ", {failed} failed").unwrap();
                // Partial results still reach the user (on stderr), but
                // the process reports the degradation.
                return Err(CliError::resource(out.trim_end()));
            }
            out.push('\n');
        }
        ("replay", [schema, script, flags @ ..]) => {
            let wal_path = parse_wal_flag("replay", flags)?;
            let limits = ParseLimits::from_budget(budget);
            let n = parse_attr_with(schema, limits).map_err(|e| schema_error(&e))?;
            let mut r = Reasoner::try_new_observed(&n, budget, Arc::clone(rec))
                .map_err(CliError::resource)?;
            // Write-ahead journal: the header names the (canonical)
            // schema, then every op is journaled *before* it is applied
            // — after a crash, `nalist recover --wal` replays exactly
            // the operations the live process had committed to. A record
            // that cannot replay must never reach the log, so each line
            // is decided first: parsed and compiled, and a removed
            // dependency found in Σ.
            let mut journaled = 0u64;
            let mut wal = match wal_path {
                None => None,
                Some(path) => {
                    let mut w = WalWriter::create(Path::new(path), true).map_err(store_error)?;
                    w.append(
                        &WalOp::Header {
                            schema: n.to_string(),
                        }
                        .encode(),
                        budget,
                        rec.as_ref(),
                    )
                    .map_err(store_error)?;
                    journaled += 1;
                    Some(w)
                }
            };
            let text = files.read(script).map_err(CliError::file)?;
            let (mut adds, mut removes, mut queries) = (0u64, 0u64, 0u64);
            for (lineno, raw) in text.lines().enumerate() {
                let line = raw.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                checkpoint(budget)?;
                let here = |e: &dyn std::fmt::Display| {
                    CliError::domain(format!("{script}:{}: {e}", lineno + 1))
                };
                let (op, payload) = line
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| here(&"expected '<op> <dependency>'"))?;
                let payload = payload.trim();
                let wal_op = match op {
                    "+" | "add" => WalOp::Add(payload.to_string()),
                    "-" | "remove" => WalOp::Remove(payload.to_string()),
                    "?" | "query" => WalOp::Query(payload.to_string()),
                    other => {
                        return Err(here(&format!(
                            "unknown op '{other}' (expected +/add, -/remove or ?/query)"
                        )))
                    }
                };
                let dep = Dependency::parse_with(&n, payload, limits).map_err(|e| here(&e))?;
                let compiled = dep.compile(r.algebra()).map_err(|e| here(&e))?;
                let held = r.compiled_sigma().iter().position(|c| *c == compiled);
                if let (WalOp::Remove(_), None) = (&wal_op, held) {
                    return Err(here(&format!("dependency not in Σ: {payload}")));
                }
                if let Some(w) = wal.as_mut() {
                    w.append(&wal_op.encode(), budget, rec.as_ref())
                        .map_err(store_error)?;
                    journaled += 1;
                }
                match (wal_op, held) {
                    (WalOp::Add(_), _) => {
                        r.add(dep).map_err(|e| here(&e))?;
                        adds += 1;
                        writeln!(out, "add          {payload}").unwrap();
                    }
                    (WalOp::Remove(_), Some(i)) => {
                        r.remove_at(i);
                        removes += 1;
                        writeln!(out, "remove       {payload}").unwrap();
                    }
                    _ => {
                        let verdict = r.implies_governed(&dep, budget).map_err(|e| match e {
                            ReasonerError::Resource(res) => CliError::resource(res),
                            other => here(&other),
                        })?;
                        queries += 1;
                        let tag = if verdict { "IMPLIED" } else { "NOT IMPLIED" };
                        writeln!(out, "{tag:<12} {payload}").unwrap();
                    }
                }
            }
            let stats = r.cache_stats();
            writeln!(
                out,
                "Σ: {} dependencies after {adds} add(s), {removes} remove(s), {queries} query(ies)",
                r.compiled_sigma().len()
            )
            .unwrap();
            writeln!(
                out,
                "cache: {} hits, {} misses, {} retained, {} evicted across edits",
                stats.hits, stats.misses, stats.retained, stats.evicted
            )
            .unwrap();
            if let Some(path) = wal_path {
                drop(wal);
                writeln!(out, "WAL: journaled {journaled} record(s) to {path}").unwrap();
            }
        }
        ("snapshot", [schema, deps, out_path, flags @ ..]) => {
            let warm = parse_warm_flag(flags)?;
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            if let Some(queries_path) = warm {
                let text = files.read(queries_path).map_err(CliError::file)?;
                let limits = ParseLimits::from_budget(budget);
                let mut warmed = 0u64;
                for (lineno, line) in text.lines().enumerate() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    checkpoint(budget)?;
                    let dep = Dependency::parse_with(r.attr(), line, limits).map_err(|e| {
                        CliError::domain(format!("{queries_path}:{}: {e}", lineno + 1))
                    })?;
                    r.implies_governed(&dep, budget)
                        .map_err(|e| CliError::reasoner(&e))?;
                    warmed += 1;
                }
                writeln!(out, "warmed the cache with {warmed} query(ies)").unwrap();
            }
            checkpoint(budget)?;
            let bytes = write_reasoner_snapshot(Path::new(out_path), &r, budget, rec.as_ref())
                .map_err(persist_error)?;
            writeln!(out, "snapshot written to {out_path} ({bytes} bytes)").unwrap();
            writeln!(
                out,
                "Σ: {} dependencies, cache: {} warm entries",
                r.compiled_sigma().len(),
                r.cache_stats().entries
            )
            .unwrap();
        }
        ("recover", [snap, flags @ ..]) => {
            let wal_path = parse_wal_flag("recover", flags)?;
            checkpoint(budget)?;
            let report = recover(
                Path::new(snap),
                wal_path.map(Path::new),
                budget,
                Arc::clone(rec),
            )
            .map_err(persist_error)?;
            let r = &report.reasoner;
            writeln!(out, "recovered {}", r.attr()).unwrap();
            writeln!(out, "Σ ({} dependencies):", r.compiled_sigma().len()).unwrap();
            for (dep, id) in r.compiled_sigma().iter().zip(r.dep_ids()) {
                writeln!(out, "  [{id}] {}", dep.render(r.algebra())).unwrap();
            }
            if wal_path.is_some() {
                if let Some(at) = report.truncated_at {
                    writeln!(out, "WAL: torn tail truncated at byte {at}").unwrap();
                }
                writeln!(
                    out,
                    "WAL: replayed {} add(s), {} remove(s), {} query(ies)",
                    report.adds, report.removes, report.queries
                )
                .unwrap();
            }
            writeln!(out, "cache: {} warm entries", r.cache_stats().entries).unwrap();
        }
        ("prove", [schema, deps, dep, flags @ ..]) => {
            let cert_path = parse_cert_flag("prove", flags)?;
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let alg = r.algebra();
            let target = parse_target(&r, dep, budget)?;
            checkpoint(budget)?;
            let answer =
                cert::answer(alg, r.compiled_sigma(), &target, budget).map_err(closure_error)?;
            if answer.implied() {
                let dag = answer
                    .derivation(budget)
                    .map_err(certify_error)?
                    .ok_or_else(|| CliError::domain("internal: implied but no derivation found"))?;
                dag.check(alg, r.compiled_sigma())
                    .map_err(|e| CliError::domain(format!("internal: certificate invalid: {e}")))?;
                writeln!(
                    out,
                    "IMPLIED — machine-checked derivation ({} nodes):",
                    dag.len()
                )
                .unwrap();
                out.push_str(&dag.render(alg));
                if let Some(path) = cert_path {
                    let cert = implied_certificate(alg, r.compiled_sigma(), &target, &dag);
                    write_certificate(files, path, &cert, &mut out)?;
                }
            } else {
                writeln!(
                    out,
                    "NOT IMPLIED: Σ ⊭ {} (no derivation exists)",
                    target.render(alg)
                )
                .unwrap();
                if let Some(path) = cert_path {
                    let cert = answer.certificate(budget).map_err(evidence_error)?;
                    write_certificate(files, path, &cert, &mut out)?;
                }
            }
        }
        ("closure", [schema, deps, sub]) => {
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let xs = parse_sub(&r, sub, budget)?;
            let basis = r
                .dependency_basis_governed(&xs, budget)
                .map_err(closure_error)?;
            writeln!(out, "{}+ = {}", sub, r.algebra().render(&basis.closure)).unwrap();
        }
        ("basis" | "trace", [schema, deps, sub, flags @ ..]) => {
            let cert_path = if cmd == "basis" {
                parse_cert_flag("basis", flags)?
            } else if flags.is_empty() {
                None
            } else {
                return Err(CliError::usage("unknown flags for trace"));
            };
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let alg = r.algebra();
            let xs = parse_sub(&r, sub, budget)?;
            checkpoint(budget)?;
            if cmd == "trace" {
                let (basis, trace) = closure_and_basis_traced(alg, r.compiled_sigma(), &xs, budget)
                    .map_err(closure_error)?;
                let rendered = render_trace(alg, r.compiled_sigma(), &trace, budget)
                    .map_err(CliError::resource)?;
                out.push_str(&rendered);
                out.push_str(&render_result(alg, &basis));
            } else {
                let basis = r
                    .dependency_basis_governed(&xs, budget)
                    .map_err(closure_error)?;
                writeln!(out, "X+ = {}", alg.render(&basis.closure)).unwrap();
                writeln!(out, "DepB(X) ({} elements):", basis.basis.len()).unwrap();
                for b in &basis.basis {
                    writeln!(out, "  {}", alg.render(b)).unwrap();
                }
                if let Some(path) = cert_path {
                    let cb = nalist::membership::certified_closure_and_basis_governed(
                        alg,
                        r.compiled_sigma(),
                        &xs,
                        budget,
                    )
                    .map_err(certify_error)?;
                    let cert = nalist::membership::cert::basis_certificate(
                        alg,
                        r.compiled_sigma(),
                        &xs,
                        &cb,
                    );
                    write_certificate(files, path, &cert, &mut out)?;
                }
            }
        }
        ("chase", [schema, deps, data]) => {
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let alg = r.algebra();
            let mut instance = Instance::new(r.attr().clone());
            let text = files.read(data).map_err(CliError::file)?;
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                instance
                    .insert_str(line)
                    .map_err(|e| CliError::domain(format!("{data}:{}: {e}", lineno + 1)))?;
            }
            match nalist::deps::chase::chase_observed(
                alg,
                r.compiled_sigma(),
                &instance,
                1 << 16,
                budget,
                rec.as_ref(),
            ) {
                Ok(result) => {
                    writeln!(
                        out,
                        "chase succeeded after {} round(s), {} tuple(s) added:",
                        result.rounds, result.added
                    )
                    .unwrap();
                    for t in result.instance.iter() {
                        writeln!(out, "  {t}").unwrap();
                    }
                }
                Err(ChaseError::Resource(e)) => return Err(CliError::resource(e)),
                Err(e) => return Err(CliError::domain(format!("chase failed: {e}"))),
            }
        }
        ("verify", [schema, deps, data]) => {
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let alg = r.algebra();
            let mut instance = Instance::new(r.attr().clone());
            let text = files.read(data).map_err(CliError::file)?;
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                instance
                    .insert_str(line)
                    .map_err(|e| CliError::domain(format!("{data}:{}: {e}", lineno + 1)))?;
            }
            writeln!(out, "instance: {} tuples", instance.len()).unwrap();
            let mut violated = 0;
            for (i, d) in r.compiled_sigma().iter().enumerate() {
                checkpoint(budget)?;
                let ok = instance.satisfies(alg, d);
                if !ok {
                    violated += 1;
                }
                writeln!(
                    out,
                    "  [{}] {:<60} {}",
                    i + 1,
                    d.render(alg),
                    if ok { "satisfied" } else { "VIOLATED" }
                )
                .unwrap();
            }
            writeln!(
                out,
                "{}",
                if violated == 0 {
                    "instance satisfies Σ".to_string()
                } else {
                    format!("instance violates {violated} dependencies")
                }
            )
            .unwrap();
        }
        ("normalize", [schema, deps]) => {
            let r = load_reasoner(files, schema, deps, budget, rec)?;
            let alg = r.algebra();
            let sigma = r.compiled_sigma();
            checkpoint(budget)?;
            let redundant = redundant_indices(alg, sigma);
            writeln!(
                out,
                "Σ: {} dependencies, {} redundant",
                sigma.len(),
                redundant.len()
            )
            .unwrap();
            let cover = minimal_cover(alg, sigma);
            writeln!(out, "minimal cover ({} dependencies):", cover.len()).unwrap();
            for d in &cover {
                writeln!(out, "  {}", d.render(alg)).unwrap();
            }
            checkpoint(budget)?;
            let keys = candidate_keys(alg, sigma, 8);
            writeln!(out, "candidate keys ({}):", keys.len()).unwrap();
            for k in &keys {
                writeln!(out, "  {}", alg.render(k)).unwrap();
            }
            let violations = fourth_nf_violations(alg, sigma);
            if violations.is_empty() {
                writeln!(out, "schema is in 4NF-with-lists").unwrap();
            } else {
                writeln!(out, "4NF violations ({}):", violations.len()).unwrap();
                for v in &violations {
                    writeln!(out, "  {}", v.reason).unwrap();
                }
                let comps = decompose_4nf(alg, sigma, 8);
                writeln!(
                    out,
                    "suggested lossless decomposition ({} components):",
                    comps.len()
                )
                .unwrap();
                for c in &comps {
                    writeln!(out, "  {}", alg.render(&c.atoms)).unwrap();
                }
            }
        }
        ("lattice", [schema, flags @ ..]) => {
            let n = parse_attr_with(schema, ParseLimits::from_budget(budget))
                .map_err(|e| schema_error(&e))?;
            let alg = nalist::algebra::Algebra::try_new_observed(&n, budget, rec.as_ref())
                .map_err(CliError::resource)?;
            let count = nalist::algebra::lattice::sub_count(&n);
            writeln!(out, "N = {n}").unwrap();
            writeln!(
                out,
                "|SubB(N)| = {} atoms ({} maximal), |Sub(N)| = {count}",
                alg.atom_count(),
                alg.max_mask().count()
            )
            .unwrap();
            out.push_str(&nalist::algebra::render::basis_listing(&alg, None));
            match flags {
                [] => {}
                [flag] if flag == "--dot" => {
                    if count > 4096 {
                        return Err(CliError::domain(format!(
                            "lattice has {count} elements; refusing to render DOT above 4096"
                        )));
                    }
                    out.push_str(&nalist::algebra::render::full_lattice_dot(&alg));
                }
                _ => return Err(CliError::usage("unknown flag for lattice")),
            }
        }
        ("lint", [flag, rule]) if flag == "--explain" => {
            out.push_str(&explain_rule(rule)?);
        }
        ("lint", [schema, deps, flags @ ..]) => {
            let (deny_warnings, format) = parse_lint_flags(flags)?;
            let deps_src = files.read(deps).map_err(CliError::file)?;
            let report = nalist::lint::lint_spec_governed(schema, &deps_src, budget).map_err(
                |e| match e {
                    nalist::lint::SpecError::Parse(p) => schema_error(&p),
                    nalist::lint::SpecError::Resource(r) => CliError::resource(r),
                },
            )?;
            let rendered = match format {
                LintFormat::Human => nalist::lint::render_human(&report, deps, &deps_src),
                LintFormat::Json => nalist::lint::render_json(&report, deps, &deps_src),
            };
            if report.fails(deny_warnings) {
                return Err(CliError::domain(rendered.trim_end()));
            }
            out.push_str(&rendered);
        }
        ("serve", [addr, flags @ ..]) => {
            let opts = parse_serve_flags(addr, flags)?;
            out.push_str(&run_serve(&opts, files, budget, rec)?);
        }
        ("loadgen", [addr, flags @ ..]) => {
            let cfg = parse_loadgen_flags(addr, flags)?;
            checkpoint(budget)?;
            let report = nalist::serve::loadgen::run(&cfg).map_err(CliError::file)?;
            out.push_str(&report.render());
            // `--verify` makes divergence an error: a follower that
            // answers differently from its leader fails the run.
            if report.verify.as_ref().is_some_and(|v| v.failed()) {
                return Err(CliError::domain(out.trim_end()));
            }
        }
        ("help", []) => {
            out.push_str(&usage_text());
            out.push('\n');
        }
        ("help", [topic]) => {
            let t = command(topic)
                .ok_or_else(|| CliError::usage(format!("unknown command `{topic}`")))?;
            writeln!(out, "nalist {} {}", t.name, t.synopsis).unwrap();
            writeln!(out, "\n  {}", t.summary).unwrap();
            if t.name == "replay" {
                writeln!(
                    out,
                    "\n  script lines (one op per line, '#' comments):\n    + X -> Y     add the dependency to Σ   (alias: add)\n    - X ->> Y    remove it from Σ          (alias: remove)\n    ? X -> Y     decide Σ ⊨ σ              (alias: query)\n\n  Queries reuse cached dependency bases across edits: an edit\n  evicts only the bases it can affect, and the final line reports\n  the cache's hit/miss/retention counters.\n\n  `--wal <log>` journals every operation (queries included) to a\n  checksummed write-ahead log *before* applying it; after a crash,\n  `nalist recover <snapshot> --wal <log>` replays the committed\n  tail. The log is fsynced per record."
                )
                .unwrap();
            }
            if t.name == "lint" {
                writeln!(out, "\n  rules:").unwrap();
                for r in nalist::lint::rules() {
                    writeln!(out, "    {} {:<20} {}", r.code, r.name, r.summary).unwrap();
                }
                writeln!(
                    out,
                    "\n  exit code 0 when clean; 1 on any error, or on any warning\n  under --deny warnings (diagnostics then go to stderr).\n\n  `nalist lint --explain <rule>` prints the paper citation for one\n  rule — an L-code above, or a certificate rule id such as\n  `mixed-meet` (see `nalist help check`)."
                )
                .unwrap();
            }
            if t.name == "check" {
                writeln!(
                    out,
                    "\n  Verifies a certificate produced by `nalist decide`, `nalist prove`\n  or `nalist basis` with `--cert <path>`. The checker replays the\n  derivation rule by rule (or re-checks the counterexample instance\n  tuple by tuple) against the schema and Σ given on the command\n  line — it never trusts, or even links, the engine that produced\n  the certificate.\n\n  flags:\n    --format json|human   machine-readable verdict on stdout\n\n  exit codes: 0 certificate accepted; 1 rejected; 2 unreadable\n  schema, deps or certificate file; 3 budget exhausted.\n\n  derivation rule ids (stable across versions):"
                )
                .unwrap();
                for r in nalist::deps::rules::ALL_RULES {
                    writeln!(out, "    {:<22} {}", r.id(), r.cite()).unwrap();
                }
            }
            if t.name == "snapshot" {
                writeln!(
                    out,
                    "\n  Writes the full reasoner state — the schema, Σ with its stable\n  dependency ids, and every warm dependency-basis cache entry — as\n  a versioned, CRC-checksummed binary snapshot (written atomically:\n  temp file, fsync, rename). `--warm <queries-file>` first runs the\n  given membership queries so their cache entries are captured.\n\n  A snapshot plus a `replay --wal` journal is a crash-safe pair:\n  see `nalist help recover`."
                )
                .unwrap();
            }
            if t.name == "recover" {
                writeln!(
                    out,
                    "\n  Rebuilds the reasoner from a snapshot; cache entries land warm,\n  with no recomputation. With `--wal <log>`, the journal's tail is\n  replayed through the ordinary incremental edit path, so the\n  recovered reasoner is bit-identical to the crashed one.\n\n  A torn final record (the crash hit mid-append) is truncated and\n  reported; corruption anywhere else in the snapshot or log is a\n  hard error (exit 2) — never a silently wrong answer.\n\n  exit codes: 0 recovered; 1 a WAL record no longer replays;\n  2 missing or corrupt snapshot/WAL; 3 budget exhausted."
                )
                .unwrap();
            }
            if t.name == "serve" {
                writeln!(
                    out,
                    "\n  Hosts many named schemas over HTTP/1.1 (keep-alive, fixed\n  worker pool, bounded accept queue). One long-lived incremental\n  reasoner per tenant: queries share a read lock, Σ edits take the\n  write lock and journal to the tenant's WAL *before* applying.\n\n  endpoints (all JSON):\n    POST /v1/<tenant>/create   {{\"schema\": \"...\", \"deps\": [\"X -> Y\", ...]}}\n    POST /v1/<tenant>/query    {{\"query\": \"X -> Y\"}} or {{\"queries\": [...]}}\n    POST /v1/<tenant>/edit     {{\"op\": \"add\"|\"remove\", \"dep\": \"...\"}}\n                               or {{\"edits\": [{{\"op\", \"dep\"}}, ...]}}\n    GET  /v1/<tenant>/cert?dep=<url-encoded dependency>\n    GET  /v1/<tenant>/sigma    Σ listing + cache counters\n    GET  /metrics              schema-versioned counters/histograms\n    GET  /healthz              liveness + tenant count\n\n  With `--wal-dir <dir>` each tenant persists as <dir>/<name>.snap\n  plus <dir>/<name>.wal; on restart tenants recover bit-identically\n  and compact. Overload is structured: 503 (Retry-After) when the\n  accept queue is full, 429 when a request exhausts the per-request\n  fuel/deadline budget, 408/413/431 for slow or oversized clients.\n\n  `--follow <leader>` runs a read-only replication follower: each\n  tenant bootstraps from GET /v1/<t>/snapshot, then tails the\n  leader's WAL (GET /v1/<t>/wal?from=<offset>), re-verifying every\n  record and replaying it through the same path crash recovery\n  uses — follower state is bit-identical by construction. Writes\n  answer 421 with a `leader:` header; /healthz answers 503 until\n  caught up, then reports replication lag. Leader restarts are\n  detected by the wal_id/416 offset handshake (re-snapshot).\n\n  `--port-file <path>` writes the bound address (use `:0` for an\n  ephemeral port); `--max-requests N` stops after N requests (smoke\n  tests — production runs until SIGTERM); `--stop-file <path>`\n  drains gracefully when the path appears (pair it with a shell\n  `trap` to turn SIGTERM into a clean exit whose final `--metrics`\n  document says `\"in_progress\": false`); the global `--timeout`\n  bounds the run with a graceful shutdown and the usual exit 3.\n  Under `--metrics <path>` the snapshot file is rewritten every\n  500 ms while the daemon runs (`\"in_progress\": true`)."
                )
                .unwrap();
            }
            if t.name == "loadgen" {
                writeln!(
                    out,
                    "\n  Open-loop load against a running `nalist serve`: arrivals follow\n  a Poisson schedule fixed up front, so a slow server cannot\n  throttle the offered rate and flatter its latency (coordinated\n  omission). Each connection thread owns a slice of the rate;\n  queries pick zipf-skewed targets from a per-tenant pool, and\n  `--edit-ratio` of requests are add/remove churn against the\n  pool's second half. Deterministic under `--seed`.\n\n  Reports sent/ok/429/503 counts, exact p50/p99/mean latency, and\n  achieved vs offered rps. `--reuse-tenants` skips creation when\n  the tenants survived a previous run (e.g. across a restart).\n\n  `--verify <follower>` audits a replica after the run: waits for\n  catch-up, requires byte-identical Σ and query answers from\n  leader and follower, and runs follower certificates through the\n  independent `nalist check` verifier. Any divergence is exit 1."
                )
                .unwrap();
            }
            if t.name == "decide" || t.name == "prove" || t.name == "basis" {
                writeln!(
                    out,
                    "\n  `--cert <path>` additionally writes a portable JSON proof\n  certificate that `nalist check` verifies independently of this\n  engine."
                )
                .unwrap();
            }
        }
        _ => {
            return Err(CliError {
                message: format!(
                    "wrong arguments for `{cmd}`\n\nusage: nalist {} {}\n  {}",
                    spec.name, spec.synopsis, spec.summary
                ),
                code: 2,
            })
        }
    }
    Ok(out)
}

/// Maps a [`WitnessError`], routing budget exhaustion to exit code 3.
fn witness_error(e: WitnessError) -> CliError {
    match e {
        WitnessError::Resource(r) => CliError::resource(r),
        other => CliError::domain(other),
    }
}

/// Maps a [`ClosureError`]: budget exhaustion exits 3; a left-hand side
/// outside `Sub(N)` is a domain error.
fn closure_error(e: ClosureError) -> CliError {
    match e {
        ClosureError::Resource(r) => CliError::resource(r),
        other => CliError::domain(other),
    }
}

/// Maps an [`EvidenceError`] as [`certify_error`] or [`witness_error`]
/// maps the error it carries.
fn evidence_error(e: EvidenceError) -> CliError {
    match e {
        EvidenceError::Derivation(e) => certify_error(e),
        EvidenceError::Witness(e) => witness_error(e),
    }
}

/// Maps a [`CertifyError`]: budget exhaustion exits 3; everything else
/// means certificate construction itself failed (exit 2, matching the
/// `prove` contract — the input never produced a sound derivation).
fn certify_error(e: CertifyError) -> CliError {
    match e {
        CertifyError::Resource(r) => CliError::resource(r),
        other => CliError {
            message: other.to_string(),
            code: 2,
        },
    }
}

/// Maps a [`StoreError`]: budget exhaustion exits 3; I/O, corruption
/// and format failures are file errors (exit 2) — the input never
/// reached the reasoner.
fn store_error(e: StoreError) -> CliError {
    match e {
        StoreError::Resource(r) => CliError::resource(r),
        other => CliError::file(other),
    }
}

/// Maps a [`PersistError`]: a WAL record the reasoner rejects on replay
/// is a domain error (exit 1, like the same op in a `replay` script);
/// store-layer and structural failures are file errors (exit 2); budget
/// exhaustion exits 3.
fn persist_error(e: PersistError) -> CliError {
    match e {
        PersistError::Resource(r) => CliError::resource(r),
        PersistError::Replay { .. } => CliError::domain(e),
        other => CliError::file(other),
    }
}

/// Extracts the optional trailing `--wal <log>` flag.
fn parse_wal_flag<'a>(cmd: &str, flags: &'a [String]) -> Result<Option<&'a String>, CliError> {
    match flags {
        [] => Ok(None),
        [flag, path] if flag == "--wal" => Ok(Some(path)),
        _ => Err(CliError::usage(format!(
            "unknown flags for {cmd} (expected --wal <log>)"
        ))),
    }
}

/// Extracts the optional trailing `--warm <queries-file>` flag.
fn parse_warm_flag(flags: &[String]) -> Result<Option<&String>, CliError> {
    match flags {
        [] => Ok(None),
        [flag, path] if flag == "--warm" => Ok(Some(path)),
        _ => Err(CliError::usage(
            "unknown flags for snapshot (expected --warm <queries-file>)",
        )),
    }
}

/// Extracts the optional trailing `--cert <path>` flag.
fn parse_cert_flag<'a>(cmd: &str, flags: &'a [String]) -> Result<Option<&'a String>, CliError> {
    match flags {
        [] => Ok(None),
        [flag, path] if flag == "--cert" => Ok(Some(path)),
        _ => Err(CliError::usage(format!(
            "unknown flags for {cmd} (expected --cert <path>)"
        ))),
    }
}

/// `nalist serve` options beyond the server configuration proper.
struct ServeOptions {
    cfg: nalist::serve::ServerConfig,
    port_file: Option<String>,
    max_requests: Option<u64>,
    /// Leader address: run as a read-only replication follower.
    follow: Option<String>,
    /// Graceful-drain trigger: the daemon exits cleanly when this path
    /// appears. The portable stand-in for a SIGTERM handler (no
    /// `unsafe`, no signal crate): wrap the process in a shell `trap`
    /// that touches the file.
    stop_file: Option<String>,
}

fn flag_value<'a>(
    cmd: &str,
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, CliError> {
    it.next().ok_or_else(|| {
        CliError::usage(format!("{flag} requires a value (see `nalist help {cmd}`)"))
    })
}

fn flag_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| CliError::usage(format!("bad {flag} value '{raw}': {e}")))
}

fn parse_serve_flags(addr: &str, flags: &[String]) -> Result<ServeOptions, CliError> {
    let mut cfg = nalist::serve::ServerConfig {
        addr: addr.to_string(),
        ..nalist::serve::ServerConfig::default()
    };
    let mut port_file = None;
    let mut max_requests = None;
    let mut follow = None;
    let mut stop_file = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workers" => cfg.workers = flag_num(flag, flag_value("serve", flag, &mut it)?)?,
            "--queue" => cfg.queue_cap = flag_num(flag, flag_value("serve", flag, &mut it)?)?,
            "--request-fuel" => {
                cfg.fuel = Some(flag_num(flag, flag_value("serve", flag, &mut it)?)?);
            }
            "--request-deadline-ms" => {
                cfg.deadline_ms = Some(flag_num(flag, flag_value("serve", flag, &mut it)?)?);
            }
            "--read-timeout-ms" => {
                cfg.read_timeout_ms = flag_num(flag, flag_value("serve", flag, &mut it)?)?;
            }
            "--wal-dir" => {
                cfg.wal_dir = Some(std::path::PathBuf::from(flag_value(
                    "serve", flag, &mut it,
                )?));
            }
            "--port-file" => port_file = Some(flag_value("serve", flag, &mut it)?.clone()),
            "--max-requests" => {
                max_requests = Some(flag_num(flag, flag_value("serve", flag, &mut it)?)?);
            }
            "--follow" => follow = Some(flag_value("serve", flag, &mut it)?.clone()),
            "--stop-file" => stop_file = Some(flag_value("serve", flag, &mut it)?.clone()),
            other => return Err(CliError::usage(format!("unknown flag {other} for serve"))),
        }
    }
    if follow.is_some() && cfg.wal_dir.is_some() {
        return Err(CliError::usage(
            "--follow and --wal-dir are mutually exclusive: a follower keeps no \
             durable state of its own (it re-bootstraps from the leader)",
        ));
    }
    Ok(ServeOptions {
        cfg,
        port_file,
        max_requests,
        follow,
        stop_file,
    })
}

fn parse_loadgen_flags(
    addr: &str,
    flags: &[String],
) -> Result<nalist::serve::LoadgenConfig, CliError> {
    let mut cfg = nalist::serve::LoadgenConfig {
        addr: addr.to_string(),
        ..nalist::serve::LoadgenConfig::default()
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tenants" => cfg.tenants = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?,
            "--atoms" => cfg.atoms = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?,
            "--pool" => cfg.pool = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?,
            "--rps" => cfg.rps = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?,
            "--duration-ms" => {
                cfg.duration_ms = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?;
            }
            "--conns" => cfg.conns = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?,
            "--edit-ratio" => {
                cfg.edit_ratio = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?;
            }
            "--zipf" => cfg.zipf_s = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?,
            "--seed" => cfg.seed = flag_num(flag, flag_value("loadgen", flag, &mut it)?)?,
            "--reuse-tenants" => cfg.reuse_tenants = true,
            "--verify" => cfg.verify = Some(flag_value("loadgen", flag, &mut it)?.clone()),
            other => return Err(CliError::usage(format!("unknown flag {other} for loadgen"))),
        }
    }
    Ok(cfg)
}

/// Sum the daemon's `requests` counter from a snapshot-capable recorder.
fn requests_served(rec: &dyn Recorder) -> u64 {
    rec.try_snapshot().map_or(0, |s| {
        s.counters
            .iter()
            .find(|(name, _)| *name == "requests")
            .map_or(0, |&(_, v)| v)
    })
}

/// Why the serve wait loop decided to exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeExit {
    /// The global `--timeout` deadline passed (exit 3).
    Deadline,
    /// `--max-requests` requests have been served.
    RequestCap,
    /// The `--stop-file` path appeared (graceful drain — the portable
    /// SIGTERM stand-in).
    StopFile,
}

/// Polls the exit conditions every 50 ms until one fires.
fn serve_wait(
    opts: &ServeOptions,
    files: &dyn Files,
    budget: &Budget,
    rec: &dyn Recorder,
) -> ServeExit {
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if budget.check_deadline().is_err() {
            return ServeExit::Deadline;
        }
        if let Some(cap) = opts.max_requests {
            if requests_served(rec) >= cap {
                return ServeExit::RequestCap;
            }
        }
        if let Some(path) = &opts.stop_file {
            if files.read(path).is_ok() {
                return ServeExit::StopFile;
            }
        }
    }
}

/// Runs the daemon until `--max-requests` requests are served, the
/// `--stop-file` path appears (graceful drain), the global `--timeout`
/// deadline passes (graceful shutdown, then the usual exit 3), or the
/// process is killed. With `--follow <leader>` the daemon runs as a
/// read-only replication follower instead of an authority.
fn run_serve(
    opts: &ServeOptions,
    files: &dyn Files,
    budget: &Budget,
    rec: &Arc<dyn Recorder>,
) -> Result<String, CliError> {
    // `GET /metrics` needs a snapshot-capable recorder: reuse the
    // command's own when `--metrics`/`--trace` provided a live one,
    // else give the server a private recorder. Both cap their spans.
    let server_rec: Arc<dyn Recorder> = if rec.try_snapshot().is_some() {
        Arc::clone(rec)
    } else {
        Arc::new(MetricsRecorder::with_span_cap(
            nalist::serve::server::SPAN_CAP,
        ))
    };
    if let Some(leader) = &opts.follow {
        let fcfg = nalist::serve::FollowerConfig {
            server: opts.cfg.clone(),
            leader: leader.clone(),
            ..nalist::serve::FollowerConfig::default()
        };
        let follower = nalist::serve::start_follower(&fcfg, Arc::clone(&server_rec))
            .map_err(|e| CliError::file(e.message))?;
        let addr = follower.local_addr();
        eprintln!(
            "nalist serve: following {leader}, listening on http://{addr}/ \
             (read-only replica, {} workers)",
            opts.cfg.workers.max(1),
        );
        if let Some(path) = &opts.port_file {
            if let Err(e) = files.write(path, &format!("{addr}\n")) {
                follower.shutdown();
                return Err(CliError::file(e));
            }
        }
        let exit = serve_wait(opts, files, budget, server_rec.as_ref());
        let served = requests_served(server_rec.as_ref());
        let tenants = follower.state().registry.len();
        let boots = follower.status().bootstraps();
        follower.shutdown();
        if exit == ServeExit::Deadline {
            return Err(CliError::resource(format!(
                "serve: --timeout reached after {served} request(s); shut down cleanly"
            )));
        }
        return Ok(format!(
            "serve: follower shut down after {served} request(s) across {tenants} \
             tenant(s), {boots} snapshot bootstrap(s){}\n",
            if exit == ServeExit::StopFile {
                " (drained by --stop-file)"
            } else {
                ""
            }
        ));
    }
    let server = nalist::serve::server::start(&opts.cfg, Arc::clone(&server_rec))
        .map_err(|e| CliError::file(e.message))?;
    let addr = server.local_addr();
    eprintln!(
        "nalist serve: listening on http://{addr}/ ({} workers, queue {}{})",
        opts.cfg.workers.max(1),
        opts.cfg.queue_cap.max(1),
        match &opts.cfg.wal_dir {
            Some(dir) => format!(", wal-dir {}", dir.display()),
            None => ", in-memory".to_string(),
        }
    );
    if let Some(path) = &opts.port_file {
        if let Err(e) = files.write(path, &format!("{addr}\n")) {
            server.shutdown();
            return Err(CliError::file(e));
        }
    }
    let exit = serve_wait(opts, files, budget, server_rec.as_ref());
    let served = requests_served(server_rec.as_ref());
    let tenants = server.state().registry.len();
    server.shutdown();
    if exit == ServeExit::Deadline {
        return Err(CliError::resource(format!(
            "serve: --timeout reached after {served} request(s); shut down cleanly"
        )));
    }
    Ok(format!(
        "serve: shut down after {served} request(s) across {tenants} tenant(s){}\n",
        if exit == ServeExit::StopFile {
            " (drained by --stop-file)"
        } else {
            ""
        }
    ))
}

/// Serialises and writes a certificate, reporting the path in `out`.
fn write_certificate(
    files: &dyn Files,
    path: &str,
    cert: &Certificate,
    out: &mut String,
) -> Result<(), CliError> {
    let mut doc = cert.to_json();
    doc.push('\n');
    files.write(path, &doc).map_err(CliError::file)?;
    writeln!(out, "certificate written to {path}").unwrap();
    Ok(())
}

/// Output format for `nalist check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckFormat {
    Human,
    Json,
}

fn parse_check_flags(flags: &[String]) -> Result<CheckFormat, CliError> {
    match flags {
        [] => Ok(CheckFormat::Human),
        [flag, fmt] if flag == "--format" => match fmt.as_str() {
            "json" => Ok(CheckFormat::Json),
            "human" => Ok(CheckFormat::Human),
            other => Err(CliError::usage(format!(
                "--format takes `json` or `human`, got `{other}`"
            ))),
        },
        _ => Err(CliError::usage(
            "unknown flags for check (expected --format json|human)",
        )),
    }
}

/// One-line JSON verdict for `nalist check --format json`.
fn render_check_json(result: Result<&nalist::check::Report, &CheckError>) -> String {
    use nalist::lint::json::escape;
    match result {
        Ok(r) => format!(
            "{{\"accepted\": true, \"verdict\": {}, \"statement\": {}, \"nodes\": {}, \"tuples\": {}}}",
            escape(r.verdict.as_str()),
            escape(&r.statement),
            r.nodes,
            r.tuples
        ),
        Err(e) => format!(
            "{{\"accepted\": false, \"error\": {}}}",
            escape(&e.to_string())
        ),
    }
}

/// `nalist lint --explain <rule>`: one paragraph on a lint rule (by
/// `L`-code or name) or a Theorem 4.6 inference rule (by stable
/// certificate id), with its paper citation.
fn explain_rule(rule: &str) -> Result<String, CliError> {
    let mut out = String::new();
    if let Some(r) = nalist::lint::rules()
        .iter()
        .find(|r| r.code.eq_ignore_ascii_case(rule) || r.name == rule)
    {
        writeln!(out, "{} ({})", r.code, r.name).unwrap();
        writeln!(out, "  {}", r.summary).unwrap();
        return Ok(out);
    }
    if let Some(r) = nalist::deps::rules::Rule::from_id(rule) {
        writeln!(out, "{} ({})", r.id(), r.name()).unwrap();
        writeln!(out, "  {}", r.cite()).unwrap();
        return Ok(out);
    }
    Err(CliError::usage(format!(
        "unknown rule `{rule}` (expected an L-code like L005, a lint rule name, \
         or an inference-rule id like mixed-meet)"
    )))
}

/// Output format for `nalist lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Human,
    Json,
}

fn parse_lint_flags(flags: &[String]) -> Result<(bool, LintFormat), CliError> {
    let mut deny_warnings = false;
    let mut format = LintFormat::Human;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => deny_warnings = true,
                other => {
                    return Err(CliError::usage(format!(
                        "--deny takes `warnings`, got {other:?}"
                    )))
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format = LintFormat::Json,
                Some("human") => format = LintFormat::Human,
                other => {
                    return Err(CliError::usage(format!(
                        "--format takes `json` or `human`, got {other:?}"
                    )))
                }
            },
            other => return Err(CliError::usage(format!("unknown flag for lint: {other}"))),
        }
    }
    Ok((deny_warnings, format))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist::lint::json::Json;
    use std::collections::BTreeMap;

    struct MemFiles(BTreeMap<String, String>);

    impl Files for MemFiles {
        fn read(&self, path: &str) -> Result<String, String> {
            self.0
                .get(path)
                .cloned()
                .ok_or_else(|| format!("no such file: {path}"))
        }
    }

    /// [`MemFiles`] plus a write log, for `--metrics` tests.
    struct RwFiles {
        inner: MemFiles,
        written: std::cell::RefCell<BTreeMap<String, String>>,
    }

    impl RwFiles {
        fn new(inner: MemFiles) -> Self {
            RwFiles {
                inner,
                written: std::cell::RefCell::new(BTreeMap::new()),
            }
        }

        fn written(&self, path: &str) -> String {
            self.written
                .borrow()
                .get(path)
                .cloned()
                .unwrap_or_else(|| panic!("nothing written to {path}"))
        }
    }

    impl Files for RwFiles {
        fn read(&self, path: &str) -> Result<String, String> {
            self.inner.read(path)
        }

        fn write(&self, path: &str, content: &str) -> Result<(), String> {
            self.written
                .borrow_mut()
                .insert(path.to_string(), content.to_string());
            Ok(())
        }
    }

    /// Thread-safe in-memory files: reads and writes share one map, so
    /// a helper thread can make a `--stop-file` "appear" while `serve`
    /// polls for it, and the metrics flusher gets a real [`FileWriter`].
    #[derive(Clone)]
    struct SharedFiles(Arc<std::sync::Mutex<BTreeMap<String, String>>>);

    impl SharedFiles {
        fn new() -> Self {
            SharedFiles(Arc::new(std::sync::Mutex::new(BTreeMap::new())))
        }
    }

    impl Files for SharedFiles {
        fn read(&self, path: &str) -> Result<String, String> {
            self.0
                .lock()
                .unwrap()
                .get(path)
                .cloned()
                .ok_or_else(|| format!("no such file: {path}"))
        }

        fn write(&self, path: &str, content: &str) -> Result<(), String> {
            self.0
                .lock()
                .unwrap()
                .insert(path.to_string(), content.to_string());
            Ok(())
        }

        fn writer(&self) -> Option<FileWriter> {
            let map = Arc::clone(&self.0);
            Some(Box::new(move |path, content| {
                map.lock()
                    .unwrap()
                    .insert(path.to_string(), content.to_string());
                Ok(())
            }))
        }
    }

    /// Regression for the graceful-drain bugfix: before `--stop-file`
    /// existed, killing the daemon could leave the last `--metrics`
    /// flush stamped `in_progress: true`. A drained shutdown must land
    /// the authoritative final document (`in_progress: false`).
    #[test]
    fn serve_stop_file_drains_and_finalizes_metrics() {
        let shared = SharedFiles::new();
        let toucher = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                shared.write("stop.now", "").unwrap();
            })
        };
        let out = run(
            &args(&[
                "serve",
                "127.0.0.1:0",
                "--port-file",
                "port.txt",
                "--stop-file",
                "stop.now",
                "--metrics",
                "m.json",
            ]),
            &shared,
        )
        .unwrap();
        toucher.join().unwrap();
        assert!(out.contains("(drained by --stop-file)"), "{out}");
        assert!(shared.read("port.txt").is_ok());
        let metrics = shared.read("m.json").unwrap();
        assert!(
            metrics.contains("\"in_progress\": false"),
            "drained shutdown left metrics in progress: {metrics}"
        );
        assert!(metrics.contains("\"exit_code\": 0"), "{metrics}");
    }

    #[test]
    fn serve_follow_and_wal_dir_are_mutually_exclusive() {
        let err = run(
            &args(&[
                "serve",
                "127.0.0.1:0",
                "--follow",
                "127.0.0.1:7070",
                "--wal-dir",
                "/tmp/x",
            ]),
            &MemFiles(BTreeMap::new()),
        )
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.contains("mutually exclusive"),
            "{}",
            err.message
        );
    }

    fn files() -> MemFiles {
        let mut m = BTreeMap::new();
        m.insert(
            "deps.txt".to_string(),
            "# pubcrawl constraints\nPubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n"
                .to_string(),
        );
        m.insert(
            "data.txt".to_string(),
            "(Sven, [(Lübzer, Deanos), (Kindl, Highflyers)])\n\
             (Sven, [(Kindl, Deanos), (Lübzer, Highflyers)])\n\
             (Sebastian, [])\n"
                .to_string(),
        );
        MemFiles(m)
    }

    const SCHEMA: &str = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    fn replay_files(script: &str) -> MemFiles {
        let mut m = BTreeMap::new();
        m.insert("edits.txt".to_string(), script.to_string());
        MemFiles(m)
    }

    #[test]
    fn replay_script_end_to_end() {
        let script = "# build Σ incrementally\n\
                      + L(A) -> L(B)\n\
                      ? L(A) -> L(B)\n\
                      add L(B) -> L(C)\n\
                      ? L(A) -> L(C)\n\
                      - L(B) -> L(C)\n\
                      query L(A) -> L(C)\n";
        let out = run(
            &args(&["replay", "L(A, B, C)", "edits.txt"]),
            &replay_files(script),
        )
        .unwrap();
        assert!(out.contains("add          L(A) -> L(B)"), "{out}");
        assert!(out.contains("IMPLIED      L(A) -> L(C)"), "{out}");
        assert!(out.contains("remove       L(B) -> L(C)"), "{out}");
        assert!(out.contains("NOT IMPLIED  L(A) -> L(C)"), "{out}");
        assert!(
            out.contains("Σ: 1 dependencies after 2 add(s), 1 remove(s), 3 query(ies)"),
            "{out}"
        );
        assert!(out.contains("cache:"), "{out}");
    }

    #[test]
    fn replay_remove_absent_is_a_located_domain_error() {
        let err = run(
            &args(&["replay", "L(A, B)", "edits.txt"]),
            &replay_files("+ L(A) -> L(B)\n- L(B) -> L(A)\n"),
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("edits.txt:2"), "{}", err.message);
        assert!(err.message.contains("not in Σ"), "{}", err.message);
    }

    #[test]
    fn replay_unknown_op_is_a_located_domain_error() {
        let err = run(
            &args(&["replay", "L(A, B)", "edits.txt"]),
            &replay_files("! L(A) -> L(B)\n"),
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("edits.txt:1"), "{}", err.message);
        assert!(err.message.contains("unknown op"), "{}", err.message);
    }

    #[test]
    fn decide_implied() {
        let out = run(
            &args(&[
                "decide",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            ]),
            &files(),
        )
        .unwrap();
        assert!(out.starts_with("IMPLIED"));
    }

    #[test]
    fn arrow_written_right_after_a_flat_name_exits_zero() {
        // the name used to take the arrow's `-`, so `A->A` exited 1 with
        // "found '>', expected '->', …"
        let mut f = MemFiles(BTreeMap::new());
        f.0.insert("empty.txt".to_string(), String::new());
        f.0.insert("deps.txt".to_string(), "A-B->>A-B\n".to_string());
        for (schema, deps, query) in [
            ("A", "empty.txt", "A->A"),
            ("A", "empty.txt", "A->>A"),
            ("A", "empty.txt", "A -> A"),
            ("A-B", "deps.txt", "A-B->A-B"),
        ] {
            let out = run(&args(&["decide", schema, deps, query]), &f)
                .unwrap_or_else(|e| panic!("{query}: exit {}: {}", e.code, e.message));
            assert!(out.starts_with("IMPLIED"), "{query}: {out}");
        }
        let err = run(&args(&["decide", "A", "empty.txt", "A->"]), &f).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);
    }

    #[test]
    fn decide_not_implied_prints_witness() {
        let out = run(
            &args(&[
                "decide",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])",
            ]),
            &files(),
        )
        .unwrap();
        assert!(out.starts_with("NOT IMPLIED"));
        assert!(out.contains("counterexample"));
        assert!(out.contains('('));
    }

    #[test]
    fn batch_command() {
        let mut f = files();
        f.0.insert(
            "queries.txt".to_string(),
            "# batch membership queries\n\
             Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n\
             Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])\n\
             Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer)])\n"
                .to_string(),
        );
        let out = run(&args(&["batch", SCHEMA, "deps.txt", "queries.txt"]), &f).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("IMPLIED"), "{out}");
        assert!(lines[1].starts_with("NOT IMPLIED"), "{out}");
        assert!(lines[2].starts_with("IMPLIED"), "{out}");
        assert_eq!(lines[3], "2/3 implied, 1 not");
        // explicit thread count gives identical output
        let fixed = run(
            &args(&["batch", SCHEMA, "deps.txt", "queries.txt", "--threads", "2"]),
            &f,
        )
        .unwrap();
        assert_eq!(fixed, out);
        // bad flags and bad query lines are reported
        let e = run(
            &args(&["batch", SCHEMA, "deps.txt", "queries.txt", "--bogus"]),
            &f,
        )
        .unwrap_err();
        assert_eq!(e.code, 2);
        f.0.insert("badq.txt".to_string(), "Pubcrawl(Zzz) -> λ\n".to_string());
        let e = run(&args(&["batch", SCHEMA, "deps.txt", "badq.txt"]), &f).unwrap_err();
        assert!(e.message.contains("badq.txt:1"), "{}", e.message);
    }

    #[test]
    fn prove_command() {
        let out = run(
            &args(&[
                "prove",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
            ]),
            &files(),
        )
        .unwrap();
        assert!(out.contains("machine-checked derivation"));
        assert!(out.contains("mixed meet rule"));
        let out = run(
            &args(&[
                "prove",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])",
            ]),
            &files(),
        )
        .unwrap();
        assert!(out.contains("NOT IMPLIED"));
    }

    #[test]
    fn closure_command() {
        let out = run(
            &args(&["closure", SCHEMA, "deps.txt", "Pubcrawl(Person)"]),
            &files(),
        )
        .unwrap();
        assert!(out.contains("Pubcrawl(Person, Visit[λ])"), "{out}");
    }

    #[test]
    fn basis_and_trace_commands() {
        let out = run(
            &args(&["basis", SCHEMA, "deps.txt", "Pubcrawl(Person)"]),
            &files(),
        )
        .unwrap();
        assert!(out.contains("DepB(X)"));
        let out = run(
            &args(&["trace", SCHEMA, "deps.txt", "Pubcrawl(Person)"]),
            &files(),
        )
        .unwrap();
        assert!(out.contains("initialisation:"));
        assert!(out.contains("X+ ="));
    }

    #[test]
    fn verify_command() {
        let out = run(&args(&["verify", SCHEMA, "deps.txt", "data.txt"]), &files()).unwrap();
        assert!(out.contains("instance: 3 tuples"));
        assert!(out.contains("instance satisfies Σ"));
    }

    #[test]
    fn verify_reports_violations() {
        let mut f = files();
        f.0.insert(
            "bad.txt".to_string(),
            "(Sven, [(A, P1)])\n(Sven, [(A, P1), (B, P2)])\n".to_string(),
        );
        // different list lengths for the same person violate the derived
        // shape FD? Not in Σ — but the MVD itself is violated here:
        // lengths differ so no recombination exists.
        let out = run(&args(&["verify", SCHEMA, "deps.txt", "bad.txt"]), &f).unwrap();
        assert!(out.contains("VIOLATED"), "{out}");
    }

    #[test]
    fn chase_command() {
        let mut f = files();
        f.0.insert(
            "partial.txt".to_string(),
            "(Sven, [(A, P1), (B, P2)])\n(Sven, [(B, P1), (A, P2)])\n".to_string(),
        );
        let out = run(&args(&["chase", SCHEMA, "deps.txt", "partial.txt"]), &f).unwrap();
        assert!(out.contains("chase succeeded"), "{out}");
        // shape conflict: chase fails with the mixed-meet explanation
        f.0.insert(
            "conflict.txt".to_string(),
            "(Sven, [(A, P1)])\n(Sven, [(A, P1), (B, P2)])\n".to_string(),
        );
        let e = run(&args(&["chase", SCHEMA, "deps.txt", "conflict.txt"]), &f).unwrap_err();
        assert!(e.message.contains("chase failed"), "{}", e.message);
    }

    #[test]
    fn normalize_command() {
        let out = run(&args(&["normalize", SCHEMA, "deps.txt"]), &files()).unwrap();
        assert!(out.contains("minimal cover"));
        assert!(out.contains("candidate keys"));
        assert!(out.contains("4NF"));
        assert!(out.contains("lossless decomposition"));
    }

    #[test]
    fn lattice_command() {
        let out = run(&args(&["lattice", "J[K(A, L[M(B, C)])]"]), &files()).unwrap();
        assert!(out.contains("|Sub(N)| = 11"));
        let dot = run(
            &args(&["lattice", "J[K(A, L[M(B, C)])]", "--dot"]),
            &files(),
        )
        .unwrap();
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn lattice_dot_guard_for_huge_lattices() {
        // 20 flat attributes: |Sub(N)| = 2^20 — DOT rendering must refuse
        let schema = "R(A0, A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, \
                      A12, A13, A14, A15, A16, A17, A18, A19)";
        let e = run(&args(&["lattice", schema, "--dot"]), &files()).unwrap_err();
        assert!(e.message.contains("refusing"), "{}", e.message);
        // the summary (without --dot) still works
        let out = run(&args(&["lattice", schema]), &files()).unwrap();
        assert!(out.contains("|SubB(N)| = 20"));
    }

    #[test]
    fn help_lists_every_command() {
        let out = run(&args(&["help"]), &files()).unwrap();
        for c in COMMANDS {
            assert!(
                out.contains(&format!("nalist {}", c.name)),
                "help misses {}: {out}",
                c.name
            );
        }
        // per-command help
        let out = run(&args(&["help", "batch"]), &files()).unwrap();
        assert!(out.contains("--threads"));
        let out = run(&args(&["help", "lint"]), &files()).unwrap();
        assert!(out.contains("L001"));
        assert!(out.contains("L009"));
        assert!(out.contains("--deny warnings"));
        let e = run(&args(&["help", "wat"]), &files()).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn usage_text_is_table_driven() {
        let text = usage_text();
        for c in COMMANDS {
            assert!(text.contains(c.name));
            assert!(text.contains(c.synopsis), "missing synopsis for {}", c.name);
        }
    }

    #[test]
    fn wrong_arity_names_the_command() {
        let e = run(&args(&["decide", SCHEMA]), &files()).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(
            e.message.contains("wrong arguments for `decide`"),
            "{}",
            e.message
        );
        assert!(e.message.contains("<dependency>"));
    }

    #[test]
    fn unknown_command_suggests_a_near_match() {
        let e = run(&args(&["chek"]), &files()).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown command `chek`"));
        let e = run(&args(&["norm"]), &files()).unwrap_err();
        assert!(
            e.message.contains("did you mean `normalize`?"),
            "{}",
            e.message
        );
    }

    #[test]
    fn lint_clean_spec_exits_zero_with_no_output() {
        let mut f = files();
        f.0.insert("clean.deps".into(), "L(A) -> L(B, C)\n".into());
        let out = run(&args(&["lint", "L(A, B, C)", "clean.deps"]), &f).unwrap();
        assert_eq!(out, "");
        // clean under --deny warnings too
        let out = run(
            &args(&["lint", "L(A, B, C)", "clean.deps", "--deny", "warnings"]),
            &f,
        )
        .unwrap();
        assert_eq!(out, "");
    }

    #[test]
    fn lint_warnings_print_but_exit_zero_without_deny() {
        let mut f = files();
        f.0.insert("warn.deps".into(), "L(A, B) -> L(A)\n".into());
        let out = run(&args(&["lint", "L(A, B)", "warn.deps"]), &f).unwrap();
        assert!(out.contains("warning[L001]"), "{out}");
        assert!(out.contains("--> warn.deps:1:1"), "{out}");
        assert!(out.contains("^^^^^^^^^^^^^^^"), "{out}");
    }

    #[test]
    fn lint_deny_warnings_fails_with_diagnostics_on_stderr() {
        let mut f = files();
        f.0.insert("warn.deps".into(), "L(A, B) -> L(A)\n".into());
        let e = run(
            &args(&["lint", "L(A, B)", "warn.deps", "--deny", "warnings"]),
            &f,
        )
        .unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("warning[L001]"));
    }

    #[test]
    fn lint_errors_fail_even_without_deny() {
        let mut f = files();
        f.0.insert("bad.deps".into(), "L(Zzz) -> L(A)\n".into());
        let e = run(&args(&["lint", "L(A, B)", "bad.deps"]), &f).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("error[L007]"), "{}", e.message);
    }

    /// C(64, 32) = 1832624140942590534 resolutions: the L007 hint names
    /// the first one without enumerating the rest.
    #[test]
    fn lint_reports_an_astronomical_ambiguity_promptly() {
        let schema = format!("W({})", vec!["A"; 64].join(", "));
        let mut f = files();
        let side = format!("W({})", vec!["A"; 32].join(", "));
        f.0.insert("wide.deps".into(), format!("{side} -> λ\n"));
        let started = std::time::Instant::now();
        let e = run(&args(&["lint", &schema, "wide.deps"]), &f).unwrap_err();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "took {:?}",
            started.elapsed()
        );
        assert_eq!(e.code, 1);
        assert!(e.message.contains("error[L007]"), "{}", e.message);
        assert!(
            e.message
                .contains("1832624140942590534 distinct resolutions"),
            "{}",
            e.message
        );
        let first = format!(
            "W({}, {})",
            vec!["A"; 32].join(", "),
            vec!["λ"; 32].join(", ")
        );
        assert!(e.message.contains(&first), "{}", e.message);
    }

    #[test]
    fn lint_json_format() {
        let mut f = files();
        f.0.insert("warn.deps".into(), "L(A, B) -> L(A)\n".into());
        let out = run(
            &args(&["lint", "L(A, B)", "warn.deps", "--format", "json"]),
            &f,
        )
        .unwrap();
        let v = nalist::lint::json::parse(&out).unwrap();
        assert_eq!(v.get("file").unwrap().as_str(), Some("warn.deps"));
        assert!(v.get("warnings").unwrap().as_usize().unwrap() >= 1);
        // flag errors
        let e = run(
            &args(&["lint", "L(A, B)", "warn.deps", "--format", "yaml"]),
            &f,
        )
        .unwrap_err();
        assert_eq!(e.code, 2);
        let e = run(&args(&["lint", "L(A, B)", "warn.deps", "--wat"]), &f).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn lint_bad_schema_is_domain_error() {
        let mut f = files();
        f.0.insert("warn.deps".into(), "L(A, B) -> L(A)\n".into());
        let e = run(&args(&["lint", "L(", "warn.deps"]), &f).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("bad schema attribute"));
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(run(&args(&[]), &files()).unwrap_err().code, 2);
        assert_eq!(run(&args(&["bogus"]), &files()).unwrap_err().code, 2);
        let e = run(&args(&["closure", "L(", "deps.txt", "λ"]), &files()).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("bad schema"));
        // bad dependency line includes file/line info
        let mut f = files();
        f.0.insert("broken.txt".into(), "Pubcrawl(Zzz) -> λ\n".into());
        let e = run(&args(&["closure", SCHEMA, "broken.txt", "λ"]), &f).unwrap_err();
        assert!(e.message.contains("broken.txt:1"));
    }

    #[test]
    fn missing_file_is_exit_code_2_naming_the_path() {
        for cmd in ["closure", "basis", "trace"] {
            let e = run(&args(&[cmd, SCHEMA, "missing.txt", "λ"]), &files()).unwrap_err();
            assert_eq!(e.code, 2, "{cmd}");
            assert!(e.message.contains("missing.txt"), "{cmd}: {}", e.message);
        }
        let e = run(
            &args(&["verify", SCHEMA, "deps.txt", "nodata.txt"]),
            &files(),
        )
        .unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("nodata.txt"));
        let e = run(&args(&["lint", "L(A, B)", "nolint.txt"]), &files()).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("nolint.txt"));
    }

    #[test]
    fn empty_deps_and_queries_files_succeed() {
        let mut f = files();
        f.0.insert("empty.txt".into(), String::new());
        let out = run(
            &args(&[
                "decide",
                SCHEMA,
                "empty.txt",
                "Pubcrawl(Person) -> Pubcrawl(Person)",
            ]),
            &f,
        )
        .unwrap();
        assert!(out.starts_with("IMPLIED"), "{out}");
        let out = run(&args(&["batch", SCHEMA, "deps.txt", "empty.txt"]), &f).unwrap();
        assert_eq!(out, "0/0 implied, 0 not\n");
        let out = run(&args(&["lint", "L(A, B)", "empty.txt"]), &f).unwrap();
        assert_eq!(out, "");
    }

    #[test]
    fn global_flags_are_extracted_anywhere() {
        let (rest, _) = extract_global_flags(&args(&[
            "decide",
            "--timeout",
            "5000",
            SCHEMA,
            "--max-atoms",
            "64",
            "deps.txt",
            "x",
            "--max-depth",
            "32",
        ]))
        .unwrap();
        assert_eq!(rest, args(&["decide", SCHEMA, "deps.txt", "x"]));
        // value errors are usage errors
        let e = extract_global_flags(&args(&["decide", "--timeout"])).unwrap_err();
        assert_eq!(e.code, 2);
        let e = extract_global_flags(&args(&["decide", "--timeout", "soon"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--timeout"), "{}", e.message);
    }

    #[test]
    fn max_atoms_flag_yields_exit_code_3() {
        let e = run(
            &args(&[
                "--max-atoms",
                "2",
                "closure",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person)",
            ]),
            &files(),
        )
        .unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        assert!(e.message.contains("basis attributes"), "{}", e.message);
        // lattice enforces it too
        let e = run(&args(&["lattice", SCHEMA, "--max-atoms", "2"]), &files()).unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
    }

    #[test]
    fn max_depth_flag_rejects_deep_schemas_with_exit_code_3() {
        // Depth violations are parse errors, but they honour the
        // resource contract `--max-depth` documents: exit code 3.
        let e = run(
            &args(&[
                "--max-depth",
                "1",
                "closure",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person)",
            ]),
            &files(),
        )
        .unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        assert!(e.message.contains("nesting deeper"), "{}", e.message);
    }

    #[test]
    fn expired_timeout_yields_exit_code_3() {
        let e = run(
            &args(&["--timeout", "0", "normalize", SCHEMA, "deps.txt"]),
            &files(),
        )
        .unwrap_err();
        assert_eq!(e.code, EXIT_RESOURCE);
        assert!(e.message.contains("deadline"), "{}", e.message);
    }

    #[test]
    fn batch_reports_per_item_errors_and_exit_code_3() {
        use nalist::guard::{FailAction, FailPoint, INJECTED_PANIC};
        let mut f = files();
        f.0.insert(
            "queries.txt".to_string(),
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n\
             Pubcrawl(Visit[λ]) -> Pubcrawl(Person)\n\
             Pubcrawl(Visit[Drink(Beer)]) ->> Pubcrawl(Visit[Drink(Pub)])\n"
                .to_string(),
        );
        // Panic injected into the second distinct closure computation:
        // that one query degrades to an ERROR line, the others still get
        // verdicts, and the command exits 3.
        let budget = Budget::unlimited().with_failpoint(FailPoint::nth(
            "membership::closure",
            1,
            FailAction::Panic,
        ));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let e = run_with_budget(
            &args(&["batch", SCHEMA, "deps.txt", "queries.txt", "--threads", "1"]),
            &f,
            &budget,
        )
        .unwrap_err();
        std::panic::set_hook(prev);
        assert_eq!(e.code, EXIT_RESOURCE);
        assert!(e.message.contains("ERROR"), "{}", e.message);
        assert!(e.message.contains(INJECTED_PANIC), "{}", e.message);
        assert!(e.message.contains("IMPLIED"), "{}", e.message);
        assert!(e.message.contains("1 failed"), "{}", e.message);
    }

    #[test]
    fn usage_text_documents_global_flags_and_exit_codes() {
        let text = usage_text();
        for f in GLOBAL_FLAGS.iter().chain(OBS_FLAGS) {
            assert!(text.contains(f.name), "usage misses {}", f.name);
        }
        assert!(text.contains("exit codes"));
        assert!(text.contains("3 resource budget exhausted"));
    }

    #[test]
    fn trace_flag_appends_span_tree_without_changing_the_answer() {
        let query = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
        let plain = run(&args(&["decide", SCHEMA, "deps.txt", query]), &files()).unwrap();
        let traced = run(
            &args(&["decide", SCHEMA, "deps.txt", query, "--trace"]),
            &files(),
        )
        .unwrap();
        assert!(traced.starts_with(&plain), "{traced}");
        assert!(traced.contains("trace (thread"), "{traced}");
        assert!(traced.contains(site::CLI_COMMAND), "{traced}");
        assert!(traced.contains(site::ATOMS), "{traced}");
    }

    #[test]
    fn without_obs_flags_output_is_byte_identical_to_the_legacy_path() {
        let query = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
        let via_run = run(&args(&["decide", SCHEMA, "deps.txt", query]), &files()).unwrap();
        let via_budget = run_with_budget(
            &args(&["decide", SCHEMA, "deps.txt", query]),
            &files(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(via_run, via_budget);
        assert!(!via_run.contains("trace (thread"));
    }

    #[test]
    fn metrics_flag_writes_schema_v2_json_and_keeps_output_unchanged() {
        let query = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
        let plain = run(&args(&["decide", SCHEMA, "deps.txt", query]), &files()).unwrap();
        let rw = RwFiles::new(files());
        let out = run(
            &args(&["decide", SCHEMA, "deps.txt", query, "--metrics", "m.json"]),
            &rw,
        )
        .unwrap();
        assert_eq!(out, plain);
        let doc = nalist::lint::json::parse(&rw.written("m.json")).expect("valid JSON");
        assert_eq!(doc.get("schema_version").and_then(Json::as_usize), Some(2));
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("decide"));
        assert_eq!(doc.get("exit_code").and_then(Json::as_usize), Some(0));
        assert_eq!(
            doc.get("in_progress").and_then(Json::as_bool),
            Some(false),
            "a final flush must not be marked in-progress"
        );
        let counters = doc.get("counters").expect("counters object");
        for c in Counter::ALL {
            assert!(
                counters.get(c.name()).is_some(),
                "counter {} missing from metrics JSON",
                c.name()
            );
        }
        let hists = doc.get("histograms").and_then(Json::as_arr).unwrap();
        assert_eq!(hists.len(), nalist::obs::Hist::ALL.len());
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert!(!spans.is_empty(), "root cli::command span must be recorded");
        assert_eq!(
            spans[0].get("site").and_then(Json::as_str),
            Some(site::CLI_COMMAND)
        );
    }

    #[test]
    fn metrics_file_is_written_even_when_the_command_fails() {
        let rw = RwFiles::new(files());
        let e = run(
            &args(&[
                "decide",
                SCHEMA,
                "deps.txt",
                "not a dependency",
                "--metrics",
                "m.json",
            ]),
            &rw,
        )
        .unwrap_err();
        assert_eq!(e.code, 1);
        let doc = nalist::lint::json::parse(&rw.written("m.json")).expect("valid JSON");
        assert_eq!(doc.get("exit_code").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn metrics_write_failure_surfaces_only_when_the_command_succeeded() {
        // MemFiles keeps the default read-only `write`.
        let query = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
        let e = run(
            &args(&["decide", SCHEMA, "deps.txt", query, "--metrics", "m.json"]),
            &files(),
        )
        .unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("cannot write m.json"), "{}", e.message);
        // ...but a failing command keeps its own error.
        let e = run(
            &args(&[
                "decide",
                SCHEMA,
                "deps.txt",
                "not a dependency",
                "--metrics",
                "m.json",
            ]),
            &files(),
        )
        .unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("bad dependency"), "{}", e.message);
    }

    #[test]
    fn batch_gains_per_query_timing_under_obs_flags_only() {
        let mut f = files();
        f.0.insert(
            "queries.txt".to_string(),
            "Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n\
             Pubcrawl(Visit[λ]) -> Pubcrawl(Person)\n"
                .to_string(),
        );
        let plain = run(&args(&["batch", SCHEMA, "deps.txt", "queries.txt"]), &f).unwrap();
        assert!(!plain.contains("per-query timing"), "{plain}");
        let traced = run(
            &args(&["batch", SCHEMA, "deps.txt", "queries.txt", "--trace"]),
            &f,
        )
        .unwrap();
        assert!(traced.contains("per-query timing"), "{traced}");
        assert!(traced.contains("query    0"), "{traced}");
        assert!(traced.contains("query    1"), "{traced}");
    }

    #[test]
    fn metrics_flag_requires_a_path() {
        let e = run(&args(&["lattice", SCHEMA, "--metrics"]), &files()).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--metrics requires"), "{}", e.message);
    }

    #[test]
    fn decide_cert_roundtrips_through_check() {
        // positive verdict
        let rw = RwFiles::new(files());
        let query = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
        let out = run(
            &args(&["decide", SCHEMA, "deps.txt", query, "--cert", "cert.json"]),
            &rw,
        )
        .unwrap();
        assert!(out.contains("certificate written to cert.json"), "{out}");
        let mut f = files();
        f.0.insert("cert.json".into(), rw.written("cert.json"));
        let verdict = run(&args(&["check", SCHEMA, "deps.txt", "cert.json"]), &f).unwrap();
        assert!(verdict.starts_with("ACCEPTED"), "{verdict}");
        assert!(verdict.contains("implied"), "{verdict}");

        // negative verdict: the certificate carries the counterexample
        let rw = RwFiles::new(files());
        let query = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])";
        let out = run(
            &args(&["decide", SCHEMA, "deps.txt", query, "--cert", "cert.json"]),
            &rw,
        )
        .unwrap();
        assert!(out.starts_with("NOT IMPLIED"), "{out}");
        let mut f = files();
        f.0.insert("cert.json".into(), rw.written("cert.json"));
        let verdict = run(&args(&["check", SCHEMA, "deps.txt", "cert.json"]), &f).unwrap();
        assert!(verdict.contains("not-implied"), "{verdict}");
        assert!(verdict.contains("tuple(s)"), "{verdict}");
    }

    #[test]
    fn prove_and_basis_certs_are_accepted_by_check() {
        let rw = RwFiles::new(files());
        let out = run(
            &args(&[
                "prove",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
                "--cert",
                "cert.json",
            ]),
            &rw,
        )
        .unwrap();
        assert!(out.contains("machine-checked derivation"), "{out}");
        let mut f = files();
        f.0.insert("cert.json".into(), rw.written("cert.json"));
        let verdict = run(&args(&["check", SCHEMA, "deps.txt", "cert.json"]), &f).unwrap();
        assert!(verdict.starts_with("ACCEPTED"), "{verdict}");

        let rw = RwFiles::new(files());
        run(
            &args(&[
                "basis",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person)",
                "--cert",
                "cert.json",
            ]),
            &rw,
        )
        .unwrap();
        let mut f = files();
        f.0.insert("cert.json".into(), rw.written("cert.json"));
        let verdict = run(&args(&["check", SCHEMA, "deps.txt", "cert.json"]), &f).unwrap();
        assert!(verdict.contains("derived"), "{verdict}");
    }

    #[test]
    fn check_rejects_a_tampered_certificate() {
        let rw = RwFiles::new(files());
        run(
            &args(&[
                "decide",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
                "--cert",
                "cert.json",
            ]),
            &rw,
        )
        .unwrap();
        let tampered = rw
            .written("cert.json")
            .replace("\"verdict\": \"implied\"", "\"verdict\": \"not-implied\"");
        let mut f = files();
        f.0.insert("cert.json".into(), tampered);
        let e = run(&args(&["check", SCHEMA, "deps.txt", "cert.json"]), &f).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.starts_with("REJECTED"), "{}", e.message);
    }

    #[test]
    fn check_format_json_and_error_codes() {
        let rw = RwFiles::new(files());
        run(
            &args(&[
                "decide",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
                "--cert",
                "cert.json",
            ]),
            &rw,
        )
        .unwrap();
        let mut f = files();
        f.0.insert("cert.json".into(), rw.written("cert.json"));
        let out = run(
            &args(&["check", SCHEMA, "deps.txt", "cert.json", "--format", "json"]),
            &f,
        )
        .unwrap();
        let doc = nalist::lint::json::parse(&out).expect("valid JSON verdict");
        assert_eq!(doc.get("accepted").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("implied"));

        // unreadable certificate document: exit 2
        f.0.insert("garbage.json".into(), "not a certificate".into());
        let e = run(&args(&["check", SCHEMA, "deps.txt", "garbage.json"]), &f).unwrap_err();
        assert_eq!(e.code, 2);
        // missing file: exit 2
        let e = run(&args(&["check", SCHEMA, "deps.txt", "absent.json"]), &f).unwrap_err();
        assert_eq!(e.code, 2);
        // bad flag: usage error
        let e = run(
            &args(&["check", SCHEMA, "deps.txt", "cert.json", "--wat"]),
            &f,
        )
        .unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn lint_explain_covers_both_rule_families() {
        let out = run(&args(&["lint", "--explain", "L005"]), &files()).unwrap();
        assert!(out.contains("fd-from-mvd"), "{out}");
        assert!(out.contains("mixed meet"), "{out}");
        let out = run(&args(&["lint", "--explain", "mixed-meet"]), &files()).unwrap();
        assert!(out.contains("Theorem 4.6"), "{out}");
        let out = run(&args(&["lint", "--explain", "fd-transitivity"]), &files()).unwrap();
        assert!(out.contains("Theorem 4.6"), "{out}");
        let e = run(&args(&["lint", "--explain", "L999"]), &files()).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown rule"), "{}", e.message);
    }

    #[test]
    fn help_check_lists_stable_rule_ids() {
        let out = run(&args(&["help", "check"]), &files()).unwrap();
        assert!(out.contains("never trusts"), "{out}");
        for r in nalist::deps::rules::ALL_RULES {
            assert!(out.contains(r.id()), "help check misses {}", r.id());
        }
        let out = run(&args(&["help", "decide"]), &files()).unwrap();
        assert!(out.contains("--cert"), "{out}");
    }

    #[test]
    fn check_verdict_is_identical_observed_and_unobserved() {
        let rw = RwFiles::new(files());
        run(
            &args(&[
                "decide",
                SCHEMA,
                "deps.txt",
                "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
                "--cert",
                "cert.json",
            ]),
            &rw,
        )
        .unwrap();
        let mut f = files();
        f.0.insert("cert.json".into(), rw.written("cert.json"));
        let plain = run(&args(&["check", SCHEMA, "deps.txt", "cert.json"]), &f).unwrap();
        let rw2 = RwFiles::new(f);
        let observed = run(
            &args(&[
                "check",
                SCHEMA,
                "deps.txt",
                "cert.json",
                "--trace",
                "--metrics",
                "m.json",
            ]),
            &rw2,
        )
        .unwrap();
        assert!(observed.starts_with(&plain), "{observed}");
        assert!(observed.contains(site::CHECK_VERIFY), "{observed}");
        let doc = nalist::lint::json::parse(&rw2.written("m.json")).unwrap();
        let counters = doc.get("counters").unwrap();
        assert!(counters.get("cert_nodes").and_then(Json::as_usize).unwrap() > 0);
    }

    #[test]
    fn invalid_certificate_step_maps_to_exit_code_2() {
        let e = certify_error(CertifyError::InvalidInstance {
            rule: "mixed meet rule",
        });
        assert_eq!(e.code, 2);
        assert!(e.message.contains("mixed meet rule"), "{}", e.message);
    }
}
