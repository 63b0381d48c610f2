//! The three workloads: their sizes, their seeded inputs (schemas, Σ,
//! journaled history, request streams) and the input-property floors
//! that keep each one on the layer it exists to stress.

use std::collections::HashSet;

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::{CompiledDep, DepKind, Dependency};
use nalist_gen::{attr_with_atoms, random_dep, random_subattr};
use nalist_membership::{Reasoner, WalOp};
use nalist_types::attr::NestedAttr;
use nalist_types::json::escape;
use rand::prelude::*;

use crate::http::{percent_encode, Wire};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm single queries: wire, JSON and notation parsing dominate.
    ReadHot,
    /// Never-repeating query batches plus certificates: Algorithm 5.1
    /// and the proof/witness engines dominate.
    ReadCold,
    /// Half fsync'd edits, half queries: the WAL append under the tenant
    /// write lock and eviction dominate.
    WriteChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ReadHot, Workload::ReadCold, Workload::WriteChurn];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::ReadCold => "read-cold",
            Workload::WriteChurn => "write-churn",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes.
    #[must_use]
    pub fn spec(self) -> Spec {
        match self {
            Workload::ReadHot => Spec {
                workload: self,
                atoms: 32,
                sigma: 32,
                pool: 64,
                history: 2_000,
                rate: 1_000.0,
                capacity: 16_000.0,
            },
            Workload::ReadCold => Spec {
                workload: self,
                atoms: 32,
                sigma: 64,
                pool: 0,
                history: 2_000,
                rate: 105.0,
                capacity: 320.0,
            },
            Workload::WriteChurn => Spec {
                workload: self,
                atoms: 16,
                sigma: 32,
                pool: 32,
                history: 3_000,
                rate: 500.0,
                capacity: 12_000.0,
            },
        }
    }
}

/// Tenants per workload.
pub const TENANTS: usize = 4;

/// Seed of the tenant schemas, fixed across `--seed`s.
pub const SCHEMA_SEED: u64 = 2004;

/// Queries per `read-cold` batch request.
pub const BATCH: usize = 16;

/// One `read-cold` request in `CERT_EVERY` is a `GET /cert`.
pub const CERT_EVERY: usize = 8;

/// Zipf skew of query selection on `read-hot` and `write-churn`.
pub const ZIPF_S: f64 = 1.1;

/// Share of `write-churn` requests that are edits.
pub const EDIT_SHARE: f64 = 0.5;

/// Left-hand-side density of `read-cold` Σ members: sparse, so that the
/// closure of a fresh left-hand side fires many of them.
pub const COLD_SIGMA_LHS_DENSITY: f64 = 0.05;

/// FD share of `read-cold` Σ: low, so closures do not saturate and
/// verdicts stay mixed.
pub const COLD_SIGMA_FD_PROB: f64 = 0.1;

/// Density of fresh `read-cold` query sides.
pub const COLD_QUERY_DENSITY: f64 = 0.3;

/// Refuted certificates are drawn only from left-hand sides with at
/// most this many free blocks, bounding the `2^k`-tuple witness. At 8,
/// some seeds' certificates took over 100 ms on average, more than the
/// certificate connection's offered rate leaves room for.
pub const MAX_WITNESS_FREE_BLOCKS: usize = 6;

/// `read-cold` queries (in due order) whose basis under Σ is compared
/// with the basis under an empty Σ.
pub const DIFFERS_SAMPLE: usize = 2_048;

/// The left-hand side of a rendered dependency. Rendering is canonical,
/// so equal texts mean equal compiled left-hand sides.
fn lhs_text(dep: &str) -> &str {
    dep.split_once(" ->").map_or(dep, |(lhs, _)| lhs)
}

/// Floors checked on the generated inputs (see [`Floors`]).
pub const HOT_REPEAT_FLOOR: f64 = 0.9;
/// Minimum share of `read-cold` queries whose basis Σ changes.
pub const COLD_DIFFERS_FLOOR: f64 = 0.5;
/// Allowed band of the `write-churn` edit share.
pub const CHURN_EDIT_BAND: (f64, f64) = (0.4, 0.6);
/// Samples a named p99 needs (ten beyond the 99th percentile).
pub const P99_SAMPLES: usize = 1_000;
/// Samples a named p90 needs.
pub const P90_SAMPLES: usize = 100;

/// A workload's sizes. The offered rates keep each connection's open-loop
/// queue short on a 2-CPU machine (README, "Workloads"); `capacity` is an
/// upper estimate of closed-loop throughput that sizes the request lists
/// of the capacity phase, which must not run dry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Atoms per tenant schema (`gen::attr_with_atoms`).
    pub atoms: usize,
    /// |Σ| after recovery (`write-churn`: the seed part).
    pub sigma: usize,
    /// `read-hot`: query pool per tenant; `write-churn`: churn set.
    pub pool: usize,
    /// Journaled WAL records per tenant in the starting wal-dir.
    pub history: usize,
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Upper estimate of closed-loop capacity, requests per second.
    pub capacity: f64,
}

/// What one request does, for the correctness gate and the traced replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/{t}/query` with one pool query.
    Query {
        /// Tenant index.
        tenant: usize,
        /// Index into the tenant's pool.
        ix: usize,
    },
    /// `POST /v1/{t}/query` with a batch of fresh queries.
    Batch {
        /// Tenant index.
        tenant: usize,
        /// First index into the tenant's fresh queries.
        first: usize,
    },
    /// `GET /v1/{t}/cert` on one fresh query.
    Cert {
        /// Tenant index.
        tenant: usize,
        /// Index into the tenant's fresh queries.
        ix: usize,
    },
    /// `GET /v1/{t}/sigma`, checked against the Σ model.
    Sigma {
        /// Tenant index.
        tenant: usize,
    },
    /// `POST /v1/{t}/edit` toggling one churn dependency.
    Edit {
        /// Tenant index.
        tenant: usize,
        /// Index into the tenant's churn set.
        churn: usize,
        /// `true` adds, `false` removes.
        add: bool,
    },
}

impl Op {
    /// The op-type label metrics are split by.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Query { .. } | Op::Batch { .. } | Op::Sigma { .. } => OpKind::Query,
            Op::Cert { .. } => OpKind::Cert,
            Op::Edit { .. } => OpKind::Edit,
        }
    }

    /// The tenant the op targets.
    #[must_use]
    pub fn tenant(&self) -> usize {
        match *self {
            Op::Query { tenant, .. }
            | Op::Batch { tenant, .. }
            | Op::Cert { tenant, .. }
            | Op::Sigma { tenant }
            | Op::Edit { tenant, .. } => tenant,
        }
    }
}

/// Request types reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Single queries and batches.
    Query,
    /// Σ edits.
    Edit,
    /// Certificates.
    Cert,
}

impl OpKind {
    /// Every op type.
    pub const ALL: [OpKind; 3] = [OpKind::Query, OpKind::Edit, OpKind::Cert];

    /// Metric-name stem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::Edit => "edit",
            OpKind::Cert => "cert",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// When it is due, nanoseconds after the phase starts (0 in the
    /// closed-loop phase).
    pub due_ns: u64,
    /// What it does.
    pub op: Op,
    /// The rendered request.
    pub wire: Wire,
}

/// One connection's requests: its open-loop schedule, then the list its
/// closed-loop capacity phase draws from.
#[derive(Debug, Clone, Default)]
pub struct ConnPlan {
    /// Fixed-rate phase, in due order.
    pub fixed: Vec<Req>,
    /// Closed-loop phase (sent back to back, as far as time allows).
    pub capacity: Vec<Req>,
}

/// One tenant's generated material.
#[derive(Debug, Clone)]
pub struct TenantInput {
    /// Tenant name (`t0`, `t1`, …).
    pub name: String,
    /// The schema.
    pub attr: NestedAttr,
    /// Σ stored in the starting snapshot.
    pub base: Vec<String>,
    /// The journaled WAL tail after the header record.
    pub history: Vec<WalOp>,
    /// Σ after recovery, excluding `write-churn` churn members.
    pub sigma: Vec<String>,
    /// `read-hot` / `write-churn`: the zipf-ranked query pool.
    pub pool: Vec<String>,
    /// `write-churn`: the churn set.
    pub churn: Vec<String>,
    /// `write-churn`: which churn members are in Σ after recovery.
    pub churn_on: Vec<bool>,
    /// `read-cold`: fresh queries (batches and certificate targets).
    pub fresh: Vec<String>,
}

impl TenantInput {
    /// The schema as the server prints it.
    #[must_use]
    pub fn schema(&self) -> String {
        self.attr.to_string()
    }
}

/// Engine-independent input properties, checked at generation time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Floors {
    /// Fixed-phase queries whose left-hand side repeats an earlier one.
    pub lhs_repeat_share: f64,
    /// `read-cold`: share of the first [`DIFFERS_SAMPLE`] queries whose
    /// dependency basis under Σ differs from the basis under an empty Σ
    /// (reference reasoner).
    pub basis_differs_share: f64,
    /// Share of fixed-phase requests that are edits.
    pub edit_share: f64,
    /// Fixed-phase requests per op type (query, edit, cert).
    pub fixed_counts: [usize; 3],
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The sizes.
    pub spec: Spec,
    /// Per-tenant material.
    pub tenants: Vec<TenantInput>,
    /// Per-connection request lists.
    pub conns: Vec<ConnPlan>,
    /// Set-up warm-up requests (sent after each launch, checked too).
    pub warmup: Vec<Req>,
    /// Reference reasoners, one per tenant, over the post-recovery Σ
    /// (`write-churn`: seed Σ plus the churn members that are on).
    pub reference: Vec<Reasoner>,
    /// Input properties.
    pub floors: Floors,
}

/// Zipf sampler over `0..n` via a CDF and binary search.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// `P(k) ∝ 1/(k+1)^s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty cdf");
        let u = rng.gen_range(0.0..total);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Poisson arrival times at `rate` per second over `[0, duration_ns)`.
#[must_use]
pub fn poisson_schedule(rng: &mut impl Rng, rate: f64, duration_ns: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// A non-trivial random dependency with separate side densities.
fn dep_with(rng: &mut StdRng, alg: &Algebra, lhs: f64, rhs: f64, fd_prob: f64) -> CompiledDep {
    loop {
        let l = random_subattr(rng, alg, lhs);
        if l.count() == 0 {
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
}

/// Draws `n` distinct non-trivial dependencies not in `taken`.
fn distinct_deps(
    rng: &mut StdRng,
    alg: &Algebra,
    n: usize,
    taken: &mut HashSet<String>,
    mut draw: impl FnMut(&mut StdRng, &Algebra) -> CompiledDep,
) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let d = draw(rng, alg);
        if d.is_trivial(alg) {
            continue;
        }
        let text = d.render(alg);
        if taken.insert(text.clone()) {
            out.push(text);
        }
    }
    out
}

fn parse_dep(attr: &NestedAttr, text: &str) -> Dependency {
    Dependency::parse(attr, text).expect("generated dependencies parse")
}

fn build_reasoner(attr: &NestedAttr, deps: &[String]) -> Reasoner {
    let mut r = Reasoner::new(attr);
    for d in deps {
        r.add(parse_dep(attr, d))
            .expect("generated dependencies compile");
    }
    r
}

/// The journaled tail: the adds of `late` at random positions among
/// `len` records, the rest add/remove toggles of `extras`. When
/// `settle` holds, every extra left on is removed at the end, so Σ after
/// replay is exactly `base ∪ late`. Returns the ops and the final
/// on/off state of each extra.
fn history(
    rng: &mut StdRng,
    late: &[String],
    extras: &[String],
    len: usize,
    settle: bool,
) -> (Vec<WalOp>, Vec<bool>) {
    let mut on = vec![false; extras.len()];
    let mut ops = Vec::with_capacity(len + extras.len());
    let mut late_left = late.iter();
    let mut late_remaining = late.len();
    for i in 0..len.max(late.len()) {
        let slots_left = len.max(late.len()) - i;
        if late_remaining > 0 && rng.gen_range(0..slots_left) < late_remaining {
            ops.push(WalOp::Add(late_left.next().expect("counted").clone()));
            late_remaining -= 1;
            continue;
        }
        let k = rng.gen_range(0..extras.len());
        ops.push(if on[k] {
            WalOp::Remove(extras[k].clone())
        } else {
            WalOp::Add(extras[k].clone())
        });
        on[k] = !on[k];
    }
    if settle {
        for (k, flag) in on.iter_mut().enumerate() {
            if *flag {
                ops.push(WalOp::Remove(extras[k].clone()));
                *flag = false;
            }
        }
    }
    (ops, on)
}

fn query_wire(tenant: &str, text: &str) -> Wire {
    Wire::new(
        "POST",
        &format!("/v1/{tenant}/query"),
        Some(&format!("{{\"query\": {}}}", escape(text))),
    )
}

fn batch_wire(tenant: &str, texts: &[String]) -> Wire {
    let items: Vec<String> = texts.iter().map(|t| escape(t)).collect();
    Wire::new(
        "POST",
        &format!("/v1/{tenant}/query"),
        Some(&format!("{{\"queries\": [{}]}}", items.join(", "))),
    )
}

fn cert_wire(tenant: &str, text: &str) -> Wire {
    Wire::new(
        "GET",
        &format!("/v1/{tenant}/cert?dep={}", percent_encode(text)),
        None,
    )
}

fn edit_wire(tenant: &str, text: &str, add: bool) -> Wire {
    let op = if add { "add" } else { "remove" };
    Wire::new(
        "POST",
        &format!("/v1/{tenant}/edit"),
        Some(&format!("{{\"op\": \"{op}\", \"dep\": {}}}", escape(text))),
    )
}

/// `GET /v1/{t}/sigma`.
#[must_use]
pub fn sigma_wire(tenant: &str) -> Wire {
    Wire::new("GET", &format!("/v1/{tenant}/sigma"), None)
}

/// Verdict of a compiled query from a basis.
#[must_use]
pub fn decide(basis: &nalist_membership::DependencyBasis, c: &CompiledDep) -> bool {
    match c.kind {
        DepKind::Fd => basis.fd_derivable(&c.rhs),
        DepKind::Mvd => basis.mvd_derivable(&c.rhs),
    }
}

/// Per-connection random stream, independent of the other connections.
fn conn_rng(seed: u64, salt: u64, conn: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates every input of one run. `fixed_ns` is the fixed-rate
/// phase length, `capacity_ns` the closed-loop phase length.
pub fn generate(
    spec: Spec,
    seed: u64,
    conns: usize,
    fixed_ns: u64,
    capacity_ns: u64,
) -> Result<Inputs, String> {
    let workload = spec.workload;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000 ^ workload as u64);
    // Schemas come from a fixed seed: the four schemas' shapes would
    // otherwise dominate the seed-to-seed spread of every cost. Σ, pools,
    // history and traffic all follow `seed`.
    let mut schema_rng = StdRng::seed_from_u64(SCHEMA_SEED ^ workload as u64);
    let mut tenants = Vec::with_capacity(TENANTS);
    let mut reference = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let attr = attr_with_atoms(&mut schema_rng, spec.atoms);
        let alg = Algebra::new(&attr);
        let mut taken = HashSet::new();
        let sigma = match workload {
            Workload::ReadCold => distinct_deps(&mut rng, &alg, spec.sigma, &mut taken, |r, a| {
                dep_with(r, a, COLD_SIGMA_LHS_DENSITY, 0.3, COLD_SIGMA_FD_PROB)
            }),
            _ => distinct_deps(&mut rng, &alg, spec.sigma, &mut taken, |r, a| {
                random_dep(r, a, 0.3, 0.3)
            }),
        };
        let (base, late) = sigma.split_at(sigma.len() / 2);
        let mut input = TenantInput {
            name: format!("t{t}"),
            attr: attr.clone(),
            base: base.to_vec(),
            history: Vec::new(),
            sigma: sigma.clone(),
            pool: Vec::new(),
            churn: Vec::new(),
            churn_on: Vec::new(),
            fresh: Vec::new(),
        };
        match workload {
            Workload::ReadHot => {
                input.pool = distinct_deps(&mut rng, &alg, spec.pool, &mut taken, |r, a| {
                    random_dep(r, a, 0.3, 0.3)
                });
                let extras = distinct_deps(&mut rng, &alg, 32, &mut taken, |r, a| {
                    random_dep(r, a, 0.3, 0.3)
                });
                input.history = history(&mut rng, late, &extras, spec.history, true).0;
            }
            Workload::ReadCold => {
                let extras = distinct_deps(&mut rng, &alg, 32, &mut taken, |r, a| {
                    dep_with(r, a, COLD_SIGMA_LHS_DENSITY, 0.3, COLD_SIGMA_FD_PROB)
                });
                input.history = history(&mut rng, late, &extras, spec.history, true).0;
            }
            Workload::WriteChurn => {
                input.churn = distinct_deps(&mut rng, &alg, spec.pool, &mut taken, |r, a| {
                    random_dep(r, a, 0.3, 0.3)
                });
                // The journaled history is the workload's own churn.
                let (ops, on) = history(&mut rng, late, &input.churn, spec.history, false);
                input.history = ops;
                input.churn_on = on;
                // Queries rank Σ and churn members together.
                let mut pool: Vec<String> = sigma.iter().chain(&input.churn).cloned().collect();
                for i in (1..pool.len()).rev() {
                    pool.swap(i, rng.gen_range(0..=i));
                }
                input.pool = pool;
            }
        }
        let mut live = input.sigma.clone();
        live.extend(
            input
                .churn
                .iter()
                .zip(&input.churn_on)
                .filter(|(_, on)| **on)
                .map(|(d, _)| d.clone()),
        );
        reference.push(build_reasoner(&attr, &live));
        tenants.push(input);
    }
    let conns = conns.max(1);
    let mut plans: Vec<ConnPlan> = (0..conns).map(|_| ConnPlan::default()).collect();
    let cap_per_conn =
        ((spec.capacity * capacity_ns as f64 / 1e9) / conns as f64).ceil() as usize + 64;
    match workload {
        Workload::ReadHot | Workload::WriteChurn => {
            let zipf = Zipf::new(tenants[0].pool.len(), ZIPF_S);
            // Churn ownership: connection c toggles only indices
            // k ≡ c (mod conns), so the final Σ does not depend on how
            // the connections interleave.
            let mut on: Vec<Vec<bool>> = tenants.iter().map(|t| t.churn_on.clone()).collect();
            for (c, plan) in plans.iter_mut().enumerate() {
                let mut rng = conn_rng(seed, 0xC0_4E, c);
                let dues = poisson_schedule(&mut rng, spec.rate / conns as f64, fixed_ns);
                let mut next = |rng: &mut StdRng| -> Op {
                    let tenant = rng.gen_range(0..TENANTS);
                    let owned = (spec.pool + conns - 1 - c) / conns;
                    if workload == Workload::WriteChurn && owned > 0 && rng.gen_bool(EDIT_SHARE) {
                        let churn = c + rng.gen_range(0..owned) * conns;
                        let add = !on[tenant][churn];
                        on[tenant][churn] = add;
                        Op::Edit { tenant, churn, add }
                    } else {
                        Op::Query {
                            tenant,
                            ix: zipf.sample(rng),
                        }
                    }
                };
                plan.fixed = dues
                    .iter()
                    .map(|&due_ns| {
                        let op = next(&mut rng);
                        Req {
                            due_ns,
                            wire: wire_for(&tenants, &op),
                            op,
                        }
                    })
                    .collect();
                plan.capacity = (0..cap_per_conn)
                    .map(|_| {
                        let op = next(&mut rng);
                        Req {
                            due_ns: 0,
                            wire: wire_for(&tenants, &op),
                            op,
                        }
                    })
                    .collect();
            }
        }
        Workload::ReadCold => {
            let mut cold = ColdGen::new(&tenants, seed);
            // With two or more connections the last one carries the
            // fixed-rate phase's certificates (an auditing client) and the
            // others the batches, so a batch never queues behind a
            // certificate on its own connection. The capacity
            // phase mixes both on every connection.
            let cert_conn = (conns >= 2).then_some(conns - 1);
            let cert_rate = spec.rate / CERT_EVERY as f64;
            let mut certs = 0usize;
            for (c, plan) in plans.iter_mut().enumerate() {
                let mut rng = conn_rng(seed, 0xC01D, c);
                let rate = match cert_conn {
                    None => spec.rate,
                    Some(cc) if cc == c => cert_rate,
                    Some(_) => (spec.rate - cert_rate) / (conns - 1) as f64,
                };
                let dues = poisson_schedule(&mut rng, rate, fixed_ns);
                let mut i = 0usize;
                let mut next = |rng: &mut StdRng, tenants: &mut [TenantInput], fixed: bool| -> Op {
                    i += 1;
                    let tenant = rng.gen_range(0..TENANTS);
                    let cert = match cert_conn {
                        Some(cc) if fixed => cc == c,
                        _ => i.is_multiple_of(CERT_EVERY),
                    };
                    if cert {
                        certs += 1;
                        let want_implied = certs.is_multiple_of(2);
                        let ix = cold.cert_target(tenants, &mut reference, tenant, want_implied);
                        Op::Cert { tenant, ix }
                    } else {
                        let first = cold.batch(tenants, tenant);
                        Op::Batch { tenant, first }
                    }
                };
                let mut fixed = Vec::with_capacity(dues.len());
                for &due_ns in &dues {
                    let op = next(&mut rng, &mut tenants, true);
                    fixed.push(Req {
                        due_ns,
                        wire: wire_for(&tenants, &op),
                        op,
                    });
                }
                plan.fixed = fixed;
                let mut capacity = Vec::with_capacity(cap_per_conn);
                for _ in 0..cap_per_conn {
                    let op = next(&mut rng, &mut tenants, false);
                    capacity.push(Req {
                        due_ns: 0,
                        wire: wire_for(&tenants, &op),
                        op,
                    });
                }
                plan.capacity = capacity;
            }
        }
    }
    let warmup = warmup(workload, &tenants);
    let floors = floors(workload, &tenants, &plans, &mut reference);
    let inputs = Inputs {
        spec,
        tenants,
        conns: plans,
        warmup,
        reference,
        floors,
    };
    inputs.check_floors()?;
    Ok(inputs)
}

/// Fresh `read-cold` queries: every left-hand side is new to its tenant.
struct ColdGen {
    rngs: Vec<StdRng>,
    algs: Vec<Algebra>,
    seen: Vec<HashSet<AtomSet>>,
}

impl ColdGen {
    fn new(tenants: &[TenantInput], seed: u64) -> ColdGen {
        ColdGen {
            rngs: (0..tenants.len())
                .map(|t| conn_rng(seed, 0xF4E5, 100 + t))
                .collect(),
            algs: tenants.iter().map(|t| Algebra::new(&t.attr)).collect(),
            seen: tenants.iter().map(|_| HashSet::new()).collect(),
        }
    }

    fn fresh(&mut self, tenant: usize) -> CompiledDep {
        loop {
            let d = dep_with(
                &mut self.rngs[tenant],
                &self.algs[tenant],
                COLD_QUERY_DENSITY,
                COLD_QUERY_DENSITY,
                0.5,
            );
            if self.seen[tenant].insert(d.lhs.clone()) {
                return d;
            }
        }
    }

    /// Appends a batch of fresh queries; returns its first index.
    fn batch(&mut self, tenants: &mut [TenantInput], tenant: usize) -> usize {
        let first = tenants[tenant].fresh.len();
        for _ in 0..BATCH {
            let d = self.fresh(tenant);
            tenants[tenant].fresh.push(d.render(&self.algs[tenant]));
        }
        first
    }

    /// Appends a certificate target, implied or refuted as asked (a
    /// refuted one only with a small witness); returns its index.
    fn cert_target(
        &mut self,
        tenants: &mut [TenantInput],
        reference: &mut [Reasoner],
        tenant: usize,
        want_implied: bool,
    ) -> usize {
        let mut fallback = None;
        for _ in 0..256 {
            let d = self.fresh(tenant);
            let basis = reference[tenant].dependency_basis(&d.lhs);
            let implied = decide(&basis, &d);
            if implied == want_implied
                && (implied || basis.free_blocks().len() <= MAX_WITNESS_FREE_BLOCKS)
            {
                fallback = Some(d);
                break;
            }
            if implied && fallback.is_none() {
                fallback = Some(d);
            }
        }
        let d = fallback.expect("an implied target turns up within 256 draws");
        tenants[tenant].fresh.push(d.render(&self.algs[tenant]));
        tenants[tenant].fresh.len() - 1
    }
}

fn wire_for(tenants: &[TenantInput], op: &Op) -> Wire {
    match *op {
        Op::Query { tenant, ix } => query_wire(&tenants[tenant].name, &tenants[tenant].pool[ix]),
        Op::Batch { tenant, first } => batch_wire(
            &tenants[tenant].name,
            &tenants[tenant].fresh[first..first + BATCH],
        ),
        Op::Cert { tenant, ix } => cert_wire(&tenants[tenant].name, &tenants[tenant].fresh[ix]),
        Op::Sigma { tenant } => sigma_wire(&tenants[tenant].name),
        Op::Edit { tenant, churn, add } => {
            edit_wire(&tenants[tenant].name, &tenants[tenant].churn[churn], add)
        }
    }
}

fn warmup(workload: Workload, tenants: &[TenantInput]) -> Vec<Req> {
    let mut out = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let op = Op::Sigma { tenant: t };
        out.push(Req {
            due_ns: 0,
            wire: wire_for(tenants, &op),
            op,
        });
        if workload == Workload::ReadHot {
            for ix in 0..tenant.pool.len() {
                let op = Op::Query { tenant: t, ix };
                out.push(Req {
                    due_ns: 0,
                    wire: wire_for(tenants, &op),
                    op,
                });
            }
        }
    }
    out
}

/// Measures the input properties on the fixed-rate schedule.
fn floors(
    workload: Workload,
    tenants: &[TenantInput],
    plans: &[ConnPlan],
    reference: &mut [Reasoner],
) -> Floors {
    let mut merged: Vec<&Req> = plans.iter().flat_map(|p| &p.fixed).collect();
    merged.sort_by_key(|r| r.due_ns);
    let mut f = Floors::default();
    for r in &merged {
        f.fixed_counts[r.op.kind() as usize] += 1;
    }
    let total = merged.len().max(1) as f64;
    f.edit_share = f.fixed_counts[OpKind::Edit as usize] as f64 / total;
    let algs: Vec<Algebra> = tenants.iter().map(|t| Algebra::new(&t.attr)).collect();
    let mut seen: HashSet<(usize, &str)> = HashSet::new();
    let (mut queries, mut repeats, mut sampled, mut differs) = (0usize, 0usize, 0usize, 0usize);
    for r in &merged {
        let texts: &[String] = match r.op {
            Op::Query { tenant, ix } => std::slice::from_ref(&tenants[tenant].pool[ix]),
            Op::Batch { tenant, first } => &tenants[tenant].fresh[first..first + BATCH],
            _ => &[],
        };
        let t = r.op.tenant();
        for text in texts {
            queries += 1;
            if !seen.insert((t, lhs_text(text))) {
                repeats += 1;
            }
            if workload == Workload::ReadCold && sampled < DIFFERS_SAMPLE {
                sampled += 1;
                let c = parse_dep(&tenants[t].attr, text)
                    .compile(&algs[t])
                    .expect("generated dependencies compile");
                let with = reference[t].dependency_basis(&c.lhs);
                let without = nalist_membership::closure_and_basis(&algs[t], &[], &c.lhs);
                if with.closure != without.closure || with.basis != without.basis {
                    differs += 1;
                }
            }
        }
    }
    f.lhs_repeat_share = repeats as f64 / queries.max(1) as f64;
    f.basis_differs_share = differs as f64 / sampled.max(1) as f64;
    f
}

impl Inputs {
    /// Fails when the generated inputs would not keep the workload on
    /// its layer, or cannot support the percentiles it reports.
    pub fn check_floors(&self) -> Result<(), String> {
        let f = &self.floors;
        let [queries, edits, certs] = f.fixed_counts;
        let fail = |what: String| Err(format!("input floor not met: {what}"));
        if queries < P99_SAMPLES {
            return fail(format!("{queries} fixed-rate queries < {P99_SAMPLES}"));
        }
        match self.spec.workload {
            Workload::ReadHot => {
                if f.lhs_repeat_share < HOT_REPEAT_FLOOR {
                    return fail(format!(
                        "left-hand-side repeat share {:.3} < {HOT_REPEAT_FLOOR}",
                        f.lhs_repeat_share
                    ));
                }
            }
            Workload::ReadCold => {
                if f.lhs_repeat_share > 0.0 {
                    return fail("a read-cold left-hand side repeats".to_string());
                }
                if f.basis_differs_share < COLD_DIFFERS_FLOOR {
                    return fail(format!(
                        "basis-differs share {:.3} < {COLD_DIFFERS_FLOOR}",
                        f.basis_differs_share
                    ));
                }
                if certs < P90_SAMPLES {
                    return fail(format!("{certs} fixed-rate certificates < {P90_SAMPLES}"));
                }
            }
            Workload::WriteChurn => {
                let (lo, hi) = CHURN_EDIT_BAND;
                if !(lo..=hi).contains(&f.edit_share) {
                    return fail(format!("edit share {:.3} outside {lo}..{hi}", f.edit_share));
                }
                if edits < P99_SAMPLES {
                    return fail(format!("{edits} fixed-rate edits < {P99_SAMPLES}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload at a rate that meets the sample floors in one second.
    fn busy(w: Workload) -> Spec {
        Spec {
            rate: 4_000.0,
            ..w.spec()
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        for w in [Workload::ReadHot, Workload::WriteChurn] {
            let requests = |seed| {
                let inputs = generate(busy(w), seed, 2, 1_000_000_000, 10_000_000).unwrap();
                inputs
                    .conns
                    .iter()
                    .map(|c| {
                        c.fixed
                            .iter()
                            .chain(&c.capacity)
                            .map(|r| (r.due_ns, r.op.clone(), r.wire.bytes.clone()))
                            .collect()
                    })
                    .collect::<Vec<Vec<_>>>()
            };
            assert_eq!(requests(7), requests(7));
            assert_ne!(requests(7), requests(8));
        }
    }

    #[test]
    fn poisson_rate_is_close_to_offered() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = poisson_schedule(&mut rng, 2_000.0, 5_000_000_000).len();
        assert!((9_000..11_000).contains(&n), "{n}");
    }

    #[test]
    fn churn_ownership_is_disjoint_across_connections() {
        let inputs = generate(busy(Workload::WriteChurn), 3, 2, 1_000_000_000, 50_000_000).unwrap();
        for (c, plan) in inputs.conns.iter().enumerate() {
            for r in plan.fixed.iter().chain(&plan.capacity) {
                if let Op::Edit { churn, .. } = r.op {
                    assert_eq!(churn % 2, c);
                }
            }
        }
        assert!(inputs.floors.edit_share > 0.4);
    }
}
