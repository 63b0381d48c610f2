//! The correctness gate, run outside the timed windows: every verdict
//! against a reference [`Reasoner`], every certificate through the
//! independent checker, and the final Σ against the harness's model.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use nalist_algebra::Algebra;
use nalist_deps::{CompiledDep, Dependency};
use nalist_guard::Budget;
use nalist_membership::Reasoner;
use nalist_types::json::{parse as parse_json, Json};

use crate::drive::{Phase, Sample};
use crate::workload::{Inputs, Op, Req, TenantInput, BATCH};

/// What the gate found.
#[derive(Debug, Default)]
pub struct Findings {
    /// Requests whose answer was checked.
    pub checked: usize,
    /// Non-2xx replies and I/O failures.
    pub failed_requests: usize,
    /// Wrong verdicts, rejected certificates, Σ mismatches.
    pub wrong: usize,
    /// The first few problems, for the report.
    pub notes: Vec<String>,
    /// `nalist_check::verify` time per certificate, microseconds.
    pub verify_us: Vec<f64>,
    /// Certificate body sizes, KiB.
    pub cert_kb: Vec<f64>,
}

impl Findings {
    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    fn wrong(&mut self, msg: String) {
        self.wrong += 1;
        self.note(msg);
    }

    /// Operations that failed in any way.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed_requests + self.wrong
    }
}

fn compile(t: &TenantInput, alg: &Algebra, text: &str) -> Result<CompiledDep, String> {
    Dependency::parse(&t.attr, text)
        .map_err(|e| format!("{text:?}: {e}"))?
        .compile(alg)
        .map_err(|e| format!("{text:?}: {e}"))
}

fn body_json(s: &Sample) -> Result<Json, String> {
    let text = std::str::from_utf8(&s.body).map_err(|_| "reply is not UTF-8".to_string())?;
    parse_json(text).map_err(|e| format!("reply is not JSON: {e}"))
}

fn implied_of(doc: &Json) -> Option<bool> {
    doc.get("implied").and_then(Json::as_bool)
}

/// The gate's state: reference oracles and the Σ model, advanced phase
/// by phase in the order the phases ran.
pub struct Gate<'a> {
    inputs: &'a Inputs,
    algs: Vec<Algebra>,
    sigma_src: Vec<String>,
    /// Reference verdicts memoised per (tenant, churn mask, text).
    oracles: Vec<Oracle>,
    /// `write-churn`: churn membership per tenant at the start of the
    /// next phase, per connection-owned index.
    churn_on: Vec<Vec<bool>>,
    /// The findings so far.
    pub findings: Findings,
}

/// A reference reasoner moved between churn states on demand.
struct Oracle {
    r: Reasoner,
    mask: u64,
    memo: HashMap<(u64, String), bool>,
}

impl Oracle {
    fn verdict(&mut self, t: &TenantInput, alg: &Algebra, mask: u64, text: &str) -> bool {
        if let Some(&v) = self.memo.get(&(mask, text.to_string())) {
            return v;
        }
        for (k, dep) in t.churn.iter().enumerate() {
            if (mask ^ self.mask) >> k & 1 == 0 {
                continue;
            }
            let d = Dependency::parse(&t.attr, dep).expect("churn deps parse");
            if mask >> k & 1 == 1 {
                self.r.add(d).expect("churn deps compile");
            } else {
                self.r.remove(&d).expect("churn deps compile");
            }
        }
        self.mask = mask;
        let c = compile(t, alg, text).expect("generated queries compile");
        let v = crate::workload::decide(&self.r.dependency_basis(&c.lhs), &c);
        self.memo.insert((mask, text.to_string()), v);
        v
    }
}

fn mask_of(on: &[bool]) -> u64 {
    on.iter()
        .enumerate()
        .filter(|(_, b)| **b)
        .fold(0, |m, (k, _)| m | 1 << k)
}

impl<'a> Gate<'a> {
    /// A gate over `inputs`; takes the reference reasoners' clones.
    #[must_use]
    pub fn new(inputs: &'a Inputs) -> Gate<'a> {
        Gate {
            algs: inputs
                .tenants
                .iter()
                .map(|t| Algebra::new(&t.attr))
                .collect(),
            sigma_src: inputs.tenants.iter().map(|t| t.sigma.join("\n")).collect(),
            oracles: inputs
                .reference
                .iter()
                .zip(&inputs.tenants)
                .map(|(r, t)| Oracle {
                    r: r.clone(),
                    mask: mask_of(&t.churn_on),
                    memo: HashMap::new(),
                })
                .collect(),
            churn_on: inputs.tenants.iter().map(|t| t.churn_on.clone()).collect(),
            inputs,
            findings: Findings::default(),
        }
    }

    /// The Σ model: Σ plus the churn members currently on.
    #[must_use]
    pub fn sigma_model(&self, tenant: usize) -> Vec<String> {
        let t = &self.inputs.tenants[tenant];
        let mut out = t.sigma.clone();
        out.extend(
            t.churn
                .iter()
                .zip(&self.churn_on[tenant])
                .filter(|(_, on)| **on)
                .map(|(d, _)| d.clone()),
        );
        out
    }

    /// Compares a `GET /sigma` reply with the model, as sets.
    pub fn check_sigma(&mut self, tenant: usize, status: u16, body: &str, when: &str) {
        self.findings.checked += 1;
        if status != 200 {
            self.findings.failed_requests += 1;
            self.findings
                .note(format!("{when}: GET sigma answered {status}"));
            return;
        }
        let t = &self.inputs.tenants[tenant];
        let alg = &self.algs[tenant];
        let got: Result<BTreeSet<CompiledDep>, String> =
            parse_json(body).map_err(|e| e.to_string()).and_then(|doc| {
                doc.get("sigma")
                    .and_then(Json::as_arr)
                    .ok_or("no sigma array".to_string())?
                    .iter()
                    .map(|d| {
                        let text = d.get("dep").and_then(Json::as_str).ok_or("no dep")?;
                        compile(t, alg, text)
                    })
                    .collect()
            });
        let want: BTreeSet<CompiledDep> = self
            .sigma_model(tenant)
            .iter()
            .map(|d| compile(t, alg, d).expect("model deps compile"))
            .collect();
        match got {
            Ok(got) if got == want => {}
            Ok(got) => self.findings.wrong(format!(
                "{when}: tenant {} Σ has {} members, model has {} ({} differ)",
                t.name,
                got.len(),
                want.len(),
                got.symmetric_difference(&want).count()
            )),
            Err(e) => self.findings.wrong(format!("{when}: bad sigma reply: {e}")),
        }
    }

    /// Computes the reference verdicts a phase needs, two tenants'
    /// worth at a time on two threads, so the checks below hit the memo.
    fn prefetch(&mut self, lists: &[&[Req]], phase: &Phase, churn: &Timeline) {
        let mut jobs: Vec<Vec<(u64, &str)>> = vec![Vec::new(); self.oracles.len()];
        for s in phase.samples.iter().filter(|s| s.ok()) {
            let tenants = &self.inputs.tenants;
            match lists[s.conn][s.ix].op {
                Op::Query { tenant, ix } => {
                    for m in churn.candidates(s, tenant) {
                        jobs[tenant].push((m, &tenants[tenant].pool[ix]));
                    }
                }
                Op::Batch { tenant, first } => jobs[tenant].extend(
                    tenants[tenant].fresh[first..first + BATCH]
                        .iter()
                        .map(|t| (0, t.as_str())),
                ),
                Op::Cert { tenant, ix } => jobs[tenant].push((0, &tenants[tenant].fresh[ix])),
                Op::Sigma { .. } | Op::Edit { .. } => {}
            }
        }
        let (inputs, algs) = (self.inputs, &self.algs);
        std::thread::scope(|scope| {
            let mut halves: [Vec<(usize, &mut Oracle)>; 2] = [Vec::new(), Vec::new()];
            for (t, o) in self.oracles.iter_mut().enumerate() {
                halves[t % 2].push((t, o));
            }
            for half in halves {
                let jobs = &jobs;
                scope.spawn(move || {
                    for (t, oracle) in half {
                        for &(mask, text) in &jobs[t] {
                            oracle.verdict(&inputs.tenants[t], &algs[t], mask, text);
                        }
                    }
                });
            }
        });
    }

    /// Checks every reply of a phase; `lists[c]` is connection `c`'s
    /// request list for it.
    pub fn check_phase(&mut self, lists: &[&[Req]], phase: &Phase) {
        let mut certs: Vec<(&Sample, usize, usize)> = Vec::new();
        let churn = self.churn_timeline(lists, phase);
        self.prefetch(lists, phase, &churn);
        for s in &phase.samples {
            let req = &lists[s.conn][s.ix];
            if !s.ok() {
                self.findings.checked += 1;
                self.findings.failed_requests += 1;
                self.findings.note(format!(
                    "{} on connection {} answered {}",
                    req.op.kind().name(),
                    s.conn,
                    if s.status == 0 {
                        "with an I/O error".to_string()
                    } else {
                        format!("HTTP {}", s.status)
                    }
                ));
                continue;
            }
            match req.op {
                Op::Query { tenant, ix } => {
                    self.findings.checked += 1;
                    let text = &self.inputs.tenants[tenant].pool[ix];
                    let got = body_json(s).ok().and_then(|d| implied_of(&d));
                    let masks = churn.candidates(s, tenant);
                    let t = &self.inputs.tenants[tenant];
                    let alg = &self.algs[tenant];
                    let oracle = &mut self.oracles[tenant];
                    let ok = got.is_some_and(|v| {
                        masks.iter().any(|&m| oracle.verdict(t, alg, m, text) == v)
                    });
                    if !ok {
                        self.findings
                            .wrong(format!("wrong verdict {got:?} for {text} on {}", t.name));
                    }
                }
                Op::Batch { tenant, first } => {
                    self.findings.checked += 1;
                    let got: Option<Vec<bool>> = body_json(s).ok().and_then(|d| {
                        d.get("verdicts")
                            .and_then(Json::as_arr)
                            .map(|a| a.iter().filter_map(Json::as_bool).collect())
                    });
                    let t = &self.inputs.tenants[tenant];
                    let texts = &t.fresh[first..first + BATCH];
                    match got {
                        Some(v) if v.len() == BATCH => {
                            let alg = &self.algs[tenant];
                            let oracle = &mut self.oracles[tenant];
                            let bad = texts
                                .iter()
                                .zip(&v)
                                .filter(|(text, &got)| oracle.verdict(t, alg, 0, text) != got)
                                .count();
                            if bad > 0 {
                                self.findings.wrong(format!(
                                    "{bad} wrong verdicts in a batch on {}",
                                    t.name
                                ));
                            }
                        }
                        _ => self
                            .findings
                            .wrong(format!("bad batch reply on {}", t.name)),
                    }
                }
                Op::Cert { tenant, ix } => certs.push((s, tenant, ix)),
                Op::Sigma { tenant } => {
                    let body = String::from_utf8_lossy(&s.body).into_owned();
                    self.check_sigma(tenant, s.status, &body, "set-up");
                }
                Op::Edit { .. } => self.findings.checked += 1,
            }
        }
        self.check_certs(&certs);
        self.churn_on = churn.end_state;
    }

    /// Runs certificates through `nalist_check::verify` on two threads.
    fn check_certs(&mut self, certs: &[(&Sample, usize, usize)]) {
        if certs.is_empty() {
            return;
        }
        // Reference verdicts first (single-threaded, memoised).
        let expected: Vec<bool> = certs
            .iter()
            .map(|&(_, t, ix)| {
                let tenant = &self.inputs.tenants[t];
                self.oracles[t].verdict(tenant, &self.algs[t], 0, &tenant.fresh[ix])
            })
            .collect();
        let inputs = self.inputs;
        let sigma_src = &self.sigma_src;
        let check_one = |k: usize| -> CertCheck {
            let (s, t, ix) = certs[k];
            let kb = s.body.len() as f64 / 1024.0;
            let tenant = &inputs.tenants[t];
            let doc = match body_json(s) {
                Ok(d) => d,
                Err(e) => return (Err(e), 0.0, kb),
            };
            let Some(implied) = implied_of(&doc) else {
                return (Err("certificate reply has no verdict".into()), 0.0, kb);
            };
            let Some(cert_json) = doc.get("certificate").map(Json::render) else {
                return (Err("reply has no certificate".into()), 0.0, kb);
            };
            let t0 = Instant::now();
            let checked = nalist_check::Certificate::from_json(&cert_json)
                .map_err(|e| e.to_string())
                .and_then(|cert| {
                    nalist_check::verify(
                        &tenant.schema(),
                        &sigma_src[t],
                        &cert,
                        &Budget::unlimited(),
                    )
                    .map_err(|e| e.to_string())
                });
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let verdict = match checked {
                Ok(report) => report.verdict == nalist_check::Verdict::Implied,
                Err(e) => return (Err(format!("checker rejected: {e}")), us, kb),
            };
            if verdict != implied || implied != expected[k] {
                return (
                    Err(format!(
                        "certificate for {} says {implied}, checker {verdict}, reference {}",
                        tenant.fresh[ix], expected[k]
                    )),
                    us,
                    kb,
                );
            }
            (Ok(()), us, kb)
        };
        let threads = 2.min(certs.len());
        let mut results: Vec<(usize, CertCheck)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let check_one = &check_one;
                    s.spawn(move || {
                        (w..certs.len())
                            .step_by(threads)
                            .map(|k| (k, check_one(k)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("checker threads do not panic"))
                .collect()
        });
        results.sort_by_key(|(k, _)| *k);
        for (_, (outcome, us, kb)) in results {
            self.findings.checked += 1;
            self.findings.cert_kb.push(kb);
            if us > 0.0 {
                self.findings.verify_us.push(us);
            }
            if let Err(e) = outcome {
                self.findings.wrong(e);
            }
        }
    }

    /// Each connection's churn edits in this phase, for the verdict
    /// brackets of `write-churn` queries.
    fn churn_timeline(&self, lists: &[&[Req]], phase: &Phase) -> Timeline {
        let tenants = self.inputs.tenants.len();
        let conns = lists.len();
        // edits[c][t] = (sent, done, churn, add) in send order
        let mut edits = vec![vec![Vec::new(); tenants]; conns];
        let mut end_state = self.churn_on.clone();
        let mut failed_edit = false;
        for s in &phase.samples {
            if let Op::Edit { tenant, churn, add } = lists[s.conn][s.ix].op {
                edits[s.conn][tenant].push((s.sent_ns, s.done_ns, churn, add));
                end_state[tenant][churn] = add;
                failed_edit |= !s.ok();
            }
        }
        Timeline {
            start: self.churn_on.iter().map(|on| mask_of(on)).collect(),
            edits,
            end_state,
            uncertain: failed_edit,
        }
    }
}

/// One certificate's check: outcome, checker time (µs), reply size (KiB).
type CertCheck = (Result<(), String>, f64, f64);

/// One churn edit as sent: `(sent_ns, done_ns, churn index, add)`.
type ChurnEdit = (u64, u64, usize, bool);

/// Churn edits of one phase, per connection and tenant.
struct Timeline {
    start: Vec<u64>,
    edits: Vec<Vec<Vec<ChurnEdit>>>,
    end_state: Vec<Vec<bool>>,
    uncertain: bool,
}

impl Timeline {
    /// The churn masks a query may have observed: its own connection's
    /// edits are settled (the connection is sequential); another
    /// connection's edit is certainly applied if it completed before the
    /// query was sent, possibly applied if it was sent before the query
    /// completed.
    fn candidates(&self, q: &Sample, tenant: usize) -> Vec<u64> {
        if self.uncertain {
            // a failed edit leaves Σ unknown; the run is already failing
            return vec![self.start[tenant]];
        }
        let apply = |mut m: u64, es: &[ChurnEdit]| {
            for &(_, _, k, add) in es {
                if add {
                    m |= 1 << k;
                } else {
                    m &= !(1 << k);
                }
            }
            m
        };
        let mut masks = vec![0u64];
        let start = self.start[tenant];
        for (c, per_tenant) in self.edits.iter().enumerate() {
            let es = &per_tenant[tenant];
            let (lo, hi) = if c == q.conn {
                let n = es.iter().filter(|e| e.0 < q.sent_ns).count();
                (n, n)
            } else {
                (
                    es.iter().filter(|e| e.1 < q.sent_ns).count(),
                    es.iter().filter(|e| e.0 < q.done_ns).count(),
                )
            };
            // This connection's bits only (ownership is disjoint).
            let own: u64 = es.iter().fold(0, |m, e| m | 1 << e.2);
            let mut next = Vec::new();
            for j in lo..=hi {
                let bits = apply(start, &es[..j]) & own;
                for &m in &masks {
                    next.push(m | bits);
                }
            }
            masks = next;
        }
        let all_own: u64 = self
            .edits
            .iter()
            .flat_map(|pt| pt[tenant].iter())
            .fold(0, |m, e| m | 1 << e.2);
        masks.iter_mut().for_each(|m| *m |= start & !all_own);
        masks.sort_unstable();
        masks.dedup();
        masks
    }
}
