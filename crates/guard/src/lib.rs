//! # nalist-guard
//!
//! Resource governance for the reasoning core: every potentially
//! expensive computation in the workspace (closure fixpoints, algebra
//! construction, lattice enumeration, the chase, spec loading) accepts a
//! [`Budget`] and turns exhaustion into a structured
//! [`ResourceExhausted`] error instead of hanging, overflowing the stack
//! or exhausting memory.
//!
//! The contract every governed entry point upholds:
//!
//! > Return `Ok` or a structured `Err` within the configured deadline —
//! > never panic on user input, never run more than a small constant
//! > factor past the budget.
//!
//! A [`Budget`] bundles four independent limits:
//!
//! * **fuel** — an abstract work counter; governed loops call
//!   [`Budget::charge`] once per unit of work (one dependency step, one
//!   chase insertion, one enumerated lattice element, …);
//! * **deadline** — a wall-clock instant, re-checked on every charge;
//! * **max_atoms** — refuses to build algebras over schemas whose basis
//!   `SubB(N)` is larger than the limit (the `O(|N|⁴·|Σ|)` membership
//!   bound makes atom count *the* cost driver);
//! * **max_depth** — caps attribute-nesting depth at parse time (deep
//!   `L[L[…]]` towers are otherwise a stack-overflow vector: parsing,
//!   rendering and even `Drop` recurse over the tree).
//!
//! An unarmed budget ([`Budget::unlimited`] with no fail points) keeps
//! the hot path almost free: `charge` is one relaxed atomic add and one
//! branch.
//!
//! ## Fault injection
//!
//! For chaos testing, a budget can carry [`FailPoint`]s keyed by site
//! name. Governed code calls [`Budget::failpoint`] at well-known sites
//! (e.g. `"membership::closure"`); a matching fail point either forces a
//! `ResourceExhausted` error or panics, letting the test suite prove
//! that exhaustion surfaces as a structured error everywhere and that
//! batch APIs isolate a panicking worker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which limit was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The fuel counter ran out ([`Budget::with_fuel`]).
    Fuel,
    /// The wall-clock deadline passed ([`Budget::with_deadline_in`]).
    Deadline,
    /// The schema's basis `SubB(N)` is larger than allowed
    /// ([`Budget::with_max_atoms`]).
    Atoms,
    /// Attribute nesting is deeper than allowed
    /// ([`Budget::with_max_depth`]).
    Depth,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::Fuel => "fuel",
            ResourceKind::Deadline => "deadline",
            ResourceKind::Atoms => "atoms",
            ResourceKind::Depth => "depth",
        })
    }
}

/// Structured exhaustion report: which limit, how much was spent when it
/// tripped, and what the limit was. Units depend on the kind — fuel
/// units, elapsed milliseconds, atom count, nesting depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceExhausted {
    /// The exceeded limit.
    pub kind: ResourceKind,
    /// Amount spent when the limit tripped (same unit as `limit`).
    pub spent: u64,
    /// The configured limit.
    pub limit: u64,
}

impl fmt::Display for ResourceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ResourceKind::Fuel => write!(
                f,
                "fuel budget exhausted: {} of {} units spent",
                self.spent, self.limit
            ),
            ResourceKind::Deadline => write!(
                f,
                "deadline exceeded: {} ms elapsed of a {} ms budget",
                self.spent, self.limit
            ),
            ResourceKind::Atoms => write!(
                f,
                "schema too large: {} basis attributes, limit is {}",
                self.spent, self.limit
            ),
            ResourceKind::Depth => write!(
                f,
                "nesting too deep: depth {} exceeds the limit of {}",
                self.spent, self.limit
            ),
        }
    }
}

impl std::error::Error for ResourceExhausted {}

/// What an armed [`FailPoint`] does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return a [`ResourceExhausted`] error with [`ResourceKind::Fuel`],
    /// simulating budget exhaustion at the site.
    ExhaustFuel,
    /// Panic with a recognisable message, simulating a poisoned
    /// computation (exercises the batch APIs' panic isolation).
    Panic,
    /// Panic via `std::panic::panic_any` with a typed [`InjectedPanic`]
    /// payload — *not* a `String` — exercising the batch APIs' handling
    /// of non-string panic payloads.
    PanicPayload,
}

/// The typed (non-`String`) payload thrown by [`FailAction::PanicPayload`].
/// Batch APIs must surface its type name rather than dropping it as an
/// anonymous "non-string panic payload".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The fail-point site that threw.
    pub site: String,
}

/// A fault-injection hook: when a [`Budget`] carries a fail point whose
/// `site` matches the name passed to [`Budget::failpoint`], the action
/// fires — either on every hit or only on the `n`-th.
#[derive(Debug)]
pub struct FailPoint {
    site: String,
    action: FailAction,
    /// Fire only on the hit with this 0-based index, or on every hit
    /// when `None`.
    fire_on: Option<u64>,
    hits: AtomicU64,
}

impl FailPoint {
    /// Fires `action` on every hit of `site`.
    pub fn every(site: impl Into<String>, action: FailAction) -> Self {
        FailPoint {
            site: site.into(),
            action,
            fire_on: None,
            hits: AtomicU64::new(0),
        }
    }

    /// Fires `action` only on the `n`-th hit of `site` (0-based); other
    /// hits pass through untouched.
    pub fn nth(site: impl Into<String>, n: u64, action: FailAction) -> Self {
        FailPoint {
            site: site.into(),
            action,
            fire_on: Some(n),
            hits: AtomicU64::new(0),
        }
    }

    /// The site name this fail point is armed at.
    pub fn site(&self) -> &str {
        &self.site
    }
}

/// The message carried by panics injected via [`FailAction::Panic`];
/// batch APIs surface it in their per-item error.
pub const INJECTED_PANIC: &str = "injected fault: simulated worker panic";

/// How often (in charges) the wall clock is consulted when a deadline is
/// set. Sampling keeps `Instant::now` off the per-step hot path while
/// bounding the overshoot to `DEADLINE_STRIDE` steps past the deadline.
const DEADLINE_STRIDE: u64 = 64;

/// A resource budget shared by a computation (and, for batch APIs, by
/// all its workers — limits are global to the budget, not per worker).
///
/// ```
/// use nalist_guard::{Budget, ResourceKind};
///
/// let b = Budget::unlimited().with_fuel(2);
/// assert!(b.charge(1).is_ok());
/// assert!(b.charge(1).is_ok());
/// let err = b.charge(1).unwrap_err();
/// assert_eq!(err.kind, ResourceKind::Fuel);
/// assert_eq!(err.limit, 2);
/// ```
#[derive(Debug, Default)]
pub struct Budget {
    fuel: Option<u64>,
    deadline: Option<Instant>,
    /// Total deadline window in ms (for error reporting only).
    window_ms: u64,
    started: Option<Instant>,
    max_atoms: Option<u64>,
    max_depth: Option<u64>,
    failpoints: Vec<FailPoint>,
    spent: AtomicU64,
}

impl Budget {
    /// A budget with no limits: every check passes, `charge` only counts.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps the abstract work counter at `fuel` units.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Sets a wall-clock deadline `window` from now.
    #[must_use]
    pub fn with_deadline_in(mut self, window: Duration) -> Self {
        let now = Instant::now();
        self.started = Some(now);
        self.deadline = Some(now + window);
        self.window_ms = window.as_millis().min(u128::from(u64::MAX)) as u64;
        self
    }

    /// Caps the number of basis attributes (atoms) a schema may have.
    #[must_use]
    pub fn with_max_atoms(mut self, n: u64) -> Self {
        self.max_atoms = Some(n);
        self
    }

    /// Caps attribute-nesting depth.
    #[must_use]
    pub fn with_max_depth(mut self, d: u64) -> Self {
        self.max_depth = Some(d);
        self
    }

    /// Arms a fault-injection point (chaos testing).
    #[must_use]
    pub fn with_failpoint(mut self, fp: FailPoint) -> Self {
        self.failpoints.push(fp);
        self
    }

    /// Fuel spent so far (monotone, shared across workers).
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The configured atom cap, if any.
    pub fn max_atoms(&self) -> Option<u64> {
        self.max_atoms
    }

    /// The configured depth cap, if any.
    pub fn max_depth(&self) -> Option<u64> {
        self.max_depth
    }

    /// Milliseconds elapsed since the deadline window opened.
    fn elapsed_ms(&self) -> u64 {
        self.started.map_or(0, |s| {
            s.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
        })
    }

    /// Records `units` of work and fails if any limit has been reached.
    ///
    /// This is the one call governed loops make per step. The deadline is
    /// sampled every `DEADLINE_STRIDE` charges (and on the first), so a
    /// loop overruns its deadline by at most that many steps.
    pub fn charge(&self, units: u64) -> Result<(), ResourceExhausted> {
        let before = self.spent.fetch_add(units, Ordering::Relaxed);
        let spent = before + units;
        if let Some(fuel) = self.fuel {
            if spent > fuel {
                return Err(ResourceExhausted {
                    kind: ResourceKind::Fuel,
                    spent,
                    limit: fuel,
                });
            }
        }
        if self.deadline.is_some()
            && (before / DEADLINE_STRIDE != spent / DEADLINE_STRIDE || before == 0)
        {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Checks only the wall clock — for sites that do a large amount of
    /// work per step and want an explicit check.
    pub fn check_deadline(&self) -> Result<(), ResourceExhausted> {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(ResourceExhausted {
                    kind: ResourceKind::Deadline,
                    spent: self.elapsed_ms(),
                    limit: self.window_ms,
                });
            }
        }
        Ok(())
    }

    /// Fails if a schema with `atoms` basis attributes exceeds the cap.
    pub fn check_atoms(&self, atoms: usize) -> Result<(), ResourceExhausted> {
        match self.max_atoms {
            Some(limit) if atoms as u64 > limit => Err(ResourceExhausted {
                kind: ResourceKind::Atoms,
                spent: atoms as u64,
                limit,
            }),
            _ => Ok(()),
        }
    }

    /// Fails if nesting depth `depth` exceeds the cap.
    pub fn check_depth(&self, depth: usize) -> Result<(), ResourceExhausted> {
        match self.max_depth {
            Some(limit) if depth as u64 > limit => Err(ResourceExhausted {
                kind: ResourceKind::Depth,
                spent: depth as u64,
                limit,
            }),
            _ => Ok(()),
        }
    }

    /// Fault-injection site marker. A no-op unless this budget carries a
    /// matching [`FailPoint`], in which case the armed action fires:
    /// [`FailAction::ExhaustFuel`] returns an error,
    /// [`FailAction::Panic`] panics with [`INJECTED_PANIC`].
    pub fn failpoint(&self, site: &str) -> Result<(), ResourceExhausted> {
        for fp in &self.failpoints {
            if fp.site != site {
                continue;
            }
            let hit = fp.hits.fetch_add(1, Ordering::Relaxed);
            let fires = match fp.fire_on {
                None => true,
                Some(n) => n == hit,
            };
            if !fires {
                continue;
            }
            match fp.action {
                FailAction::ExhaustFuel => {
                    return Err(ResourceExhausted {
                        kind: ResourceKind::Fuel,
                        spent: self.spent(),
                        limit: self.fuel.unwrap_or(0),
                    })
                }
                FailAction::Panic => panic!("{INJECTED_PANIC} (site: {site})"),
                FailAction::PanicPayload => std::panic::panic_any(InjectedPanic {
                    site: site.to_owned(),
                }),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(1).unwrap();
        }
        b.check_atoms(usize::MAX).unwrap();
        b.check_depth(usize::MAX).unwrap();
        b.check_deadline().unwrap();
        b.failpoint("anywhere").unwrap();
        assert_eq!(b.spent(), 10_000);
    }

    #[test]
    fn fuel_exhaustion_is_structured() {
        let b = Budget::unlimited().with_fuel(5);
        for _ in 0..5 {
            b.charge(1).unwrap();
        }
        let e = b.charge(1).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Fuel);
        assert_eq!(e.spent, 6);
        assert_eq!(e.limit, 5);
        assert!(e.to_string().contains("fuel"));
    }

    #[test]
    fn deadline_trips_within_a_stride() {
        let b = Budget::unlimited().with_deadline_in(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        let mut tripped = None;
        for i in 0..=DEADLINE_STRIDE {
            if let Err(e) = b.charge(1) {
                tripped = Some((i, e));
                break;
            }
        }
        let (steps, e) = tripped.expect("deadline must trip within one stride");
        assert!(steps <= DEADLINE_STRIDE);
        assert_eq!(e.kind, ResourceKind::Deadline);
        assert!(e.to_string().contains("deadline"));
    }

    #[test]
    fn atom_and_depth_caps() {
        let b = Budget::unlimited().with_max_atoms(10).with_max_depth(3);
        b.check_atoms(10).unwrap();
        let e = b.check_atoms(11).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Atoms);
        b.check_depth(3).unwrap();
        let e = b.check_depth(4).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Depth);
        assert_eq!((e.spent, e.limit), (4, 3));
    }

    #[test]
    fn failpoint_exhaust_fires_on_matching_site_only() {
        let b =
            Budget::unlimited().with_failpoint(FailPoint::every("here", FailAction::ExhaustFuel));
        b.failpoint("elsewhere").unwrap();
        let e = b.failpoint("here").unwrap_err();
        assert_eq!(e.kind, ResourceKind::Fuel);
    }

    #[test]
    fn failpoint_nth_fires_once() {
        let b = Budget::unlimited().with_failpoint(FailPoint::nth("s", 1, FailAction::ExhaustFuel));
        b.failpoint("s").unwrap(); // hit 0
        assert!(b.failpoint("s").is_err()); // hit 1 fires
        b.failpoint("s").unwrap(); // hit 2 passes again
    }

    #[test]
    fn failpoint_panic_panics_with_marker() {
        let b = Budget::unlimited().with_failpoint(FailPoint::every("p", FailAction::Panic));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.failpoint("p")));
        let payload = r.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload is a formatted String");
        assert!(msg.contains(INJECTED_PANIC));
    }

    #[test]
    fn failpoint_panic_payload_throws_typed_payload() {
        let b = Budget::unlimited().with_failpoint(FailPoint::every("p", FailAction::PanicPayload));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.failpoint("p")));
        let payload = r.unwrap_err();
        let injected = payload
            .downcast_ref::<InjectedPanic>()
            .expect("panic payload is the typed InjectedPanic struct");
        assert_eq!(injected.site, "p");
    }

    #[test]
    fn budget_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Budget>();
    }
}
