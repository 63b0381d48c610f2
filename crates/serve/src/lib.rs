//! # nalist-serve
//!
//! A zero-dependency multi-tenant reasoning service: the long-lived
//! daemon behind `nalist serve`, turning the library's membership
//! machinery (Algorithm 5.1 of Hartmann & Link 2004) into a wire
//! protocol.
//!
//! The stack is deliberately boring — blocking `std::net` sockets, a
//! fixed worker-thread pool, hand-rolled HTTP/1.1 — because every
//! exotic ingredient is already supplied by the crates underneath:
//!
//! * **many named schemas** — one warm [`Reasoner`] per tenant behind
//!   an `RwLock` ([`tenant`]): queries share a read lock, Σ edits take
//!   the write lock, and each tenant is an independent closure system
//!   whose cache no other tenant can touch;
//! * **admission control** — a bounded accept queue plus per-request
//!   [`Budget`]s ([`server`]): overload answers `503`/`429` with
//!   structured JSON instead of unbounded latency, and a panicking
//!   request is contained by `catch_unwind` without taking its worker
//!   down;
//! * **durability** — tenant edits are journaled to a write-ahead log
//!   *before* they are applied ([`tenant`]), so a `SIGTERM`ed daemon
//!   always leaves a recoverable `snapshot + WAL` pair;
//! * **observability** — the server reports through [`nalist_obs`]
//!   counters and histograms; the spans the reasoner opens per request
//!   land in a buffer capped at [`server::SPAN_CAP`] (later ones only
//!   count in `spans_dropped`), so the daemon's memory and its
//!   `GET /metrics` document — the same schema-versioned JSON
//!   `--metrics` writes — stay bounded.
//!
//! [`loadgen`] is the matching open-loop traffic generator: Poisson
//! arrivals, zipf-skewed query pools, mixed edit/query traffic — the
//! measurement half of the E-SERVE experiment.
//!
//! [`replica`] adds leader/follower replication on top: a follower
//! bootstraps each tenant from a shipped snapshot, tails the leader's
//! WAL through the same replay primitive crash recovery uses (state is
//! bit-identical by construction), serves reads locally and rejects
//! writes with `421` plus a pointer at the leader.
//!
//! [`Reasoner`]: nalist_membership::Reasoner
//! [`Budget`]: nalist_guard::Budget

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod loadgen;
pub mod replica;
pub mod server;
pub mod tenant;

pub use api::{ApiError, ServiceState};
pub use http::{Request, Response};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use replica::{start_follower, Follower, FollowerConfig, ReplStatus};
pub use server::{Server, ServerConfig};
pub use tenant::{Registry, Tenant};
