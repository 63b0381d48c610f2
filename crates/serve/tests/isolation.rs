//! Multi-tenant isolation and serve-path parity, property-tested.
//!
//! Invariants, per random seed:
//!
//! 1. **Parity**: every answer the HTTP path gives (single and batch
//!    queries) is identical to a direct [`Reasoner`] holding the same
//!    Σ — the service is a transport, never a different semantics.
//! 2. **Isolation**: edits and queries against tenant A change nothing
//!    observable about tenant B: not its Σ listing, not its answers,
//!    and not its cache (no cross-tenant eviction).

mod common;

use std::net::SocketAddr;
use std::sync::Arc;

use common::request;
use nalist_guard::Budget;
use nalist_membership::Reasoner;
use nalist_obs::MetricsRecorder;
use nalist_serve::ServerConfig;
use nalist_types::json::{parse as parse_json, Json};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Up to `want` pairwise-distinct rendered dependencies over a fresh
/// random schema. Rendering is canonical per compiled dependency, so
/// string-distinct implies compiled-distinct (removals stay unambiguous).
fn schema_and_pool(rng: &mut StdRng, want: usize) -> (String, Vec<String>) {
    let atoms = rng.gen_range(4..=7);
    let n = nalist_gen::attr_with_atoms(rng, atoms);
    let alg = nalist_algebra::Algebra::new(&n);
    let mut pool: Vec<String> = Vec::new();
    for _ in 0..(want * 8) {
        if pool.len() == want {
            break;
        }
        let dep = nalist_gen::random_dep(rng, &alg, 0.3, 0.3).render(&alg);
        if !pool.contains(&dep) {
            pool.push(dep);
        }
    }
    (n.to_string(), pool)
}

fn serve_query(addr: SocketAddr, tenant: &str, dep: &str) -> bool {
    let (status, body) = request(
        addr,
        "POST",
        &format!("/v1/{tenant}/query"),
        Some(&format!(
            "{{\"query\": {}}}",
            nalist_types::json::escape(dep)
        )),
    );
    assert_eq!(status, 200, "query {dep}: {body}");
    parse_json(&body)
        .expect("valid JSON")
        .get("implied")
        .and_then(|v| v.as_bool())
        .expect("implied field")
}

fn serve_batch(addr: SocketAddr, tenant: &str, deps: &[String]) -> Vec<bool> {
    let items: Vec<String> = deps.iter().map(|d| nalist_types::json::escape(d)).collect();
    let (status, body) = request(
        addr,
        "POST",
        &format!("/v1/{tenant}/query"),
        Some(&format!("{{\"queries\": [{}]}}", items.join(", "))),
    );
    assert_eq!(status, 200, "{body}");
    let doc = parse_json(&body).expect("valid JSON");
    let arr = doc
        .get("verdicts")
        .and_then(Json::as_arr)
        .expect("verdicts");
    arr.iter()
        .map(|v| v.as_bool().expect("boolean verdict"))
        .collect()
}

fn serve_edit(addr: SocketAddr, tenant: &str, op: &str, dep: &str) {
    let (status, body) = request(
        addr,
        "POST",
        &format!("/v1/{tenant}/edit"),
        Some(&format!(
            "{{\"op\": \"{op}\", \"dep\": {}}}",
            nalist_types::json::escape(dep)
        )),
    );
    assert_eq!(status, 200, "{op} {dep}: {body}");
}

fn sigma_body(addr: SocketAddr, tenant: &str) -> String {
    let (status, body) = request(addr, "GET", &format!("/v1/{tenant}/sigma"), None);
    assert_eq!(status, 200, "{body}");
    body
}

/// The Σ-listing part of the sigma document (cache counters stripped).
fn sigma_part(body: &str) -> &str {
    &body[body.find("\"sigma\"").expect("sigma")..body.find("\"cache\"").expect("cache")]
}

fn cache_evicted(body: &str) -> usize {
    parse_json(body)
        .expect("valid JSON")
        .get("cache")
        .and_then(|c| c.get("evicted"))
        .and_then(|v| v.as_usize())
        .expect("evicted counter")
}

fn create_tenant(addr: SocketAddr, tenant: &str, schema: &str, deps: &[String]) {
    let items: Vec<String> = deps.iter().map(|d| nalist_types::json::escape(d)).collect();
    let (status, body) = request(
        addr,
        "POST",
        &format!("/v1/{tenant}/create"),
        Some(&format!(
            "{{\"schema\": {}, \"deps\": [{}]}}",
            nalist_types::json::escape(schema),
            items.join(", ")
        )),
    );
    assert_eq!(status, 201, "{body}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn tenant_isolation_and_serve_parity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (schema_a, pool_a) = schema_and_pool(&mut rng, 12);
        let (schema_b, pool_b) = schema_and_pool(&mut rng, 8);
        prop_assert!(pool_a.len() >= 4 && pool_b.len() >= 2);
        let seed_a = pool_a.len() / 2;
        let seed_b = pool_b.len() / 2;

        let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
        let srv = nalist_serve::server::start(&cfg, Arc::new(MetricsRecorder::new()))
            .expect("start");
        let addr = srv.local_addr();
        create_tenant(addr, "a", &schema_a, &pool_a[..seed_a]);
        create_tenant(addr, "b", &schema_b, &pool_b[..seed_b]);

        // Direct mirrors with the same Σ.
        let n_a = nalist_types::parser::parse_attr(&schema_a).expect("schema a");
        let n_b = nalist_types::parser::parse_attr(&schema_b).expect("schema b");
        let mut mirror_a = Reasoner::new(&n_a);
        for d in &pool_a[..seed_a] { mirror_a.add_str(d).expect("seed a"); }
        let mut mirror_b = Reasoner::new(&n_b);
        for d in &pool_b[..seed_b] { mirror_b.add_str(d).expect("seed b"); }

        // Warm tenant B and snapshot everything observable about it.
        for d in &pool_b {
            let direct = mirror_b.implies_str(d, &Budget::unlimited()).expect("direct b");
            prop_assert_eq!(serve_query(addr, "b", d), direct, "b parity on {}", d);
        }
        let b_before = sigma_body(addr, "b");
        let b_answers_before: Vec<bool> =
            pool_b.iter().map(|d| serve_query(addr, "b", d)).collect();
        let b_evicted_before = cache_evicted(&sigma_body(addr, "b"));

        // Churn tenant A: add the second half, query everything (single
        // AND batch must agree with the mirror), then remove a couple.
        for d in &pool_a[seed_a..] {
            serve_edit(addr, "a", "add", d);
            mirror_a.add_str(d).expect("churn add");
        }
        let direct_a: Vec<bool> = pool_a
            .iter()
            .map(|d| mirror_a.implies_str(d, &Budget::unlimited()).expect("direct a"))
            .collect();
        for (d, want) in pool_a.iter().zip(&direct_a) {
            prop_assert_eq!(serve_query(addr, "a", d), *want, "a parity on {}", d);
        }
        prop_assert_eq!(serve_batch(addr, "a", &pool_a), direct_a.clone());
        for d in pool_a.iter().skip(seed_a).take(2) {
            serve_edit(addr, "a", "remove", d);
            mirror_a.remove_str(d).expect("churn remove");
        }
        let direct_a_after: Vec<bool> = pool_a
            .iter()
            .map(|d| mirror_a.implies_str(d, &Budget::unlimited()).expect("direct a"))
            .collect();
        prop_assert_eq!(serve_batch(addr, "a", &pool_a), direct_a_after);

        // Tenant B saw none of it: same Σ, same answers, no evictions.
        let b_after = sigma_body(addr, "b");
        prop_assert_eq!(sigma_part(&b_before), sigma_part(&b_after));
        let b_answers_after: Vec<bool> =
            pool_b.iter().map(|d| serve_query(addr, "b", d)).collect();
        prop_assert_eq!(b_answers_before, b_answers_after);
        prop_assert_eq!(b_evicted_before, cache_evicted(&sigma_body(addr, "b")));

        srv.shutdown();
    }
}
