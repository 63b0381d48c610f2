//! End-to-end walkthrough of the JSON API over a real socket: every
//! endpoint, every documented error status, and the metrics document.

mod common;

use std::net::SocketAddr;
use std::sync::Arc;

use common::request;
use nalist_obs::MetricsRecorder;
use nalist_serve::{Server, ServerConfig};
use nalist_types::json::parse as parse_json;

fn boot() -> (Server, SocketAddr) {
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let srv = nalist_serve::server::start(&cfg, Arc::new(MetricsRecorder::new())).expect("start");
    let addr = srv.local_addr();
    (srv, addr)
}

#[test]
fn full_api_walkthrough() {
    let (srv, addr) = boot();

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"tenants\": 0"), "{body}");

    // Tenant creation: 201, then 409 on the duplicate, 400 on a bad name.
    let create = r#"{"schema": "L(A, B, C)", "deps": ["L(A) -> L(B)"]}"#;
    let (status, body) = request(addr, "POST", "/v1/t1/create", Some(create));
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"sigma\": 1"), "{body}");
    let (status, _) = request(addr, "POST", "/v1/t1/create", Some(create));
    assert_eq!(status, 409);
    let (status, _) = request(addr, "POST", "/v1/bad!name/create", Some(create));
    assert_eq!(status, 400);

    // Single queries.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) ->> L(B)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": true"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": false"), "{body}");
    let (status, _) = request(addr, "POST", "/v1/t1/query", Some(r#"{"query": "junk"}"#));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/v1/t1/query", Some("{}"));
    assert_eq!(status, 400);

    // Batch queries go through the batch planner and come back in order.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"queries": ["L(A) -> L(B)", "L(B) -> L(A)", "L(A, B) -> L(A)"]}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("[true, false, true]"), "{body}");

    // Edits: add changes answers, removing an absent dependency is 400
    // (and must not journal), removing a present one restores the world.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/edit",
        Some(r#"{"op": "add", "dep": "L(B) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"adds\": 1"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": true"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/edit",
        Some(r#"{"op": "remove", "dep": "L(A) ->> L(C)"}"#),
    );
    assert_eq!(status, 400);
    assert!(body.contains("not in Σ"), "{body}");
    let (status, _) = request(
        addr,
        "POST",
        "/v1/t1/edit",
        Some(r#"{"edits": [{"op": "remove", "dep": "L(B) -> L(C)"}]}"#),
    );
    assert_eq!(status, 200);
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": false"), "{body}");

    // Certificates, both verdicts; the dependency rides percent-encoded.
    let (status, body) = request(addr, "GET", "/v1/t1/cert?dep=L(A)%20-%3E%20L(B)", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": true"), "{body}");
    assert!(body.contains("\"certificate\""), "{body}");
    let (status, body) = request(addr, "GET", "/v1/t1/cert?dep=L(A)%20-%3E%20L(C)", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": false"), "{body}");
    let (status, _) = request(addr, "GET", "/v1/t1/cert", None);
    assert_eq!(status, 400);

    // Σ listing with cache counters: every live entry holds at least its
    // closure word, and the byte count is whole words.
    let (status, body) = request(addr, "GET", "/v1/t1/sigma", None);
    assert_eq!(status, 200);
    assert!(body.contains("L(A) -> L(B)"), "{body}");
    let cache = parse_json(&body).expect("sigma is valid JSON");
    let cache = cache.get("cache").expect("cache object");
    let field = |k| cache.get(k).and_then(|v| v.as_usize()).expect(k);
    assert!(field("entries") >= 1, "{body}");
    assert!(field("bytes") >= 8 * field("entries"), "{body}");
    assert_eq!(field("bytes") % 8, 0, "{body}");

    // The metrics document is valid, schema-versioned JSON.
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let doc = parse_json(&body).expect("metrics is valid JSON");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_usize()),
        Some(2)
    );
    let requests = doc
        .get("counters")
        .and_then(|c| c.get("requests"))
        .and_then(|v| v.as_usize())
        .expect("requests counter");
    assert!(requests > 0, "{requests}");

    // Routing errors: 404 for unknown things, 405 for wrong verbs.
    let (status, _) = request(addr, "GET", "/nowhere", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/t1/unknownaction", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST", "/v1/ghost/query", Some(r#"{"query": "x"}"#));
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/t1/query", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "POST", "/healthz", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/v1/t1/create", None);
    assert_eq!(status, 405);

    srv.shutdown();
}

/// A 32-name side over a 64-component record has C(64, 32) =
/// 1832624140942590534 resolutions. `/reload` lints the posted file under
/// the tenant write lock, so its ambiguity diagnostic — hint included —
/// must come from the counting DP, not from enumerating resolutions: the
/// request answers 400 with the L007 report promptly and applies nothing.
#[test]
fn reload_reports_an_astronomical_ambiguity_promptly() {
    let (srv, addr) = boot();
    let schema = format!("W({})", vec!["A"; 64].join(", "));
    let create = format!(r#"{{"schema": "{schema}", "deps": []}}"#);
    let (status, body) = request(addr, "POST", "/v1/w/create", Some(&create));
    assert_eq!(status, 201, "{body}");

    let side = format!("W({})", vec!["A"; 32].join(", "));
    let reload = format!(r#"{{"deps": "{side} -> λ\n"}}"#);
    let started = std::time::Instant::now();
    let (status, body) = request(addr, "POST", "/v1/w/reload", Some(&reload));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "took {:?}",
        started.elapsed()
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"L007\""), "{body}");
    assert!(
        body.contains("1832624140942590534 distinct resolutions"),
        "{body}"
    );
    let first = format!(
        "W({}, {})",
        vec!["A"; 32].join(", "),
        vec!["λ"; 32].join(", ")
    );
    assert!(body.contains(&first), "{body}");

    let (status, body) = request(addr, "GET", "/v1/w/sigma", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"sigma\": []"), "{body}");
    srv.shutdown();
}

/// A capped recorder keeps its first spans and counts the rest: the
/// `/metrics` document keeps its `"spans": [` array, bounded by the cap,
/// and reports what it left out in `spans_dropped`.
#[test]
fn capped_span_buffer_bounds_the_metrics_document() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let rec = Arc::new(MetricsRecorder::with_span_cap(4));
    let srv = nalist_serve::server::start(&cfg, rec).expect("start");
    let addr = srv.local_addr();
    let create = r#"{"schema": "L(A, B, C)", "deps": ["L(A) -> L(B)"]}"#;
    let (status, body) = request(addr, "POST", "/v1/t/create", Some(create));
    assert_eq!(status, 201, "{body}");
    for _ in 0..10 {
        let (status, _) = request(
            addr,
            "POST",
            "/v1/t/query",
            Some(r#"{"query": "L(A) -> L(B)"}"#),
        );
        assert_eq!(status, 200);
    }
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"spans\": ["), "{body}");
    let doc = parse_json(&body).expect("metrics is valid JSON");
    let spans = doc.get("spans").and_then(|s| s.as_arr()).expect("spans");
    assert_eq!(spans.len(), 4);
    let dropped = doc
        .get("counters")
        .and_then(|c| c.get("spans_dropped"))
        .and_then(|v| v.as_usize())
        .expect("spans_dropped counter");
    // create leaves two spans (algebra build, tenant) and the first
    // query fills the buffer; every later query's cache lookup went
    // uncollected
    assert!(dropped >= 9, "{dropped}");
    srv.shutdown();
}

/// An `/edit` batch is validated whole before anything is journaled:
/// removes see the batch's earlier edits, and a batch with a bad edit
/// anywhere answers 400 with its valid edits neither applied nor
/// journaled, so `/sigma` reads the same before and after — also after
/// a restart on the same wal-dir.
#[test]
fn failed_edit_batch_changes_nothing() {
    let dir = std::env::temp_dir().join(format!("nalist-serve-edit-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create wal dir");
    let boot = || {
        let cfg = ServerConfig {
            workers: 2,
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let srv =
            nalist_serve::server::start(&cfg, Arc::new(MetricsRecorder::new())).expect("start");
        let addr = srv.local_addr();
        (srv, addr)
    };
    let sigma = |addr| {
        let (status, body) = request(addr, "GET", "/v1/t/sigma", None);
        assert_eq!(status, 200, "{body}");
        let doc = parse_json(&body).expect("sigma is valid JSON");
        format!("{:?}", doc.get("sigma").expect("sigma listing"))
    };
    let edit = |addr, body: &str| request(addr, "POST", "/v1/t/edit", Some(body));

    let (srv, addr) = boot();
    let create = r#"{"schema": "L(A, B, C)", "deps": ["L(A) -> L(B)"]}"#;
    let (status, body) = request(addr, "POST", "/v1/t/create", Some(create));
    assert_eq!(status, 201, "{body}");
    // a remove may take what an earlier edit of its batch added
    let (status, body) = edit(
        addr,
        r#"{"edits": [{"op": "add", "dep": "L(B) -> L(C)"}, {"op": "remove", "dep": "L(B) -> L(C)"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let before = sigma(addr);

    for (batch, why) in [
        (
            r#"{"edits": [{"op": "add", "dep": "L(B) -> L(C)"}, {"op": "add", "dep": "L(B) ->"}]}"#,
            "edits[1]",
        ),
        (
            r#"{"edits": [{"op": "add", "dep": "L(B) -> L(C)"}, {"op": "swap", "dep": "L(B) -> L(C)"}]}"#,
            "unknown op",
        ),
        (
            r#"{"edits": [{"op": "remove", "dep": "L(A) -> L(B)"}, {"op": "remove", "dep": "L(A) -> L(B)"}]}"#,
            "not in Σ",
        ),
    ] {
        let (status, body) = edit(addr, batch);
        assert_eq!(status, 400, "{batch}: {body}");
        assert!(body.contains(why), "{batch}: {body}");
        assert_eq!(sigma(addr), before, "{batch} changed Σ");
    }
    srv.shutdown();

    let (srv, addr) = boot();
    assert_eq!(sigma(addr), before, "a failed batch reached the log");
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
