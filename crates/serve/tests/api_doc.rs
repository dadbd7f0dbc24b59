//! `docs/API.md` honesty test: every endpoint, response field, and status
//! code the document claims is exercised against a live socket here, so
//! the API reference cannot drift from the server.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] bodies; a failed step must fail the test"
)]

use nss_serve::{QueryServer, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn api_doc() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/API.md");
    std::fs::read_to_string(&path).expect("docs/API.md exists")
}

fn start(cache_bytes: usize) -> QueryServer {
    QueryServer::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        shards: 4,
        cache_bytes,
        quad_points: 32,
    })
    .expect("start server")
}

/// One request over a fresh connection; returns (status, body).
fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Every path named in the doc is served, and every field the doc's
/// response schemas show appears in a live response.
#[test]
fn documented_endpoints_and_fields_are_live() {
    let doc = api_doc();
    let server = start(256 << 20);
    let addr = server.addr();

    for path in [
        "/v1/optimal-p",
        "/v1/reachability",
        "/v1/batch",
        "/metrics",
        "/metrics.json",
        "/healthz",
    ] {
        assert!(doc.contains(path), "API.md no longer documents {path}");
    }

    let (status, body) = get(
        addr,
        "/v1/optimal-p?rho=40&metric=reach-at-latency&constraint=5",
    );
    assert_eq!(status, 200, "{body}");
    for field in [
        "\"rho\"",
        "\"metric\"",
        "\"constraint\"",
        "\"feasible\"",
        "\"p\"",
        "\"value\"",
        "\"cache\"",
    ] {
        let key = field.trim_matches('"');
        assert!(body.contains(field), "optimal-p body lost {field}: {body}");
        assert!(
            doc.contains(key),
            "API.md does not mention optimal-p field {field}"
        );
    }

    let (status, body) = get(addr, "/v1/reachability?rho=40&p=0.2");
    assert_eq!(status, 200, "{body}");
    for field in [
        "\"p_requested\"",
        "\"n_total\"",
        "\"final_reach\"",
        "\"phases\"",
        "\"phase\"",
        "\"reach\"",
        "\"broadcasts\"",
    ] {
        let key = field.trim_matches('"');
        assert!(
            body.contains(field),
            "reachability body lost {field}: {body}"
        );
        assert!(
            doc.contains(key),
            "API.md does not mention reachability field {field}"
        );
    }

    let (status, body) = post(
        addr,
        "/v1/batch",
        r#"{"queries":[{"rho":40,"metric":"reach-at-latency","constraint":5}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"results\":["), "{body}");
    assert!(
        doc.contains("\"results\""),
        "API.md does not show the batch envelope"
    );

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
}

/// Every error code in the doc's status table is producible, with the
/// documented trigger.
#[test]
fn documented_status_codes_are_real() {
    let doc = api_doc();
    for code in ["400", "404", "405", "413", "503"] {
        assert!(
            doc.contains(&format!("`{code}`")),
            "API.md status table lost {code}"
        );
    }

    let server = start(256 << 20);
    let addr = server.addr();

    // 400: out-of-domain parameter, JSON error envelope.
    let (status, body) = get(
        addr,
        "/v1/optimal-p?rho=-1&metric=reach-at-latency&constraint=5",
    );
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("\"error\"") && body.contains("\"status\":400"),
        "{body}"
    );

    // 400: unknown metric names the valid ones.
    let (status, body) = get(addr, "/v1/optimal-p?rho=40&metric=nope&constraint=5");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("reach-at-latency"), "{body}");

    // 404: unknown path lists the GET paths, as documented.
    let (status, body) = get(addr, "/v1/nope");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("/v1/optimal-p"), "{body}");

    // 405: wrong method names the allowed ones.
    let (status, body) = post(addr, "/v1/optimal-p", "{}");
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("GET"), "{body}");

    // 413: batch over the documented 4096-query cap.
    let one = r#"{"rho":40,"metric":"reach-at-latency","constraint":5}"#;
    let body_4097 = format!(
        "{{\"queries\":[{}]}}",
        std::iter::repeat_n(one, 4097).collect::<Vec<_>>().join(",")
    );
    // The cap (4096) must appear in the doc and in the live error.
    assert!(doc.contains("4096"), "API.md lost the batch cap");
    let (status, body) = post(addr, "/v1/batch", &body_4097);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("4096"), "{body}");
}

/// 503 fires when a sweep cannot be admitted, and the message tells the
/// operator to raise `--cache-bytes`, exactly as documented.
#[test]
fn cache_exhaustion_503_matches_the_doc() {
    let doc = api_doc();
    assert!(doc.contains("--cache-bytes"), "API.md lost the 503 remedy");
    let server = start(1024); // far below one sweep's footprint
    let (status, body) = get(
        server.addr(),
        "/v1/optimal-p?rho=40&metric=reach-at-latency&constraint=5",
    );
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("--cache-bytes"), "{body}");
}
