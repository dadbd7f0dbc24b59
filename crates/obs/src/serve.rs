//! `nss-obs::serve` — a dependency-free Prometheus scrape endpoint.
//!
//! A [`MetricsServer`] binds a [`std::net::TcpListener`] on a background
//! thread and answers three routes from the **global** metric registry:
//!
//! | route           | content                                          |
//! |-----------------|--------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition ([`crate::export::prometheus`]) |
//! | `/metrics.json` | the JSON dump ([`crate::export::json`])          |
//! | `/healthz`      | `ok` (liveness)                                  |
//!
//! Start it with `repro --metrics-addr 127.0.0.1:9187` and point a
//! Prometheus scraper — or `curl` — at it while a sweep runs. Scrapes are
//! snapshots of live atomics: they never pause or perturb the instrumented
//! hot paths.
//!
//! The server is intentionally minimal: one-shot connections
//! (`Connection: close` on every response), GET/HEAD only, one request
//! per connection, connections served sequentially on the accept thread
//! (scrape traffic is one request every few seconds — a thread pool
//! would be pure ceremony). Shutdown is graceful:
//! [`MetricsServer::shutdown`] (also invoked on drop) flags the accept
//! loop and unblocks it with a loopback connection, then joins the
//! thread.
//!
//! Since the `nss-serve` query service landed, the actual HTTP machinery
//! lives in [`crate::http`]; this module is a thin profile over it
//! (`workers = 0`, `keep_alive = false`) plus [`metrics_routes`], which
//! `nss-serve` reuses to mount the identical scrape endpoints next to
//! its query routes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::http::{HttpServer, Response, Router, ServerOptions};

/// Per-connection read/write timeout — a stuck scraper must not wedge the
/// accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Mounts the scrape endpoints — `/metrics`, `/metrics.json`, `/healthz`
/// — onto `router`, all answering from the global registry.
///
/// Shared by [`MetricsServer`] and the `nss-serve` query service so both
/// expose byte-identical scrape routes.
pub fn metrics_routes(router: Router) -> Router {
    router
        .get("/metrics", |_req| Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: crate::export::prometheus(crate::registry::Registry::global()),
        })
        .get("/metrics.json", |_req| {
            Response::json(
                200,
                crate::export::json(crate::registry::Registry::global()),
            )
        })
        .get("/healthz", |_req| Response::text("ok\n"))
}

/// A running scrape server; shuts down gracefully on [`shutdown`]
/// (explicit) or drop.
///
/// [`shutdown`]: MetricsServer::shutdown
#[derive(Debug)]
pub struct MetricsServer {
    inner: HttpServer,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9187"`; port 0 picks a free port —
    /// read it back with [`MetricsServer::addr`]) and starts serving.
    pub fn start(addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
        let inner = HttpServer::start(
            addr,
            Arc::new(metrics_routes(Router::new())),
            ServerOptions {
                workers: 0,
                keep_alive: false,
                io_timeout: IO_TIMEOUT,
                thread_name: "nss-obs-serve".to_string(),
                ..ServerOptions::default()
            },
        )?;
        Ok(MetricsServer { inner })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stops accepting, unblocks the accept loop, and joins the serving
    /// thread. Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// Minimal test/smoke client: GETs `path` from `addr` and returns
/// `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn start_local() -> MetricsServer {
        MetricsServer::start("127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let server = start_local();
        let (status, body) = http_get(server.addr(), "/healthz").expect("scrape");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = http_get(server.addr(), "/nope").expect("scrape");
        assert_eq!(status, 404);
        // The 404 body is part of the pinned wire format: the router must
        // keep listing the scrape routes exactly as the pre-router server
        // did.
        assert_eq!(body, "not found; try /metrics, /metrics.json, /healthz\n");
    }

    #[test]
    fn metrics_routes_serve_both_formats() {
        // The global registry is process-wide: register through the direct
        // API so this works in both feature configurations.
        let reg = crate::registry::Registry::global();
        reg.counter("serve.test.hits").add(7);
        reg.histogram("serve.test.seconds").record(0.125);
        let server = start_local();

        let (status, text) = http_get(server.addr(), "/metrics").expect("scrape");
        assert_eq!(status, 200);
        assert!(text.contains("nss_serve_test_hits"), "{text}");
        assert!(text.contains("# TYPE nss_serve_test_hits counter"));

        let (status, json) = http_get(server.addr(), "/metrics.json").expect("scrape");
        assert_eq!(status, 200);
        let v = crate::jsonval::Json::parse(&json).expect("valid JSON body");
        assert!(
            v.get("counters")
                .and_then(|c| c.get("serve.test.hits"))
                .and_then(crate::jsonval::Json::as_f64)
                .is_some_and(|n| n >= 7.0),
            "{json}"
        );
    }

    #[test]
    fn scrapes_are_live_while_recording() {
        let reg = crate::registry::Registry::global();
        let counter = reg.counter("serve.test.live");
        let server = start_local();
        let addr = server.addr();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let writer_stop = std::sync::Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            while !writer_stop.load(Ordering::Relaxed) {
                counter.inc();
            }
        });
        // On a loaded host all five scrapes can finish before the writer is
        // first scheduled; wait (bounded) for its first increment so the
        // final `last > 0` does not depend on scheduling.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while counter.get() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "writer thread never ran"
            );
            std::thread::yield_now();
        }
        let mut last = 0u64;
        for _ in 0..5 {
            let (status, text) = http_get(addr, "/metrics").expect("scrape mid-run");
            assert_eq!(status, 200);
            let v: u64 = text
                .lines()
                .find(|l| l.starts_with("nss_serve_test_live "))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
                .expect("counter line present");
            assert!(v >= last, "scrapes are monotone: {v} < {last}");
            last = v;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread");
        assert!(last > 0, "writer made progress during scrapes");
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let mut server = start_local();
        let addr = server.addr();
        assert_eq!(http_get(addr, "/healthz").expect("alive").0, 200);
        server.shutdown();
        server.shutdown(); // idempotent
                           // The port no longer answers (connect may succeed briefly on some
                           // platforms' backlog, but a full request must fail).
        let dead = http_get(addr, "/healthz");
        assert!(
            !matches!(dead, Ok((status, _)) if status != 0),
            "server still answering after shutdown: {dead:?}"
        );
    }

    #[test]
    fn post_is_rejected() {
        let server = start_local();
        let mut stream = TcpStream::connect_timeout(&server.addr(), IO_TIMEOUT).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        assert!(response.ends_with("GET only\n"), "{response}");
    }

    #[test]
    fn response_headers_are_byte_identical_to_pre_router_server() {
        let server = start_local();
        let mut stream = TcpStream::connect_timeout(&server.addr(), IO_TIMEOUT).expect("connect");
        stream.set_read_timeout(Some(IO_TIMEOUT)).expect("timeout");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert_eq!(
            response,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 3\r\nConnection: close\r\n\r\nok\n"
        );
    }
}
