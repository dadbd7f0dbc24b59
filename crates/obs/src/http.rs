//! Minimal reusable HTTP/1.1 machinery: request parsing, a method+path
//! [`Router`], and a threaded [`HttpServer`].
//!
//! Extracted from the original fixed-route scrape endpoint in
//! [`crate::serve`] so the workspace has exactly **one** hand-rolled HTTP
//! server. Two consumers with very different profiles share it:
//!
//! * [`crate::serve::MetricsServer`] — one scrape every few seconds,
//!   served inline on the accept thread, one request per connection
//!   (`workers = 0`, `keep_alive = false`). Its responses are pinned
//!   byte-for-byte by socket tests.
//! * `nss-serve` — tens of thousands of queries per second over
//!   persistent connections (`workers = N`, `keep_alive = true`), with
//!   `POST` bodies for batch queries.
//!
//! The design stays deliberately small: blocking I/O, a fixed worker
//! pool fed by one accept thread over an [`std::sync::mpsc`] channel,
//! one in-flight request per connection (no pipelining), `Content-Length`
//! bodies only (no chunked encoding). Read/write deadlines and the
//! HEAD-vs-GET body suppression each live in exactly one place —
//! previously the scrape endpoint repeated them per method arm.

use crate::sync::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Hard cap on request-head bytes (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8192;

/// A parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Upper-cased method (`GET`, `HEAD`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, without the query string (`/v1/optimal-p`).
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `key`, percent-decoded (`+` becomes a
    /// space). The first occurrence wins; `None` when absent.
    ///
    /// A key present without `=` decodes to `Some("")`, so handlers can
    /// distinguish `?flag` from a missing parameter.
    pub fn query_param(&self, key: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k) == key).then(|| percent_decode(v))
        })
    }
}

/// Decodes `%XX` escapes and `+` (space) in a path or query component;
/// malformed escapes pass through verbatim rather than being rejected.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response: status code, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (only the codes known to [`status_line`] are used).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body (suppressed on the wire for `HEAD` requests; the
    /// `Content-Length` header still reflects it).
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A JSON response with the given status code.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response with the given status code.
    pub fn status_text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }
}

/// The status line fragment (`code reason`) for every code this server
/// emits; unknown codes render as `500 Internal Server Error`.
pub fn status_line(status: u16) -> &'static str {
    match status {
        200 => "200 OK",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        413 => "413 Payload Too Large",
        503 => "503 Service Unavailable",
        _ => "500 Internal Server Error",
    }
}

type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// A method + exact-path router.
///
/// `GET` routes also answer `HEAD` (the body is suppressed at write time,
/// not by the handler). Unknown paths get a `404` listing the registered
/// `GET` paths; known paths hit with the wrong method get a `405` naming
/// the allowed methods — reproducing the pre-extraction scrape endpoint's
/// responses byte for byte.
#[derive(Default)]
pub struct Router {
    routes: Vec<(&'static str, &'static str, Box<Handler>)>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.paths())
            .finish()
    }
}

impl Router {
    /// An empty router (every request 404s).
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers a handler for `GET` (and `HEAD`) on an exact path.
    pub fn get(
        mut self,
        path: &'static str,
        f: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(("GET", path, Box::new(f)));
        self
    }

    /// Registers a handler for `POST` on an exact path.
    pub fn post(
        mut self,
        path: &'static str,
        f: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(("POST", path, Box::new(f)));
        self
    }

    /// Every registered `(method, path)` pair, in registration order.
    pub fn paths(&self) -> Vec<(&'static str, &'static str)> {
        self.routes.iter().map(|(m, p, _)| (*m, *p)).collect()
    }

    /// Dispatches a request: the matching handler, `404` for unknown
    /// paths, `405` for known paths with the wrong method.
    pub fn route(&self, req: &Request) -> Response {
        let method = if req.method == "HEAD" {
            "GET"
        } else {
            req.method.as_str()
        };
        let mut path_seen = false;
        for (m, p, f) in &self.routes {
            if *p == req.path {
                path_seen = true;
                if *m == method {
                    return f(req);
                }
            }
        }
        if path_seen {
            let allowed: Vec<&str> = self
                .routes
                .iter()
                .filter(|(_, p, _)| *p == req.path)
                .map(|(m, _, _)| *m)
                .collect();
            Response::status_text(405, format!("{} only\n", allowed.join(" or ")))
        } else {
            let gets: Vec<&str> = self
                .routes
                .iter()
                .filter(|(m, _, _)| *m == "GET")
                .map(|(_, p, _)| *p)
                .collect();
            Response::status_text(404, format!("not found; try {}\n", gets.join(", ")))
        }
    }
}

/// Tuning knobs for an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads handling connections; `0` serves inline on the
    /// accept thread (the scrape-endpoint profile).
    pub workers: usize,
    /// Serve multiple requests per connection until the client closes or
    /// sends `Connection: close`. When `false` every response carries
    /// `Connection: close` and the socket is closed after one exchange.
    ///
    /// A worker is tied to its connection for the connection's lifetime,
    /// so with keep-alive enabled, size `workers` at or above the
    /// expected number of concurrent client connections.
    pub keep_alive: bool,
    /// Per-connection read/write deadline (armed once per connection —
    /// a stuck peer must not wedge a worker).
    pub io_timeout: Duration,
    /// Reject bodies larger than this with `413` (DoS hygiene).
    pub max_body_bytes: usize,
    /// Base name for the server threads.
    pub thread_name: String,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 0,
            keep_alive: false,
            io_timeout: Duration::from_secs(2),
            max_body_bytes: 1 << 20,
            thread_name: "nss-http".to_string(),
        }
    }
}

/// A running HTTP server; shuts down gracefully on
/// [`HttpServer::shutdown`] (also invoked on drop).
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 picks a free port — read it back with
    /// [`HttpServer::addr`]) and starts the accept loop plus
    /// `opts.workers` connection-handling threads.
    pub fn start(
        addr: impl ToSocketAddrs,
        router: Arc<Router>,
        opts: ServerOptions,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        let sender = if opts.workers > 0 {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            let rx = Arc::new(Mutex::new(rx));
            for i in 0..opts.workers {
                let rx = Arc::clone(&rx);
                let router = Arc::clone(&router);
                let opts = opts.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("{}-w{i}", opts.thread_name))
                        .spawn(move || loop {
                            // The guard only spans recv(): the mutex
                            // serializes the workers' receives.
                            let conn = rx.lock().recv();
                            match conn {
                                Ok(stream) => serve_connection(stream, &router, &opts),
                                Err(_) => return, // sender dropped: shutdown
                            }
                        })?,
                );
            }
            Some(tx)
        } else {
            None
        };
        let accept_stop = Arc::clone(&stop);
        let accept_router = router;
        let accept_opts = opts.clone();
        let accept = std::thread::Builder::new()
            .name(format!("{}-accept", opts.thread_name))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match &sender {
                        Some(tx) => {
                            // A send error means the workers are gone;
                            // dropping the stream resets the connection.
                            let _ = tx.send(stream);
                        }
                        None => serve_connection(stream, &accept_router, &accept_opts),
                    }
                }
                // `sender` drops here, disconnecting the channel so every
                // worker's recv() returns Err → clean pool exit.
            })?;
        Ok(HttpServer {
            addr: local,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks the accept loop, and joins every thread.
    /// Idempotent; also called on drop. In-flight connections finish their
    /// current request.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway loopback connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(2));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection: the single place deadlines are armed, requests
/// are parsed, and responses are written. GET and HEAD share every byte of
/// this path — HEAD only suppresses the body at the final write.
fn serve_connection(mut stream: TcpStream, router: &Router, opts: &ServerOptions) {
    if stream.set_read_timeout(Some(opts.io_timeout)).is_err()
        || stream.set_write_timeout(Some(opts.io_timeout)).is_err()
    {
        return;
    }
    // Small request/response exchanges: Nagle + delayed ACK would add
    // tens of milliseconds per round trip.
    let _ = stream.set_nodelay(true);
    let mut leftover: Vec<u8> = Vec::new();
    loop {
        let (req, client_close) = match read_request(&mut stream, &mut leftover, opts) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => return, // clean EOF between requests
            Err(status) => {
                // Parse-level failure: best-effort error response, close.
                let resp = Response::status_text(status, format!("{}\n", status_line(status)));
                let _ = write_response(&mut stream, "GET", &resp, true);
                return;
            }
        };
        let close = !opts.keep_alive || client_close;
        let resp = router.route(&req);
        if write_response(&mut stream, &req.method, &resp, close).is_err() || close {
            return;
        }
    }
}

/// Reads one request (head + `Content-Length` body) from the stream and
/// returns it with the client's `Connection: close` hint. `leftover`
/// carries bytes read past the previous request's boundary on a
/// keep-alive connection. `Ok(None)` on clean EOF before any byte of a
/// new request; `Err(status)` on malformed or oversized input.
fn read_request(
    stream: &mut TcpStream,
    leftover: &mut Vec<u8>,
    opts: &ServerOptions,
) -> Result<Option<(Request, bool)>, u16> {
    let mut buf = std::mem::take(leftover);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(413);
        }
        let n = stream.read(&mut chunk).map_err(|_| 400u16)?;
        if n == 0 {
            return if buf.is_empty() { Ok(None) } else { Err(400) };
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Err(400);
    }
    let (raw_path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut content_length = 0usize;
    let mut client_close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| 400u16)?;
        } else if name.eq_ignore_ascii_case("connection") {
            client_close = value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > opts.max_body_bytes {
        return Err(413);
    }
    let body_start = head_end + 4;
    let mut body = buf.split_off(body_start.min(buf.len()));
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|_| 400u16)?;
        if n == 0 {
            return Err(400);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    *leftover = body.split_off(content_length.min(body.len()));
    let req = Request {
        method,
        path: percent_decode(raw_path),
        query: query.to_string(),
        body,
    };
    Ok(Some((req, client_close)))
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one response. Header order and formatting are pinned by the
/// scrape-endpoint socket tests — do not reorder. `HEAD` suppresses the
/// body bytes but keeps the `Content-Length` of the would-be body.
fn write_response(
    stream: &mut TcpStream,
    method: &str,
    resp: &Response,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut wire = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        status_line(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if method != "HEAD" {
        wire.push_str(&resp.body);
    }
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(router: Router, opts: ServerOptions) -> HttpServer {
        HttpServer::start("127.0.0.1:0", Arc::new(router), opts).expect("bind loopback")
    }

    fn demo_router() -> Router {
        Router::new()
            .get("/hello", |_req| Response::text("hi\n"))
            .get("/echo", |req| {
                Response::text(req.query_param("msg").unwrap_or_default())
            })
            .post("/sum", |req| {
                let n: i64 = String::from_utf8_lossy(&req.body)
                    .split_whitespace()
                    .filter_map(|t| t.parse::<i64>().ok())
                    .sum();
                Response::json(200, format!("{{\"sum\":{n}}}"))
            })
    }

    fn raw_exchange(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("conn");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn routes_get_post_404_405() {
        let server = start(demo_router(), ServerOptions::default());
        let addr = server.addr();
        let (status, body) = crate::serve::http_get(addr, "/hello").expect("get");
        assert_eq!((status, body.as_str()), (200, "hi\n"));
        let (status, body) = crate::serve::http_get(addr, "/echo?msg=a+b%21").expect("get");
        assert_eq!((status, body.as_str()), (200, "a b!"));
        let (status, body) = crate::serve::http_get(addr, "/nope").expect("get");
        assert_eq!(status, 404);
        assert_eq!(body, "not found; try /hello, /echo\n");
        let resp = raw_exchange(addr, "POST /hello HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        assert!(resp.ends_with("GET only\n"), "{resp}");
        let resp = raw_exchange(
            addr,
            "POST /sum HTTP/1.1\r\nContent-Length: 7\r\n\r\n1 2 3 4",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.ends_with("{\"sum\":10}"), "{resp}");
    }

    #[test]
    fn head_suppresses_body_but_keeps_length() {
        let server = start(demo_router(), ServerOptions::default());
        let resp = raw_exchange(server.addr(), "HEAD /hello HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("Content-Length: 3"), "{resp}");
        assert!(resp.ends_with("\r\n\r\n"), "body must be absent: {resp:?}");
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = start(
            demo_router(),
            ServerOptions {
                workers: 2,
                keep_alive: true,
                ..ServerOptions::default()
            },
        );
        let mut stream =
            TcpStream::connect_timeout(&server.addr(), Duration::from_secs(2)).expect("conn");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        for i in 0..3 {
            stream
                .write_all(format!("GET /echo?msg={i} HTTP/1.1\r\n\r\n").as_bytes())
                .expect("send");
            let mut buf = [0u8; 512];
            let n = stream.read(&mut buf).expect("read");
            let resp = String::from_utf8_lossy(&buf[..n]).into_owned();
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("Connection: keep-alive"), "{resp}");
            assert!(resp.ends_with(&i.to_string()), "{resp}");
        }
        // `Connection: close` is honored: response says close, then EOF.
        stream
            .write_all(b"GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("read to EOF");
        assert!(rest.contains("Connection: close"), "{rest}");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let server = start(
            demo_router(),
            ServerOptions {
                max_body_bytes: 8,
                ..ServerOptions::default()
            },
        );
        let resp = raw_exchange(
            server.addr(),
            "POST /sum HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = start(demo_router(), ServerOptions::default());
        let resp = raw_exchange(server.addr(), "garbage\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }
}
