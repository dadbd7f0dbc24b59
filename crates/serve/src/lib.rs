//! # nss-serve — the optimal-p query service
//!
//! The paper's deliverable is a *predictor*: given a density ρ, a §4.1
//! metric, and its constraint, the analytical framework names the
//! broadcast probability `p` a deployed network should use. This crate
//! turns that predictor into a long-running HTTP service (ROADMAP item 3)
//! on the workspace's dependency-free [`nss_obs::http`] machinery:
//!
//! | endpoint                | answer                                      |
//! |-------------------------|---------------------------------------------|
//! | `GET /v1/optimal-p`     | the best grid `p` for (ρ, metric, constraint) |
//! | `GET /v1/reachability`  | the full per-phase curve at (ρ, p)          |
//! | `POST /v1/batch`        | many optimal-p queries in one round trip    |
//! | `GET /metrics[.json]`, `GET /healthz` | the scrape plane ([`nss_obs::serve::metrics_routes`]) |
//!
//! `docs/API.md` documents every parameter, response schema, and error
//! code; a socket-level test in this crate keeps that document honest.
//!
//! ## The resident cache
//!
//! A cold (ρ, quad) query runs the ring model over the paper's full
//! 100-point probability grid (~milliseconds); a warm query evaluates an
//! objective over the cached [`PhaseSeries`] (~microseconds). The service
//! therefore keeps per-ρ sweeps in a
//! [`nss_analysis::sharded::ShardedCache`] — sharded by the
//! FNV-64 fingerprint of ([`KernelKey`], ρ), cold-miss-coalescing so a
//! storm of identical uncached queries computes the sweep once, and
//! LRU-evicting under the `--cache-bytes` budget. A sweep larger than a
//! whole shard's budget is answered but **not** admitted, surfaced as
//! `503` so operators see a misconfigured budget instead of silent
//! thrash. (The kernels themselves are interned by the process-wide
//! [`nss_analysis::tables::KernelCache`], exactly as in batch sweeps.)
//!
//! Every request increments `serve.requests`, runs under
//! `trace_span!("serve.request")` (→ the `serve.request.seconds`
//! histogram and the flight recorder), and mirrors its cache outcome into
//! `serve.cache.{hit,miss,coalesced}` / `serve.evictions` /
//! `serve.cache.bytes` — see `docs/METRICS.md`.

#![deny(missing_docs)]

use std::net::SocketAddr;
use std::sync::Arc;

use nss_analysis::optimize::{Objective, Optimum, ProbabilitySweep};
use nss_analysis::ring_model::RingModelConfig;
use nss_analysis::sharded::{CacheWeight, Fingerprint, OutcomeKind, ShardedCache};
use nss_analysis::tables::KernelKey;
use nss_model::metrics::PhaseSeries;
use nss_obs::export::json_escape;
use nss_obs::http::{HttpServer, Request, Response, Router, ServerOptions};
use nss_obs::jsonval::Json;

/// Largest accepted density — far beyond the paper's ρ ∈ [20, 140] range
/// but finite, so a single query cannot request an absurd model run.
pub const MAX_RHO: f64 = 1e6;

/// Hard cap on queries in one `POST /v1/batch` body.
pub const MAX_BATCH: usize = 4096;

/// Configuration for [`QueryServer::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// HTTP worker threads (0 = serve inline on the accept thread).
    pub workers: usize,
    /// Cache shards (clamped to ≥ 1).
    pub shards: usize,
    /// Total resident-sweep byte budget across all shards.
    pub cache_bytes: usize,
    /// Simpson quadrature points per ring integral (the paper uses 64;
    /// tests and smoke runs use 32).
    pub quad_points: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:9188".to_string(),
            // Floored at 4: each keep-alive connection pins a worker for
            // its lifetime, so on small machines a parallelism-sized pool
            // would let one idle client starve the listener.
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .max(4),
            shards: 8,
            cache_bytes: 256 << 20,
            quad_points: 64,
        }
    }
}

/// Cache key for one resident sweep: the ρ/p-independent kernel
/// fingerprint plus the bit-exact density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RhoKey {
    /// `rho.to_bits()` (bit-exact float identity, like [`KernelKey::r_bits`]).
    pub rho_bits: u64,
    /// The kernel fingerprint (quadrature, rings, slots, μ mode).
    pub kernel: KernelKey,
}

impl Fingerprint for RhoKey {
    fn fingerprint(&self) -> u64 {
        nss_obs::manifest::fnv64(&self.rho_bits.to_le_bytes())
            ^ self.kernel.fingerprint().rotate_left(17)
    }
}

/// One resident sweep: the paper's 100-point probability grid and the
/// phase series computed at each point for a fixed ρ.
#[derive(Debug)]
pub struct RhoEntry {
    /// The probability grid ([`ProbabilitySweep::paper_grid`]).
    pub probs: Vec<f64>,
    /// Phase series aligned with `probs`.
    pub series: Vec<PhaseSeries>,
}

impl CacheWeight for RhoEntry {
    fn cache_bytes(&self) -> usize {
        let series_heap: usize = self
            .series
            .iter()
            .map(|s| {
                (s.informed_cum.capacity() + s.broadcasts_cum.capacity())
                    * std::mem::size_of::<f64>()
                    + std::mem::size_of::<PhaseSeries>()
            })
            .sum();
        self.probs.capacity() * std::mem::size_of::<f64>() + series_heap
    }
}

/// A request-level failure, rendered as `{"error": …}` with an HTTP
/// status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status (400 bad params, 413 oversized batch, 503 capacity).
    pub status: u16,
    /// Human-readable cause, returned verbatim in the JSON body.
    pub message: String,
}

impl ApiError {
    fn bad(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

/// The query engine: parameter validation, the resident sweep cache, and
/// JSON rendering. [`QueryServer`] wraps it with HTTP; tests and the
/// batch endpoint call it directly.
pub struct QueryService {
    base: RingModelConfig,
    cache: ShardedCache<RhoKey, RhoEntry>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("quad_points", &self.base.quad_points)
            .field("cache", &self.cache)
            .finish()
    }
}

/// How a query's sweep was obtained, reported in the response `cache`
/// field (`hit` | `miss` | `coalesced`).
fn cache_label(kind: OutcomeKind) -> &'static str {
    match kind {
        OutcomeKind::Hit => "hit",
        OutcomeKind::Coalesced => "coalesced",
        OutcomeKind::Built => "miss",
    }
}

impl QueryService {
    /// A service with `shards` cache shards sharing `cache_bytes`, running
    /// the ring model at `quad_points` quadrature points (paper config
    /// otherwise: `P = 5`, `s = 3`).
    pub fn new(shards: usize, cache_bytes: usize, quad_points: usize) -> QueryService {
        let mut base = RingModelConfig::paper(20.0, 0.0);
        base.quad_points = quad_points.max(2);
        QueryService {
            base,
            cache: ShardedCache::new(shards, cache_bytes),
        }
    }

    /// The cache tallies (hits, misses, coalesced, evictions, residency).
    pub fn cache_stats(&self) -> nss_analysis::sharded::CacheStats {
        self.cache.stats()
    }

    /// Parses a `metric` + `constraint` pair into a §4.1 [`Objective`].
    ///
    /// Metric names: `reach-at-latency` (constraint = latency budget in
    /// phases), `latency-for-reach` and `broadcasts-for-reach`
    /// (constraint = reachability target in (0, 1]), `reach-under-budget`
    /// (constraint = broadcast budget).
    pub fn parse_objective(metric: &str, constraint: f64) -> Result<Objective, ApiError> {
        if !constraint.is_finite() {
            return Err(ApiError::bad("constraint must be a finite number"));
        }
        match metric {
            "reach-at-latency" => {
                if constraint <= 0.0 {
                    return Err(ApiError::bad("latency budget (phases) must be > 0"));
                }
                Ok(Objective::MaxReachAtLatency { phases: constraint })
            }
            "latency-for-reach" => {
                if !(0.0..=1.0).contains(&constraint) || constraint == 0.0 {
                    return Err(ApiError::bad("reachability target must be in (0, 1]"));
                }
                Ok(Objective::MinLatencyForReach { target: constraint })
            }
            "broadcasts-for-reach" => {
                if !(0.0..=1.0).contains(&constraint) || constraint == 0.0 {
                    return Err(ApiError::bad("reachability target must be in (0, 1]"));
                }
                Ok(Objective::MinBroadcastsForReach { target: constraint })
            }
            "reach-under-budget" => {
                if constraint <= 0.0 {
                    return Err(ApiError::bad("broadcast budget must be > 0"));
                }
                Ok(Objective::MaxReachUnderBudget { budget: constraint })
            }
            other => Err(ApiError::bad(format!(
                "unknown metric {other:?}; expected reach-at-latency, \
                 latency-for-reach, broadcasts-for-reach, or reach-under-budget"
            ))),
        }
    }

    fn validate_rho(rho: f64) -> Result<(), ApiError> {
        if !rho.is_finite() || rho <= 0.0 || rho > MAX_RHO {
            return Err(ApiError::bad(format!(
                "rho must be a finite density in (0, {MAX_RHO}], got {rho}"
            )));
        }
        Ok(())
    }

    /// The resident sweep for `rho`, building (and possibly coalescing or
    /// evicting) on a miss. Mirrors the outcome into the `serve.cache.*`
    /// metrics. `Err(503)` when the sweep exceeds the per-shard budget.
    fn sweep_for(&self, rho: f64) -> Result<(Arc<RhoEntry>, OutcomeKind), ApiError> {
        let mut base = self.base;
        base.rho = rho;
        let key = RhoKey {
            rho_bits: rho.to_bits(),
            kernel: KernelKey::of(&base),
        };
        let out = self.cache.get_or_build(&key, || {
            let sweep = ProbabilitySweep::run(base, &ProbabilitySweep::paper_grid());
            RhoEntry {
                probs: sweep.probs,
                series: sweep.series,
            }
        });
        match out.kind {
            OutcomeKind::Hit => nss_obs::counter!("serve.cache.hit").inc(),
            OutcomeKind::Built => nss_obs::counter!("serve.cache.miss").inc(),
            OutcomeKind::Coalesced => nss_obs::counter!("serve.cache.coalesced").inc(),
        }
        if out.evicted > 0 {
            nss_obs::counter!("serve.evictions").add(out.evicted as u64);
        }
        let stats = self.cache.stats();
        nss_obs::gauge!("serve.cache.bytes").set(stats.resident_bytes as f64);
        if !out.admitted {
            return Err(ApiError {
                status: 503,
                message: format!(
                    "cache capacity exhausted: sweep needs {} bytes but the \
                     per-shard budget is {}; raise --cache-bytes",
                    out.value.cache_bytes(),
                    self.cache.per_shard_budget()
                ),
            });
        }
        Ok((out.value, out.kind))
    }

    /// Answers one optimal-p query as a JSON object (the body of
    /// `GET /v1/optimal-p` and of each `POST /v1/batch` result).
    pub fn optimal_p(&self, rho: f64, metric: &str, constraint: f64) -> Result<String, ApiError> {
        Self::validate_rho(rho)?;
        let obj = Self::parse_objective(metric, constraint)?;
        let (entry, kind) = self.sweep_for(rho)?;
        // Evaluate in place over the cached series — cloning the sweep
        // would copy ~300 KB per request and sink the warm-path SLO.
        let mut best: Option<(f64, f64)> = None;
        for (&p, s) in entry.probs.iter().zip(&entry.series) {
            let Some(v) = obj.evaluate(s) else { continue };
            let better = match best {
                None => true,
                Some((_, incumbent)) => {
                    if obj.is_max() {
                        v > incumbent
                    } else {
                        v < incumbent
                    }
                }
            };
            if better {
                best = Some((p, v));
            }
        }
        let body = match best.map(|(prob, value)| Optimum { prob, value }) {
            Some(opt) => format!(
                "{{\"rho\":{rho},\"metric\":\"{metric}\",\"constraint\":{constraint},\
                 \"feasible\":true,\"p\":{},\"value\":{},\"cache\":\"{}\"}}",
                opt.prob,
                opt.value,
                cache_label(kind)
            ),
            None => format!(
                "{{\"rho\":{rho},\"metric\":\"{metric}\",\"constraint\":{constraint},\
                 \"feasible\":false,\"p\":null,\"value\":null,\"cache\":\"{}\"}}",
                cache_label(kind)
            ),
        };
        Ok(body)
    }

    /// Answers one reachability-curve query as a JSON object (the body of
    /// `GET /v1/reachability`). `p` is snapped to the nearest point of the
    /// paper's 0.01-step analysis grid; the snapped value is returned.
    pub fn reachability(&self, rho: f64, p: f64) -> Result<String, ApiError> {
        Self::validate_rho(rho)?;
        if !(0.0..=1.0).contains(&p) {
            return Err(ApiError::bad(format!(
                "p must be a broadcast probability in [0, 1], got {p}"
            )));
        }
        let (entry, kind) = self.sweep_for(rho)?;
        let idx = ((p * 100.0).round() as usize).clamp(1, entry.probs.len()) - 1;
        let series = &entry.series[idx];
        let mut phases = String::new();
        for (i, (inf, bc)) in series
            .informed_cum
            .iter()
            .zip(&series.broadcasts_cum)
            .enumerate()
        {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!(
                "{{\"phase\":{},\"reach\":{},\"broadcasts\":{}}}",
                i + 1,
                inf / series.n_total,
                bc
            ));
        }
        Ok(format!(
            "{{\"rho\":{rho},\"p_requested\":{p},\"p\":{},\"n_total\":{},\
             \"final_reach\":{},\"phases\":[{phases}],\"cache\":\"{}\"}}",
            entry.probs[idx],
            series.n_total,
            series.final_reachability(),
            cache_label(kind)
        ))
    }

    /// Answers a batch body (`{"queries": [{rho, metric, constraint}, …]}`)
    /// with `{"results": […]}`, one result per query in order. Individual
    /// query failures become inline `{"error", "status"}` objects; only a
    /// malformed envelope fails the whole request.
    pub fn batch(&self, body: &[u8]) -> Result<String, ApiError> {
        let text =
            std::str::from_utf8(body).map_err(|_| ApiError::bad("body must be UTF-8 JSON"))?;
        let doc = Json::parse(text).map_err(|e| ApiError::bad(format!("invalid JSON: {e}")))?;
        let queries = doc
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or_else(|| ApiError::bad("body must be {\"queries\": [...]}"))?;
        if queries.len() > MAX_BATCH {
            return Err(ApiError {
                status: 413,
                message: format!(
                    "batch of {} exceeds the {MAX_BATCH}-query cap",
                    queries.len()
                ),
            });
        }
        let mut results = String::new();
        for (i, q) in queries.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            let answer = (|| -> Result<String, ApiError> {
                let rho = q
                    .get("rho")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ApiError::bad("query needs a numeric \"rho\""))?;
                let metric = q
                    .get("metric")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ApiError::bad("query needs a string \"metric\""))?;
                let constraint = q
                    .get("constraint")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ApiError::bad("query needs a numeric \"constraint\""))?;
                self.optimal_p(rho, metric, constraint)
            })();
            match answer {
                Ok(json) => results.push_str(&json),
                Err(e) => results.push_str(&format!(
                    "{{\"error\":\"{}\",\"status\":{}}}",
                    json_escape(&e.message),
                    e.status
                )),
            }
        }
        Ok(format!("{{\"results\":[{results}]}}"))
    }
}

/// Parses a required float query parameter.
fn float_param(req: &Request, name: &str) -> Result<f64, ApiError> {
    req.query_param(name)
        .ok_or_else(|| ApiError::bad(format!("missing query parameter {name:?}")))?
        .parse::<f64>()
        .map_err(|_| ApiError::bad(format!("query parameter {name:?} must be a number")))
}

/// Renders a handler result as an HTTP response and counts errors.
fn respond(result: Result<String, ApiError>) -> Response {
    match result {
        Ok(body) => Response::json(200, body),
        Err(e) => {
            nss_obs::counter!("serve.errors").inc();
            Response::json(
                e.status,
                format!(
                    "{{\"error\":\"{}\",\"status\":{}}}",
                    json_escape(&e.message),
                    e.status
                ),
            )
        }
    }
}

/// Builds the full service router: the three `/v1` query routes plus the
/// scrape plane (`/metrics`, `/metrics.json`, `/healthz`).
pub fn router(service: Arc<QueryService>) -> Router {
    let svc_opt = Arc::clone(&service);
    let svc_reach = Arc::clone(&service);
    let svc_batch = service;
    nss_obs::serve::metrics_routes(Router::new())
        .get("/v1/optimal-p", move |req| {
            nss_obs::counter!("serve.requests").inc();
            let _span = nss_obs::trace_span!("serve.request");
            respond((|| {
                svc_opt.optimal_p(
                    float_param(req, "rho")?,
                    &req.query_param("metric")
                        .ok_or_else(|| ApiError::bad("missing query parameter \"metric\""))?,
                    float_param(req, "constraint")?,
                )
            })())
        })
        .get("/v1/reachability", move |req| {
            nss_obs::counter!("serve.requests").inc();
            let _span = nss_obs::trace_span!("serve.request");
            respond((|| {
                svc_reach.reachability(float_param(req, "rho")?, float_param(req, "p")?)
            })())
        })
        .post("/v1/batch", move |req| {
            nss_obs::counter!("serve.requests").inc();
            let _span = nss_obs::trace_span!("serve.request");
            respond(svc_batch.batch(&req.body))
        })
}

/// A running query server (HTTP listener + worker pool over a
/// [`QueryService`]).
#[derive(Debug)]
pub struct QueryServer {
    http: HttpServer,
    service: Arc<QueryService>,
}

impl QueryServer {
    /// Binds `config.addr` and starts serving with keep-alive connections
    /// and `config.workers` worker threads.
    pub fn start(config: &ServeConfig) -> std::io::Result<QueryServer> {
        let service = Arc::new(QueryService::new(
            config.shards,
            config.cache_bytes,
            config.quad_points,
        ));
        let http = HttpServer::start(
            config.addr.as_str(),
            Arc::new(router(Arc::clone(&service))),
            ServerOptions {
                workers: config.workers,
                keep_alive: true,
                // Looser than the scrape endpoint's 2 s: query clients hold
                // persistent connections with natural think-time gaps.
                io_timeout: std::time::Duration::from_secs(30),
                thread_name: "nss-serve".to_string(),
                ..ServerOptions::default()
            },
        )?;
        Ok(QueryServer { http, service })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The underlying service (for stats inspection).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Graceful shutdown: stops accepting, drains workers, joins threads.
    /// Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        self.http.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_obs::serve::http_get;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Small quadrature + tiny grid cost so socket tests stay fast.
    fn test_server(cache_bytes: usize) -> QueryServer {
        QueryServer::start(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            shards: 4,
            cache_bytes,
            quad_points: 32,
        })
        .expect("bind loopback")
    }

    fn parse(body: &str) -> Json {
        Json::parse(body).unwrap_or_else(|e| panic!("invalid JSON {e}: {body}"))
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("conn");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream
            .write_all(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let payload = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    #[test]
    fn optimal_p_miss_then_hit() {
        let server = test_server(256 << 20);
        let q = "/v1/optimal-p?rho=20&metric=reach-at-latency&constraint=5";
        let (status, body) = http_get(server.addr(), q).expect("query");
        assert_eq!(status, 200, "{body}");
        let v = parse(&body);
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(v.get("feasible").and_then(Json::as_bool), Some(true));
        let p = v.get("p").and_then(Json::as_f64).expect("p present");
        assert!((0.0..=1.0).contains(&p), "p={p}");
        let (status, body) = http_get(server.addr(), q).expect("query");
        assert_eq!(status, 200);
        assert_eq!(
            parse(&body).get("cache").and_then(Json::as_str),
            Some("hit")
        );
    }

    #[test]
    fn reachability_curve_is_monotone() {
        let server = test_server(256 << 20);
        let (status, body) =
            http_get(server.addr(), "/v1/reachability?rho=40&p=0.2").expect("query");
        assert_eq!(status, 200, "{body}");
        let v = parse(&body);
        assert_eq!(v.get("p").and_then(Json::as_f64), Some(0.2));
        let phases = v.get("phases").and_then(Json::as_arr).expect("phases");
        assert!(!phases.is_empty());
        let reaches: Vec<f64> = phases
            .iter()
            .map(|ph| ph.get("reach").and_then(Json::as_f64).expect("reach"))
            .collect();
        assert!(
            reaches.windows(2).all(|w| w[1] >= w[0] - 1e-12),
            "{reaches:?}"
        );
        let last = *reaches.last().expect("nonempty");
        assert!(last > 0.0 && last <= 1.0);
    }

    #[test]
    fn batch_answers_each_query_in_order() {
        let server = test_server(256 << 20);
        let (status, body) = post(
            server.addr(),
            "/v1/batch",
            "{\"queries\":[\
             {\"rho\":20,\"metric\":\"reach-at-latency\",\"constraint\":5},\
             {\"rho\":20,\"metric\":\"nope\",\"constraint\":5},\
             {\"rho\":40,\"metric\":\"broadcasts-for-reach\",\"constraint\":0.6}]}",
        );
        assert_eq!(status, 200, "{body}");
        let v = parse(&body);
        let results = v.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 3);
        assert!(results[0].get("p").and_then(Json::as_f64).is_some());
        assert_eq!(results[1].get("status").and_then(Json::as_f64), Some(400.0));
        assert!(results[2].get("p").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn out_of_domain_parameters_get_400() {
        let server = test_server(256 << 20);
        for q in [
            "/v1/optimal-p?rho=-1&metric=reach-at-latency&constraint=5",
            "/v1/optimal-p?rho=nan&metric=reach-at-latency&constraint=5",
            "/v1/optimal-p?rho=20&metric=unknown&constraint=5",
            "/v1/optimal-p?rho=20&metric=latency-for-reach&constraint=1.5",
            "/v1/optimal-p?rho=20&metric=reach-at-latency",
            "/v1/reachability?rho=20&p=1.5",
            "/v1/reachability?rho=0&p=0.5",
        ] {
            let (status, body) = http_get(server.addr(), q).expect("query");
            assert_eq!(status, 400, "{q} → {body}");
            assert!(parse(&body).get("error").is_some(), "{q} → {body}");
        }
        let (status, body) = post(server.addr(), "/v1/batch", "{\"nope\":1}");
        assert_eq!(status, 400, "{body}");
    }

    #[test]
    fn capacity_exhaustion_is_503() {
        // 4-shard cache with a 4 KiB total budget: a ~300 KB sweep can
        // never be admitted.
        let server = test_server(4096);
        let (status, body) = http_get(
            server.addr(),
            "/v1/optimal-p?rho=25&metric=reach-at-latency&constraint=5",
        )
        .expect("query");
        assert_eq!(status, 503, "{body}");
        let v = parse(&body);
        assert!(
            v.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("cache-bytes")),
            "{body}"
        );
    }

    #[test]
    fn scrape_plane_is_mounted() {
        let server = test_server(256 << 20);
        let (status, body) = http_get(server.addr(), "/healthz").expect("healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = http_get(server.addr(), "/metrics").expect("metrics");
        assert_eq!(status, 200);
        let (status, body) = http_get(server.addr(), "/metrics.json").expect("metrics.json");
        assert_eq!(status, 200);
        assert!(Json::parse(&body).is_ok());
    }

    #[test]
    fn cold_miss_storm_computes_sweep_once() {
        // Acceptance gate: 64 concurrent identical queries on a cold
        // cache run the sweep exactly once and coalesce the rest. The
        // high quadrature makes the cold build tens of milliseconds, so
        // every storm thread reaches the shard while it is still
        // `Building` even on a single-core machine — without it the
        // sweep can finish before the OS schedules the waiters, which
        // then (correctly) read plain hits.
        let service = Arc::new(QueryService::new(8, 256 << 20, 512));
        let barrier = Arc::new(std::sync::Barrier::new(64));
        let handles: Vec<_> = (0..64)
            .map(|_| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service
                        .optimal_p(77.0, "reach-at-latency", 5.0)
                        .expect("query")
                })
            })
            .collect();
        for h in handles {
            h.join().expect("storm thread");
        }
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert!(stats.coalesced >= 63, "{stats:?}");
    }
}
