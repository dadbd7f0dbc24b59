//! The query-service workloads: `serve_warm` (every answer from a warm
//! cache, batched) and `serve_churn` (single queries over more densities
//! than the cache holds).
//!
//! Load comes from [`CLIENTS`] closed-loop threads of this process, each
//! on one keep-alive connection with zero think time; the counts are the
//! same on every host.

use crate::client::Client;
use crate::report::{peak_rss_mb, put, Checks, Values};
use crate::schedule::{Query, Schedule, METRICS};
use crate::stats::{median, tail, Histogram};
use crate::tracer::{layers, Tracer, ROOT};
use crate::Scale;
use nss_analysis::optimize::ProbabilitySweep;
use nss_analysis::ring_model::RingModelConfig;
use nss_analysis::sharded::CacheStats;
use nss_analysis::tables::KernelCache;
use nss_obs::http::Request;
use nss_serve::{QueryServer, QueryService, ServeConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop client threads, one keep-alive connection each.
const CLIENTS: usize = 2;

/// HTTP workers: one per client connection plus one spare.
const WORKERS: usize = CLIENTS + 1;

/// Cache shards of the server.
const SHARDS: usize = 16;

/// Server start-ups (each with its warm-up or fill) per run; the median
/// is reported.
const SETUPS: usize = 3;

/// Requests of client 0 replayed in-process by a traced `serve_warm`.
const REPLAYS: u64 = 2000;

/// Missed densities whose sweep a traced `serve_churn` rebuilds directly.
const SWEEP_REPLAYS: usize = 64;

/// Length of one measured segment. Each segment gets fresh client
/// threads and connections, so one run samples many placements of client
/// and server threads on the cores; the window reports the median over
/// its segments.
const SEGMENT_S: f64 = 1.0;

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `POST /v1/batch` of 16 queries over 64 densities, all warm.
    Warm,
    /// Single `GET /v1/optimal-p` over 2,048 densities and an 8 MiB cache.
    Churn,
}

/// How a response's sweep was obtained (its `cache` field); the
/// discriminant indexes [`Tally::by_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Served from the resident sweep.
    Hit,
    /// Built the sweep.
    Miss,
    /// Waited for another request's build.
    Coalesced,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Coalesced => "coalesced",
        }
    }

    /// The class of a single-query body, if it names one.
    fn of(body: &str) -> Option<Class> {
        [Class::Hit, Class::Miss, Class::Coalesced]
            .into_iter()
            .find(|c| body.contains(&format!("\"cache\":\"{}\"", c.label())))
    }
}

/// Everything that sizes one serve workload.
#[derive(Debug, Clone)]
pub struct Plan {
    mix: Mix,
    schedule: Schedule,
    cache_bytes: usize,
    quad_points: usize,
    /// Queries per request.
    batch: u64,
    /// Every this many requests per client, the response is kept for the
    /// oracle check.
    sample_every: u64,
    /// Length of the measured window.
    seconds: f64,
}

impl Plan {
    /// The plan of `mix` at `scale`, with a measured window of `seconds`.
    pub fn new(mix: Mix, scale: Scale, seed: u64, seconds: f64) -> Plan {
        let full = scale == Scale::Full;
        let quad_points = if full { 64 } else { 32 };
        match mix {
            Mix::Warm => {
                let n = if full { 64 } else { 8 };
                Plan {
                    mix,
                    schedule: Schedule::ranked(
                        seed,
                        (0..n).map(|k| 20.0 + 2.0 * k as f64).collect(),
                    ),
                    cache_bytes: 256 << 20,
                    quad_points,
                    batch: 16,
                    sample_every: 1024,
                    seconds,
                }
            }
            Mix::Churn => {
                let n = if full { 2048 } else { 256 };
                Plan {
                    mix,
                    schedule: Schedule::shuffled(
                        seed,
                        (0..n).map(|k| 20.0 + k as f64 / 16.0).collect(),
                    ),
                    cache_bytes: if full { 8 << 20 } else { 1 << 20 },
                    quad_points,
                    batch: 1,
                    sample_every: 64,
                    seconds,
                }
            }
        }
    }

    /// Workload settings for the provenance block.
    pub fn settings(&self) -> Vec<(String, String)> {
        let rhos = self.schedule.rhos();
        vec![
            ("clients".to_string(), CLIENTS.to_string()),
            ("workers".to_string(), WORKERS.to_string()),
            ("shards".to_string(), SHARDS.to_string()),
            ("cache_bytes".to_string(), self.cache_bytes.to_string()),
            ("quad_points".to_string(), self.quad_points.to_string()),
            ("queries_per_request".to_string(), self.batch.to_string()),
            ("densities".to_string(), rhos.len().to_string()),
            ("zipf_s".to_string(), crate::schedule::ZIPF_S.to_string()),
            ("window_s".to_string(), self.seconds.to_string()),
            ("segment_s".to_string(), SEGMENT_S.to_string()),
        ]
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            shards: SHARDS,
            cache_bytes: self.cache_bytes,
            quad_points: self.quad_points,
        }
    }

    /// The queries of request `index` of `client`.
    fn queries(&self, client: usize, index: u64) -> impl Iterator<Item = Query> + '_ {
        (0..self.batch).map(move |j| self.schedule.query(client, index * self.batch + j))
    }

    /// The `POST /v1/batch` body of request `index` of `client`.
    fn batch_body(&self, client: usize, index: u64) -> String {
        let queries: Vec<String> = self.queries(client, index).map(|q| q.json()).collect();
        format!("{{\"queries\":[{}]}}", queries.join(","))
    }

    /// Sends request `index` of `client`; returns the status.
    fn send(&self, conn: &mut Client, client: usize, index: u64) -> std::io::Result<u16> {
        match self.mix {
            Mix::Warm => conn.post("/v1/batch", &self.batch_body(client, index)),
            Mix::Churn => {
                let q = self.schedule.query(client, index);
                conn.get("/v1/optimal-p", &q.query_string())
            }
        }
    }

    /// The request as the router sees it, for in-process replay.
    fn request(&self, client: usize, index: u64) -> Request {
        let mut req = Request::default();
        match self.mix {
            Mix::Warm => {
                req.method = "POST".to_string();
                req.path = "/v1/batch".to_string();
                req.body = self.batch_body(client, index).into_bytes();
            }
            Mix::Churn => {
                let q = self.schedule.query(client, index);
                req.method = "GET".to_string();
                req.path = "/v1/optimal-p".to_string();
                req.query = q.query_string();
            }
        }
        req
    }
}

/// Responses kept for the oracle check and missed densities kept for
/// the traced sweep replay: enough to check, and bounded so that the
/// benchmark's own memory does not grow with the throughput it measures.
const MAX_SAMPLES: usize = 512;
const MAX_MISSED: usize = 4096;

/// What a stretch of traffic did, merged over clients and segments.
#[derive(Debug, Default)]
struct Tally {
    /// Latency of every request.
    all: Histogram,
    /// Latency of the answered requests, by [`Class`].
    by_class: [Histogram; 3],
    /// Queries answered with a 200.
    answered: u64,
    /// Densities of requests that missed.
    missed: Vec<f64>,
    /// `(client, index, class, body)` kept for the oracle check.
    samples: Vec<(usize, u64, Class, String)>,
    checks: Checks,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.all.merge(&other.all);
        for (a, b) in self.by_class.iter_mut().zip(&other.by_class) {
            a.merge(b);
        }
        self.answered += other.answered;
        let room = MAX_MISSED.saturating_sub(self.missed.len());
        self.missed.extend(other.missed.into_iter().take(room));
        let room = MAX_SAMPLES.saturating_sub(self.samples.len());
        self.samples.extend(other.samples.into_iter().take(room));
        self.checks.merge(other.checks);
    }
}

/// One client's stretch of closed-loop traffic.
struct Log {
    client: usize,
    /// The next index this client would send.
    next: u64,
    start: Option<Instant>,
    end: Option<Instant>,
    tally: Tally,
}

/// Drives one client from `from` until `stop` is raised: closed loop,
/// zero think time. Under `Warm` anything but a hit is a failure.
fn drive(
    plan: &Plan,
    addr: SocketAddr,
    client: usize,
    from: u64,
    stop: &AtomicBool,
    start: &Barrier,
    trace: Option<(&Tracer, u64)>,
) -> Log {
    let mut log = Log {
        client,
        next: from,
        start: None,
        end: None,
        tally: Tally::default(),
    };
    let conn = Client::connect(addr);
    start.wait();
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            log.tally
                .checks
                .op(Some(format!("client {client}: connect: {e}")));
            return log;
        }
    };
    log.start = Some(Instant::now());
    let t = &mut log.tally;
    while !stop.load(Ordering::Relaxed) {
        let index = log.next;
        log.next += 1;
        let open = trace
            .map(|(tr, parent)| tr.start("http.request", parent, ((client as u64) << 40) | index));
        let t0 = Instant::now();
        let sent = plan.send(&mut conn, client, index);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some((tr, _)), Some(open)) = (trace, open) {
            tr.end(open);
        }
        t.all.record(ns);
        let status = match sent {
            Ok(status) => status,
            Err(e) => {
                t.checks
                    .op(Some(format!("client {client} request {index}: {e}")));
                break;
            }
        };
        let body = String::from_utf8_lossy(conn.body());
        let class = match plan.mix {
            Mix::Warm => (body.matches("\"cache\":\"hit\"").count() as u64 == plan.batch)
                .then_some(Class::Hit),
            Mix::Churn => Class::of(&body),
        };
        let class = match (status, class) {
            (200, Some(class)) if plan.mix == Mix::Churn || class == Class::Hit => class,
            _ => {
                t.checks.op(Some(format!(
                    "client {client} request {index}: status {status}: {body}"
                )));
                continue;
            }
        };
        t.checks.op(None);
        t.by_class[class as usize].record(ns);
        t.answered += plan.batch;
        if class == Class::Miss && t.missed.len() < MAX_MISSED {
            t.missed.push(plan.schedule.query(client, index).rho);
        }
        if (index.is_multiple_of(plan.sample_every) || class == Class::Coalesced)
            && t.samples.len() < MAX_SAMPLES
        {
            t.samples.push((client, index, class, body.into_owned()));
        }
    }
    log.end = Some(Instant::now());
    log
}

/// Runs [`CLIENTS`] clients from `from[c]` until `until` says stop
/// (polled every millisecond); returns their logs.
fn traffic(
    plan: &Plan,
    server: &QueryServer,
    from: [u64; CLIENTS],
    trace: Option<(&Tracer, u64)>,
    until: impl Fn(&QueryServer) -> bool,
) -> Vec<Log> {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(CLIENTS + 1);
    let addr = server.addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (stop, start) = (&stop, &start);
                scope.spawn(move || drive(plan, addr, c, from[c], stop, start, trace))
            })
            .collect();
        start.wait();
        while !until(server) {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// The measured window: per-segment throughput and latency quantiles,
/// and everything merged.
#[derive(Default)]
struct Window {
    tally: Tally,
    throughput: Vec<f64>,
    p50_ns: Vec<f64>,
    tail_ns: Vec<f64>,
}

/// Runs the window as segments of about [`SEGMENT_S`], each with fresh
/// client threads and connections; clients continue their schedules from
/// `next` across segments.
fn measure(
    plan: &Plan,
    server: &QueryServer,
    mut next: [u64; CLIENTS],
    trace: Option<(&Tracer, u64)>,
) -> Window {
    let segments = ((plan.seconds / SEGMENT_S).round() as u32).max(1);
    let length = Duration::from_secs_f64(plan.seconds / f64::from(segments));
    let mut w = Window::default();
    for _ in 0..segments {
        let deadline = Instant::now() + length;
        let logs = traffic(plan, server, next, trace, |_| Instant::now() >= deadline);
        let start = logs.iter().filter_map(|l| l.start).min();
        let end = logs.iter().filter_map(|l| l.end).max();
        let secs = start.zip(end).map_or(0.0, |(s, e)| (e - s).as_secs_f64());
        let mut seg = Tally::default();
        for log in logs {
            next[log.client] = log.next;
            seg.merge(log.tally);
        }
        w.throughput.push(seg.answered as f64 / secs);
        w.p50_ns.push(seg.all.quantile(0.5));
        w.tail_ns.push(seg.all.tail().1);
        w.tally.merge(seg);
    }
    w
}

/// Starts a server with a cold kernel cache and brings it to the state
/// the window starts from: every density built (`Warm`) or the cache
/// full and evicting (`Churn`). Returns the server, the set-up time and
/// the index each client continues from.
fn set_up(plan: &Plan, checks: &mut Checks) -> Option<(QueryServer, f64, [u64; CLIENTS])> {
    KernelCache::global().clear();
    let t0 = Instant::now();
    let server = match QueryServer::start(&plan.config()) {
        Ok(s) => s,
        Err(e) => {
            checks.op(Some(format!("server start: {e}")));
            return None;
        }
    };
    let next = match plan.mix {
        Mix::Warm => {
            let mut conn = match Client::connect(server.addr()) {
                Ok(c) => c,
                Err(e) => {
                    checks.op(Some(format!("warm-up connect: {e}")));
                    return None;
                }
            };
            let (metric, constraint) = METRICS[0];
            for &rho in plan.schedule.rhos() {
                let q = Query {
                    rho,
                    metric,
                    constraint,
                };
                let status = conn.get("/v1/optimal-p", &q.query_string());
                let body = String::from_utf8_lossy(conn.body());
                checks.op(match status {
                    Ok(200) if Class::of(&body) == Some(Class::Miss) => None,
                    other => Some(format!("warm-up rho={rho}: {other:?} {body}")),
                });
            }
            [0; CLIENTS]
        }
        Mix::Churn => {
            // Fill until the first eviction; a cache that never evicts
            // within a minute is a failure, not a hang.
            let give_up = t0 + Duration::from_secs(60);
            let logs = traffic(plan, &server, [0; CLIENTS], None, |s| {
                s.service().cache_stats().evictions > 0 || Instant::now() >= give_up
            });
            let mut next = [0; CLIENTS];
            for log in logs {
                next[log.client] = log.next;
                checks.merge(log.tally.checks);
            }
            if server.service().cache_stats().evictions == 0 {
                checks.op(Some("fill: the cache never evicted".to_string()));
                return None;
            }
            next
        }
    };
    Some((server, t0.elapsed().as_secs_f64(), next))
}

/// Removes every `,"cache":"…"` field: the oracle's own cache state says
/// nothing about the served answer.
fn without_cache(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(",\"cache\":\"") {
        out.push_str(&rest[..at]);
        let after = &rest[at + 10..];
        rest = after.find('"').map_or("", |end| &after[end + 1..]);
    }
    out.push_str(rest);
    out
}

/// The body a fresh in-process service gives for the queries of
/// `(client, index)`, without cache fields.
fn oracle_body(plan: &Plan, oracle: &QueryService, client: usize, index: u64) -> String {
    let answers: Vec<String> = plan
        .queries(client, index)
        .map(|q| {
            oracle
                .optimal_p(q.rho, q.metric, q.constraint)
                .unwrap_or_else(|e| format!("oracle error {}: {}", e.status, e.message))
        })
        .collect();
    without_cache(&match plan.mix {
        Mix::Warm => format!("{{\"results\":[{}]}}", answers.join(",")),
        Mix::Churn => answers.concat(),
    })
}

/// Compares the sampled window responses, and (`Warm`) a probe of every
/// density and metric, with a fresh `QueryService` oracle.
fn check_answers(
    plan: &Plan,
    server: &QueryServer,
    samples: &[(usize, u64, Class, String)],
    checks: &mut Checks,
) {
    let oracle = QueryService::new(SHARDS, 1 << 30, plan.quad_points);
    for (client, index, class, body) in samples {
        if without_cache(body) != oracle_body(plan, &oracle, *client, *index) {
            checks.fail(format!(
                "client {client} request {index} ({}): answer differs from the oracle: {body}",
                class.label()
            ));
        }
    }
    if plan.mix == Mix::Warm {
        let Ok(mut conn) = Client::connect(server.addr()) else {
            checks.op(Some("probe connect failed".to_string()));
            return;
        };
        for &rho in plan.schedule.rhos() {
            for (metric, constraint) in METRICS {
                let q = Query {
                    rho,
                    metric,
                    constraint,
                };
                let status = conn.get("/v1/optimal-p", &q.query_string());
                let body = String::from_utf8_lossy(conn.body()).into_owned();
                let want = oracle
                    .optimal_p(rho, metric, constraint)
                    .map(|s| without_cache(&s));
                let same = want.as_ref().is_ok_and(|w| *w == without_cache(&body));
                checks.op(match status {
                    Ok(200) if same && Class::of(&body) == Some(Class::Hit) => None,
                    other => Some(format!("probe rho={rho} {metric}: {other:?} {body}")),
                });
            }
        }
    }
}

/// Cache tallies between two snapshots.
fn cache_delta(after: &CacheStats, before: &CacheStats) -> [(&'static str, u64); 5] {
    [
        ("serve.cache.hits", after.hits - before.hits),
        ("serve.cache.misses", after.misses - before.misses),
        ("serve.cache.coalesced", after.coalesced - before.coalesced),
        ("serve.cache.evictions", after.evictions - before.evictions),
        ("serve.cache.rejected", after.rejected - before.rejected),
    ]
}

/// Runs `mix`: [`SETUPS`] server start-ups, then the measured window on
/// the last server; traced when `tracer` is given.
pub fn run(
    mix: Mix,
    seed: u64,
    scale: Scale,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (Checks, Values) {
    let plan = Plan::new(mix, scale, seed, seconds);
    let mut checks = Checks::default();
    let root = tracer.map(|t| {
        t.start(
            if mix == Mix::Warm {
                "serve_warm"
            } else {
                "serve_churn"
            },
            ROOT,
            seed,
        )
    });
    let root_id = root.as_ref().map_or(ROOT, |r| r.id());

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let open = tracer.map(|t| t.start("setup", root_id, i as u64));
        let up = set_up(&plan, &mut checks);
        if let (Some(t), Some(open)) = (tracer, open) {
            t.end(open);
        }
        let Some((server, secs, next)) = up else {
            break;
        };
        setups.push(secs);
        // The last server carries the window; earlier ones shut down.
        live = Some((server, next));
    }
    let Some((mut server, next)) = live else {
        return (checks, Values::new());
    };

    let cache_before = server.service().cache_stats();
    let kernels_before = KernelCache::global().stats();
    let open = tracer.map(|t| t.start("window", root_id, 0));
    let w = measure(
        &plan,
        &server,
        next,
        tracer.zip(open.as_ref().map(|o| o.id())),
    );
    if let (Some(t), Some(open)) = (tracer, open) {
        t.end(open);
    }
    let cache_after = server.service().cache_stats();
    let kernels_after = KernelCache::global().stats();

    let mut v = Values::new();
    let segments = w.throughput.len() as u64;
    match tracer {
        None => {
            let n = w.tally.all.count();
            put(&mut v, "setup_s", median(&setups), setups.len() as u64);
            put(&mut v, "throughput_per_s", median(&w.throughput), segments);
            put(&mut v, "latency_p50_ms", median(&w.p50_ns) / 1e6, n);
            put(&mut v, "latency_tail_ms", median(&w.tail_ns) / 1e6, n);
        }
        Some(t) => {
            let replay = t.start("replay", root_id, 0);
            replay_layers(&plan, &server, &w.tally, t, replay.id());
            t.end(replay);
            layer_values(&mut v, t, &w.tally);
            for (name, n) in cache_delta(&cache_after, &cache_before) {
                put(&mut v, name, n as f64, 1);
            }
            let lookups = (cache_after.hits + cache_after.misses + cache_after.coalesced)
                - (cache_before.hits + cache_before.misses + cache_before.coalesced);
            let hits = cache_after.hits - cache_before.hits;
            put(
                &mut v,
                "serve.cache.hit_rate",
                hits as f64 / lookups.max(1) as f64,
                lookups,
            );
            put(
                &mut v,
                "serve.cache.resident_bytes",
                cache_after.resident_bytes as f64,
                1,
            );
            put(
                &mut v,
                "analysis.kernel_cache.hits",
                (kernels_after.0 - kernels_before.0) as f64,
                1,
            );
            put(
                &mut v,
                "analysis.kernel_cache.misses",
                (kernels_after.1 - kernels_before.1) as f64,
                1,
            );
            put(
                &mut v,
                "trace.throughput_per_s",
                median(&w.throughput),
                segments,
            );
        }
    }

    checks.merge(w.tally.checks);
    check_answers(&plan, &server, &w.tally.samples, &mut checks);
    server.shutdown();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.end(root);
    }
    if tracer.is_none() {
        put(&mut v, "peak_rss_mb", peak_rss_mb(), 1);
    }
    (checks, v)
}

/// Traced replays after the window. `Warm`: the first [`REPLAYS`]
/// requests of client 0 through `Router::route` (no socket), through
/// `QueryService::batch`, and query by query through
/// `QueryService::optimal_p`. `Churn`: `ProbabilitySweep::run` for up to
/// [`SWEEP_REPLAYS`] densities that missed.
fn replay_layers(plan: &Plan, server: &QueryServer, tally: &Tally, t: &Tracer, parent: u64) {
    let service = Arc::clone(server.service());
    match plan.mix {
        Mix::Warm => {
            let router = nss_serve::router(Arc::clone(&service));
            let requests: Vec<(u64, Request)> =
                (0..REPLAYS).map(|i| (i, plan.request(0, i))).collect();
            for (i, req) in &requests {
                t.span("http.route", parent, *i, |_| {
                    std::hint::black_box(router.route(req))
                });
            }
            for (i, req) in &requests {
                let _ = t.span("serve.batch", parent, *i, |_| {
                    std::hint::black_box(service.batch(&req.body))
                });
            }
            for i in 0..REPLAYS {
                for q in plan.queries(0, i) {
                    let _ = t.span("serve.optimal_p", parent, i, |_| {
                        std::hint::black_box(service.optimal_p(q.rho, q.metric, q.constraint))
                    });
                }
            }
        }
        Mix::Churn => {
            let mut missed = tally.missed.clone();
            missed.sort_by(f64::total_cmp);
            missed.dedup();
            for (i, &rho) in missed.iter().take(SWEEP_REPLAYS).enumerate() {
                let mut cfg = RingModelConfig::paper(rho, 0.0);
                cfg.quad_points = plan.quad_points;
                t.span("analysis.sweep_build", parent, i as u64, |_| {
                    std::hint::black_box(ProbabilitySweep::run(
                        cfg,
                        &ProbabilitySweep::paper_grid(),
                    ))
                });
            }
        }
    }
}

/// The `http`, `serve` and `analysis` layer metrics of a traced window.
fn layer_values(v: &mut Values, t: &Tracer, tally: &Tally) {
    let n = tally.all.count();
    let rtt_us = tally.all.quantile(0.5) / 1e3;
    put(v, "http.rtt.p50_us", rtt_us, n);
    put(v, "http.rtt.tail_us", tally.all.tail().1 / 1e3, n);
    let [hit, miss, coalesced] = &tally.by_class;
    put(
        v,
        "serve.latency_hit.p50_us",
        hit.quantile(0.5) / 1e3,
        hit.count(),
    );
    put(
        v,
        "serve.latency_miss.p50_ms",
        miss.quantile(0.5) / 1e6,
        miss.count(),
    );
    put(
        v,
        "serve.latency_coalesced.p50_ms",
        coalesced.quantile(0.5) / 1e6,
        coalesced.count(),
    );

    let (spans, _) = t.snapshot();
    for layer in layers(&spans) {
        let p50_us = median(&layer.durations_ns) / 1e3;
        let count = layer.count as u64;
        match layer.name {
            "http.route" => {
                put(v, "http.route.p50_us", p50_us, count);
                put(v, "http.outside_route_share", 1.0 - p50_us / rtt_us, count);
            }
            "serve.batch" => put(v, "serve.batch.p50_us", p50_us, count),
            "serve.optimal_p" => put(v, "serve.optimal_p.p50_us", p50_us, count),
            "analysis.sweep_build" => {
                put(v, "analysis.sweep_build.p50_ms", p50_us / 1e3, count);
                put(
                    v,
                    "analysis.sweep_build.tail_ms",
                    tail(&layer.durations_ns).1 / 1e6,
                    count,
                );
            }
            _ => {}
        }
    }
    let busy = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum()
    };
    let batch_ns = busy("serve.batch");
    if batch_ns > 0 {
        put(
            v,
            "serve.json_share",
            1.0 - busy("serve.optimal_p") as f64 / batch_ns as f64,
            REPLAYS,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_fields_are_stripped() {
        let body =
            "{\"results\":[{\"p\":0.1,\"cache\":\"hit\"},{\"p\":0.2,\"cache\":\"coalesced\"}]}";
        assert_eq!(
            without_cache(body),
            "{\"results\":[{\"p\":0.1},{\"p\":0.2}]}"
        );
        assert_eq!(without_cache("{\"p\":1}"), "{\"p\":1}");
    }

    #[test]
    fn class_reads_the_cache_field() {
        assert_eq!(Class::of("{\"p\":1,\"cache\":\"miss\"}"), Some(Class::Miss));
        assert_eq!(
            Class::of("{\"p\":1,\"cache\":\"coalesced\"}"),
            Some(Class::Coalesced)
        );
        assert_eq!(Class::of("{\"error\":\"x\"}"), None);
    }
}
