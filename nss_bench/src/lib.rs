//! `nss_bench`: the end-to-end benchmark of the nss workspace.
//!
//! Four workloads, each run in a process of its own:
//!
//! * `sim_sweep` — the paper's simulation protocol over the Fig. 8 grid;
//! * `sim_scale` — sample, CSR build and sharded flood of a
//!   1,011,500-node field;
//! * `serve_warm` — batched optimal-p queries, every answer a cache hit;
//! * `serve_churn` — single queries over more densities than the cache
//!   holds.
//!
//! With tracing off a run measures the end-to-end metrics of
//! [`report::END_TO_END`] through the program's real entry points. A
//! traced run records the benchmark's own spans around calls into the
//! public functions of each layer and reports [`report::PER_LAYER`].

#![forbid(unsafe_code)]

pub mod agree;
pub mod client;
pub mod provenance;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod tracer;

use nss_obs::export::json_escape;
use report::{put, select, Checks, Value, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::Path;

/// Simulation worker threads of every simulation workload, on any host.
pub const THREADS: usize = 2;

/// Spans kept per layer in a traced run; the rest are counted as dropped.
const SPANS_PER_LAYER: usize = 1 << 16;

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A few-second version of every workload that exercises every check.
    Smoke,
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's replicated sweep.
    SimSweep,
    /// The million-node flood.
    SimScale,
    /// Warm batched queries.
    ServeWarm,
    /// Churning single queries.
    ServeChurn,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::SimSweep,
        Workload::SimScale,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::SimScale => "sim_scale",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurn => "serve_churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The settings recorded in the provenance block.
    pub fn settings(self, seed: u64, scale: Scale, seconds: f64) -> Vec<(String, String)> {
        let mut s = match self {
            Workload::SimSweep => sim::Grid::new(scale).settings(),
            Workload::SimScale => sim::scale_settings(scale),
            Workload::ServeWarm => {
                serve::Plan::new(serve::Mix::Warm, scale, seed, seconds).settings()
            }
            Workload::ServeChurn => {
                serve::Plan::new(serve::Mix::Churn, scale, seed, seconds).settings()
            }
        };
        s.insert(0, ("workload".to_string(), self.name().to_string()));
        s.push(("scale".to_string(), format!("{scale:?}").to_lowercase()));
        s
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub checks: Checks,
    /// `(name, unit, value)` of every catalogue metric.
    pub metrics: Vec<(&'static str, &'static str, Value)>,
}

impl Outcome {
    /// The detail record `run` collects: result, sample counts, failure
    /// notes and provenance.
    pub fn detail_json(&self, provenance: &str) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"n\":{}}}",
                    report::json_number(v.value),
                    v.n
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let notes = self
            .checks
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}},\
             \"notes\":[{notes}],\"provenance\":{provenance}}}\n",
            self.checks.passed(),
            self.checks.attempted,
            self.checks.failed
        )
    }
}

/// Runs `workload` in this process. Untraced it reports
/// [`END_TO_END`]; traced it reports [`PER_LAYER`] and writes
/// `trace.json` and `layers.json`, stamped with `provenance`, into `out`.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: bool,
    out: &Path,
    provenance: &str,
) -> std::io::Result<Outcome> {
    use serve::Mix;
    if !trace {
        let (checks, values) = match workload {
            Workload::SimSweep => sim::sweep(seed, scale),
            Workload::SimScale => sim::scale(seed, scale, None),
            Workload::ServeWarm => serve::run(Mix::Warm, seed, scale, seconds, None),
            Workload::ServeChurn => serve::run(Mix::Churn, seed, scale, seconds, None),
        };
        return Ok(Outcome {
            checks,
            metrics: select(&END_TO_END, &values),
        });
    }

    let tracer = tracer::Tracer::new(SPANS_PER_LAYER);
    let registry = nss_obs::registry::Registry::global();
    let before = registry.snapshot();
    let (checks, mut values) = match workload {
        Workload::SimSweep => sim::sweep_traced(seed, scale, &tracer),
        Workload::SimScale => sim::scale(seed, scale, Some(&tracer)),
        Workload::ServeWarm => serve::run(Mix::Warm, seed, scale, seconds, Some(&tracer)),
        Workload::ServeChurn => serve::run(Mix::Churn, seed, scale, seconds, Some(&tracer)),
    };
    let obs = registry.snapshot().delta_since(&before);
    let (spans, dropped) = tracer.snapshot();
    put(&mut values, "trace.spans", spans.len() as f64, 1);
    put(&mut values, "trace.spans_dropped", dropped as f64, 1);
    let outcome = Outcome {
        checks,
        metrics: select(&PER_LAYER, &values),
    };

    std::fs::create_dir_all(out)?;
    std::fs::write(
        out.join("trace.json"),
        tracer::chrome_json(&spans, dropped, provenance),
    )?;
    let mut layers = String::new();
    for (i, l) in tracer::layers(&spans).iter().enumerate() {
        let _ = write!(
            layers,
            "{}\n    {{\"name\":\"{}\",\"count\":{},\"busy_s\":{},\"self_s\":{},\"p50_ms\":{},\"tail_ms\":{}}}",
            if i > 0 { "," } else { "" },
            l.name,
            l.count,
            l.busy_ns as f64 / 1e9,
            l.self_ns as f64 / 1e9,
            stats::median(&l.durations_ns) / 1e6,
            stats::tail(&l.durations_ns).1 / 1e6,
        );
    }
    let counters = obs
        .counters
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect::<Vec<_>>()
        .join(",");
    let histogram_sums = obs
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(k, h)| {
            format!(
                "\"{}\":{{\"count\":{},\"sum\":{}}}",
                json_escape(k),
                h.count,
                report::json_number(h.sum)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    std::fs::write(
        out.join("layers.json"),
        format!(
            "{{\"workload\":\"{}\",\"layers\":[{layers}\n  ],\n\"result\":{},\
             \"obs\":{{\"counters\":{{{counters}}},\"histograms\":{{{histogram_sums}}}}}}}\n",
            workload.name(),
            outcome.detail_json(provenance).trim_end(),
        ),
    )?;
    Ok(outcome)
}
