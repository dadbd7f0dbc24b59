//! The metric catalogues, correctness tallies and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (name, unit): every workload reports all of them,
/// measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit) of a traced run. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("model.sample.busy_s", "s"),
    ("model.topology.build.busy_s", "s"),
    ("model.topology.build.p50_ms", "ms"),
    ("model.topology.build.tail_ms", "ms"),
    ("model.topology.nodes_per_s", "1/s"),
    ("model.topology.adjacency_bytes", "bytes"),
    ("model.topology.degree_mean", "count"),
    ("sim.run.busy_s", "s"),
    ("sim.run.p50_ms", "ms"),
    ("sim.run.tail_ms", "ms"),
    ("sim.node_phases_per_s", "1/s"),
    ("sim.phases", "count"),
    ("sim.broadcasts", "count"),
    ("sim.deliveries", "count"),
    ("sim.collisions", "count"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.runner.overhead_s", "s"),
    ("sim.runner.imbalance", "ratio"),
    ("sim.layer_coverage", "ratio"),
    ("http.rtt.p50_us", "us"),
    ("http.rtt.tail_us", "us"),
    ("http.route.p50_us", "us"),
    ("http.outside_route_share", "ratio"),
    ("serve.batch.p50_us", "us"),
    ("serve.optimal_p.p50_us", "us"),
    ("serve.json_share", "ratio"),
    ("serve.latency_hit.p50_us", "us"),
    ("serve.latency_miss.p50_ms", "ms"),
    ("serve.latency_coalesced.p50_ms", "ms"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.rejected", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.resident_bytes", "bytes"),
    ("analysis.sweep_build.p50_ms", "ms"),
    ("analysis.sweep_build.tail_ms", "ms"),
    ("analysis.kernel_cache.hits", "count"),
    ("analysis.kernel_cache.misses", "count"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
    ("trace.throughput_per_s", "1/s"),
];

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the catalogue's unit.
    pub value: f64,
    /// Samples it summarizes (1 for a single measurement or count).
    pub n: u64,
}

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, Value>;

/// Inserts `name = value` over `n` samples.
pub fn put(values: &mut Values, name: &'static str, value: f64, n: u64) {
    values.insert(name, Value { value, n });
}

/// Correctness tally: operations attempted and those that failed a check.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
    /// The first failure messages.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation; `failure` is `None` when every check passed.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = failure {
            self.fail(msg);
        }
    }

    /// Marks a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(note);
            }
        }
    }

    /// True when nothing failed.
    pub fn passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The metrics of `catalogue`, in its order, from `values`; a metric the
/// run did not produce reads 0 over 0 samples.
pub fn select(
    catalogue: &[(&'static str, &'static str)],
    values: &Values,
) -> Vec<(&'static str, &'static str, Value)> {
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .unwrap_or(Value { value: 0.0, n: 0 });
            (name, unit, v)
        })
        .collect()
}

/// `workload metric value unit (n=samples)`, one line per metric.
pub fn human_lines(workload: &str, metrics: &[(&'static str, &'static str, Value)]) -> String {
    let mut out = String::new();
    for (name, unit, v) in metrics {
        let _ = writeln!(out, "{workload} {name} {} {unit} (n={})", v.value, v.n);
    }
    out
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(checks: &Checks, metrics: &[(&'static str, &'static str, Value)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(v.value)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        checks.passed(),
        checks.attempted,
        checks.failed
    )
}

/// A finite f64 with every digit (Rust's shortest round-trip form);
/// non-finite values, which JSON cannot carry, become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_obs::jsonval::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::default();
        checks.op(None);
        checks.op(Some("bad".to_string()));
        let mut values = Values::new();
        put(&mut values, "setup_s", 0.8127, 3);
        let metrics = select(&END_TO_END, &values);
        let doc = Json::parse(&result_line(&checks, &metrics)).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(m.as_obj().map(<[_]>::len), Some(END_TO_END.len()));
        let setup = m.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert!(!Checks::default().passed());
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }
}
