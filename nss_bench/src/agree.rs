//! `nss_bench agree SET_A SET_B`: do two sets of runs of the same commit
//! agree within the benchmark's own bounds?
//!
//! For each (workload, end-to-end metric) it reports each set's median
//! and quartiles and flags any pair whose medians differ by more than the
//! metric's `bound` in `BENCHMARK.json`. Sets measured on different host
//! fingerprints are refused: their timings are not comparable.

use crate::stats::quartiles;
use nss_obs::jsonval::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"better": "lower"`.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the median.
    pub bound: f64,
}

/// The end-to-end metrics and bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Bound {
                name: text("name").ok_or("end_to_end metric without a name")?,
                unit: text("unit").ok_or("end_to_end metric without a unit")?,
                lower_is_better: text("better").as_deref() == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end metric without a bound")?,
            })
        })
        .collect()
}

/// The values of one `run` result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    /// The host fingerprint of its provenance block.
    pub fingerprint: String,
    /// `(workload, metric) → value`.
    pub values: BTreeMap<(String, String), f64>,
}

/// Parses a result file written by `nss_bench run`.
pub fn parse_run(text: &str) -> Result<RunFile, String> {
    let doc = Json::parse(text)?;
    let fingerprint = doc
        .get("provenance")
        .and_then(|p| p.get("fingerprint"))
        .and_then(Json::as_str)
        .ok_or("no provenance fingerprint")?
        .to_string();
    let mut values = BTreeMap::new();
    for (workload, result) in doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no workloads")?
    {
        for (metric, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values.insert((workload.clone(), metric.clone()), v);
            }
        }
    }
    Ok(RunFile {
        fingerprint,
        values,
    })
}

/// A set of runs: every `run-*.json` of a directory, or one file.
pub fn load_set(path: &Path) -> Result<Vec<RunFile>, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("run-") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!("{}: no run-*.json files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// Quartiles of one set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Runs.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        let (q1, median, q3) = quartiles(values);
        Spread {
            n: values.len(),
            q1,
            median,
            q3,
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// The metric and its bound.
    pub metric: Bound,
    /// Set A.
    pub a: Spread,
    /// Set B.
    pub b: Spread,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative when better).
    pub worse_by: f64,
    /// The medians differ by more than the bound.
    pub flagged: bool,
}

/// Compares two sets metric by metric.
pub fn compare(bounds: &[Bound], a: &[RunFile], b: &[RunFile]) -> Result<Vec<Row>, String> {
    let fingerprints: Vec<&str> = a.iter().chain(b).map(|r| r.fingerprint.as_str()).collect();
    if let Some(other) = fingerprints.iter().find(|f| **f != fingerprints[0]) {
        return Err(format!(
            "refusing to compare runs from different hosts:\n  {}\n  {other}",
            fingerprints[0]
        ));
    }
    let mut workloads: Vec<&str> = Vec::new();
    for run in a.iter().chain(b) {
        for (w, _) in run.values.keys() {
            if !workloads.contains(&w.as_str()) {
                workloads.push(w);
            }
        }
    }
    let collect = |set: &[RunFile], w: &str, m: &str| -> Vec<f64> {
        set.iter()
            .filter_map(|r| r.values.get(&(w.to_string(), m.to_string())).copied())
            .collect()
    };
    let mut rows = Vec::new();
    for w in workloads {
        for metric in bounds {
            let (va, vb) = (collect(a, w, &metric.name), collect(b, w, &metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Spread::of(&va), Spread::of(&vb));
            let shift = (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
            let worse_by = if metric.lower_is_better {
                shift
            } else {
                -shift
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: metric.clone(),
                a: sa,
                b: sb,
                worse_by,
                flagged: worse_by.abs() > metric.bound,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, one line per (workload, metric).
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<17} {:>38} {:>38} {:>9} {:>6}\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "bound"
    );
    let cell = |s: &Spread| format!("{:.5} [{:.5}, {:.5}] ({})", s.median, s.q1, s.q3, s.n);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<17} {:>38} {:>38} {:>+8.2}% {:>5.0}%{}",
            r.workload,
            format!("{} {}", r.metric.name, r.metric.unit),
            cell(&r.a),
            cell(&r.b),
            r.worse_by * 100.0,
            r.metric.bound * 100.0,
            if r.flagged { "  DISAGREE" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#;

    fn run(fingerprint: &str, latency: f64, qps: f64) -> RunFile {
        let mut values = BTreeMap::new();
        values.insert(("hit".to_string(), "latency_ms".to_string()), latency);
        values.insert(("hit".to_string(), "qps".to_string()), qps);
        RunFile {
            fingerprint: fingerprint.to_string(),
            values,
        }
    }

    fn set(fingerprint: &str, latencies: &[f64], qps: f64) -> Vec<RunFile> {
        latencies
            .iter()
            .map(|&l| run(fingerprint, l, qps))
            .collect()
    }

    #[test]
    fn bounds_parse_direction_and_share() {
        let b = bounds(BENCH).expect("bounds");
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_is_better && !b[1].lower_is_better);
        assert_eq!(b[1].bound, 0.2);
    }

    #[test]
    fn medians_within_bound_agree() {
        let b = bounds(BENCH).expect("bounds");
        let rows = compare(
            &b,
            &set("h", &[1.0, 1.02, 0.98, 1.0, 1.01], 100.0),
            &set("h", &[1.05, 1.04, 1.06, 1.0, 1.05], 85.0),
        )
        .expect("same host");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r.flagged), "{rows:?}");
        assert!((rows[0].worse_by - 0.05).abs() < 1e-9);
        assert_eq!(rows[0].a.median, 1.0);
        assert_eq!(rows[0].a.n, 5);
        // Fewer queries per second is worse: +15%.
        assert!((rows[1].worse_by - 0.15).abs() < 1e-9);
    }

    #[test]
    fn medians_beyond_bound_are_flagged_in_either_direction() {
        let b = bounds(BENCH).expect("bounds");
        let slower = compare(&b, &set("h", &[1.0; 5], 100.0), &set("h", &[1.2; 5], 100.0))
            .expect("same host");
        assert!(slower[0].flagged && !slower[1].flagged);
        let faster = compare(&b, &set("h", &[1.0; 5], 100.0), &set("h", &[1.0; 5], 130.0))
            .expect("same host");
        assert!(!faster[0].flagged && faster[1].flagged);
        assert!(faster[1].worse_by < 0.0);
        assert!(render(&slower).contains("DISAGREE"));
    }

    #[test]
    fn different_hosts_are_refused() {
        let b = bounds(BENCH).expect("bounds");
        let err = compare(
            &b,
            &set("nproc=2", &[1.0], 1.0),
            &set("nproc=8", &[1.0], 1.0),
        )
        .unwrap_err();
        assert!(err.contains("different hosts"), "{err}");
    }

    #[test]
    fn run_files_parse() {
        let text = r#"{"provenance": {"fingerprint": "fp"}, "seed": 3, "workloads": {
            "hit": {"correct": true, "metrics": {"latency_ms": {"value": 1.5, "unit": "ms", "n": 9}}}}}"#;
        let r = parse_run(text).expect("parses");
        assert_eq!(r.fingerprint, "fp");
        assert_eq!(
            r.values[&("hit".to_string(), "latency_ms".to_string())],
            1.5
        );
    }
}
