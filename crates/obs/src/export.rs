//! Snapshot exporters: console table, JSON, and Prometheus text format.
//!
//! All three render the same point-in-time snapshot of the global
//! [`Registry`]: labels, counters, gauges, and histogram aggregates
//! (including p50/p90/p99 estimates). JSON is hand-rolled (no
//! serializer dependency — this crate must stay dependency-free) but emits
//! strict RFC 8259 output, and the Prometheus output follows text exposition
//! v0.0.4: `# HELP`/`# TYPE` per family, cumulative `_bucket{le=...}`
//! series, `\\`/`"`/newline escapes in label values.

use crate::registry::{bucket_bound, HistogramSnapshot, Registry, HISTOGRAM_BUCKETS};
use std::fmt::Write;

/// Escapes a string for a JSON string literal (without the quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (non-finite values become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders the registry as a human-readable table.
pub fn console_table(reg: &Registry) -> String {
    let mut out = String::new();
    let labels = reg.labels_snapshot();
    let counters = reg.counters_snapshot();
    let gauges = reg.gauges_snapshot();
    let hists = reg.histograms_snapshot();
    if !labels.is_empty() {
        out.push_str("labels:\n");
        for (k, v) in &labels {
            let _ = writeln!(out, "  {k} = {v}");
        }
    }
    if !counters.is_empty() {
        let width = counters.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        out.push_str("counters:\n");
        for (k, v) in &counters {
            let _ = writeln!(out, "  {k:<width$}  {v:>12}");
        }
    }
    if !gauges.is_empty() {
        let width = gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        out.push_str("gauges:\n");
        for (k, v) in &gauges {
            let _ = writeln!(out, "  {k:<width$}  {v:>16.6}");
        }
    }
    if !hists.is_empty() {
        out.push_str("histograms (count / mean / p50 / p99 / max):\n");
        let width = hists.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, h) in &hists {
            let (p50, _, p99) = h.percentiles();
            let _ = writeln!(
                out,
                "  {k:<width$}  {:>8}  {:>12.6}  {:>12.6}  {:>12.6}  {:>12.6}",
                h.count,
                h.mean(),
                p50.unwrap_or(0.0),
                p99.unwrap_or(0.0),
                h.max.unwrap_or(0.0),
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    let mut first = true;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue; // sparse: empty buckets carry no information
        }
        if !first {
            buckets.push(',');
        }
        first = false;
        let le = if i < HISTOGRAM_BUCKETS {
            json_f64(bucket_bound(i))
        } else {
            "null".to_string() // the +inf overflow bucket
        };
        let _ = write!(buckets, "[{le},{c}]");
    }
    buckets.push(']');
    let (p50, p90, p99) = h.percentiles();
    format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":{buckets}}}",
        h.count,
        json_f64(h.sum),
        json_f64(h.mean()),
        h.min.map_or("null".into(), json_f64),
        h.max.map_or("null".into(), json_f64),
        p50.map_or("null".into(), json_f64),
        p90.map_or("null".into(), json_f64),
        p99.map_or("null".into(), json_f64),
    )
}

/// Renders the registry as a JSON object:
/// `{"labels": {...}, "counters": {...}, "gauges": {...}, "histograms": {...}}`.
pub fn json(reg: &Registry) -> String {
    let mut out = String::from("{\n  \"labels\": {");
    for (i, (k, v)) in reg.labels_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("\n  },\n  \"counters\": {");
    for (i, (k, v)) in reg.counters_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (k, v)) in reg.gauges_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", json_escape(k), json_f64(*v));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (k, h)) in reg.histograms_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", json_escape(k), histogram_json(h));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Sanitizes a metric name for Prometheus (`[a-zA-Z0-9_]`, `nss_` prefix).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("nss_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a Prometheus label *value* (`\\`, `"`, and newline, per the
/// text exposition format).
fn prom_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a `# HELP` text line (`\\` and newline, per the format spec).
fn prom_help_text(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders the registry in the Prometheus text exposition format (v0.0.4):
/// counters as `counter`, gauges as `gauge`, histograms with cumulative
/// `_bucket{le=...}`, `_sum`, and `_count` series, labels as an
/// `info`-style gauge. Every family carries `# HELP` (echoing the
/// registry-side dotted name) and `# TYPE` lines.
pub fn prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    for (k, v) in reg.counters_snapshot() {
        let n = prom_name(&k);
        let _ = writeln!(
            out,
            "# HELP {n} nss counter `{}`\n# TYPE {n} counter\n{n} {v}",
            prom_help_text(&k)
        );
    }
    for (k, v) in reg.gauges_snapshot() {
        let n = prom_name(&k);
        let _ = writeln!(
            out,
            "# HELP {n} nss gauge `{}`\n# TYPE {n} gauge\n{n} {v}",
            prom_help_text(&k)
        );
    }
    for (k, h) in reg.histograms_snapshot() {
        let n = prom_name(&k);
        let _ = writeln!(
            out,
            "# HELP {n} nss histogram `{}`\n# TYPE {n} histogram",
            prom_help_text(&k)
        );
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            cum += c;
            if c == 0 && i < HISTOGRAM_BUCKETS {
                continue; // keep the exposition sparse; +Inf always printed
            }
            let le = if i < HISTOGRAM_BUCKETS {
                format!("{}", bucket_bound(i))
            } else {
                "+Inf".to_string()
            };
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
    }
    let labels = reg.labels_snapshot();
    if !labels.is_empty() {
        let mut pairs = String::new();
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                pairs.push(',');
            }
            let _ = write!(
                pairs,
                "{}=\"{}\"",
                prom_name(k).trim_start_matches("nss_"),
                prom_label_value(v)
            );
        }
        let _ = writeln!(
            out,
            "# HELP nss_run_info free-form run labels\n\
             # TYPE nss_run_info gauge\nnss_run_info{{{pairs}}} 1"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let reg = Registry::default();
        reg.counter("a.hits").add(10);
        reg.counter("a.misses").add(2);
        reg.gauge("mem.bytes").set(4096.0);
        reg.histogram("t.seconds").record(0.5);
        reg.histogram("t.seconds").record(2.0);
        reg.set_label("seed", "2005".into());
        reg
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn console_table_mentions_everything() {
        let t = console_table(&sample_registry());
        for needle in [
            "a.hits",
            "a.misses",
            "mem.bytes",
            "t.seconds",
            "seed = 2005",
            "10",
        ] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
        assert_eq!(
            console_table(&Registry::default()),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn json_is_well_formed() {
        let j = json(&sample_registry());
        let v = crate::jsonval::Json::parse(&j).expect("exporter emits valid JSON");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.hits"))
                .and_then(crate::jsonval::Json::as_f64),
            Some(10.0)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("mem.bytes"))
                .and_then(crate::jsonval::Json::as_f64),
            Some(4096.0)
        );
        assert_eq!(
            v.get("labels")
                .and_then(|l| l.get("seed"))
                .and_then(crate::jsonval::Json::as_str),
            Some("2005")
        );
        let hist = v
            .get("histograms")
            .and_then(|h| h.get("t.seconds"))
            .expect("t.seconds histogram");
        assert_eq!(
            hist.get("count").and_then(crate::jsonval::Json::as_f64),
            Some(2.0)
        );
        for q in ["p50", "p90", "p99"] {
            let est = hist
                .get(q)
                .and_then(crate::jsonval::Json::as_f64)
                .unwrap_or_else(|| panic!("{q} missing"));
            assert!(
                (0.5..=2.0).contains(&est),
                "{q}={est} outside observed [0.5, 2.0]"
            );
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let p = prometheus(&sample_registry());
        assert!(p.contains("# TYPE nss_a_hits counter"));
        assert!(p.contains("# HELP nss_a_hits "));
        assert!(p.contains("nss_a_hits 10"));
        assert!(p.contains("# TYPE nss_mem_bytes gauge"));
        assert!(p.contains("nss_mem_bytes 4096"));
        assert!(p.contains("# TYPE nss_t_seconds histogram"));
        assert!(p.contains("nss_t_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(p.contains("nss_t_seconds_count 2"));
        assert!(p.contains("nss_run_info{seed=\"2005\"} 1"));
        // Cumulative buckets: +Inf equals the total count.
        let inf_line = p
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf bucket");
        assert!(inf_line.ends_with(" 2"));
    }

    /// Structural validity per the text exposition format: every
    /// non-comment line is `name[{labels}] value`, names match
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`, every sample family has `# TYPE` (and
    /// `# HELP`) announced before its first sample.
    #[test]
    fn prometheus_lines_are_structurally_valid() {
        let reg = sample_registry();
        reg.counter("weird-name.1/2 spaced").inc();
        let p = prometheus(&reg);
        let valid_name = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut typed: Vec<String> = Vec::new();
        for line in p.lines().filter(|l| !l.is_empty()) {
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let kind = parts.next().unwrap_or("");
                let name = parts.next().unwrap_or("");
                assert!(
                    matches!(kind, "TYPE" | "HELP"),
                    "unknown comment kind in {line:?}"
                );
                assert!(valid_name(name), "bad family name in {line:?}");
                if kind == "TYPE" {
                    typed.push(name.to_string());
                }
                continue;
            }
            let name_end = line.find([' ', '{']).unwrap_or(line.len());
            let name = &line[..name_end];
            assert!(valid_name(name), "bad sample name in {line:?}");
            assert!(
                typed.iter().any(|t| name == t
                    || name
                        .strip_prefix(t.as_str())
                        .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count"))),
                "sample {name:?} has no preceding # TYPE"
            );
            let value = line[name_end..]
                .rsplit_once(' ')
                .map(|(_, v)| v)
                .unwrap_or("");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable value in {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_label_values_escape_backslash_quote_newline() {
        let reg = Registry::default();
        reg.set_label("cmd", "a\\b \"c\"\nd".into());
        let p = prometheus(&reg);
        assert!(
            p.contains(r#"nss_run_info{cmd="a\\b \"c\"\nd"} 1"#),
            "unexpected escaping:\n{p}"
        );
        // The exposition format is line-oriented: a raw newline inside a
        // label value would corrupt the whole scrape.
        assert!(p.lines().all(|l| !l.contains('\r')));
        assert_eq!(p.lines().filter(|l| l.contains("nss_run_info{")).count(), 1);
    }
}
