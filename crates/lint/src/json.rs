//! Machine-readable report rendering.
//!
//! The vendored `serde` carries no serializer (it is a derive-only marker
//! subset), so the JSON report is rendered by hand. The shape is stable —
//! CI uploads it as an artifact and tooling may diff it across runs:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "files_scanned": 87,
//!   "violation_count": 0,
//!   "violations": [ {"path": "…", "line": 12, "rule": "…", "message": "…"} ]
//! }
//! ```

use crate::Report;

/// Renders the report as pretty-printed JSON.
pub fn render(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files.len()));
    s.push_str(&format!(
        "  \"violation_count\": {},\n",
        report.violations.len()
    ));
    s.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            escape(&v.path),
            v.line,
            escape(v.rule),
            escape(&v.message)
        ));
    }
    if !report.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    #[test]
    fn renders_and_escapes() {
        let report = Report {
            files: vec!["a.rs".into(), "b.rs".into()],
            violations: vec![Violation {
                path: "a.rs".into(),
                line: 3,
                rule: "rng-discipline",
                message: "say \"no\" to\npanics".into(),
            }],
        };
        let j = render(&report);
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\"violation_count\": 1"));
        assert!(j.contains("\\\"no\\\" to\\npanics"));
    }

    #[test]
    fn empty_report_is_valid() {
        let j = render(&Report {
            files: vec![],
            violations: vec![],
        });
        assert!(j.contains("\"violations\": []"));
    }
}
