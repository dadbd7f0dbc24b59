//! SARIF 2.1.0 rendering of the lint report.
//!
//! Hand-rendered, since no serializer is in the tree. The output is the minimal static-analysis interchange shape CI
//! artifact viewers and code-scanning uploads accept: one `run` with the
//! `nss-lint` tool and its rule catalogue, and one `result` per
//! surviving violation with a physical location. It is the linter's one
//! machine-readable report.

use crate::{rules, Report};

/// Renders the report as a SARIF 2.1.0 document.
pub fn render(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"nss-lint\",\n");
    s.push_str("          \"informationUri\": \"https://example.invalid/nss-lint\",\n");
    s.push_str("          \"rules\": [");
    let mut first = true;
    for (id, _, describe) in rules::catalogue() {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            escape(id),
            escape(describe)
        ));
    }
    s.push_str("\n          ]\n        }\n      },\n");
    s.push_str("      \"results\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            escape(v.rule),
            escape(&v.message),
            escape(&v.path),
            v.line
        ));
    }
    if !report.violations.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("]\n    }\n  ]\n}\n");
    s
}

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
    fn renders_rules_and_results() {
        let report = Report {
            files: vec!["a.rs".into()],
            violations: vec![Violation {
                path: "a.rs".into(),
                line: 7,
                rule: "lock-order",
                message: "cycle: \"a\" → b".into(),
            }],
        };
        let s = render(&report);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"lock-order\""));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("cycle: \\\"a\\\" → b"));
        // Every registered rule appears in the driver catalogue.
        for id in crate::rules::ids() {
            assert!(s.contains(&format!("\"id\": \"{id}\"")), "{id}");
        }
    }

    #[test]
    fn empty_results_is_valid() {
        let s = render(&Report {
            files: vec![],
            violations: vec![],
        });
        assert!(s.contains("\"results\": []"));
    }
}
