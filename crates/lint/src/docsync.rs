//! Generated-block splicing shared by the doc-sync subcommands.
//!
//! `nss-lint metrics --write docs/METRICS.md` and
//! `nss-lint rules --write docs/LINTS.md` both maintain a generated
//! markdown block between HTML-comment markers inside a hand-written
//! document; `--check` is the CI gate that the committed block matches
//! what the code produces. This module holds the marker-agnostic splice
//! machinery plus the rule-catalogue renderer (the metric renderer lives
//! with its scanner in [`crate::metrics`]).

use crate::rules;

/// Opening marker of the generated rules block in `docs/LINTS.md`.
pub const RULES_BEGIN: &str = "<!-- BEGIN nss-lint rules (generated; edit with \
                               `cargo run -p nss-lint -- rules --write docs/LINTS.md`) -->";
/// Closing marker. See [`RULES_BEGIN`].
pub const RULES_END: &str = "<!-- END nss-lint rules -->";

/// Renders the rule catalogue as a generated markdown block (markers
/// included), one row per rule plus the reserved `pragma` id.
pub fn render_rules() -> String {
    let mut out = String::new();
    out.push_str(RULES_BEGIN);
    out.push_str("\n\n| id | invariant |\n|---|---|\n");
    for (id, describe) in rules::catalogue() {
        out.push_str(&format!("| `{id}` | {} |\n", oneline(describe)));
    }
    out.push('\n');
    out.push_str(RULES_END);
    out.push('\n');
    out
}

/// Collapses the describe() string's whitespace for a table cell.
fn oneline(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Replaces the `begin…end` block of `doc` with `block` (which must carry
/// its own markers).
pub fn splice(doc: &str, block: &str, begin: &str, end: &str) -> Result<String, String> {
    let (b, e) = locate(doc, begin, end)?;
    let tail = &doc[e + end.len()..];
    let tail = tail.strip_prefix('\n').unwrap_or(tail);
    Ok(format!("{}{}{}", &doc[..b], block, tail))
}

/// Extracts the currently committed block (markers included, trailing
/// newline included).
pub fn committed_block<'a>(doc: &'a str, begin: &str, end: &str) -> Result<&'a str, String> {
    let (b, e) = locate(doc, begin, end)?;
    Ok(&doc[b..e + end.len() + 1])
}

fn locate(doc: &str, begin: &str, end: &str) -> Result<(usize, usize), String> {
    let b = doc
        .find(begin)
        .ok_or_else(|| format!("missing `{begin}` marker"))?;
    let e = doc
        .find(end)
        .ok_or_else(|| format!("missing `{end}` marker"))?;
    if e < b {
        return Err("END marker precedes BEGIN marker".to_string());
    }
    Ok((b, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_block_lists_every_rule() {
        let block = render_rules();
        for id in rules::ids() {
            assert!(block.contains(&format!("| `{id}` |")), "{id}");
        }
        assert!(block.contains("| `pragma` |"));
        assert!(block.starts_with(RULES_BEGIN));
        assert!(block.ends_with(&format!("{RULES_END}\n")));
    }

    #[test]
    fn splice_round_trips() {
        let doc = format!("# Title\n\n{RULES_BEGIN}\nold\n{RULES_END}\n\n## Tail\n");
        let block = render_rules();
        let updated = splice(&doc, &block, RULES_BEGIN, RULES_END).unwrap();
        assert!(updated.starts_with("# Title"));
        assert!(updated.ends_with("## Tail\n"));
        assert_eq!(
            committed_block(&updated, RULES_BEGIN, RULES_END).unwrap(),
            block
        );
        // Idempotent.
        assert_eq!(
            splice(&updated, &block, RULES_BEGIN, RULES_END).unwrap(),
            updated
        );
    }

    #[test]
    fn missing_marker_is_an_error() {
        assert!(splice("no markers", "x", RULES_BEGIN, RULES_END).is_err());
    }
}
