//! The `nss-lint: allow(...)` pragma grammar.
//!
//! A violation is suppressed by a line comment of the form
//!
//! ```text
//! // nss-lint: allow(rule-id[, rule-id…]) — reason text
//! ```
//!
//! placed either on the offending line or on the line directly above it.
//! The reason is **mandatory** (an allow without a written justification is
//! itself a violation) and the separator may be an em-dash `—`, `--`, `-`,
//! or `:`. Rule ids must name known rules; unknown ids are violations so
//! typos cannot silently disable nothing.

use crate::lexer::LineComment;

/// A parsed pragma, or a record of why parsing failed.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// Rule ids this pragma allows.
    pub rules: Vec<String>,
    /// Parse failure, reported as a `pragma` violation (`None` = well-formed).
    pub error: Option<String>,
}

/// Extracts pragmas from the file's line comments.
pub fn parse_pragmas(comments: &[LineComment], known_rules: &[&str]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        // A pragma must *begin* the comment (`// nss-lint: …`). Doc
        // comments (`///`, `//!`) can never be pragmas — their captured
        // text starts with `/` or `!` — so prose *about* the grammar is
        // not mistaken for an instance of it.
        let Some(body) = c.text.trim_start().strip_prefix("nss-lint:") else {
            continue;
        };
        out.push(parse_one(c.line, body.trim_start(), known_rules));
    }
    out
}

fn parse_one(line: u32, body: &str, known_rules: &[&str]) -> Pragma {
    let fail = |msg: &str| Pragma {
        line,
        rules: Vec::new(),
        error: Some(msg.to_string()),
    };
    let Some(rest) = body.strip_prefix("allow(") else {
        return fail("expected `allow(<rule>[, <rule>…])` after `nss-lint:`");
    };
    let Some(close) = rest.find(')') else {
        return fail("unclosed `allow(` in pragma");
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return fail("pragma allows no rules");
    }
    for r in &rules {
        if !known_rules.contains(&r.as_str()) {
            return fail(&format!("unknown rule `{r}` in pragma"));
        }
    }
    // Everything after the `)` minus separators must be a non-empty reason.
    let reason = rest[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '-', ':', ' '])
        .trim();
    if reason.is_empty() {
        return fail("pragma must carry a reason: `… — <why this is sound>`");
    }
    Pragma {
        line,
        rules,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["rng-discipline", "float-safety"];

    fn parse(text: &str) -> Pragma {
        let c = [LineComment {
            line: 7,
            text: text.to_string(),
        }];
        parse_pragmas(&c, RULES).pop().expect("one pragma")
    }

    #[test]
    fn well_formed() {
        let p = parse(" nss-lint: allow(rng-discipline) — fixed seed is the point of this test");
        assert!(p.error.is_none(), "{:?}", p.error);
        assert_eq!(p.rules, ["rng-discipline"]);
        assert_eq!(p.line, 7);
    }

    #[test]
    fn multiple_rules_and_ascii_separator() {
        let p = parse(" nss-lint: allow(rng-discipline, float-safety) -- both fine here");
        assert!(p.error.is_none());
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let p = parse(" nss-lint: allow(rng-discipline)");
        assert!(p.error.as_deref().unwrap_or("").contains("reason"));
        let p = parse(" nss-lint: allow(rng-discipline) — ");
        assert!(p.error.is_some());
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let p = parse(" nss-lint: allow(no-such-rule) — because");
        assert!(p.error.as_deref().unwrap_or("").contains("unknown rule"));
    }

    #[test]
    fn malformed_shapes() {
        assert!(parse(" nss-lint: disable(rng-discipline) — x")
            .error
            .is_some());
        assert!(parse(" nss-lint: allow(rng-discipline — x").error.is_some());
        assert!(parse(" nss-lint: allow() — x").error.is_some());
    }

    #[test]
    fn non_pragma_comments_ignored() {
        let c = [LineComment {
            line: 1,
            text: " just words".to_string(),
        }];
        assert!(parse_pragmas(&c, RULES).is_empty());
    }
}
