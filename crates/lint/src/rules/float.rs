//! `float-safety` — numerical hygiene in the analytical crates.
//!
//! Two hazards, scoped to `crates/analysis` and `crates/core` (the code
//! that evaluates Eq. 1–4):
//!
//! 1. **Float (in)equality** — `x == 0.3` is almost never the predicate the
//!    math means, and `== f64::NAN` is always false. Flagged whenever a
//!    float literal (or `NAN`) sits on either side of `==`/`!=`. Exact
//!    IEEE comparisons are sometimes deliberate (skipping a zero-probability
//!    branch, lattice `floor == ceil` checks); those take a pragma stating
//!    exactly that.
//! 2. **Domain-unguarded `sqrt`/`acos`/`asin`** — the lens-area formulas of
//!    Eq. 1 feed differences like `d² − r²` into `sqrt` and cosine ratios
//!    into `acos`; rounding can push them just outside the domain and the
//!    result silently becomes NaN, which then propagates through a whole
//!    sweep. `.acos()`/`.asin()` must have a `clamp`/`min`/`max` guard in
//!    the same statement; `.sqrt()` of a parenthesized expression containing
//!    a subtraction must carry a `max`/`clamp`/`abs` guard.

use super::{violation, Rule};
use crate::lexer::TokKind;
use crate::{SourceFile, Violation};

pub struct FloatSafety;

impl Rule for FloatSafety {
    fn id(&self) -> &'static str {
        "float-safety"
    }

    fn describe(&self) -> &'static str {
        "no ==/!= against float literals and no domain-unguarded \
         sqrt/acos/asin in analysis/core"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        if file.crate_name != "analysis" && file.crate_name != "core" {
            return;
        }
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            if file.is_test_line(t.line) {
                continue;
            }
            if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
                // A float literal immediately adjacent, or a `NAN` ident
                // within a short path (`f64::NAN`) on either side.
                let lit_adjacent = [i.checked_sub(1), Some(i + 1)]
                    .into_iter()
                    .flatten()
                    .filter_map(|j| toks.get(j))
                    .any(|n| n.kind == TokKind::Float);
                let nan_near = (i.saturating_sub(3)..=i + 3)
                    .filter(|&j| j != i)
                    .filter_map(|j| toks.get(j))
                    .any(|n| n.is_ident("NAN"));
                if lit_adjacent || nan_near {
                    out.push(violation(
                        file,
                        t.line,
                        self.id(),
                        format!(
                            "float `{}` comparison is exact IEEE equality; compare \
                             against a tolerance or justify the exact-zero test",
                            t.text
                        ),
                    ));
                }
                continue;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let is_method = i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            if !is_method {
                continue;
            }
            match t.text.as_str() {
                "acos" | "asin" if !statement_has_guard(file, i, &["clamp", "min", "max"]) => {
                    out.push(violation(
                        file,
                        t.line,
                        self.id(),
                        format!(
                            "`.{}()` without a clamp in the statement: rounding can \
                             leave [-1, 1] and produce NaN (Eq. 1 lens geometry)",
                            t.text
                        ),
                    ));
                }
                "sqrt"
                    if receiver_subtracts(file, i)
                        && !statement_has_guard(file, i, &["max", "clamp", "abs"]) =>
                {
                    out.push(violation(
                        file,
                        t.line,
                        self.id(),
                        "`.sqrt()` of a difference without max(0.0)/clamp: rounding \
                         can make the radicand negative and produce NaN"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// True if any of `guards` appears as an identifier in the statement
/// containing token `i` (scanning back/forward to `;`/`{`/`}` at the
/// statement's own nesting level is overkill for a heuristic; a flat scan
/// to the nearest statement punctuation is what the pragma escape backs up).
fn statement_has_guard(file: &SourceFile, i: usize, guards: &[&str]) -> bool {
    let toks = &file.toks;
    let stmt_edge = |t: &crate::lexer::Tok| t.is_punct(";") || t.is_punct("{") || t.is_punct("}");
    let mut lo = i;
    while lo > 0 && !stmt_edge(&toks[lo - 1]) {
        lo -= 1;
    }
    let mut hi = i;
    while hi + 1 < toks.len() && !stmt_edge(&toks[hi + 1]) {
        hi += 1;
    }
    toks[lo..=hi]
        .iter()
        .any(|t| t.kind == TokKind::Ident && guards.contains(&t.text.as_str()))
}

/// True if the receiver of the method at token `i` (the expression before
/// the `.`) is a parenthesized group containing a top-level-ish `-`.
fn receiver_subtracts(file: &SourceFile, i: usize) -> bool {
    let toks = &file.toks;
    // `i` is the method ident, `i - 1` the dot; receiver ends at `i - 2`.
    let Some(end) = i.checked_sub(2) else {
        return false;
    };
    if !toks[end].is_punct(")") {
        return false;
    }
    // Find the matching `(` backwards.
    let mut depth = 0usize;
    let mut start = end;
    loop {
        let t = &toks[start];
        if t.is_punct(")") {
            depth += 1;
        } else if t.is_punct("(") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if start == 0 {
            return false;
        }
        start -= 1;
    }
    toks[start + 1..end].iter().any(|t| t.is_punct("-"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, FileKind};

    fn lint(src: &str) -> Vec<Violation> {
        lint_source("crates/analysis/src/x.rs", "analysis", FileKind::Src, src)
            .into_iter()
            .filter(|v| v.rule == "float-safety")
            .collect()
    }

    #[test]
    fn float_literal_equality_flagged() {
        let vs = lint("fn f(x: f64) -> bool { x == 0.3 }\n");
        assert_eq!(vs.len(), 1);
        let vs = lint("fn f(x: f64) -> bool { 1.0 != x }\n");
        assert_eq!(vs.len(), 1);
        let vs = lint("fn f(x: f64) -> bool { x == f64::NAN }\n");
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn integer_equality_clean() {
        assert!(lint("fn f(x: u32) -> bool { x == 3 && x != 0 }\n").is_empty());
    }

    #[test]
    fn tolerance_comparison_clean() {
        assert!(lint("fn f(x: f64) -> bool { (x - 0.3).abs() < 1e-9 }\n").is_empty());
    }

    #[test]
    fn unguarded_acos_flagged_guarded_clean() {
        assert_eq!(lint("fn f(x: f64) -> f64 { (x / 2.0).acos() }\n").len(), 1);
        assert!(lint("fn f(x: f64) -> f64 { (x / 2.0).clamp(-1.0, 1.0).acos() }\n").is_empty());
    }

    #[test]
    fn sqrt_of_difference_needs_guard() {
        assert_eq!(
            lint("fn f(d2: f64, r2: f64) -> f64 { (d2 - r2).sqrt() }\n").len(),
            1
        );
        assert!(lint("fn f(d2: f64, r2: f64) -> f64 { (d2 - r2).max(0.0).sqrt() }\n").is_empty());
        // Plain sqrt of a product is fine.
        assert!(lint("fn f(x: f64) -> f64 { (x * x).sqrt() + x.sqrt() }\n").is_empty());
    }

    #[test]
    fn out_of_scope_crates_ignored() {
        let vs = lint_source(
            "crates/sim/src/x.rs",
            "sim",
            FileKind::Src,
            "fn f(x: f64) -> bool { x == 0.3 }\n",
        );
        assert!(vs.iter().all(|v| v.rule != "float-safety"));
    }
}
