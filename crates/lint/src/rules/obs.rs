//! `feature-hygiene` — obs macro call sites stay zero-cost when disabled.
//!
//! The instrumentation macros (`counter!`, `observe!`, `span!`, …) expand
//! to no-ops with **unevaluated** arguments when the `obs` feature is off.
//! Two lexical hazards can break the "identical numerics, zero overhead"
//! guarantee:
//!
//! 1. **Unqualified invocation** — `counter!(…)` resolved through a `use`
//!    import can stop compiling (or resolve to something else) under
//!    `--no-default-features`; `nss_obs::counter!(…)` always resolves to
//!    the matching (enabled or no-op) expansion. Required outside
//!    `crates/obs` itself.
//! 2. **Effectful arguments** — because disabled macros do not evaluate
//!    their arguments, an argument that can panic or mutate
//!    (`counter!(x.unwrap())`) makes enabled and disabled builds behave
//!    differently. Arguments must be effect-free expressions.
//!
//! A third hazard is specific to the engine crates (`crates/sim`,
//! `crates/model`): `span!` resolves its name on every event — a name
//! intern (a mutex and a scan of the interned names) plus a histogram
//! lookup (a `format!` and the registry's locked name map) — so a
//! `span!` inside a `for`/`while`/`loop` body pays both every iteration.
//! Hot-loop spans must use `trace_span!`, which resolves its name once
//! per call site and then records with a few relaxed stores.

use super::{violation, Rule};
use crate::lexer::TokKind;
use crate::{SourceFile, Violation};

const OBS_MACROS: &[&str] = &[
    "counter",
    "gauge",
    "observe",
    "span",
    "trace_span",
    "set_label",
    "status",
    "status_err",
];

/// Crates whose loops are hot paths: the million-node phase engine and
/// the CSR topology builder.
const HOT_CRATES: &[&str] = &["crates/sim/", "crates/model/"];

const EFFECTFUL: &[&str] = &["unwrap", "expect", "panic"];

pub struct FeatureHygiene;

impl Rule for FeatureHygiene {
    fn id(&self) -> &'static str {
        "feature-hygiene"
    }

    fn describe(&self) -> &'static str {
        "obs macros must be nss_obs::-qualified with effect-free arguments \
         so --no-default-features builds stay identical"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        if file.path.starts_with("crates/obs/") {
            return;
        }
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || !OBS_MACROS.contains(&t.text.as_str())
                || !toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                continue;
            }
            let qualified = i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("nss_obs");
            if !qualified {
                out.push(violation(
                    file,
                    t.line,
                    self.id(),
                    format!(
                        "obs macro `{}!` must be invoked as `nss_obs::{}!` so the \
                         no-op expansion resolves under --no-default-features",
                        t.text, t.text
                    ),
                ));
                continue;
            }
            // Check argument purity inside the delimiter group.
            if let Some(open) = toks
                .get(i + 2)
                .filter(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
            {
                let _ = open;
                if let Some(close) = file.match_delim(i + 2) {
                    for a in &toks[i + 3..close] {
                        if a.kind == TokKind::Ident && EFFECTFUL.contains(&a.text.as_str()) {
                            out.push(violation(
                                file,
                                a.line,
                                self.id(),
                                format!(
                                    "`{}` inside an obs macro argument: disabled builds \
                                     skip argument evaluation, so effects diverge \
                                     between feature configs",
                                    a.text
                                ),
                            ));
                        }
                    }
                }
            }
        }
        if HOT_CRATES.iter().any(|c| file.path.starts_with(c)) {
            check_hot_loops(file, out);
        }
    }
}

/// Flags `span!` invocations lexically inside a `for`/`while`/`loop` body
/// in the engine crates: `span!` interns its name and looks up its
/// histogram per event, so loop bodies must use `trace_span!`, which does
/// both once per call site.
///
/// Body detection is lexical but sound for Rust: struct literals are not
/// allowed in `for`-iterator / `while`-condition position without
/// parentheses, so after skipping nested delimiter groups the first brace
/// at depth 0 opens the loop body.
fn check_hot_loops(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &file.toks;
    let mut flagged = std::collections::BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("for") || t.is_ident("while") || t.is_ident("loop")) {
            continue;
        }
        // Find the body brace: the first `{` outside any nested group.
        let mut j = i + 1;
        let body_open = loop {
            match toks.get(j) {
                None => break None,
                Some(n) if n.is_punct("{") => break Some(j),
                Some(n) if n.is_punct("(") || n.is_punct("[") => match file.match_delim(j) {
                    Some(close) => j = close + 1,
                    None => break None,
                },
                // A statement boundary before any brace: `for` was not a
                // loop head here (e.g. inside a macro fragment).
                Some(n) if n.is_punct(";") => break None,
                Some(_) => j += 1,
            }
        };
        let Some(open) = body_open else { continue };
        let Some(close) = file.match_delim(open) else {
            continue;
        };
        for k in open + 1..close {
            if toks[k].is_ident("span")
                && toks.get(k + 1).is_some_and(|n| n.is_punct("!"))
                && flagged.insert(k)
            {
                out.push(violation(
                    file,
                    toks[k].line,
                    "feature-hygiene",
                    "`span!` inside a loop body interns its name and looks up its \
                     histogram every iteration; hot-loop spans must use \
                     `nss_obs::trace_span!` (resolved once per call site)"
                        .to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, FileKind};

    fn lint(src: &str) -> Vec<Violation> {
        lint_source("crates/sim/src/x.rs", "sim", FileKind::Src, src)
            .into_iter()
            .filter(|v| v.rule == "feature-hygiene")
            .collect()
    }

    #[test]
    fn unqualified_macro_flagged() {
        let vs = lint("fn f() { counter!(\"sim.broadcasts\").inc(); }\n");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("nss_obs::"));
    }

    #[test]
    fn qualified_macro_clean() {
        assert!(lint("fn f() { nss_obs::counter!(\"sim.broadcasts\").inc(); }\n").is_empty());
    }

    #[test]
    fn effectful_argument_flagged() {
        let vs = lint("fn f(x: Option<u64>) { nss_obs::counter!(\"c\").add(x.unwrap()); }\n");
        // The add() call is outside the macro group, so this one is clean…
        assert!(vs.is_empty(), "{vs:?}");
        // …but effects inside the macro's own arguments are not.
        let vs = lint("fn f(x: Option<f64>) { nss_obs::observe!(\"h\", x.unwrap()); }\n");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("diverge"));
    }

    #[test]
    fn obs_crate_itself_exempt() {
        let vs = lint_source(
            "crates/obs/src/lib.rs",
            "obs",
            FileKind::Src,
            "fn demo() { counter!(\"x\"); }\n",
        );
        assert!(vs.iter().all(|v| v.rule != "feature-hygiene"));
    }

    #[test]
    fn module_named_counter_not_confused() {
        assert!(lint("fn f() { counter::run(); let counter = 3; use_it(counter); }\n").is_empty());
    }

    #[test]
    fn gauge_and_trace_span_require_qualification() {
        let vs = lint("fn f() { gauge!(\"sim.mem\").set(1.0); }\n");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("nss_obs::gauge!"));
        let vs = lint("fn f() { let _t = trace_span!(\"sim.phase\"); }\n");
        assert_eq!(vs.len(), 1);
        assert!(lint("fn f() { nss_obs::gauge!(\"sim.mem\").set(1.0); }\n").is_empty());
    }

    #[test]
    fn span_in_hot_loop_flagged() {
        for head in ["for i in 0..n", "while go()", "loop"] {
            let src = format!("fn f(n: u64) {{ {head} {{ let _s = nss_obs::span!(\"x\"); }} }}\n");
            let vs = lint(&src);
            assert_eq!(vs.len(), 1, "{head}: {vs:?}");
            assert!(vs[0].message.contains("trace_span"), "{head}");
        }
    }

    #[test]
    fn trace_span_or_loopless_span_clean() {
        assert!(
            lint("fn f(n: u64) { for i in 0..n { let _t = nss_obs::trace_span!(\"x\"); } }\n")
                .is_empty()
        );
        assert!(
            lint("fn f(n: u64) { let _s = nss_obs::span!(\"x\"); for i in 0..n { go(); } }\n")
                .is_empty()
        );
    }

    #[test]
    fn nested_loops_flag_each_span_once() {
        let vs = lint(
            "fn f(n: u64) { for i in 0..n { for j in 0..i { let _s = nss_obs::span!(\"x\"); } } }\n",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn loop_iterator_groups_are_skipped_to_find_the_body() {
        // The `(0..n).rev()` parens and `v[..]` brackets are not the body.
        let vs = lint(
            "fn f(n: u64, v: &[u64]) { for i in (0..n).rev() { \
             let _s = nss_obs::span!(\"x\"); use_it(&v[..]); } }\n",
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn hot_loop_rule_is_engine_crate_scoped() {
        // The figure harness takes one span per figure inside its registry
        // loop; that is not a hot path and stays clean.
        let vs = lint_source(
            "crates/experiments/src/x.rs",
            "experiments",
            FileKind::Src,
            "fn f() { for fig in REGISTRY { let _s = nss_obs::span!(\"fig\"); } }\n",
        );
        assert!(vs.iter().all(|v| v.rule != "feature-hygiene"), "{vs:?}");
    }
}
