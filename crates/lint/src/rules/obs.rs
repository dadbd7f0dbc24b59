//! `feature-hygiene` — obs macro call sites stay zero-cost when disabled.
//!
//! The instrumentation macros (`counter!`, `observe!`, `trace_span!`,
//! …) expand to no-ops with **unevaluated** arguments when the `obs`
//! feature is off. Two lexical hazards can break the "identical numerics, zero overhead"
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

use super::{violation, Rule};
use crate::lexer::TokKind;
use crate::{SourceFile, Violation};

const OBS_MACROS: &[&str] = &[
    "counter",
    "gauge",
    "observe",
    "trace_span",
    "set_label",
    "status",
    "status_err",
];

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
}
