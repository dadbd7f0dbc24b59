//! `blocking-in-handler` — HTTP route handlers never hold a lock across
//! kernel computation.
//!
//! The obs scrape endpoint and the nss-serve query routes run on a small
//! fixed worker pool (`nss_obs::http`); one handler that holds a lock
//! through a ring-model sweep makes every other request that wants the
//! lock wait for the sweep. The rule finds route registrations —
//! `.get("/path", handler)` / `.post("/path", handler)` with a literal
//! path — and flags, inside the handler closure, any call whose name says
//! it computes (`run`/`build`/`solve`/`sweep`/`compute`/`simulate`, or a
//! `<stem>_…` name) while a `.lock()` guard is live. The blessed pattern
//! is the `ShardedCache` one: compute outside, lock briefly to install.
//!
//! Nothing else catches this: the response is unchanged, so no test,
//! digest or output diff sees it, and `nss_obs::sync::Mutex`'s debug check
//! only fires on a second lock, which a sweep does not take. The fixture
//! `bad/crates/serve/src/bad_handler.rs` is the seeded case (a guard held
//! across `ProbabilitySweep::run` in the `/v1/reachability` route).
//! Request bodies need no rule: a handler is `Fn(&Request) -> Response`
//! and gets no stream, and the server caps bodies at `max_body_bytes`.

use super::{violation, Rule};
use crate::lexer::TokKind;
use crate::{SourceFile, Violation};

/// Call-name stems that mark kernel-scale computation.
const COMPUTE_STEMS: &[&str] = &["run", "build", "solve", "sweep", "compute", "simulate"];

pub struct BlockingInHandler;

impl Rule for BlockingInHandler {
    fn id(&self) -> &'static str {
        "blocking-in-handler"
    }

    fn describe(&self) -> &'static str {
        "route handlers must not hold a lock guard across kernel computation \
         (run/build/solve/sweep/compute/simulate calls)"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            // `.get("…", …)` / `.post("…", …)` route registration.
            if !(t.is_ident("get") || t.is_ident("post"))
                || i == 0
                || !toks[i - 1].is_punct(".")
                || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                || !toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Str)
                || file.is_test_line(t.line)
            {
                continue;
            }
            let Some(close) = file.match_delim(i + 1) else {
                continue;
            };
            check_handler(file, (i + 3, close), self.id(), out);
        }
    }
}

/// Scans the handler region (everything after the path literal, up to the
/// registration call's closing paren).
fn check_handler(
    file: &SourceFile,
    region: (usize, usize),
    rule: &'static str,
    out: &mut Vec<Violation>,
) {
    let toks = &file.toks;
    // (depth, temporary) of live guards; ids don't matter here.
    let mut guards: Vec<(usize, bool)> = Vec::new();
    let mut depth = 0usize;
    for i in region.0..region.1 {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            guards.retain(|&(d, _)| d < depth);
            depth = depth.saturating_sub(1);
        } else if t.is_punct(";") {
            guards.retain(|&(d, temp)| !(temp && d == depth));
        } else if t.kind != TokKind::Ident {
            continue;
        }
        let callish = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if t.is_ident("lock") && callish && i > 0 && toks[i - 1].is_punct(".") {
            // Named (`let g = ….lock()…;`) vs temporary guard: a statement
            // keyword `let` anywhere earlier on the line is good enough at
            // handler scale.
            let named = toks[..i]
                .iter()
                .rev()
                .take_while(|p| p.line == t.line)
                .any(|p| p.is_ident("let"));
            guards.push((depth, !named));
        } else if callish
            && !guards.is_empty()
            && COMPUTE_STEMS
                .iter()
                .any(|s| t.text == *s || t.text.starts_with(&format!("{s}_")))
        {
            out.push(violation(
                file,
                t.line,
                rule,
                format!(
                    "handler holds a lock guard across `{}(…)` — compute outside the \
                     lock, then re-lock briefly to install the result",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, FileKind, Violation};

    fn run(src: &str) -> Vec<Violation> {
        lint_source("crates/serve/src/lib.rs", "serve", FileKind::Src, src)
    }

    #[test]
    fn lock_across_compute_in_handler_flagged() {
        let vs = run("fn router(s: Arc<S>) -> Router {\n\
               Router::new().post(\"/v1/solve\", move |req| {\n\
                 let mut cache = s.cache.lock().unwrap();\n\
                 let v = solve_grid(req);\n\
                 cache.insert(v);\n\
                 Response::json(v)\n\
               })\n\
             }\n");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("solve_grid"));
    }

    #[test]
    fn compute_outside_lock_is_clean() {
        let vs = run("fn router(s: Arc<S>) -> Router {\n\
               Router::new().post(\"/v1/solve\", move |req| {\n\
                 let v = solve_grid(req);\n\
                 s.cache.lock().unwrap().insert(v);\n\
                 Response::json(v)\n\
               })\n\
             }\n");
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn map_get_is_not_a_route() {
        let vs = run("fn f(m: &BTreeMap<String, u32>, s: &S) {\n\
               let v = m.get(\"key\");\n\
               let g = s.cache.lock().unwrap();\n\
               run_sweep(v);\n\
             }\n");
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn compute_outside_handler_is_clean() {
        let vs = run(
            "fn precompute(s: &S) { let g = s.cache.lock().unwrap(); let v = build_kernel(); }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }
}
