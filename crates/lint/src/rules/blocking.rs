//! `blocking-in-handler` — HTTP route handlers stay cheap.
//!
//! The obs scrape endpoint and the nss-serve query routes run on a small
//! fixed worker pool (`nss_obs::http`); one handler that parks a thread or
//! holds a shard lock through a kernel build stalls the whole plane. The
//! rule finds route registrations — `.get("/path", handler)` /
//! `.post("/path", handler)` with a literal path — and checks the handler
//! closure's body:
//!
//! * no unbounded reads (`read_to_end` / `read_to_string`): request bodies
//!   are length-delimited by the server, a handler re-reading the stream
//!   can hang on a slow client;
//! * no lock guard held across kernel computation — a call whose name
//!   says it computes (`run`/`build`/`solve`/`sweep`/`compute`/`simulate`)
//!   while a `.lock()` guard is live. The blessed pattern is the
//!   `ShardedCache` one: compute outside, lock briefly to install.
//!
//! Deeper blocking through callees of the handler is covered by the
//! `lock-order` rule's transitive pass; this rule is the handler-local
//! gate.

use super::{Violation, WorkspaceRule};
use crate::callgraph::Workspace;
use crate::lexer::TokKind;
use crate::SourceFile;

/// Call-name stems that mark kernel-scale computation.
const COMPUTE_STEMS: &[&str] = &["run", "build", "solve", "sweep", "compute", "simulate"];

/// Methods that read a stream to exhaustion.
const UNBOUNDED_READS: &[&str] = &["read_to_end", "read_to_string"];

pub struct BlockingInHandler;

impl WorkspaceRule for BlockingInHandler {
    fn id(&self) -> &'static str {
        "blocking-in-handler"
    }

    fn describe(&self) -> &'static str {
        "route handlers must not hold a lock across kernel computation or \
         perform unbounded stream reads"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        for file in &ws.files {
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
                check_handler(file, (i + 3, close), out);
            }
        }
    }
}

/// Scans the handler region (everything after the path literal, up to the
/// registration call's closing paren).
fn check_handler(file: &SourceFile, region: (usize, usize), out: &mut Vec<Violation>) {
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
        } else if callish && UNBOUNDED_READS.contains(&t.text.as_str()) {
            out.push(Violation {
                path: file.path.clone(),
                line: t.line,
                rule: "blocking-in-handler",
                message: format!(
                    "`{}` in a route handler reads the stream to exhaustion and can \
                     hang on a slow client — the server already length-delimits the \
                     body",
                    t.text
                ),
            });
        } else if callish
            && !guards.is_empty()
            && COMPUTE_STEMS
                .iter()
                .any(|s| t.text == *s || t.text.starts_with(&format!("{s}_")))
        {
            out.push(Violation {
                path: file.path.clone(),
                line: t.line,
                rule: "blocking-in-handler",
                message: format!(
                    "handler holds a lock guard across `{}(…)` — compute outside the \
                     lock, then re-lock briefly to install the result",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileKind, SourceFile};

    fn run(src: &str) -> Vec<Violation> {
        let ws = Workspace::build(vec![SourceFile::parse(
            "crates/serve/src/lib.rs",
            "serve",
            FileKind::Src,
            src,
        )]);
        let mut out = Vec::new();
        BlockingInHandler.check(&ws, &mut out);
        out
    }

    #[test]
    fn unbounded_read_in_handler_flagged() {
        let vs = run("fn router() -> Router {\n\
               Router::new().get(\"/dump\", |req| {\n\
                 let mut body = String::new();\n\
                 req.stream.read_to_string(&mut body);\n\
                 Response::text(body)\n\
               })\n\
             }\n");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("read_to_string"));
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
    fn hashmap_get_is_not_a_route() {
        let vs = run("fn f(m: &BTreeMap<String, u32>) {\n\
               let v = m.get(\"key\");\n\
               stream.read_to_string(&mut s);\n\
             }\n");
        // `m.get(\"key\")` has a Str first arg but no handler; the read is
        // outside any handler region…
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
