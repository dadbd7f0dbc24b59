//! `nondeterminism-taint` — nondeterministic sources must not reach
//! determinism sinks.
//!
//! The repo's outputs are bitwise-pinned: fig4/fig8 CSVs, `SimTrace`
//! digests, and the Exact-policy BENCH fields are compared byte-for-byte
//! across runs and machines. A wall-clock read, a thread id, a pointer
//! address, or a hash-iteration order anywhere on the call path that
//! produces those artifacts silently breaks the pin.
//!
//! **Sources** (per site): `Instant::now` / `SystemTime::now`, thread-id
//! reads (`thread::current().id()` / `ThreadId`), pointer-as-integer
//! (`as_ptr() as usize`), and iteration over hash-ordered collections
//! through a postfix chain (`self.map.read().values()`, `audible[v].iter()`).
//! Clippy bans those iterations outright (`disallowed-methods` in
//! `clippy.toml`); this rule still tracks them so a suppressed one cannot
//! reach a pinned artifact.
//!
//! **Sinks** (per function): anything `csv` in its name (`write_csv`,
//! `csv_to_markdown`), and simulation entry points returning `SimTrace` /
//! `TdmaOutcome` / `ReplicatedTraces` — their return values feed the
//! pinned digests.
//!
//! **Flow**: a source site in function `F` is flagged when the value can
//! plausibly reach a sink through the call graph — `F` is a sink, `F`
//! transitively calls a sink, or `F`'s return value propagates up through
//! callers to a function that does (`emit()` calling both `rows()` — which
//! iterates a `HashMap` — and `write_csv(rows(…))`). The diagnostic names
//! the sink and one example chain. Timing that feeds the obs plane only
//! (histograms, status lines) is legal by design — that is exactly what
//! the pragma is for, and the live workspace's clock reads carry pragmas
//! saying so.

use super::{Violation, WorkspaceRule};
use crate::callgraph::Workspace;
use crate::lexer::TokKind;
use crate::SourceFile;
use std::collections::{BTreeSet, VecDeque};

/// Return-type names that mark a function as a determinism sink.
const SINK_RETURNS: &[&str] = &["SimTrace", "TdmaOutcome", "ReplicatedTraces"];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

pub struct NondeterminismTaint;

/// One nondeterministic read site.
struct Source {
    line: u32,
    what: &'static str,
    detail: String,
}

impl WorkspaceRule for NondeterminismTaint {
    fn id(&self) -> &'static str {
        "nondeterminism-taint"
    }

    fn describe(&self) -> &'static str {
        "clock/thread-id/pointer/hash-order reads must not sit on a call path \
         that produces pinned artifacts (CSV writers, SimTrace-returning fns)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let n = ws.fns.len();
        let sinks: BTreeSet<usize> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && is_sink(f))
            .map(|(i, _)| i)
            .collect();
        if sinks.is_empty() {
            return;
        }
        // Reverse call edges, then "can reach a sink" = backward closure
        // from the sinks over callers.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for fi in 0..n {
            for rc in &ws.calls[fi] {
                for &c in &rc.callees {
                    rev[c].push(fi);
                }
            }
        }
        let mut reaches_sink = vec![false; n];
        let mut queue: VecDeque<usize> = sinks.iter().copied().collect();
        for &s in &sinks {
            reaches_sink[s] = true;
        }
        while let Some(f) = queue.pop_front() {
            for &caller in &rev[f] {
                if !reaches_sink[caller] {
                    reaches_sink[caller] = true;
                    queue.push_back(caller);
                }
            }
        }

        for (fi, f) in ws.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let Some(body) = f.body else { continue };
            let file = &ws.files[f.file];
            let srcs = find_sources(file, body);
            if srcs.is_empty() {
                continue;
            }
            // Nearest function (self included, then callers upward) whose
            // forward call cone contains a sink: the tainted value can flow
            // up to it as a return value and onward into the sink.
            let Some(carrier) = nearest_carrier(fi, &rev, &reaches_sink) else {
                continue;
            };
            let (sink, route) = forward_route(ws, carrier, &sinks);
            for s in srcs {
                let how = if carrier == fi && sink == fi {
                    format!("inside sink `{}` itself", ws.fn_name(sink))
                } else if carrier == fi {
                    format!("can reach sink `{}` via {route}", ws.fn_name(sink))
                } else {
                    format!(
                        "flows (through return values) up to `{}`, which reaches sink \
                         `{}` via {route}",
                        ws.fn_name(carrier),
                        ws.fn_name(sink)
                    )
                };
                out.push(Violation {
                    path: file.path.clone(),
                    line: s.line,
                    rule: self.id(),
                    message: format!(
                        "{} ({}) {how} — pinned outputs must not depend on it; if this \
                         feeds timing/obs fields only, say so in a pragma",
                        s.what, s.detail
                    ),
                });
            }
        }
    }
}

/// BFS over callers from `fi` (self first) for a fn that reaches a sink.
fn nearest_carrier(fi: usize, rev: &[Vec<usize>], reaches_sink: &[bool]) -> Option<usize> {
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::new();
    seen.insert(fi);
    queue.push_back(fi);
    while let Some(a) = queue.pop_front() {
        if reaches_sink[a] {
            return Some(a);
        }
        for &caller in &rev[a] {
            if seen.insert(caller) {
                queue.push_back(caller);
            }
        }
    }
    None
}

/// The first sink in `carrier`'s forward cone, with a rendered call path
/// (`carrier` must satisfy `reaches_sink`).
fn forward_route(ws: &Workspace, carrier: usize, sinks: &BTreeSet<usize>) -> (usize, String) {
    if sinks.contains(&carrier) {
        return (carrier, ws.fn_name(carrier));
    }
    let parent = ws.reach(carrier);
    let sink = sinks
        .iter()
        .find(|s| parent.contains_key(s))
        .copied()
        .expect("carrier reaches a sink");
    let route = ws.path(carrier, sink, &parent);
    (sink, route)
}

/// A function is a sink when its name mentions `csv` or it returns a
/// pinned simulation artifact.
fn is_sink(f: &crate::parser::FnItem) -> bool {
    f.name.contains("csv") || f.ret.iter().any(|r| SINK_RETURNS.contains(&r.as_str()))
}

/// Scans one body for nondeterministic reads.
fn find_sources(file: &SourceFile, body: (usize, usize)) -> Vec<Source> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let hash_names = hash_bound_names(file);
    for i in body.0 + 1..body.1 {
        let t = &toks[i];
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        // `Instant::now(` / `SystemTime::now(`.
        if t.is_ident("now")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && (toks[i - 2].is_ident("Instant") || toks[i - 2].is_ident("SystemTime"))
        {
            out.push(Source {
                line: t.line,
                what: "wall-clock read",
                detail: format!("{}::now", toks[i - 2].text),
            });
        }
        // `thread::current().id()` / explicit `ThreadId`.
        if (t.is_ident("id")
            && i >= 4
            && toks[i - 1].is_punct(".")
            && toks[i - 2].is_punct(")")
            && toks[i - 4].is_ident("current"))
            || t.is_ident("ThreadId")
        {
            out.push(Source {
                line: t.line,
                what: "thread-id read",
                detail: "thread identity varies per run".to_string(),
            });
        }
        // `as_ptr() as usize` — pointer addresses are ASLR-random.
        if (t.is_ident("as_ptr") || t.is_ident("as_mut_ptr"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(")"))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("as"))
            && toks
                .get(i + 4)
                .is_some_and(|n| n.is_ident("usize") || n.is_ident("u64"))
        {
            out.push(Source {
                line: t.line,
                what: "pointer-as-integer",
                detail: format!("{} as {}", t.text, toks[i + 4].text),
            });
        }
        // Hash-ordered iteration.
        if hash_names.contains(&t.text) {
            if let Some((line, method)) = chain_iteration(file, i) {
                out.push(Source {
                    line,
                    what: "hash-ordered iteration",
                    detail: format!("`{}.{}()`", t.text, method),
                });
            }
        }
    }
    out
}

/// Identifiers in this file that are (or contain) hash collections: type
/// ascriptions whose type mentions `HashMap`/`HashSet`, and `let`-bindings
/// initialized from `HashMap::new()`-style constructors.
fn hash_bound_names(file: &SourceFile) -> Vec<String> {
    let toks = &file.toks;
    let mut names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // Walk back over the type expression to the `:` or `=` that binds
        // it, then take the identifier before that. Bounded lookback keeps
        // this linear in practice.
        let lo = i.saturating_sub(24);
        let mut j = i;
        while j > lo {
            j -= 1;
            let p = &toks[j];
            if p.is_punct(":") || p.is_punct("=") {
                if j > 0 && toks[j - 1].kind == TokKind::Ident {
                    let name = &toks[j - 1].text;
                    if name != "mut" && !names.contains(name) {
                        names.push(name.clone());
                    }
                }
                break;
            }
            // A statement boundary or arrow before the binder means this
            // mention is a return type / standalone path — no binder.
            if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") || p.is_punct("->") {
                break;
            }
        }
    }
    names
}

/// If the postfix chain rooted at token `i` reaches an iteration method,
/// returns `(line, method)`. The chain follows field projections, index
/// groups, and intermediate calls (`self.map.read().values()`).
fn chain_iteration(file: &SourceFile, i: usize) -> Option<(u32, String)> {
    let toks = &file.toks;
    let mut j = i + 1;
    let mut hops = 0usize;
    while j < toks.len() && hops < 8 {
        let t = &toks[j];
        if t.is_punct("[") {
            j = file.match_delim(j)? + 1;
            continue;
        }
        if !t.is_punct(".") {
            return None;
        }
        let m = toks.get(j + 1)?;
        if m.kind != TokKind::Ident {
            return None;
        }
        if ITER_METHODS.contains(&m.text.as_str())
            && toks.get(j + 2).is_some_and(|n| n.is_punct("("))
        {
            return Some((m.line, m.text.clone()));
        }
        match toks.get(j + 2) {
            Some(n) if n.is_punct("(") => {
                // Intermediate call (e.g. `.read()`); continue after it.
                j = file.match_delim(j + 2)? + 1;
            }
            _ => {
                // Field projection; continue after the field.
                j += 2;
            }
        }
        hops += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileKind, SourceFile};

    fn run(files: &[(&str, &str, &str)]) -> Vec<Violation> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, c, s)| SourceFile::parse(p, c, FileKind::Src, s))
                .collect(),
        );
        let mut out = Vec::new();
        NondeterminismTaint.check(&ws, &mut out);
        out
    }

    #[test]
    fn clock_in_sink_fn_flagged() {
        let vs = run(&[(
            "x.rs",
            "sim",
            "fn run_one() -> SimTrace { let t = Instant::now(); go(t) }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("wall-clock"));
        assert!(vs[0].message.contains("inside sink"));
    }

    #[test]
    fn clock_reaching_csv_across_files_flagged() {
        let files = [
            (
                "crates/experiments/src/common.rs",
                "experiments",
                "pub fn write_csv(rows: &[String]) {}\n",
            ),
            (
                "crates/experiments/src/fig.rs",
                "experiments",
                "use crate::common::write_csv;\n\
                 fn emit() { let t0 = Instant::now(); write_csv(&rows(t0)); }\n",
            ),
        ];
        let vs = run(&files);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("write_csv"), "{vs:?}");
    }

    #[test]
    fn clock_feeding_obs_only_is_clean() {
        let vs = run(&[(
            "x.rs",
            "obs",
            "fn observe_cell() { let t0 = Instant::now(); histogram(t0.elapsed()); }\n\
             fn histogram(d: Duration) {}\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn hash_iteration_flowing_through_caller_to_sink_flagged() {
        // The source fn `rows` never calls the sink; its *return value* is
        // handed to `write_csv` by the shared caller `emit`.
        let vs = run(&[(
            "x.rs",
            "experiments",
            "fn rows(m: HashMap<u32, f64>) -> Vec<String> { m.values().map(render).collect() }\n\
             fn emit(m: HashMap<u32, f64>) { write_csv(&rows(m)); }\n\
             fn write_csv(rows: &[String]) {}\n",
        )]);
        assert!(
            vs.iter()
                .any(|v| v.message.contains("hash-ordered") && v.message.contains("emit")),
            "{vs:?}"
        );
    }

    #[test]
    fn hash_iteration_shapes() {
        // (source, iterates a hash collection)
        let cases = [
            ("fn f(m: HashMap<u32, f64>) { m.iter(); }", true),
            (
                "struct C { map: RwLock<HashMap<K, V>> }\n\
                 impl C { fn b(&self) { self.map.read().values(); } }",
                true,
            ),
            (
                "fn f(a: Vec<HashMap<u32, bool>>, v: usize) { a[v].values_mut(); }",
                true,
            ),
            (
                "fn f(m: &mut HashMap<u64, f64>) { m.get(&1); m.insert(1, 0.5); }",
                false,
            ),
            ("fn f(m: BTreeMap<u32, f64>) { m.iter(); }", false),
        ];
        for (src, want) in cases {
            let f = SourceFile::parse("x.rs", "sim", FileKind::Src, src);
            let names = hash_bound_names(&f);
            let hit = (0..f.toks.len())
                .any(|i| names.contains(&f.toks[i].text) && chain_iteration(&f, i).is_some());
            assert_eq!(hit, want, "{src}");
        }
    }

    #[test]
    fn thread_id_in_sink_flagged() {
        let vs = run(&[(
            "x.rs",
            "sim",
            "fn run_one() -> SimTrace { let id = std::thread::current().id(); go(id) }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("thread-id"));
    }

    #[test]
    fn tests_exempt() {
        let vs = run(&[(
            "x.rs",
            "sim",
            "#[cfg(test)]\nmod t {\n fn run_one() -> SimTrace { let t = Instant::now(); go(t) }\n}\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }
}
