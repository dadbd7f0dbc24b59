//! `lock-order` — deadlock-freedom over the workspace's mutexes.
//!
//! Builds a lock-acquisition graph over every `.lock()` site (nss-obs
//! registry/trace, nss-analysis `ShardedCache`, nss-serve, the experiment
//! harness) by walking each function body with a lexical guard tracker:
//!
//! * `let g = x.lock()…;` binds a guard until `drop(g)` or the end of its
//!   enclosing block; `x.lock().…` without a binding is a temporary that
//!   lives to the end of the statement;
//! * a lock is identified by its receiver's tail field (`shard.state.lock()`
//!   → `analysis:state`), which is stable across functions;
//! * while any guard is held: acquiring the *same* id is an immediate
//!   self-deadlock finding; acquiring a *different* id records an order
//!   edge; a blocking call (`recv`, `accept`, `read_to_string`, `sleep`,
//!   `join()`, …) is a finding; a `Condvar` wait is a finding only when a
//!   *second* guard is held (the wait consumes its own); and invoking a
//!   caller-supplied closure is a finding — this is the static check of
//!   `ShardedCache`'s "the builder runs outside the shard lock" contract;
//! * calls into other workspace functions propagate: a callee's
//!   (transitive) acquisitions become edges from the held lock, and a
//!   callee that may block makes the call site a finding.
//!
//! Any cycle in the resulting order graph — including through multiple
//! functions and crates — is reported at each participating edge site.
//!
//! Precision notes: `RwLock::read/write` are not tracked (those names are
//! overwhelmingly io/iterator calls). The two first-party
//! `std::sync::RwLock`s are therefore outside the lock graph:
//! `MuTable::tables` (`analysis/src/mu.rs`) and `KernelCache::map`
//! (`analysis/src/tables.rs`), whose `get` builds a `SharedKernel` while holding the write guard. A
//! guard moved into a `Condvar::wait` is treated as still held afterwards
//! (true: `wait` reacquires).

use super::{Violation, WorkspaceRule};
use crate::callgraph::Workspace;
use crate::lexer::TokKind;
use crate::parser::FnItem;
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Calls that park the thread. `wait`/`wait_timeout` are condvar-special
/// (they consume one guard); the rest block outright.
const BLOCKING: &[&str] = &[
    "recv",
    "recv_timeout",
    "accept",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "sleep",
    "join",
    "wait",
    "wait_timeout",
];

/// Result-unwrapping adapters chained directly onto `.lock()` that do not
/// end the guard's life.
const UNWRAPPERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "unwrap_or_default"];

pub struct LockOrder;

#[derive(Debug)]
struct Guard {
    /// `crate:field` lock id.
    id: String,
    /// `let`-binding name, if any (for `drop(g)` release).
    binding: Option<String>,
    /// Brace depth at acquisition; released when the block closes.
    depth: usize,
    /// Temporaries die at the first `;` at their depth.
    temporary: bool,
}

/// Per-function facts feeding the interprocedural pass.
#[derive(Debug, Default)]
struct FnFacts {
    /// Lock ids acquired directly in this fn.
    locks: BTreeSet<String>,
    /// A directly blocking call `(line, op)`, if any.
    blocking: Option<(u32, String)>,
    /// Workspace calls made while holding locks: (held ids, candidate
    /// callees of the one site, line). Name resolution can be ambiguous
    /// (`c.reset()` matches every `reset` method); the pass only asserts
    /// facts true of *every* candidate, so one innocuous same-name method
    /// vetoes the edge rather than inventing a deadlock.
    calls_under_lock: Vec<(Vec<String>, Vec<usize>, u32)>,
}

/// One order edge with its example site.
#[derive(Debug)]
struct Edge {
    from: String,
    to: String,
    path: String,
    line: u32,
    note: String,
}

impl WorkspaceRule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn describe(&self) -> &'static str {
        "no cycles in the lock-acquisition graph; no blocking calls or \
         caller-supplied closures while holding a Mutex guard"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let mut facts: Vec<FnFacts> = Vec::with_capacity(ws.fns.len());
        let mut edges: Vec<Edge> = Vec::new();
        for (fi, f) in ws.fns.iter().enumerate() {
            let fact = match f.body {
                Some(body) if !f.is_test => scan_fn(ws, fi, f, body, &mut edges, out),
                _ => FnFacts::default(),
            };
            facts.push(fact);
        }

        // Transitive lock sets and blocking reach, to a fixpoint.
        let trans_locks = transitive_locks(ws, &facts);
        let trans_blocking = transitive_blocking(ws, &facts);

        for (fi, fact) in facts.iter().enumerate() {
            let file = &ws.files[ws.fns[fi].file];
            for (held, callees, line) in &fact.calls_under_lock {
                // Ambiguous sites assert only what every candidate does.
                let Some((&first, rest)) = callees.split_first() else {
                    continue;
                };
                let blocking = trans_blocking[first]
                    .as_ref()
                    .filter(|_| callees.iter().all(|&c| trans_blocking[c].is_some()));
                let mut locks: BTreeSet<String> = trans_locks[first].clone();
                for &c in rest {
                    locks.retain(|l| trans_locks[c].contains(l));
                }
                for h in held {
                    if let Some((op, via)) = blocking {
                        out.push(Violation {
                            path: file.path.clone(),
                            line: *line,
                            rule: self.id(),
                            message: format!(
                                "holds `{h}` across a call to `{}`, which may block \
                                 (`{op}` via {via})",
                                ws.fn_name(first)
                            ),
                        });
                    }
                    for l in &locks {
                        if l == h {
                            out.push(Violation {
                                path: file.path.clone(),
                                line: *line,
                                rule: self.id(),
                                message: format!(
                                    "calls `{}` which (transitively) re-acquires `{h}` \
                                     while it is already held — self-deadlock",
                                    ws.fn_name(first)
                                ),
                            });
                        } else {
                            edges.push(Edge {
                                from: h.clone(),
                                to: l.clone(),
                                path: file.path.clone(),
                                line: *line,
                                note: format!("via call to `{}`", ws.fn_name(first)),
                            });
                        }
                    }
                }
            }
        }

        report_cycles(&edges, self.id(), out);
    }
}

/// Walks one function body, tracking guards; returns its direct facts and
/// appends direct findings / order edges.
fn scan_fn(
    ws: &Workspace,
    fi: usize,
    f: &FnItem,
    (open, close): (usize, usize),
    edges: &mut Vec<Edge>,
    out: &mut Vec<Violation>,
) -> FnFacts {
    let file = &ws.files[f.file];
    let toks = &file.toks;
    // Resolved workspace calls by token index (all candidates per site).
    let calls: BTreeMap<usize, &[usize]> = ws.calls[fi]
        .iter()
        .filter(|rc| !rc.callees.is_empty())
        .map(|rc| (rc.site.tok, rc.callees.as_slice()))
        .collect();

    let mut facts = FnFacts::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_start = open + 1;
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            stmt_start = i + 1;
        } else if t.is_punct("}") {
            guards.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            stmt_start = i + 1;
        } else if t.is_punct(";") {
            guards.retain(|g| !(g.temporary && g.depth == depth));
            stmt_start = i + 1;
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
                }
            }
        } else if t.is_ident("lock")
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let id = format!("{}:{}", file.crate_name, receiver_field(file, i));
            facts.locks.insert(id.clone());
            for g in &guards {
                if g.id == id {
                    out.push(Violation {
                        path: file.path.clone(),
                        line: t.line,
                        rule: "lock-order",
                        message: format!(
                            "acquires `{id}` while already holding it — self-deadlock \
                             on a non-reentrant Mutex"
                        ),
                    });
                } else {
                    edges.push(Edge {
                        from: g.id.clone(),
                        to: id.clone(),
                        path: file.path.clone(),
                        line: t.line,
                        note: "direct nested acquisition".to_string(),
                    });
                }
            }
            // A named guard bound in an `if let`/`while let` head lives in
            // the block that follows; approximating with the current depth
            // only over-holds until the enclosing `}`, which is safe.
            let (binding, temporary) = guard_binding(file, i, stmt_start);
            guards.push(Guard {
                id,
                binding,
                depth,
                temporary,
            });
        } else if t.kind == TokKind::Ident
            && BLOCKING.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !toks
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_ident("fn"))
        {
            let condvar = t.text.starts_with("wait");
            // `join` doubles as `slice::join(sep)`; only the nullary
            // thread-handle form blocks.
            let nullary_join = t.text != "join" || toks.get(i + 2).is_some_and(|n| n.is_punct(")"));
            if nullary_join {
                if facts.blocking.is_none() {
                    facts.blocking = Some((t.line, t.text.clone()));
                }
                let needed = if condvar { 2 } else { 1 };
                if guards.len() >= needed {
                    let held: Vec<&str> = guards.iter().map(|g| g.id.as_str()).collect();
                    out.push(Violation {
                        path: file.path.clone(),
                        line: t.line,
                        rule: "lock-order",
                        message: format!(
                            "blocking `{}` while holding {} — release the guard before \
                             parking the thread",
                            t.text,
                            held.join(", ")
                        ),
                    });
                }
            }
        } else if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !guards.is_empty()
        {
            // Caller-supplied closure under a guard: the "compute outside
            // the lock" contract, checked statically.
            let is_param_call = !toks[i - 1].is_punct(".")
                && !toks[i - 1].is_punct("::")
                && f.params.iter().any(|p| p.is_callable && p.name == t.text);
            if is_param_call {
                out.push(Violation {
                    path: file.path.clone(),
                    line: t.line,
                    rule: "lock-order",
                    message: format!(
                        "runs caller-supplied closure `{}` while holding `{}` — build \
                         outside the lock, then re-lock to install the result",
                        t.text,
                        guards.last().map(|g| g.id.as_str()).unwrap_or("?")
                    ),
                });
            } else if let Some(&callees) = calls.get(&i) {
                let held: Vec<String> = guards.iter().map(|g| g.id.clone()).collect();
                facts
                    .calls_under_lock
                    .push((held, callees.to_vec(), t.line));
            }
        }
        i += 1;
    }
    facts
}

/// Tail field of the receiver chain before the `.` at `lock_tok - 1`:
/// `self.shards[i].lock()` → `shards`; `rx.lock()` → `rx`.
fn receiver_field(file: &SourceFile, lock_tok: usize) -> String {
    let toks = &file.toks;
    let mut j = lock_tok - 1; // the `.`
    while j > 0 {
        let p = &toks[j - 1];
        if p.is_punct("]") {
            // Skip the index group backwards.
            let mut d = 0usize;
            let mut k = j - 1;
            loop {
                if toks[k].is_punct("]") {
                    d += 1;
                } else if toks[k].is_punct("[") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if k == 0 {
                    break;
                }
                k -= 1;
            }
            j = k;
            continue;
        }
        if p.kind == TokKind::Ident {
            if p.is_ident("self") && j >= 2 {
                j -= 1;
                continue;
            }
            return p.text.clone();
        }
        if p.is_punct(".") || p.is_punct("::") || p.is_punct(")") {
            j -= 1;
            continue;
        }
        break;
    }
    "<expr>".to_string()
}

/// Classifies the guard born at `.lock()` token `i`: named (`let g = …;`,
/// `if let Ok(g) = …`) vs a temporary that dies at the statement's `;`.
fn guard_binding(file: &SourceFile, i: usize, stmt_start: usize) -> (Option<String>, bool) {
    let toks = &file.toks;
    // Step past `lock(…)` and any chained unwrap adapters.
    let mut k = match file.match_delim(i + 1) {
        Some(c) => c + 1,
        None => return (None, true),
    };
    while toks.get(k).is_some_and(|t| t.is_punct("."))
        && toks
            .get(k + 1)
            .is_some_and(|t| UNWRAPPERS.contains(&t.text.as_str()))
        && toks.get(k + 2).is_some_and(|t| t.is_punct("("))
    {
        k = match file.match_delim(k + 2) {
            Some(c) => c + 1,
            None => return (None, true),
        };
    }
    let ends_expr = toks
        .get(k)
        .is_none_or(|t| t.is_punct(";") || t.is_punct("{") || t.is_punct(","));
    let has_let = toks[stmt_start..i].iter().any(|t| t.is_ident("let"));
    if ends_expr && has_let {
        // Binding = identifier just before the `=`.
        let eq = toks[stmt_start..i].iter().position(|t| t.is_punct("="));
        let binding = eq.and_then(|e| {
            toks[stmt_start..stmt_start + e]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
                .map(|t| t.text.clone())
        });
        (binding, false)
    } else {
        (None, true)
    }
}

/// Fixpoint of `locks(f) = direct(f) ∪ ⋃ per-site ⋂ locks(candidates)`.
/// The per-site intersection keeps ambiguous name resolution from
/// attributing one candidate's locks to every same-name method.
fn transitive_locks(ws: &Workspace, facts: &[FnFacts]) -> Vec<BTreeSet<String>> {
    let mut locks: Vec<BTreeSet<String>> = facts.iter().map(|f| f.locks.clone()).collect();
    loop {
        let mut changed = false;
        for fi in 0..ws.fns.len() {
            for rc in &ws.calls[fi] {
                let Some((&first, rest)) = rc.callees.split_first() else {
                    continue;
                };
                let mut site: BTreeSet<String> = locks[first].clone();
                for &c in rest {
                    site.retain(|l| locks[c].contains(l));
                }
                let add: Vec<String> = site
                    .into_iter()
                    .filter(|l| !locks[fi].contains(l))
                    .collect();
                if !add.is_empty() {
                    locks[fi].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            return locks;
        }
    }
}

/// Fixpoint blocking reach: `(op, via-path)` when the fn or any callee may
/// block.
fn transitive_blocking(ws: &Workspace, facts: &[FnFacts]) -> Vec<Option<(String, String)>> {
    let mut blocking: Vec<Option<(String, String)>> = facts
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            f.blocking
                .as_ref()
                .map(|(_, op)| (op.clone(), ws.fn_name(fi)))
        })
        .collect();
    loop {
        let mut changed = false;
        for fi in 0..ws.fns.len() {
            if blocking[fi].is_some() {
                continue;
            }
            for rc in &ws.calls[fi] {
                // A site blocks only if every resolution candidate does.
                if !rc.callees.iter().all(|&c| blocking[c].is_some()) {
                    continue;
                }
                let Some((op, via)) = rc.callees.first().and_then(|&c| blocking[c].clone()) else {
                    continue;
                };
                blocking[fi] = Some((op, format!("{} → {}", ws.fn_name(fi), via)));
                changed = true;
                break;
            }
        }
        if !changed {
            return blocking;
        }
    }
}

/// Emits one violation per edge that sits on a cycle in the order graph.
fn report_cycles(edges: &[Edge], rule: &'static str, out: &mut Vec<Violation>) {
    // Adjacency over lock ids.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    // `to` can reach `from` ⇒ the edge closes a cycle.
    let reaches = |from: &str, target: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == target {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut reported = BTreeSet::new();
    for e in edges {
        if reaches(&e.to, &e.from) && reported.insert((e.path.clone(), e.line, e.from.clone())) {
            out.push(Violation {
                path: e.path.clone(),
                line: e.line,
                rule,
                message: format!(
                    "lock-order cycle: acquiring `{}` while holding `{}` ({}) closes a \
                     cycle in the workspace lock graph — pick one global order",
                    e.to, e.from, e.note
                ),
            });
        }
    }
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
        LockOrder.check(&ws, &mut out);
        out
    }

    #[test]
    fn two_fn_ab_ba_cycle_detected() {
        let vs = run(&[(
            "x.rs",
            "obs",
            "fn f(s: &S) { let a = s.a.lock().unwrap(); let b = s.b.lock().unwrap(); }\n\
             fn g(s: &S) { let b = s.b.lock().unwrap(); let a = s.a.lock().unwrap(); }\n",
        )]);
        assert!(vs.iter().any(|v| v.message.contains("cycle")), "{vs:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let vs = run(&[(
            "x.rs",
            "obs",
            "fn f(s: &S) { let a = s.a.lock().unwrap(); let b = s.b.lock().unwrap(); }\n\
             fn g(s: &S) { let a = s.a.lock().unwrap(); let b = s.b.lock().unwrap(); }\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn blocking_recv_under_temporary_guard() {
        let vs = run(&[(
            "x.rs",
            "obs",
            "fn f(rx: &M) { let conn = rx.lock().unwrap().recv(); }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("recv"));
    }

    #[test]
    fn drop_releases_named_guard() {
        let vs = run(&[(
            "x.rs",
            "obs",
            "fn f(s: &S) { let g = s.state.lock().unwrap(); drop(g); helper(); }\n\
             fn helper() { std::thread::sleep(d); }\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn closure_param_under_lock_flagged() {
        let vs = run(&[(
            "x.rs",
            "analysis",
            "fn get_or_build(s: &S, build: impl FnOnce() -> u32) -> u32 {\n\
                 let mut st = s.state.lock().unwrap();\n\
                 let v = build();\n\
                 v\n\
             }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("caller-supplied"));
    }

    #[test]
    fn build_outside_lock_is_clean() {
        let vs = run(&[(
            "x.rs",
            "analysis",
            "fn get_or_build(s: &S, build: impl FnOnce() -> u32) -> u32 {\n\
                 { let st = s.state.lock().unwrap(); if st.has() { return st.v(); } }\n\
                 let v = build();\n\
                 let mut st = s.state.lock().unwrap();\n\
                 v\n\
             }\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn condvar_wait_with_own_guard_clean_second_guard_flagged() {
        let ok = run(&[(
            "x.rs",
            "analysis",
            "fn f(b: &B) { let mut st = b.state.lock().unwrap(); st = b.cv.wait(st).unwrap(); }\n",
        )]);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run(&[(
            "x.rs",
            "analysis",
            "fn f(s: &S, b: &B) { let g = s.other.lock().unwrap(); let mut st = b.state.lock().unwrap(); st = b.cv.wait(st).unwrap(); }\n",
        )]);
        assert!(bad.iter().any(|v| v.message.contains("wait")), "{bad:?}");
    }

    #[test]
    fn transitive_blocking_through_callee() {
        let vs = run(&[(
            "x.rs",
            "serve",
            "fn handler(s: &S) { let g = s.state.lock().unwrap(); slow(); }\n\
             fn slow() { stream.read_to_string(&mut buf); }\n",
        )]);
        assert!(vs.iter().any(|v| v.message.contains("may block")), "{vs:?}");
    }

    #[test]
    fn ambiguous_method_resolution_does_not_invent_deadlock() {
        // `c.reset()` under the lock matches both `Counter::reset` (leaf,
        // lock-free) and `Registry::reset` (re-locks); only facts true of
        // every candidate may fire, so this must stay clean.
        let vs = run(&[(
            "x.rs",
            "obs",
            "impl Counter { fn reset(&self) { self.v = 0; } }\n\
             impl Registry {\n\
                 fn reset(&self) { for c in self.counters.lock().unwrap().values() { c.reset(); } }\n\
             }\n",
        )]);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn transitive_self_deadlock_through_callee() {
        let vs = run(&[(
            "x.rs",
            "obs",
            "fn outer(s: &S) { let g = s.state.lock().unwrap(); inner(s); }\n\
             fn inner(s: &S) { let g = s.state.lock().unwrap(); }\n",
        )]);
        assert!(
            vs.iter().any(|v| v.message.contains("re-acquires")),
            "{vs:?}"
        );
    }
}
