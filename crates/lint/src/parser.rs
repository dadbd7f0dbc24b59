//! Item-level parse over the token stream: `fn` items, `impl` blocks, and
//! `use` imports.
//!
//! This is the structural layer the interprocedural `lock-order` rule
//! stands on. Like everything in this crate it is deliberately heuristic —
//! no `syn` under the vendored no-network constraint — so it extracts
//! exactly what the rule consumes and nothing more: which functions
//! exist, which impl type owns them, where their bodies start and end in
//! the token stream, which parameters are callable (closures whose
//! invocation under a lock the rule must see), and which call sites each
//! body contains. Precision limits are documented on [`CallSite`]; the
//! pragma escape hatch covers the rest.

use crate::lexer::{Tok, TokKind};
use crate::SourceFile;
use std::collections::BTreeSet;

/// Keywords that look like `ident (` call heads but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "move", "in", "as", "fn",
    "impl", "where", "use", "pub", "mod",
];

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`self` receivers are skipped entirely).
    pub name: String,
    /// Type mentions `Fn`/`FnMut`/`FnOnce`/`fn` — invoking it runs
    /// caller-supplied code.
    pub is_callable: bool,
}

/// One `fn` item (free function or method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Owning impl type for methods (`ShardedCache`), `None` for free fns.
    pub qual: Option<String>,
    /// Index of the containing file in the workspace file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body `{` and its matching `}`; `None` for
    /// trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Declared inside `#[cfg(test)]`/`#[test]` code (or a test file).
    pub is_test: bool,
}

/// One call site inside a function body.
///
/// Precision notes: macro invocations (`name!(…)`) are not calls, struct
/// literals are not calls, and a bare `f(…)` where `f` is a callable
/// parameter is reported with `name == f` and resolved by the call graph
/// against the enclosing function's parameter list.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (last path segment).
    pub name: String,
    /// `recv.name(…)` method-call shape.
    pub method: bool,
    /// Last path segment before `::name(…)` (`Topology::build` → `Topology`),
    /// when present.
    pub prefix: Option<String>,
    /// Token index of the name.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
}

/// Parses every `fn` item of `file` (which sits at index `file_idx` in the
/// workspace file list).
pub fn parse_fns(file_idx: usize, file: &SourceFile) -> Vec<FnItem> {
    let toks = &file.toks;
    let n = toks.len();
    // Impl frames: (body-close token, type name).
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.is_ident("impl") {
            if let Some((open, name)) = impl_header(file, i) {
                if let Some(close) = file.match_delim(open) {
                    impls.push((close, name));
                    i = open + 1;
                    continue;
                }
            }
        } else if t.is_ident("fn") && i + 1 < n && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = t.line;
            let qual = impls
                .iter()
                .rev()
                .find(|(close, _)| i < *close)
                .map(|(_, ty)| ty.clone());
            // Skip optional generics between the name and the `(`, noting
            // which type parameters carry `Fn`-family bounds.
            let mut j = i + 2;
            let mut callable_tys = BTreeSet::new();
            if j < n && toks[j].is_punct("<") {
                let end = skip_angles(file, j);
                callable_tys = callable_generics(&toks[j..end]);
                j = end;
            }
            let (params, after_params) = if j < n && toks[j].is_punct("(") {
                let close = file.match_delim(j).unwrap_or(j);
                (parse_params(file, j, close, &callable_tys), close + 1)
            } else {
                (Vec::new(), j)
            };
            // Past the return type: body `{` or declaration `;`.
            let mut k = after_params;
            let mut body = None;
            while k < n {
                let t = &toks[k];
                if t.is_punct("<") {
                    k = skip_angles(file, k);
                    continue;
                } else if t.is_punct("{") {
                    body = file.match_delim(k).map(|close| (k, close));
                    break;
                } else if t.is_punct(";") {
                    break;
                }
                k += 1;
            }
            out.push(FnItem {
                name,
                qual,
                file: file_idx,
                line,
                body,
                params,
                is_test: file.is_test_line(line),
            });
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Resolves an `impl` header starting at token `at` to its body-open `{`
/// and the implemented type name (`impl Trait for Type` → `Type`).
fn impl_header(file: &SourceFile, at: usize) -> Option<(usize, String)> {
    let toks = &file.toks;
    let n = toks.len();
    let mut j = at + 1;
    if j < n && toks[j].is_punct("<") {
        j = skip_angles(file, j);
    }
    let mut first_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < n {
        let t = &toks[j];
        if t.is_punct("{") {
            return after_for.or(first_ident).map(|name| (j, name));
        }
        if t.is_punct(";") || t.is_ident("fn") {
            return None;
        }
        if t.is_punct("<") {
            j = skip_angles(file, j);
            continue;
        }
        if t.is_ident("for") {
            saw_for = true;
        } else if t.kind == TokKind::Ident && !t.is_ident("where") && !t.is_ident("dyn") {
            if saw_for {
                if after_for.is_none() {
                    after_for = Some(t.text.clone());
                }
            } else {
                // Keep the *last* pre-`for` ident: `impl fmt::Display` →
                // `Display`; overwritten path segments are fine.
                first_ident = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Skips a balanced `<…>` region starting at `open` (which must be `<`);
/// returns the index just past the matching `>`. `->` is a distinct token
/// and never miscounts.
fn skip_angles(file: &SourceFile, open: usize) -> usize {
    let toks = &file.toks;
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct("<") {
            depth += 1;
        } else if toks[j].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if toks[j].is_punct("(") || toks[j].is_punct("{") {
            // `Fn() -> T` bounds inside generics: skip the parens.
            if let Some(c) = file.match_delim(j) {
                j = c;
            }
        } else if toks[j].is_punct(";") {
            // Not a generic after all (comparison operator); bail.
            return open + 1;
        }
        j += 1;
    }
    open + 1
}

/// Type parameters in a generics token slice (`<…>`) whose bounds mention
/// an `Fn` family trait: `F: FnOnce() -> V` ⇒ `F`.
fn callable_generics(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut current: Option<String> = None;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            current = Some(t.text.clone());
        } else if t.is_punct(",") {
            current = None;
        } else if t.is_ident("Fn") || t.is_ident("FnMut") || t.is_ident("FnOnce") {
            if let Some(name) = &current {
                out.insert(name.clone());
            }
        }
    }
    out
}

/// Parses the parameter list between `(` at `open` and `)` at `close`.
fn parse_params(
    file: &SourceFile,
    open: usize,
    close: usize,
    callable_tys: &BTreeSet<String>,
) -> Vec<Param> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut seg_start = open + 1;
    let mut depth = 0i32;
    let mut j = open + 1;
    while j <= close {
        let t = &toks[j];
        let is_end = j == close;
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")") && !is_end
            || t.is_punct("]")
            || t.is_punct("}")
            || t.is_punct(">")
        {
            depth -= 1;
        }
        if (t.is_punct(",") && depth == 0) || is_end {
            let seg = &toks[seg_start..j];
            if !seg.is_empty() && !seg.iter().any(|t| t.is_ident("self")) {
                let name = seg
                    .iter()
                    .take_while(|t| !t.is_punct(":"))
                    .filter(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
                    .last()
                    .map(|t| t.text.clone());
                let is_callable = seg.iter().skip_while(|t| !t.is_punct(":")).any(|t| {
                    t.is_ident("Fn")
                        || t.is_ident("FnMut")
                        || t.is_ident("FnOnce")
                        || (t.kind == TokKind::Ident && callable_tys.contains(&t.text))
                });
                if let Some(name) = name {
                    out.push(Param { name, is_callable });
                }
            }
            seg_start = j + 1;
        }
        j += 1;
    }
    out
}

/// Extracts every call site in the token range `(open, close)` (exclusive
/// of the braces themselves).
pub fn call_sites(file: &SourceFile, body: (usize, usize)) -> Vec<CallSite> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for j in body.0 + 1..body.1 {
        let t = &toks[j];
        if t.kind != TokKind::Ident || !toks[j + 1].is_punct("(") {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let prev = &toks[j - 1];
        if prev.is_ident("fn") {
            continue;
        }
        let method = prev.is_punct(".");
        let prefix = if prev.is_punct("::") && j >= 2 && toks[j - 2].kind == TokKind::Ident {
            Some(toks[j - 2].text.clone())
        } else {
            None
        };
        out.push(CallSite {
            name: t.text.clone(),
            method,
            prefix,
            tok: j,
            line: t.line,
        });
    }
    out
}

/// First-party crates imported by `file`'s `use` declarations, as crate
/// directory names (`use nss_analysis::…` → `analysis`). `crate`-relative
/// imports contribute the file's own crate.
pub fn imported_crates(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.toks;
    let mut out = BTreeSet::new();
    for j in 0..toks.len().saturating_sub(1) {
        if !toks[j].is_ident("use") {
            continue;
        }
        let seg = &toks[j + 1];
        if seg.kind != TokKind::Ident {
            continue;
        }
        let text = seg.text.as_str();
        if text == "crate" {
            out.insert(file.crate_name.clone());
        } else if let Some(rest) = text.strip_prefix("nss_") {
            out.insert(rest.to_string());
        } else if text == "nss" {
            out.insert("nss".to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn parse(src: &str) -> (SourceFile, Vec<FnItem>) {
        let f = SourceFile::parse("x.rs", "model", FileKind::Src, src);
        let fns = parse_fns(0, &f);
        (f, fns)
    }

    #[test]
    fn free_fns_and_methods_with_bodies() {
        let (_, fns) = parse(
            "fn free(a: u32, b: &str) -> u64 { a as u64 }\n\
             impl Foo { fn method(&self, x: f64) { go(x); } }\n\
             impl fmt::Display for Foo { fn fmt(&self) {} }\n",
        );
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "free");
        assert_eq!(fns[0].qual, None);
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(fns[1].name, "method");
        assert_eq!(fns[1].qual.as_deref(), Some("Foo"));
        assert_eq!(fns[2].name, "fmt");
        assert_eq!(fns[2].qual.as_deref(), Some("Foo"));
    }

    #[test]
    fn callable_params_and_generics() {
        let (_, fns) = parse(
            "fn cached<K, V, F: FnOnce() -> V>(key: K, build: F) -> V { build() }\n\
             fn probs(topo: &T, prob_of: impl Fn(usize) -> f64) {}\n",
        );
        assert!(fns[0]
            .params
            .iter()
            .any(|p| p.name == "build" && p.is_callable));
        assert!(fns[1]
            .params
            .iter()
            .any(|p| p.name == "prob_of" && p.is_callable));
        assert!(fns[1]
            .params
            .iter()
            .any(|p| p.name == "topo" && !p.is_callable));
    }

    #[test]
    fn call_site_shapes() {
        let (f, fns) = parse(
            "fn f() {\n    helper(1);\n    recv.method(2);\n    Topology::build(x);\n    not_a_macro!(3);\n    if (x) {}\n}\n",
        );
        let calls = call_sites(&f, fns[0].body.unwrap());
        let names: Vec<(&str, bool, Option<&str>)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.method, c.prefix.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("helper", false, None),
                ("method", true, None),
                ("build", false, Some("Topology")),
            ]
        );
    }

    #[test]
    fn imports_map_to_crate_dirs() {
        let f = SourceFile::parse(
            "x.rs",
            "serve",
            FileKind::Src,
            "use nss_analysis::sharded::ShardedCache;\nuse nss_obs::http::Router;\nuse crate::QueryService;\nuse std::sync::Arc;\n",
        );
        let imp = imported_crates(&f);
        assert!(imp.contains("analysis"));
        assert!(imp.contains("obs"));
        assert!(imp.contains("serve"));
        assert!(!imp.contains("std"));
    }

    #[test]
    fn test_region_fns_are_marked() {
        let (_, fns) = parse("fn a() {}\n#[cfg(test)]\nmod t {\n    fn b() {}\n}\n");
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test);
    }
}
