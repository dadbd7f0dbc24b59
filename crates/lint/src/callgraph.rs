//! Cross-crate call graph over the [`parser`] item model.
//!
//! Resolution is name-based and deliberately conservative about *shape*:
//! a bare `f(…)` resolves only to free functions (or the enclosing
//! function's callable parameters), `recv.m(…)` only to methods, and
//! `Type::f(…)` prefers methods of `Type`. Cross-crate candidates are
//! admitted only through the file's `use nss_*` imports, and a denylist of
//! ubiquitous std method names (`push`, `insert`, `len`, …) keeps the
//! graph from inventing edges through standard-library calls. False
//! negatives are possible — this is a lint, not a compiler — but every
//! admitted edge corresponds to a plausible same-name call.

use crate::parser::{self, CallSite, FnItem};
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Std method names never resolved against workspace items: edges through
/// these would almost always be `Vec`/`HashMap`/iterator calls.
const STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "get_or_insert_with",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "next_back",
    "clone",
    "to_string",
    "to_vec",
    "to_owned",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "filter",
    "filter_map",
    "collect",
    "extend",
    "contains",
    "contains_key",
    "entry",
    "or_insert_with",
    "or_default",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "min",
    "max",
    "min_by",
    "max_by",
    "sum",
    "count",
    "rev",
    "enumerate",
    "zip",
    "chain",
    "take",
    "skip",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "for_each",
    "retain",
    "drain",
    "clear",
    "split",
    "splitn",
    "trim",
    "parse",
    "as_str",
    "as_ref",
    "as_mut",
    "as_bytes",
    "as_slice",
    "as_deref",
    "to_le_bytes",
    "to_be_bytes",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "write",
    "read",
    "flatten",
    "flat_map",
    "copied",
    "cloned",
    "windows",
    "chunks",
    "first",
    "last",
    "starts_with",
    "ends_with",
    "abs",
    "min_by_key",
    "max_by_key",
    "push_str",
    "replace",
    "split_whitespace",
    "lines",
    "bytes",
    "chars",
    "floor",
    "ceil",
    "round",
    "powi",
    "powf",
    "exp",
    "ln",
    "keys",
    "values",
];

/// One call site with its resolved workspace candidates.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// The lexical site.
    pub site: CallSite,
    /// Indices into [`Workspace::fns`] (empty when the call resolves to
    /// std / vendored code — no edge).
    pub callees: Vec<usize>,
}

/// Parsed workspace: files, functions, and the resolved call graph.
pub struct Workspace {
    /// Parsed source files, in scan order.
    pub files: Vec<SourceFile>,
    /// Every `fn` item across the workspace.
    pub fns: Vec<FnItem>,
    /// `calls[f]` = resolved call sites inside `fns[f]`'s body.
    pub calls: Vec<Vec<ResolvedCall>>,
}

impl Workspace {
    /// Parses items and resolves the call graph over `files`.
    pub fn build(files: Vec<SourceFile>) -> Workspace {
        let mut fns = Vec::new();
        for (idx, file) in files.iter().enumerate() {
            fns.extend(parser::parse_fns(idx, file));
        }
        // Name → candidate fn indices.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let imports: Vec<BTreeSet<String>> = files.iter().map(parser::imported_crates).collect();
        let crate_names: Vec<String> = files.iter().map(|f| f.crate_name.clone()).collect();

        let mut calls = Vec::with_capacity(fns.len());
        for f in &fns {
            let Some(body) = f.body else {
                calls.push(Vec::new());
                continue;
            };
            let file = &files[f.file];
            let sites = parser::call_sites(file, body);
            let resolved = sites
                .into_iter()
                .map(|site| {
                    resolve(
                        &site,
                        f,
                        file,
                        &fns,
                        &by_name,
                        &imports[f.file],
                        &crate_names,
                    )
                })
                .collect();
            calls.push(resolved);
        }
        Workspace { files, fns, calls }
    }

    /// `Type::name` / `name` display form of `fns[i]`.
    pub fn fn_name(&self, i: usize) -> String {
        let f = &self.fns[i];
        match &f.qual {
            Some(q) => format!("{}::{}", q, f.name),
            None => f.name.clone(),
        }
    }
}

fn resolve(
    site: &CallSite,
    caller: &FnItem,
    file: &SourceFile,
    fns: &[FnItem],
    by_name: &BTreeMap<&str, Vec<usize>>,
    imports: &BTreeSet<String>,
    crate_names: &[String],
) -> ResolvedCall {
    // Callable parameter invocation (`build()` inside a fn taking
    // `build: impl FnOnce() -> V`) runs caller code, not a workspace fn.
    if !site.method
        && site.prefix.is_none()
        && caller
            .params
            .iter()
            .any(|p| p.is_callable && p.name == site.name)
    {
        return unresolved(site);
    }
    if site.method && STD_METHODS.contains(&site.name.as_str()) {
        return unresolved(site);
    }
    let Some(cands) = by_name.get(site.name.as_str()) else {
        return unresolved(site);
    };
    // Shape filter first.
    let shaped: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| {
            let cand = &fns[i];
            if let Some(pfx) = &site.prefix {
                // `Type::f` → methods of Type; `Self::f` → own impl type;
                // `module::f` → free fns.
                match &cand.qual {
                    Some(q) => q == pfx || (pfx == "Self" && caller.qual.as_deref() == Some(q)),
                    None => pfx.chars().next().is_some_and(|c| c.is_lowercase()),
                }
            } else if site.method {
                cand.qual.is_some()
            } else {
                cand.qual.is_none()
            }
        })
        .collect();
    // Locality filter: same file, else same crate, else imported crates.
    let pick = |pred: &dyn Fn(&FnItem) -> bool| -> Vec<usize> {
        shaped.iter().copied().filter(|&i| pred(&fns[i])).collect()
    };
    let same_file = pick(&|c: &FnItem| c.file == caller.file);
    let callees = if !same_file.is_empty() {
        same_file
    } else {
        let caller_crate = file.crate_name.clone();
        let same_crate = pick(&|c: &FnItem| crate_names[c.file] == caller_crate);
        if !same_crate.is_empty() {
            same_crate
        } else {
            pick(&|c: &FnItem| imports.contains(&crate_names[c.file]))
        }
    };
    ResolvedCall {
        site: site.clone(),
        callees,
    }
}

fn unresolved(site: &CallSite) -> ResolvedCall {
    ResolvedCall {
        site: site.clone(),
        callees: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileKind;

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(path, krate, src)| SourceFile::parse(path, krate, FileKind::Src, src))
                .collect(),
        )
    }

    #[test]
    fn resolves_same_crate_free_calls() {
        let w = ws(&[("a.rs", "model", "fn leaf() {}\nfn root() { leaf(); }\n")]);
        let root = w.fns.iter().position(|f| f.name == "root").unwrap();
        let leaf = w.fns.iter().position(|f| f.name == "leaf").unwrap();
        assert_eq!(w.calls[root][0].callees, vec![leaf]);
    }

    #[test]
    fn cross_crate_needs_import() {
        let files = [
            (
                "crates/model/src/a.rs",
                "model",
                "pub fn shared_leaf() {}\n",
            ),
            (
                "crates/sim/src/b.rs",
                "sim",
                "use nss_model::a::shared_leaf;\nfn root() { shared_leaf(); }\n",
            ),
            (
                "crates/core/src/c.rs",
                "core",
                "fn other() { shared_leaf(); }\n",
            ),
        ];
        let w = ws(&files);
        let leaf = w.fns.iter().position(|f| f.name == "shared_leaf").unwrap();
        let root = w.fns.iter().position(|f| f.name == "root").unwrap();
        let other = w.fns.iter().position(|f| f.name == "other").unwrap();
        assert_eq!(w.calls[root][0].callees, vec![leaf], "imported: edge");
        assert!(w.calls[other][0].callees.is_empty(), "no import: no edge");
    }

    #[test]
    fn method_shape_and_std_denylist() {
        let w = ws(&[(
            "a.rs",
            "model",
            "impl Foo { fn work(&self) {} }\nfn root(f: &Foo, v: &mut Vec<u32>) { f.work(); v.push(1); work_free(); }\nfn work_free() {}\n",
        )]);
        let root = w.fns.iter().position(|f| f.name == "root").unwrap();
        let work = w.fns.iter().position(|f| f.name == "work").unwrap();
        let free = w.fns.iter().position(|f| f.name == "work_free").unwrap();
        let names: Vec<(String, Vec<usize>)> = w.calls[root]
            .iter()
            .map(|c| (c.site.name.clone(), c.callees.clone()))
            .collect();
        assert_eq!(names[0], ("work".into(), vec![work]));
        assert_eq!(names[1], ("push".into(), vec![]));
        assert_eq!(names[2], ("work_free".into(), vec![free]));
    }

    #[test]
    fn param_call_is_not_resolved() {
        let w = ws(&[(
            "a.rs",
            "analysis",
            "fn build() {}\nfn cached(build: impl FnOnce() -> u32) -> u32 { build() }\n",
        )]);
        let cached = w.fns.iter().position(|f| f.name == "cached").unwrap();
        assert!(w.calls[cached][0].callees.is_empty());
    }
}
