//! `nss-lint` — workspace static analysis for RNG-stream discipline,
//! numerical safety, obs feature hygiene, atomic orderings and route
//! handlers.
//!
//! The repo's promise is that analytical predictions are validated against
//! **bitwise-reproducible** simulation. Most of what that promise rests on
//! is checked elsewhere: the workspace lint table and `clippy.toml` ban
//! panics in library code, hash-order iteration, `unsafe` and the std
//! locks; `nss_obs::sync::Mutex` panics in debug builds when a thread takes
//! a guard while holding another, so no lock-order deadlock survives the
//! tests; `derive_seed` takes a `Stream`, not a string; and CI's
//! output-identity step diffs every artifact of `repro all` across thread
//! counts and the obs feature (see DESIGN.md §8). This crate checks the
//! rest mechanically as a CI gate: no literal-seeded RNG streams,
//! lens-geometry math inside its domain, zero-cost obs macros, proven
//! atomic orderings and lock-free route handlers:
//!
//! ```text
//! cargo run -p nss-lint -- check [--sarif report.sarif]
//! ```
//!
//! The pass is deliberately **lexical** (see [`lexer`]): a comment- and
//! string-aware token scanner plus call-shape pattern rules, run file by
//! file. That keeps the crate dependency-free (no `syn` under the
//! no-network vendoring constraint) at the cost of heuristic precision —
//! which is why every rule has an inline escape hatch, the
//! [`// nss-lint: allow(<rule>) — <reason>`](pragma) pragma, whose reason
//! text is mandatory and machine-checked.
//!
//! Rule catalogue (ids are what pragmas name):
//!
//! | id | invariant |
//! |---|---|
//! | `rng-discipline` | no literal-seeded `SmallRng` outside tests — every RNG originates from a labeled `Stream` |
//! | `float-safety` | no `==`/`!=` against float literals and no unguarded `.sqrt()`/`.acos()`/`.asin()` in `analysis`/`core` |
//! | `feature-hygiene` | obs macros must be `nss_obs::`-qualified and carry effect-free arguments, so `--no-default-features` builds stay identical |
//! | `atomic-protocol` | `Relaxed` only for counter accumulate; claim/CAS RMWs, `fetch_add` elections and load/store in fence-bearing files need the proven ordering or a pragma citing a loom/Miri proof |
//! | `blocking-in-handler` | route handlers hold no lock guard across kernel computation |
//!
//! `nss-lint rules --check` keeps `docs/LINTS.md` in sync with this
//! catalogue; `--sarif` emits the findings as a SARIF 2.1.0 artifact for
//! CI upload.
//!
//! Malformed pragmas (missing reason, unknown rule) and pragmas that no
//! longer suppress anything are reported under the reserved id `pragma`.

pub mod docsync;
pub mod lexer;
pub mod metrics;
pub mod pragma;
pub mod rules;
pub mod sarif;

use lexer::{scan, Tok, TokKind};
use pragma::{parse_pragmas, Pragma};
use std::fmt;
use std::path::{Path, PathBuf};

/// How a file participates in the build, which scopes the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` of any crate: test code only inside `#[cfg(test)]`/`#[test]`.
    Src,
    /// Integration tests / benches: every line is test code.
    TestSrc,
}

/// One rule finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (see crate docs) or `pragma` for pragma-hygiene findings.
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A scanned source file plus the derived context rules match against.
pub struct SourceFile {
    /// Workspace-relative path (diagnostics).
    pub path: String,
    /// Crate directory name (`model`, `analysis`, …; `nss` for the root).
    pub crate_name: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// `test_lines[line as usize]` = line is inside a `#[cfg(test)]` /
    /// `#[test]` region (index 0 unused).
    pub test_lines: Vec<bool>,
    /// Parsed pragmas.
    pub pragmas: Vec<Pragma>,
}

impl SourceFile {
    /// Scans `src` into a rule-ready file model.
    pub fn parse(path: &str, crate_name: &str, kind: FileKind, src: &str) -> SourceFile {
        let scanned = scan(src);
        let last_line = src.lines().count() as u32 + 1;
        let mut test_lines = vec![false; last_line as usize + 2];
        if kind == FileKind::TestSrc {
            for t in test_lines.iter_mut() {
                *t = true;
            }
        } else {
            mark_test_regions(&scanned.toks, &mut test_lines);
        }
        let pragmas = parse_pragmas(&scanned.comments, &rules::ids());
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            toks: scanned.toks,
            test_lines,
            pragmas,
        }
    }

    /// True if `line` lies inside test-only code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Index of the token matching the opening delimiter at `open`
    /// (`(`/`[`/`{`), or `None` if unbalanced.
    pub fn match_delim(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.toks[open].text.as_str() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let mut depth = 0usize;
        for (j, t) in self.toks.iter().enumerate().skip(open) {
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }
}

/// Marks lines covered by `#[cfg(test)]` (any `cfg` attribute mentioning
/// `test`) and `#[test]` item bodies.
fn mark_test_regions(toks: &[Tok], test_lines: &mut [bool]) {
    let n = toks.len();
    let mut i = 0usize;
    while i < n {
        if toks[i].is_punct("#") && i + 1 < n && toks[i + 1].is_punct("[") {
            // Find the attribute's closing bracket.
            let mut depth = 0usize;
            let mut close = None;
            for (j, t) in toks.iter().enumerate().skip(i + 1) {
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
            }
            let Some(close) = close else { break };
            let attr: Vec<&str> = toks[i + 2..close]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr =
                attr == ["test"] || (attr.first() == Some(&"cfg") && attr.contains(&"test"));
            if is_test_attr {
                // The attributed item's body is the next `{…}` before any
                // bare `;` (a `#[cfg(test)] use …;` has no body).
                let mut j = close + 1;
                let mut open = None;
                while j < n {
                    let t = &toks[j];
                    if t.is_punct("{") {
                        open = Some(j);
                        break;
                    }
                    if t.is_punct(";") {
                        break;
                    }
                    // Skip stacked attributes on the same item.
                    if t.is_punct("#") && j + 1 < n && toks[j + 1].is_punct("[") {
                        let mut d = 0usize;
                        while j < n {
                            if toks[j].is_punct("[") {
                                d += 1;
                            } else if toks[j].is_punct("]") {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    let mut depth = 0usize;
                    let mut end = open;
                    for (k, t) in toks.iter().enumerate().skip(open) {
                        if t.is_punct("{") {
                            depth += 1;
                        } else if t.is_punct("}") {
                            depth -= 1;
                            if depth == 0 {
                                end = k;
                                break;
                            }
                        }
                    }
                    let (lo, hi) = (toks[open].line as usize, toks[end].line as usize);
                    for line in test_lines.iter_mut().take(hi + 1).skip(lo) {
                        *line = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

/// Lints a single in-memory source (the fixture-test entry point).
pub fn lint_source(path: &str, crate_name: &str, kind: FileKind, src: &str) -> Vec<Violation> {
    lint_file(&SourceFile::parse(path, crate_name, kind, src))
}

/// Runs every rule over `file`, then applies its pragmas.
fn lint_file(file: &SourceFile) -> Vec<Violation> {
    let mut raw = Vec::new();
    for rule in rules::all() {
        rule.check(file, &mut raw);
    }
    finalize(file, raw)
}

/// Applies pragma suppression to `raw`, appends pragma-hygiene findings,
/// and sorts — the per-file tail of every lint pass.
fn finalize(file: &SourceFile, raw: Vec<Violation>) -> Vec<Violation> {
    let mut out = Vec::new();
    // A pragma on line L covers violations on L and L+1.
    let covers = |p: &Pragma, v: &Violation| {
        (v.line == p.line || v.line == p.line + 1) && p.rules.iter().any(|r| r == v.rule)
    };
    for v in &raw {
        let suppressed = file
            .pragmas
            .iter()
            .any(|p| p.error.is_none() && covers(p, v));
        if !suppressed {
            out.push(v.clone());
        }
    }
    for p in &file.pragmas {
        if let Some(err) = &p.error {
            out.push(Violation {
                path: file.path.clone(),
                line: p.line,
                rule: "pragma",
                message: err.clone(),
            });
        } else {
            // An allow that suppresses nothing is stale and must go: dead
            // pragmas erode trust in the live ones.
            for r in &p.rules {
                let used = raw
                    .iter()
                    .any(|v| v.rule == r.as_str() && (v.line == p.line || v.line == p.line + 1));
                if !used {
                    out.push(Violation {
                        path: file.path.clone(),
                        line: p.line,
                        rule: "pragma",
                        message: format!(
                            "stale pragma: no `{r}` violation on this or the next line — remove it"
                        ),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// A full workspace lint result.
#[derive(Debug)]
pub struct Report {
    /// Files scanned, in deterministic (sorted) order.
    pub files: Vec<String>,
    /// Surviving violations, ordered by (path, line, rule).
    pub violations: Vec<Violation>,
}

/// Walks the workspace at `root` and lints every first-party `.rs` file.
///
/// Scanned: `src/` (root crate), `crates/*/{src,tests,benches}`. Skipped:
/// `vendor/` (third-party API mirrors), `target/`, and any `fixtures`
/// directory (linter test inputs contain deliberate violations).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    if !root.join("Cargo.toml").exists() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} does not look like the workspace root (need Cargo.toml and crates/)",
            root.display()
        ));
    }
    let mut files: Vec<(PathBuf, String, FileKind)> = Vec::new();
    collect_rs(&root.join("src"), &mut files, "nss", FileKind::Src)?;
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map_err(|e| format!("reading crates/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        collect_rs(&dir.join("src"), &mut files, &name, FileKind::Src)?;
        if name == "lint" {
            // The linter's fixtures are deliberate violations.
            continue;
        }
        collect_rs(&dir.join("tests"), &mut files, &name, FileKind::TestSrc)?;
        collect_rs(&dir.join("benches"), &mut files, &name, FileKind::TestSrc)?;
    }

    let mut parsed: Vec<SourceFile> = Vec::with_capacity(files.len());
    for (path, crate_name, kind) in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        parsed.push(SourceFile::parse(&rel, &crate_name, kind, &src));
    }
    let mut violations: Vec<Violation> = parsed.iter().flat_map(lint_file).collect();
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report {
        files: parsed.into_iter().map(|f| f.path).collect(),
        violations,
    })
}

/// Recursively collects `.rs` files under `dir` (sorted for deterministic
/// reports), skipping `fixtures` directories.
pub(crate) fn collect_rs(
    dir: &Path,
    out: &mut Vec<(PathBuf, String, FileKind)>,
    crate_name: &str,
    kind: FileKind,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().and_then(|n| n.to_str()) == Some("fixtures") {
                continue;
            }
            collect_rs(&p, out, crate_name, kind)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push((p, crate_name.to_string(), kind));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_marking() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::parse("x.rs", "model", FileKind::Src, src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_test_without_body_is_no_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn a() {}\n";
        let f = SourceFile::parse("x.rs", "model", FileKind::Src, src);
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn test_attribute_marks_fn_body() {
        let src = "#[test]\nfn t() {\n    boom();\n}\n";
        let f = SourceFile::parse("x.rs", "model", FileKind::Src, src);
        assert!(f.is_test_line(3));
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let src = "fn f() -> SmallRng {\n    // nss-lint: allow(rng-discipline) — golden seed pinned on purpose\n    SmallRng::seed_from_u64(7)\n}\n";
        let vs = lint_source("x.rs", "model", FileKind::Src, src);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn stale_pragma_is_flagged() {
        let src = "// nss-lint: allow(rng-discipline) — nothing here\nfn f() {}\n";
        let vs = lint_source("x.rs", "model", FileKind::Src, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "pragma");
        assert!(vs[0].message.contains("stale"));
    }
}
