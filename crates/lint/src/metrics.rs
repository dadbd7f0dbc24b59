//! Metric-name inventory: the scanner behind `nss-lint metrics`.
//!
//! Walks the same first-party file set as the lint pass and extracts every
//! metric the workspace can emit — literal names passed to the
//! `nss_obs::{counter,gauge,observe,span,trace_span}!` macros plus the
//! dynamic `format!`-named registry calls the sharding layers use — into a
//! deterministic markdown table. `docs/METRICS.md` commits that table
//! between `BEGIN`/`END` markers; `nss-lint metrics --check` fails CI when
//! the committed block drifts from the code, and `--write` refreshes it in
//! place without touching the surrounding prose.
//!
//! The extraction is lexical, like the rules: comments are blanked first
//! (so doctest examples in `///` blocks don't register phantom metrics)
//! and `#[cfg(test)]` regions are skipped (test-only metric names are not
//! part of the exported surface).

use crate::{FileKind, SourceFile};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One exported metric (or dynamic metric family).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Registry name; span macros export `<name>.seconds`, dynamic
    /// families keep their `{placeholder}` segments.
    pub name: String,
    /// `counter` / `gauge` / `histogram` / `histogram (span)`.
    pub kind: &'static str,
    /// Name is a `format!` template, not a literal.
    pub dynamic: bool,
    /// Workspace-relative source files that emit it.
    pub sites: BTreeSet<String>,
}

/// The markers delimiting the generated block in `docs/METRICS.md`.
pub const BEGIN_MARK: &str = "<!-- BEGIN nss-lint metrics (generated; edit with \
                              `cargo run -p nss-lint -- metrics --write docs/METRICS.md`) -->";
/// Closing marker. See [`BEGIN_MARK`].
pub const END_MARK: &str = "<!-- END nss-lint metrics -->";

/// Blanks comments (line, nested block) to spaces, preserving newlines and
/// byte offsets, so later pattern matches never fire inside docs.
fn strip_comments(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0usize;
    let n = b.len();
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                while i < n && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < n {
                    if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                // String literal: copy verbatim (metric names live here).
                out.push(b[i]);
                i += 1;
                while i < n {
                    out.push(b[i]);
                    if b[i] == b'\\' && i + 1 < n {
                        i += 1;
                        out.push(b[i]);
                    } else if b[i] == b'"' {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes (`'x'`, `'\n'`); a lifetime never has a closing
                // quote before an identifier boundary.
                let close = (i + 1..n.min(i + 5)).find(|&j| b[j] == b'\'' && b[j - 1] != b'\\');
                if let Some(close) = close {
                    out.extend_from_slice(&b[i..=close]);
                    i = close + 1;
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads the string literal starting at `text[i]` (which must be `"`);
/// returns (contents, index past the closing quote).
fn read_str(text: &[u8], mut i: usize) -> Option<(String, usize)> {
    if text.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    let start = i;
    while i < text.len() {
        match text[i] {
            b'\\' => i += 2,
            b'"' => {
                return Some((String::from_utf8_lossy(&text[start..i]).into_owned(), i + 1));
            }
            _ => i += 1,
        }
    }
    None
}

fn line_of(src: &str, offset: usize) -> u32 {
    src.as_bytes()[..offset]
        .iter()
        .filter(|&&c| c == b'\n')
        .count() as u32
        + 1
}

/// Scans one comment-stripped source for metric emissions.
fn scan_file(rel: &str, crate_name: &str, src: &str, out: &mut Vec<MetricRow>) {
    let stripped = strip_comments(src);
    let file = SourceFile::parse(rel, crate_name, FileKind::Src, src);
    let bytes = stripped.as_bytes();

    let mut push = |name: String, kind: &'static str, dynamic: bool| {
        let mut sites = BTreeSet::new();
        sites.insert(rel.to_string());
        out.push(MetricRow {
            name,
            kind,
            dynamic,
            sites,
        });
    };

    // Macro emissions: `nss_obs::<macro>!(<first-arg>, …)`.
    const MACROS: &[(&str, &str)] = &[
        ("counter", "counter"),
        ("gauge", "gauge"),
        ("observe", "histogram"),
        ("trace_span", "histogram (span)"),
        ("span", "histogram (span)"),
    ];
    let mut pos = 0usize;
    while let Some(hit) = stripped[pos..].find("nss_obs::") {
        let at = pos + hit + "nss_obs::".len();
        pos = at;
        if file.is_test_line(line_of(&stripped, at)) {
            continue;
        }
        for &(mac, metric_kind) in MACROS {
            let Some(rest) = stripped[at..].strip_prefix(mac) else {
                continue;
            };
            let Some(rest) = rest.trim_start().strip_prefix('!') else {
                continue;
            };
            let Some(rest) = rest.trim_start().strip_prefix('(') else {
                continue;
            };
            let arg_at = stripped.len() - rest.len();
            let arg = rest.trim_start();
            let arg_at = arg_at + (rest.len() - arg.len());
            if let Some((name, _)) = read_str(bytes, arg_at) {
                let name = if metric_kind == "histogram (span)" {
                    format!("{name}.seconds")
                } else {
                    name
                };
                push(name, metric_kind, false);
            } else {
                // Dynamic macro arg: record the inner format template when
                // one is visible, else the raw expression head.
                let head: String = arg.chars().take_while(|&c| c != ')' && c != ',').collect();
                let name = arg
                    .find("format!(")
                    .and_then(|f| {
                        let lit_at = arg_at + f + "format!(".len();
                        read_str(bytes, lit_at).map(|(s, _)| s)
                    })
                    .unwrap_or_else(|| format!("<{}>", head.trim()));
                let name = if metric_kind == "histogram (span)" {
                    format!("{name}.seconds")
                } else {
                    name
                };
                push(name, metric_kind, true);
            }
            break;
        }
    }

    // Dynamic registry families: `.histogram(&format!("…"))` and friends,
    // the idiom the sharding layers use for per-stage metrics.
    const METHODS: &[(&str, &str)] = &[
        (".counter(&format!(", "counter"),
        (".gauge(&format!(", "gauge"),
        (".histogram(&format!(", "histogram"),
    ];
    for &(pat, metric_kind) in METHODS {
        let mut pos = 0usize;
        while let Some(hit) = stripped[pos..].find(pat) {
            let lit_at = pos + hit + pat.len();
            pos = lit_at;
            if file.is_test_line(line_of(&stripped, lit_at)) {
                continue;
            }
            if let Some((name, _)) = read_str(bytes, lit_at) {
                push(name, metric_kind, true);
            }
        }
    }
}

/// Scans the workspace and returns the merged, sorted inventory.
pub fn scan_workspace(root: &Path) -> Result<Vec<MetricRow>, String> {
    if !root.join("Cargo.toml").exists() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} does not look like the workspace root (need Cargo.toml and crates/)",
            root.display()
        ));
    }
    // Same first-party set as the lint pass, but `src/` only: metrics
    // emitted by tests and benches are not part of the exported surface.
    let mut files: Vec<(PathBuf, String, FileKind)> = Vec::new();
    crate::collect_rs(&root.join("src"), &mut files, "nss", FileKind::Src)?;
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
        // The linter's sources contain the scan patterns themselves, and
        // `obs` is the metrics plumbing (its `format!("{}.seconds", …)`
        // is the span mechanism, not an emission site).
        if name == "lint" || name == "obs" {
            continue;
        }
        crate::collect_rs(&dir.join("src"), &mut files, &name, FileKind::Src)?;
    }

    let mut rows = Vec::new();
    for (path, crate_name, _) in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        scan_file(&rel, &crate_name, &src, &mut rows);
    }

    // Merge duplicate (name, kind) rows, unioning sites.
    let mut merged: BTreeMap<(String, &'static str), MetricRow> = BTreeMap::new();
    for row in rows {
        merged
            .entry((row.name.clone(), row.kind))
            .and_modify(|m| {
                m.sites.extend(row.sites.iter().cloned());
                m.dynamic |= row.dynamic;
            })
            .or_insert(row);
    }
    Ok(merged.into_values().collect())
}

/// Renders the inventory as the committed markdown block, markers
/// included.
pub fn render(rows: &[MetricRow]) -> String {
    let mut out = String::new();
    out.push_str(BEGIN_MARK);
    out.push('\n');
    out.push_str("| Metric | Kind | Emitted from |\n|---|---|---|\n");
    for row in rows {
        let name = if row.dynamic {
            format!("`{}` (dynamic)", row.name)
        } else {
            format!("`{}`", row.name)
        };
        let sites = row
            .sites
            .iter()
            .map(|s| format!("`{s}`"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("| {} | {} | {} |\n", name, row.kind, sites));
    }
    out.push_str(END_MARK);
    out.push('\n');
    out
}

/// Replaces the marked block inside `doc` with `block`; `Err` when the
/// markers are missing or out of order.
pub fn splice(doc: &str, block: &str) -> Result<String, String> {
    crate::docsync::splice(doc, block, BEGIN_MARK, END_MARK)
}

/// Extracts the currently committed block (markers included).
pub fn committed_block(doc: &str) -> Result<&str, String> {
    crate::docsync::committed_block(doc, BEGIN_MARK, END_MARK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_literal_macro_names_and_span_suffix() {
        let src = r#"
fn f() {
    nss_obs::counter!("a.requests").inc();
    nss_obs::gauge!("a.bytes").set(1.0);
    nss_obs::observe!("a.latency", 0.5);
    let _s = nss_obs::trace_span!("a.work");
}
"#;
        let mut rows = Vec::new();
        scan_file("x.rs", "model", src, &mut rows);
        let names: Vec<(&str, &str)> = rows.iter().map(|r| (r.name.as_str(), r.kind)).collect();
        assert!(names.contains(&("a.requests", "counter")), "{names:?}");
        assert!(names.contains(&("a.bytes", "gauge")), "{names:?}");
        assert!(names.contains(&("a.latency", "histogram")), "{names:?}");
        assert!(
            names.contains(&("a.work.seconds", "histogram (span)")),
            "{names:?}"
        );
    }

    #[test]
    fn skips_doc_comments_and_test_regions() {
        let src = r#"
/// ```
/// nss_obs::counter!("doc.phantom").inc();
/// ```
fn f() {}
#[cfg(test)]
mod tests {
    fn t() {
        nss_obs::counter!("test.only").inc();
    }
}
"#;
        let mut rows = Vec::new();
        scan_file("x.rs", "model", src, &mut rows);
        assert!(rows.is_empty(), "{rows:?}");
    }

    #[test]
    fn captures_dynamic_format_families() {
        let src = r#"
fn f(stage: &str) {
    let reg = nss_obs::registry::Registry::global();
    let h = reg.histogram(&format!("{stage}.shard.seconds"));
    reg.gauge(&format!("{stage}.imbalance")).set(2.0);
    let _ = h;
}
"#;
        let mut rows = Vec::new();
        scan_file("x.rs", "sim", src, &mut rows);
        let names: Vec<(&str, bool)> = rows.iter().map(|r| (r.name.as_str(), r.dynamic)).collect();
        assert!(
            names.contains(&("{stage}.shard.seconds", true)),
            "{names:?}"
        );
        assert!(names.contains(&("{stage}.imbalance", true)), "{names:?}");
    }

    #[test]
    fn splice_round_trips_and_check_detects_drift() {
        let rows = vec![MetricRow {
            name: "x.y".into(),
            kind: "counter",
            dynamic: false,
            sites: ["crates/a/src/lib.rs".to_string()].into_iter().collect(),
        }];
        let block = render(&rows);
        let doc = format!("# Title\n\nprose\n\n{BEGIN_MARK}\nstale\n{END_MARK}\n\nmore prose\n");
        let updated = splice(&doc, &block).expect("splice");
        assert!(updated.contains("| `x.y` | counter |"));
        assert!(updated.starts_with("# Title"));
        assert!(updated.ends_with("more prose\n"));
        assert_eq!(committed_block(&updated).expect("block"), block);
        // And a doc with no markers is a hard error, not silent success.
        assert!(splice("no markers", &block).is_err());
    }
}
