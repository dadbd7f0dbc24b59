//! End-to-end tests of the `nss-lint` binary over the fixture trees under
//! `tests/fixtures/` — each rule has a `bad_*.rs` that must be flagged with
//! `file:line` diagnostics and a `good_*.rs` (including pragma-respected
//! cases) that must pass — plus the meta-test: the live workspace itself
//! is clean.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] bodies; a failed step must fail the test"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixtures(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(tree)
}

fn run_check(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nss-lint"))
        .arg("check")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn nss-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every `bad_*.rs` fixture produces at least one `file:line: [rule]`
/// diagnostic for its rule, and the process exits non-zero.
#[test]
fn bad_fixtures_are_flagged() {
    let out = run_check(&fixtures("bad"), &[]);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{}", stdout(&out));
    let text = stdout(&out);
    let expected = [
        ("bad_rng.rs", "rng-discipline"),
        ("bad_float.rs", "float-safety"),
        ("bad_obs.rs", "feature-hygiene"),
        ("bad_pragma.rs", "pragma"),
        ("bad_atomic.rs", "atomic-protocol"),
        ("bad_handler.rs", "blocking-in-handler"),
    ];
    for (file, rule) in expected {
        let hit = text.lines().any(|l| {
            l.contains(file) && l.contains(&format!("[{rule}]")) && {
                // `path:line:` — a numeric line number between the colons.
                let after = l.split(':').nth(1).unwrap_or("");
                after.chars().all(|c| c.is_ascii_digit()) && !after.is_empty()
            }
        });
        assert!(
            hit,
            "expected a `{file}:<line>: [{rule}]` diagnostic in:\n{text}"
        );
    }
}

/// The handler finding carries its evidence: it names the sweep run under
/// the guard.
#[test]
fn handler_diagnostic_names_the_computation() {
    let out = run_check(&fixtures("bad"), &[]);
    let text = stdout(&out);
    assert!(
        text.lines()
            .any(|l| l.contains("bad_handler.rs") && l.contains("`run(…)`")),
        "guard held across ProbabilitySweep::run not reported:\n{text}"
    );
}

/// Both pragma failure modes are reported: a missing reason and a stale
/// (nothing-to-suppress) allow.
#[test]
fn pragma_misuse_is_flagged_both_ways() {
    let out = run_check(&fixtures("bad"), &[]);
    let text = stdout(&out);
    let pragma_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("bad_pragma.rs") && l.contains("[pragma]"))
        .collect();
    assert!(
        pragma_lines.iter().any(|l| l.contains("reason")),
        "missing-reason pragma not reported:\n{text}"
    );
    assert!(
        pragma_lines.iter().any(|l| l.contains("stale")),
        "stale pragma not reported:\n{text}"
    );
}

/// The good tree — clean idioms plus justified pragmas — passes.
#[test]
fn good_fixtures_pass() {
    let out = run_check(&fixtures("good"), &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "good fixtures flagged:\n{}",
        stdout(&out)
    );
}

/// META-TEST: the live workspace is clean. This is the CI gate run against
/// the repository itself; a failure here means a violation (or an
/// unjustified pragma) landed in real code.
#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let out = run_check(&root, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "live workspace has lint violations:\n{}",
        stdout(&out)
    );
}

/// META-TEST: the committed `docs/METRICS.md` table matches the scanned
/// metric inventory — the same sync gate CI runs via
/// `nss-lint metrics --check docs/METRICS.md`.
#[test]
fn live_metrics_doc_is_in_sync() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let out = Command::new(env!("CARGO_BIN_EXE_nss-lint"))
        .args(["metrics", "--root"])
        .arg(&root)
        .arg("--check")
        .arg(root.join("docs/METRICS.md"))
        .output()
        .expect("spawn nss-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "docs/METRICS.md is out of sync; run \
         `cargo run -p nss-lint -- metrics --write docs/METRICS.md`\n{}{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// META-TEST: the committed `docs/LINTS.md` rule table matches the
/// compiled-in catalogue — the same sync gate CI runs via
/// `nss-lint rules --check docs/LINTS.md`.
#[test]
fn live_lints_doc_is_in_sync() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let out = Command::new(env!("CARGO_BIN_EXE_nss-lint"))
        .args(["rules", "--check"])
        .arg(root.join("docs/LINTS.md"))
        .output()
        .expect("spawn nss-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "docs/LINTS.md is out of sync; run \
         `cargo run -p nss-lint -- rules --write docs/LINTS.md`\n{}{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--sarif` writes a SARIF 2.1.0 log whose rule catalogue and results
/// reference the fixture violations — the artifact CI uploads for code
/// scanning.
#[test]
fn sarif_report_is_written() {
    let dir = std::env::temp_dir().join(format!("nss-lint-sarif-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sarif_path = dir.join("report.sarif");
    let out = run_check(
        &fixtures("bad"),
        &["--sarif", sarif_path.to_str().expect("utf-8 path")],
    );
    assert_eq!(out.status.code(), Some(1));
    let sarif = std::fs::read_to_string(&sarif_path).expect("sarif written");
    assert!(sarif.contains("\"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"nss-lint\""), "{sarif}");
    for rule in ["blocking-in-handler", "pragma"] {
        assert!(sarif.contains(rule), "missing `{rule}` in SARIF:\n{sarif}");
    }
    assert!(sarif.contains("bad_handler.rs"), "{sarif}");
    assert!(sarif.contains("\"startLine\""), "{sarif}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `rules` lists the full catalogue (the 5 rules plus the reserved
/// `pragma` channel).
#[test]
fn rules_subcommand_lists_catalogue() {
    let out = Command::new(env!("CARGO_BIN_EXE_nss-lint"))
        .arg("rules")
        .output()
        .expect("spawn nss-lint");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for rule in [
        "rng-discipline",
        "float-safety",
        "feature-hygiene",
        "pragma",
        "atomic-protocol",
        "blocking-in-handler",
    ] {
        assert!(text.contains(rule), "missing `{rule}` in:\n{text}");
    }
}
