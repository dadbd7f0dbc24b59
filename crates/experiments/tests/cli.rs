//! CLI contract tests for the `repro` binary: malformed flags exit with
//! usage + status 2 instead of panicking, `list` prints the registry, the
//! §4.1 figures hand their calibrations on in registry order, the header
//! lists the figures in that order, and the console prints each table
//! exactly as REPORT.md renders it.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] bodies; a failed step must fail the test"
)]

use std::path::PathBuf;
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn malformed_runs_value_exits_2_with_usage() {
    let out = repro(&["--runs", "x", "fig4"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--runs needs a number"),
        "stderr should name the bad flag: {err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro"), "usage goes to stdout");
}

#[test]
fn missing_out_argument_exits_2() {
    let out = repro(&["fig4", "--out"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out needs a directory"));
}

#[test]
fn unknown_flag_exits_2() {
    let out = repro(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn unknown_command_exits_2() {
    let out = repro(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command: fig99"));
}

#[test]
fn invalid_fault_spec_exits_2() {
    let out = repro(&["--faults", "loss=2.0", "fig4"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--faults"),
        "stderr should blame the spec: {err}"
    );
}

#[test]
fn list_prints_registry() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["fig4", "fig12", "ext-faults", "report"] {
        assert!(stdout.contains(name), "list should mention {name}");
    }
}

#[test]
fn no_commands_prints_usage_and_succeeds() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro"));
}

/// Runs `repro --fast --quiet` on `figs` into a fresh directory and returns
/// the panel-(a) SVG of `fig`.
fn panel_a_svg(figs: &[&str], fig: &str) -> String {
    let out: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("calib-{}", figs.join("-")),
    ]
    .iter()
    .collect();
    let _ = std::fs::remove_dir_all(&out);
    let dir = out.to_str().expect("UTF-8 temp path");
    let run = repro(&[&["--fast", "--quiet", "--out", dir], figs].concat());
    assert_eq!(run.status.code(), Some(0), "repro {figs:?} failed");
    std::fs::read_to_string(out.join(format!("{fig}a.svg"))).expect("panel (a) SVG written")
}

#[test]
fn calibrations_flow_from_the_calibrating_figures() {
    // Run alone, a figure uses the paper's constraint; after its
    // calibrating figure, the constraint that figure measured.
    let cases: [(&[&str], &str, &str); 4] = [
        (&["fig5"], "fig05", "to 72% reachability"),
        (&["fig4", "fig5"], "fig05", "to 83% reachability"),
        (&["fig7"], "fig07", "within 35 broadcasts"),
        (&["fig4", "fig6", "fig7"], "fig07", "within 66 broadcasts"),
    ];
    for (figs, fig, title) in cases {
        let svg = panel_a_svg(figs, fig);
        assert!(svg.contains(title), "{figs:?}: {fig}a.svg lacks {title:?}");
    }
}

#[test]
fn console_tables_are_the_report_tables() {
    let out: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "console-tables"]
        .iter()
        .collect();
    let _ = std::fs::remove_dir_all(&out);
    let dir = out.to_str().expect("UTF-8 temp path");
    let run = repro(&["--fast", "--out", dir, "fig4", "ext-cs", "report"]);
    assert_eq!(run.status.code(), Some(0), "repro failed");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let report = std::fs::read_to_string(out.join("REPORT.md")).expect("REPORT.md written");
    // Fig. 4(b) and Ext A: each a blank-line-delimited run of `|` rows.
    let tables: Vec<&str> = report
        .split("\n\n")
        .filter(|block| block.starts_with('|'))
        .collect();
    assert_eq!(tables.len(), 2, "REPORT.md tables: {tables:?}");
    for table in tables {
        assert!(
            stdout.contains(table),
            "stdout lacks the REPORT.md table\n{table}\n--- stdout ---\n{stdout}"
        );
    }
}

#[test]
fn header_lists_commands_in_run_order() {
    let out: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "run-order"].iter().collect();
    let _ = std::fs::remove_dir_all(&out);
    let dir = out.to_str().expect("UTF-8 temp path");
    // Name order would put `ext-cs` first; the registry runs it last.
    let run = repro(&["--fast", "--out", dir, "fig5", "ext-cs", "fig4"]);
    assert_eq!(run.status.code(), Some(0), "repro failed");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let header = stdout.lines().next().unwrap_or_default();
    assert!(
        header.starts_with("repro: fig4 fig5 ext-cs ("),
        "header should list the figures in the order they run: {header}"
    );
}
