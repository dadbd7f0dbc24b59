//! `nss-lint` CLI.
//!
//! ```text
//! cargo run -p nss-lint -- check [--root DIR] [--sarif FILE]
//! cargo run -p nss-lint -- rules [--check FILE | --write FILE]
//! cargo run -p nss-lint -- metrics [--root DIR] [--check FILE | --write FILE]
//! ```
//!
//! `check` exits 0 when the workspace is clean, 1 with one `file:line:
//! [rule] message` diagnostic per violation otherwise, and 2 on usage or IO
//! errors. `--sarif` additionally writes the findings as a SARIF 2.1.0 log
//! (uploaded as a CI artifact).
//!
//! `rules` prints the rule catalogue; with `--check docs/LINTS.md` it exits
//! 1 when the file's generated block has drifted from the registered rules
//! (the CI sync gate), with `--write` it refreshes the block in place.
//! `metrics` does the same for the metric inventory in `docs/METRICS.md`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("nss-lint: {msg}");
            eprintln!(
                "usage: nss-lint check [--root DIR] [--sarif FILE]\n       \
                 nss-lint rules [--check FILE | --write FILE]\n       \
                 nss-lint metrics [--root DIR] [--check FILE | --write FILE]"
            );
            ExitCode::from(2)
        }
    }
}

#[expect(
    clippy::print_stdout,
    reason = "the CLI's reports and catalogues are its stdout"
)]
fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut cmd: Option<&str> = None;
    let mut root = PathBuf::from(".");
    let mut sarif_out: Option<PathBuf> = None;
    let mut doc_check: Option<PathBuf> = None;
    let mut doc_write: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--sarif" => {
                sarif_out = Some(PathBuf::from(it.next().ok_or("--sarif needs a file path")?));
            }
            "--check" => {
                doc_check = Some(PathBuf::from(it.next().ok_or("--check needs a file path")?));
            }
            "--write" => {
                doc_write = Some(PathBuf::from(it.next().ok_or("--write needs a file path")?));
            }
            "check" | "rules" | "metrics" if cmd.is_none() => cmd = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if (doc_check.is_some() || doc_write.is_some()) && !matches!(cmd, Some("metrics" | "rules")) {
        return Err("--check/--write only apply to `metrics` and `rules`".to_string());
    }
    if doc_check.is_some() && doc_write.is_some() {
        return Err("--check and --write are mutually exclusive".to_string());
    }
    if sarif_out.is_some() && cmd != Some("check") {
        return Err("--sarif only applies to the `check` subcommand".to_string());
    }
    match cmd {
        Some("rules") => {
            let block = nss_lint::docsync::render_rules();
            if let Some(path) = doc_check {
                let doc = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let committed = nss_lint::docsync::committed_block(
                    &doc,
                    nss_lint::docsync::RULES_BEGIN,
                    nss_lint::docsync::RULES_END,
                )
                .map_err(|e| format!("{}: {e}", path.display()))?;
                if committed == block {
                    println!(
                        "nss-lint: {} rule catalogue in sync ({} rules)",
                        path.display(),
                        nss_lint::rules::ids().len()
                    );
                    Ok(ExitCode::SUCCESS)
                } else {
                    eprintln!(
                        "nss-lint: {} rule catalogue is out of date with the code;\n          \
                         regenerate with `cargo run -p nss-lint -- rules --write {}`",
                        path.display(),
                        path.display()
                    );
                    Ok(ExitCode::FAILURE)
                }
            } else if let Some(path) = doc_write {
                let doc = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let updated = nss_lint::docsync::splice(
                    &doc,
                    &block,
                    nss_lint::docsync::RULES_BEGIN,
                    nss_lint::docsync::RULES_END,
                )
                .map_err(|e| format!("{}: {e}", path.display()))?;
                std::fs::write(&path, updated)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!(
                    "nss-lint: refreshed {} ({} rules)",
                    path.display(),
                    nss_lint::rules::ids().len()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                for (id, describe) in nss_lint::rules::catalogue() {
                    println!("{id:<20} {describe}");
                }
                Ok(ExitCode::SUCCESS)
            }
        }
        Some("check") => {
            let report = nss_lint::lint_workspace(&root)?;
            if let Some(path) = sarif_out {
                std::fs::write(&path, nss_lint::sarif::render(&report))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            for v in &report.violations {
                println!("{v}");
            }
            if report.violations.is_empty() {
                println!(
                    "nss-lint: {} files clean ({} rules)",
                    report.files.len(),
                    nss_lint::rules::ids().len()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                println!(
                    "nss-lint: {} violation(s) in {} files scanned",
                    report.violations.len(),
                    report.files.len()
                );
                Ok(ExitCode::FAILURE)
            }
        }
        Some("metrics") => {
            let rows = nss_lint::metrics::scan_workspace(&root)?;
            let block = nss_lint::metrics::render(&rows);
            if let Some(path) = doc_check {
                let doc = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let committed = nss_lint::metrics::committed_block(&doc)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                if committed == block {
                    println!(
                        "nss-lint: {} metrics table in sync ({} metrics)",
                        path.display(),
                        rows.len()
                    );
                    Ok(ExitCode::SUCCESS)
                } else {
                    eprintln!(
                        "nss-lint: {} metrics table is out of date with the code;\n          \
                         regenerate with `cargo run -p nss-lint -- metrics --write {}`",
                        path.display(),
                        path.display()
                    );
                    Ok(ExitCode::FAILURE)
                }
            } else if let Some(path) = doc_write {
                let doc = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                let updated = nss_lint::metrics::splice(&doc, &block)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                std::fs::write(&path, updated)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!(
                    "nss-lint: refreshed {} ({} metrics)",
                    path.display(),
                    rows.len()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                print!("{block}");
                Ok(ExitCode::SUCCESS)
            }
        }
        _ => Err("missing subcommand".to_string()),
    }
}
