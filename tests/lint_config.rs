//! Pins the workspace lint policy that replaced hand-written nss-lint rules
//! (DESIGN.md §8). Clippy enforces it in CI; this test only checks that the
//! configuration is still there, so a plain `cargo test` notices if an edit
//! to a manifest or `clippy.toml` silently drops part of it.

use std::path::Path;

const PANIC_LINTS: &str = "unwrap_used expect_used panic todo unimplemented";

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// True if the `[table]` section of a TOML document has the line
/// `key = value` (single-line values only — all these manifests use).
fn has(toml: &str, table: &str, key: &str, value: &str) -> bool {
    let header = format!("[{table}]");
    let mut inside = false;
    toml.lines().map(str::trim).any(|line| {
        if line.starts_with('[') {
            inside = line == header;
            return false;
        }
        inside
            && line
                .split_once('=')
                .is_some_and(|(k, v)| k.trim() == key && v.trim() == value)
    })
}

#[test]
fn workspace_table_carries_the_panic_and_unsafe_policy() {
    let root = read("Cargo.toml");
    let extra = "allow_attributes allow_attributes_without_reason iter_over_hash_type";
    for lint in PANIC_LINTS.split(' ').chain(extra.split(' ')) {
        assert!(
            has(&root, "workspace.lints.clippy", lint, "\"deny\""),
            "[workspace.lints.clippy] must deny `{lint}`"
        );
    }
    assert!(has(
        &root,
        "workspace.lints.rust",
        "unsafe_code",
        "\"forbid\""
    ));

    // The root `nss` library is not opted in (its examples print), so it
    // carries the panic lints as crate attributes.
    let facade = read("src/lib.rs");
    for lint in PANIC_LINTS.split(' ') {
        assert!(
            facade.contains(&format!("clippy::{lint}")),
            "src/lib.rs lacks `{lint}`"
        );
    }
}

#[test]
fn library_crates_opt_into_the_workspace_table() {
    for name in [
        "model",
        "analysis",
        "sim",
        "core",
        "plot",
        "obs",
        "serve",
        "lint",
        "experiments",
    ] {
        let manifest = read(&format!("crates/{name}/Cargo.toml"));
        assert!(
            has(&manifest, "lints", "workspace", "true"),
            "crates/{name}/Cargo.toml must declare `[lints] workspace = true`"
        );
    }
}

#[test]
fn hash_iteration_methods_are_disallowed() {
    let clippy = read("clippy.toml");
    let methods = [
        (
            "HashMap",
            "iter iter_mut keys into_keys values values_mut into_values drain retain extract_if",
        ),
        ("HashSet", "iter drain retain extract_if"),
    ];
    for (ty, names) in methods {
        for m in names.split(' ') {
            let entry = format!("path = \"std::collections::{ty}::{m}\"");
            assert!(clippy.contains(&entry), "clippy.toml lacks `{entry}`");
        }
    }
    assert!(clippy.contains("allow-panic-in-tests = true"));
}
