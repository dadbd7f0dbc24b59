//! The rule catalogue.
//!
//! A [`Rule`] is a pure function over one parsed [`SourceFile`].
//! Adding a rule means adding a module here, registering it in [`all`],
//! giving it a fixture pair under `tests/fixtures/` (see DESIGN.md §8 for
//! the recipe), and re-running
//! `cargo run -p nss-lint -- rules --write docs/LINTS.md`.

use crate::{SourceFile, Violation};

mod atomic;
mod blocking;
mod float;
mod obs;
mod rng;

/// A single per-file lint rule.
pub trait Rule {
    /// Stable id, as named by pragmas and SARIF reports.
    fn id(&self) -> &'static str;
    /// One-line description for `nss-lint rules`.
    fn describe(&self) -> &'static str;
    /// Appends findings for `file` to `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>);
}

/// Every registered rule, in reporting order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(rng::RngDiscipline),
        Box::new(float::FloatSafety),
        Box::new(obs::FeatureHygiene),
        Box::new(atomic::AtomicProtocol),
        Box::new(blocking::BlockingInHandler),
    ]
}

/// The catalogue as `(id, description)` rows, ending with the reserved
/// `pragma` id: what `nss-lint rules`, `docs/LINTS.md` and the SARIF
/// report list.
pub fn catalogue() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<_> = all().iter().map(|r| (r.id(), r.describe())).collect();
    out.push((
        "pragma",
        "reserved: malformed or stale `// nss-lint: allow(…) — reason` pragmas",
    ));
    out
}

/// Ids of every rule (pragma validation).
pub fn ids() -> Vec<&'static str> {
    all().iter().map(|r| r.id()).collect()
}

/// Shorthand used by the rule modules.
pub(crate) fn violation(
    file: &SourceFile,
    line: u32,
    rule: &'static str,
    message: String,
) -> Violation {
    Violation {
        path: file.path.clone(),
        line,
        rule,
        message,
    }
}
