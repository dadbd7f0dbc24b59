//! `rng-discipline` — no literal seeds outside tests.
//!
//! Thread-count-invariant replication depends on all randomness flowing
//! through `nss_model::rng::SeedFactory` / `derive_seed`, which take a
//! `Stream` enum label. The type system and the vendored `rand` already
//! close the other holes: `derive_seed` accepts no raw string label, and no
//! entropy-seeded generator (`thread_rng`, `from_entropy`, `OsRng`) exists
//! to call. What remains is `SmallRng::seed_from_u64(<integer literal>)` in
//! non-test code — a hard-coded seed is an unlabeled ad-hoc stream that
//! collides with nothing by luck only. (Tests pin seeds deliberately;
//! allowed there.)

use super::{violation, Rule};
use crate::lexer::TokKind;
use crate::{SourceFile, Violation};

pub struct RngDiscipline;

impl Rule for RngDiscipline {
    fn id(&self) -> &'static str {
        "rng-discipline"
    }

    fn describe(&self) -> &'static str {
        "no literal seed_from_u64 seeds outside tests; derive every seed from a labeled Stream"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("seed_from_u64")
                || file.is_test_line(t.line)
                || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                continue;
            }
            if let Some(close) = file.match_delim(i + 1) {
                let args = &toks[i + 2..close];
                if args.len() == 1 && args[0].kind == TokKind::Int {
                    out.push(violation(
                        file,
                        t.line,
                        self.id(),
                        format!(
                            "literal seed `seed_from_u64({})` creates an unlabeled RNG \
                             stream; derive the seed from a Stream",
                            args[0].text
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, FileKind};

    fn lint(src: &str) -> Vec<Violation> {
        lint_source("crates/sim/src/x.rs", "sim", FileKind::Src, src)
            .into_iter()
            .filter(|v| v.rule == "rng-discipline")
            .collect()
    }

    #[test]
    fn literal_seed_flagged_outside_tests_only() {
        let bad = lint("fn f() { let r = SmallRng::seed_from_u64(42); }\n");
        assert_eq!(bad.len(), 1);
        let ok = lint("#[test]\nfn t() { let r = SmallRng::seed_from_u64(42); }\n");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn derived_seed_variable_is_fine() {
        let vs = lint("fn f(seed: u64) { let r = SmallRng::seed_from_u64(seed); }\n");
        assert!(vs.is_empty(), "{vs:?}");
    }
}
