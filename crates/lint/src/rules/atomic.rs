//! `atomic-protocol` — every `Ordering::Relaxed` must match a proven
//! pattern.
//!
//! The workspace's atomics fall into two camps. Statistical counters
//! (`fetch_add`/`fetch_sub` accumulate, `load`/`store` publish a tally)
//! are order-free by construction and `Relaxed` is correct. Everything
//! else is a *protocol*: a `fetch_or` claim election, a `fetch_add`
//! whose old value elects an owner, a `compare_exchange` CAS loop, a
//! seqlock's fenced payload accesses. Those are exactly the shapes the
//! loom models under `tests/loom_*.rs` pin down, and a `Relaxed` there is
//! either (a) proven sound by such a model — say so in a pragma — or (b)
//! a latent reordering bug.
//!
//! Concretely the rule flags, outside test code:
//!
//! * any read-modify-write other than `fetch_add`/`fetch_sub` (`fetch_or`,
//!   `swap`, `compare_exchange[_weak]`, `fetch_update`, …) that passes
//!   `Relaxed`;
//! * a `Relaxed` `fetch_add`/`fetch_sub` whose result is compared on the
//!   spot (`… == 0`): the old value decides something, so the add is an
//!   election, not a tally;
//! * a `Relaxed` `load`/`store` in a **protocol file** — one that uses
//!   `fence` or `Acquire`/`Release`/`AcqRel` orderings anywhere, meaning
//!   its payload accesses participate in a happens-before protocol and
//!   each deliberate `Relaxed` deserves a written justification.

use super::{violation, Rule};
use crate::lexer::TokKind;
use crate::{SourceFile, Violation};

/// Read-modify-write methods whose `Relaxed` use needs a written proof.
const RMW_METHODS: &[&str] = &[
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Counter accumulates: plain tallies unless their old value is compared.
const ACCUMULATE_METHODS: &[&str] = &["fetch_add", "fetch_sub"];

/// Operators that, right after an accumulate's call, turn its old value
/// into a decision (`<` and `>` also open `<=` and `>=`).
const COMPARISONS: &[&str] = &["==", "!=", "<", ">"];

/// Orderings whose presence marks a file as protocol-bearing.
const PROTOCOL_MARKS: &[&str] = &["Acquire", "Release", "AcqRel", "fence"];

pub struct AtomicProtocol;

impl Rule for AtomicProtocol {
    fn id(&self) -> &'static str {
        "atomic-protocol"
    }

    fn describe(&self) -> &'static str {
        "Relaxed is allowed only for counter accumulate (fetch_add/fetch_sub, old value \
         not compared) and plain tallies; claim/CAS RMWs, fetch_add elections and \
         load/store in fence-bearing files need Acquire/Release or a pragma citing a \
         loom/Miri proof"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let toks = &file.toks;
        let protocol_file = toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && PROTOCOL_MARKS.contains(&t.text.as_str()));
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || file.is_test_line(t.line) {
                continue;
            }
            let name = t.text.as_str();
            let is_rmw = RMW_METHODS.contains(&name);
            let is_accumulate = ACCUMULATE_METHODS.contains(&name);
            let is_plain = name == "load" || name == "store";
            if !(is_rmw || is_accumulate || is_plain && protocol_file) {
                continue;
            }
            // Method-call shape with a `Relaxed` argument.
            if i == 0
                || !toks[i - 1].is_punct(".")
                || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                continue;
            }
            let Some(close) = file.match_delim(i + 1) else {
                continue;
            };
            let relaxed = toks[i + 2..close].iter().any(|a| a.is_ident("Relaxed"));
            let compared = toks
                .get(close + 1)
                .is_some_and(|n| COMPARISONS.iter().any(|op| n.is_punct(op)));
            if !relaxed || is_accumulate && !compared {
                continue;
            }
            let msg = if is_accumulate {
                format!(
                    "`{name}(…, Relaxed)` compared on the spot elects by its old value; \
                     pragma this line citing the model that proves the election sound \
                     at Relaxed, or use the protocol ordering"
                )
            } else if is_rmw {
                format!(
                    "`{name}(…, Relaxed)` is a read-modify-write protocol step; use the \
                     Acquire/Release pairing the loom model checks, or pragma this line \
                     citing the proof that Relaxed is sound here"
                )
            } else {
                format!(
                    "Relaxed `{name}` in a fence-bearing file: this access participates \
                     in a happens-before protocol — state the fence pairing that orders \
                     it in a pragma, or use the protocol ordering"
                )
            };
            out.push(violation(file, t.line, self.id(), msg));
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
            .filter(|v| v.rule == "atomic-protocol")
            .collect()
    }

    #[test]
    fn relaxed_fetch_or_flagged() {
        let vs =
            lint("fn f(w: &AtomicU64) -> bool { w.fetch_or(1, Ordering::Relaxed) & 1 == 0 }\n");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("fetch_or"));
    }

    #[test]
    fn relaxed_counter_accumulate_clean() {
        let vs = lint(
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); c.fetch_sub(1, Ordering::Relaxed); }\n",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn relaxed_fetch_add_election_flagged() {
        let vs = lint("fn f(w: &AtomicU64) -> bool { w.fetch_add(1, Ordering::Relaxed) == 0 }\n");
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("elects"));
        let vs = lint("fn f(w: &AtomicU64) -> bool { w.fetch_sub(1, Ordering::Relaxed) <= 1 }\n");
        assert_eq!(vs.len(), 1, "{vs:?}");
        // The old value used as an index or returned is not an election.
        let vs = lint("fn f(w: &AtomicU64) -> u64 { w.fetch_add(1, Ordering::Relaxed) + 1 }\n");
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn relaxed_cas_flagged() {
        let vs = lint(
            "fn f(c: &AtomicU64) { let _ = c.compare_exchange_weak(0, 1, Ordering::Relaxed, Ordering::Relaxed); }\n",
        );
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn relaxed_load_in_plain_file_clean_but_flagged_with_fence() {
        let plain = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
        assert!(lint(plain).is_empty());
        let fenced = "fn g() { std::sync::atomic::fence(Ordering::Release); }\n\
                      fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
        let vs = lint(fenced);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("fence-bearing"));
    }

    #[test]
    fn acquire_release_rmw_clean() {
        let vs = lint("fn f(w: &AtomicU64) { w.fetch_or(1, Ordering::AcqRel); }\n");
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn tests_exempt() {
        let src =
            "#[cfg(test)]\nmod t {\n fn f(w: &AtomicU64) { w.swap(0, Ordering::Relaxed); }\n}\n";
        assert!(lint(src).is_empty());
    }
}
