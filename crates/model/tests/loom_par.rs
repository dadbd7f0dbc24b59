//! Exhaustive-interleaving model of the work-claiming protocol behind
//! `par::map_indexed` (`src/par.rs`), which fans out the ring model's
//! (ρ × p) sweep cells and the simulator's seeded replications.
//!
//! The production code works like this:
//!
//! ```text
//! cursor = AtomicUsize(0)
//! worker: out = []; loop {
//!     i = cursor.fetch_add(1, Relaxed);
//!     if i >= n { return out }
//!     out.push((i, f(i)))
//! }
//! caller: join every worker, merge the per-worker lists by index
//! ```
//!
//! Determinism of every sweep — the property the `repro` CLI's
//! byte-identical CSVs rest on — reduces to a claim about this protocol:
//! **every index in `0..n` is claimed by exactly one worker**, so the
//! merged per-worker result lists hold each index exactly once, for every
//! interleaving and any worker count. The tests below check that
//! exhaustively (at model sizes) with the vendored `loom` shim. The lists
//! are thread-local and merged only after the join, so the model covers
//! the cursor: a claim stands for one pushed `(index, result)` pair.
//!
//! `detects_broken_protocol` is the control experiment: replacing the
//! atomic `fetch_add` with a load-then-store — the bug the protocol is one
//! `Ordering` typo away from — must be caught by some schedule, proving
//! the checker actually explores the racy interleavings.

#![expect(
    clippy::expect_used,
    reason = "test helpers outside #[test] bodies; a failed step must fail the test"
)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;

/// Worker loop as in `par::map_indexed`, with the per-index computation and
/// push abstracted into a fetch_add on the index's claim counter (the push
/// happens exactly once per claim, so claims model pushes).
fn run_workers(workers: usize, cells: usize) -> Arc<Vec<AtomicUsize>> {
    let cursor = Arc::new(AtomicUsize::new(0));
    let claims: Arc<Vec<AtomicUsize>> = Arc::new((0..cells).map(|_| AtomicUsize::new(0)).collect());
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let cursor = Arc::clone(&cursor);
            let claims = Arc::clone(&claims);
            loom::thread::spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells {
                    break;
                }
                let prev = claims[i].fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, 0, "cell {i} claimed twice");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    claims
}

/// Every cell is claimed exactly once under every schedule of two workers
/// over three cells (the smallest size where claims can straddle the
/// cursor's wrap-up reads).
#[test]
fn every_cell_claimed_exactly_once() {
    loom::model(|| {
        let claims = run_workers(2, 3);
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "cell {i} not claimed exactly once"
            );
        }
    });
}

/// Same protocol, three workers over two cells: more workers than work, so
/// every worker's exit path (an over-claimed index ≥ n) is exercised in
/// every interleaving.
#[test]
fn overprovisioned_workers_still_partition_the_grid() {
    loom::model(|| {
        let claims = run_workers(3, 2);
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "cell {i} not claimed exactly once"
            );
        }
    });
}

/// Control: break the protocol (load-then-store instead of `fetch_add`)
/// and the checker must find a double claim. Guards against the shim
/// silently under-exploring — if this test ever passes without panicking,
/// the two tests above prove nothing.
#[test]
#[should_panic(expected = "claimed twice")]
fn detects_broken_protocol() {
    loom::model(|| {
        const CELLS: usize = 2;
        let cursor = Arc::new(AtomicUsize::new(0));
        let claims: Arc<Vec<AtomicUsize>> =
            Arc::new((0..CELLS).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cursor = Arc::clone(&cursor);
                let claims = Arc::clone(&claims);
                loom::thread::spawn(move || loop {
                    // BUG under test: non-atomic read-modify-write.
                    let i = cursor.load(Ordering::Relaxed);
                    cursor.store(i + 1, Ordering::Relaxed);
                    if i >= CELLS {
                        break;
                    }
                    let prev = claims[i].fetch_add(1, Ordering::SeqCst);
                    assert_eq!(prev, 0, "cell {i} claimed twice");
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                // Re-panic with the worker's original message so
                // `should_panic(expected = …)` can match it.
                std::panic::resume_unwind(payload);
            }
        }
    });
}
