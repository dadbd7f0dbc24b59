//! Exhaustive-interleaving model of the sharded engine's atomic-claim
//! contention discipline (`Arbiter::resolve_slot` in `src/sharded.rs`).
//!
//! Pass A of `Arbiter::resolve_slot` runs this protocol per transmitter
//! worker, inside the `visit` callback of `medium::expose`:
//!
//! ```text
//! for v in neighbors(tx):
//!     if claim_word.fetch_or(1 << v) had bit v clear:  # AtomicBitSet::claim
//!         local_touched.push(v)                        # v is MINE to classify
//!     rx_count[v].fetch_add(1)                         # exposure accumulates
//! ```
//!
//! Pass B's safety — each touched receiver drained (`swap(0)`), run
//! through `medium::classify` and `medium::gate`, and reset by exactly one
//! worker, with no further synchronization — rests on two claims about
//! pass A, checked here for **every** schedule with the vendored `loom`
//! shim:
//!
//! 1. every receiver touched by any worker lands in exactly one worker's
//!    `touched` list (the claim is an exclusive election), and
//! 2. the relaxed `fetch_add` exposure counts are exact regardless of
//!    interleaving (commutativity — this is why the engine's traces are
//!    bitwise thread-count invariant).
//!
//! `detects_broken_claim` is the control experiment: replacing the atomic
//! `fetch_or` election with a load-then-store — the bug the discipline is
//! one careless refactor away from — must be caught by some schedule,
//! proving the checker explores the racy interleavings.

use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use loom::sync::Arc;

/// Receiver sets of the two modeled transmitter workers: receiver 1 is the
/// contended one (both workers touch it), 0 and 2 are exclusive.
const NEIGHBORS: [&[u64]; 2] = [&[0, 1], &[1, 2]];
const RECEIVERS: usize = 3;

/// One pass-A worker: claim-then-count over its receiver list, exactly as
/// `Arbiter::resolve_slot` does per transmitter chunk.
fn pass_a_worker(word: &AtomicU64, rx_count: &[AtomicU32], neighbors: &[u64]) -> Vec<u64> {
    let mut touched = Vec::new();
    for &v in neighbors {
        let mask = 1u64 << v;
        if word.fetch_or(mask, Ordering::Relaxed) & mask == 0 {
            touched.push(v);
        }
        rx_count[v as usize].fetch_add(1, Ordering::Relaxed);
    }
    touched
}

#[test]
fn every_touched_receiver_claimed_exactly_once() {
    loom::model(|| {
        let word = Arc::new(AtomicU64::new(0));
        let rx_count: Arc<Vec<AtomicU32>> =
            Arc::new((0..RECEIVERS).map(|_| AtomicU32::new(0)).collect());
        let handles: Vec<_> = NEIGHBORS
            .iter()
            .map(|&nbrs| {
                let word = Arc::clone(&word);
                let rx_count = Arc::clone(&rx_count);
                loom::thread::spawn(move || pass_a_worker(&word, &rx_count, nbrs))
            })
            .collect();
        let mut all_touched: Vec<u64> = Vec::new();
        for h in handles {
            all_touched.extend(h.join().expect("worker panicked"));
        }
        // Exclusive election: each receiver in exactly one touched list.
        all_touched.sort_unstable();
        assert_eq!(all_touched, vec![0, 1, 2], "claim election not exclusive");
        // Exact exposure counts: the contended receiver saw both
        // transmissions (a collision pass B must observe), the others one.
        let counts: Vec<u32> = rx_count.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, vec![1, 2, 1], "exposure counts not exact");
    });
}

/// Control: a load-then-store "claim" lets two workers both elect the
/// contended receiver under some schedule; the checker must find it.
#[test]
#[should_panic(expected = "claim election not exclusive")]
fn detects_broken_claim() {
    loom::model(|| {
        let word = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = NEIGHBORS
            .iter()
            .map(|&nbrs| {
                let word = Arc::clone(&word);
                loom::thread::spawn(move || {
                    let mut touched = Vec::new();
                    for &v in nbrs {
                        let mask = 1u64 << v;
                        // BUG under test: non-atomic read-modify-write.
                        let prev = word.load(Ordering::Relaxed);
                        word.store(prev | mask, Ordering::Relaxed);
                        if prev & mask == 0 {
                            touched.push(v);
                        }
                    }
                    touched
                })
            })
            .collect();
        let mut all_touched: Vec<u64> = Vec::new();
        for h in handles {
            all_touched.extend(h.join().expect("worker panicked"));
        }
        all_touched.sort_unstable();
        assert_eq!(all_touched, vec![0, 1, 2], "claim election not exclusive");
    });
}
