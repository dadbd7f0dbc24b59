//! Exhaustive-interleaving model of the sharded engine's owner election
//! (`Arbiter::resolve_slot` in `src/sharded.rs`).
//!
//! Pass A of `Arbiter::resolve_slot` runs this protocol per transmitter
//! worker, inside the `visit` callback of `medium::expose`:
//!
//! ```text
//! for (v, reach) in exposure(tx):
//!     if exposure[v].fetch_add(exposure_add(tx, reach)) == 0:
//!         local_touched.push(v)           # v is MINE to classify
//! ```
//!
//! One packed word per receiver carries the in-range count (bits 0–15),
//! the annulus count (bits 16–31) and the wrapping sum of the in-range
//! transmitter ids (bits 32–63), and the same `fetch_add` elects the
//! receiver's owner: the one worker that reads the old word as 0.
//!
//! Pass B's safety — each touched receiver drained (`swap(0)`), run
//! through `medium::classify` and `medium::gate`, and reset by exactly one
//! worker, with no further synchronization — rests on three claims about
//! pass A, checked here for **every** schedule with the vendored `loom`
//! shim:
//!
//! 1. every receiver touched by any worker lands in exactly one worker's
//!    `touched` list (the add is an exclusive election),
//! 2. the relaxed adds leave exact counts regardless of interleaving
//!    (commutativity — this is why the engine's traces are bitwise
//!    thread-count invariant), and
//! 3. a receiver with one in-range transmitter decodes that transmitter's
//!    id from the word, and a collision whose id sum overflows bit 63
//!    keeps both counts intact.
//!
//! `detects_broken_claim` is the control experiment: replacing the atomic
//! `fetch_add` election with a load-then-store — the bug the discipline is
//! one careless refactor away from — must be caught by some schedule,
//! proving the checker explores the racy interleavings.

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;

/// How a transmission reaches a receiver (`medium::Reach`).
#[derive(Clone, Copy)]
enum Reach {
    InRange,
    Annulus,
}

/// The modeled transmitters' ids: near `u32::MAX`, so the id sum of the
/// receiver both reach in range overflows bit 63.
const TX: [u32; 2] = [u32::MAX - 1, u32::MAX - 2];

/// Exposure of the two modeled transmitter workers. Receiver 1 is
/// contended in range (a collision), receiver 0 in range and from the
/// annulus (a carrier-sense deferral), and receiver 2 is exclusive (a
/// clean reception of `TX[1]`).
const EXPOSURE: [&[(usize, Reach)]; 2] = [
    &[(0, Reach::InRange), (1, Reach::InRange)],
    &[
        (1, Reach::InRange),
        (2, Reach::InRange),
        (0, Reach::Annulus),
    ],
];
const RECEIVERS: usize = 3;

/// One visit as an increment of the packed word (`medium::exposure_add`).
fn exposure_add(t: u32, reach: Reach) -> u64 {
    match reach {
        Reach::InRange => (u64::from(t) << 32) | 1,
        Reach::Annulus => 1 << 16,
    }
}

/// A drained word's `(in-range count, annulus count, heard transmitter)`;
/// the transmitter only when exactly one was in range.
fn decode(word: u64) -> (u64, u64, Option<u32>) {
    let (rx, cs) = (word & 0xFFFF, (word >> 16) & 0xFFFF);
    (rx, cs, (rx == 1).then_some((word >> 32) as u32))
}

/// Runs both workers with `visit` as the per-receiver election and
/// returns every worker's touched list, concatenated and sorted.
fn run_workers(words: &Arc<Vec<AtomicU64>>, visit: fn(&AtomicU64, u64) -> bool) -> Vec<usize> {
    let handles: Vec<_> = TX
        .iter()
        .zip(EXPOSURE)
        .map(|(&t, exposure)| {
            let words = Arc::clone(words);
            loom::thread::spawn(move || {
                exposure
                    .iter()
                    .filter(|&&(v, reach)| visit(&words[v], exposure_add(t, reach)))
                    .map(|&(v, _)| v)
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut all_touched: Vec<usize> = Vec::new();
    for h in handles {
        all_touched.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
    }
    all_touched.sort_unstable();
    all_touched
}

fn new_words() -> Arc<Vec<AtomicU64>> {
    Arc::new((0..RECEIVERS).map(|_| AtomicU64::new(0)).collect())
}

#[test]
fn every_touched_receiver_claimed_exactly_once() {
    loom::model(|| {
        let words = new_words();
        let touched = run_workers(&words, |word, add| {
            word.fetch_add(add, Ordering::Relaxed) == 0
        });
        // Exclusive election: each receiver in exactly one touched list.
        assert_eq!(touched, vec![0, 1, 2], "claim election not exclusive");
        // Pass B: drain each word and decode it.
        let drained: Vec<_> = words
            .iter()
            .map(|w| decode(w.swap(0, Ordering::Relaxed)))
            .collect();
        assert_eq!(
            drained,
            vec![(1, 1, Some(TX[0])), (2, 0, None), (1, 0, Some(TX[1]))],
            "exposure words not exact"
        );
    });
}

/// Control: a load-then-store election lets both workers elect a
/// contended receiver under some schedule; the checker must find it.
#[test]
#[should_panic(expected = "claim election not exclusive")]
fn detects_broken_claim() {
    loom::model(|| {
        let words = new_words();
        let touched = run_workers(&words, |word, add| {
            // BUG under test: non-atomic read-modify-write.
            let prev = word.load(Ordering::Relaxed);
            word.store(prev.wrapping_add(add), Ordering::Relaxed);
            prev == 0
        });
        assert_eq!(touched, vec![0, 1, 2], "claim election not exclusive");
    });
}
