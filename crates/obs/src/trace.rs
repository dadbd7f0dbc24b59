//! The flight recorder: a bounded, lock-free ring of structured span
//! events, dumped on demand as Chrome `trace_event` JSON (loads directly
//! in Perfetto / `chrome://tracing`).
//!
//! ## Design
//!
//! Every span in the process ends up here through [`crate::trace_span!`],
//! from the engines' per-phase loops to the harness's per-figure regions.
//! The recorder gives every thread its own fixed-capacity ring:
//!
//! * **Recording is wait-free for the owning thread.** A thread writes
//!   only its own ring — plain relaxed stores into pre-allocated slots
//!   plus one release store of the slot sequence number. No CAS loops, no
//!   locks, no allocation after ring creation.
//! * **Memory is bounded by construction.** Each ring holds
//!   [`RING_CAPACITY`] events; older events are overwritten (newest-wins)
//!   and the overwrite count is reported, never silently dropped. Rings
//!   are pooled, not leaked per thread: a thread-exit destructor returns
//!   the ring (events intact) to a free list and the next recording
//!   thread reuses it, so total ring memory is bounded by the *peak
//!   number of concurrently recording threads* — short-lived worker
//!   threads (e.g. one replication per scoped thread) recycle the same
//!   few rings instead of growing the recorder without bound.
//! * **Readers never block writers.** [`events`] snapshots the rings with
//!   a per-slot seqlock: read the sequence, copy the payload, re-read the
//!   sequence, discard on mismatch. A torn read is detected, not returned.
//!   Because each ring has exactly one writer (its owning thread), the
//!   seqlock validation is sound.
//!
//! Every span also records the `<name>.seconds` histogram, so scrape-time
//! quantiles and the timeline stay consistent. Names are interned to `u32`
//! ids once per `trace_span!` call site.

use crate::registry::Histogram;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Events retained per ring. Power of two so the slot index is a mask;
/// 16Ki events × 32 bytes ≈ 512 KiB per ring (rings are pooled across
/// short-lived threads, see the module docs).
pub const RING_CAPACITY: usize = 1 << 14;

/// One recorded span, copied out of a ring by [`events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interned name id; resolve with [`name_of`].
    pub name_id: u32,
    /// Small dense id of the recording thread (trace lane).
    pub tid: u32,
    /// Span start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

struct Slot {
    /// 0 = never written; otherwise `head + 1` at the time of the write,
    /// stored release *after* the payload so readers can validate.
    seq: AtomicU64,
    name_tid: AtomicU64, // name_id << 32 | tid
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

/// One thread's ring. Only the owning thread writes; any thread may read
/// (seqlock-validated).
struct Ring {
    slots: Box<[Slot]>,
    /// Total events ever recorded into this ring.
    head: AtomicU64,
    tid: u32,
}

impl Ring {
    fn record(&self, name_id: u32, start_ns: u64, dur_ns: u64) {
        // nss-lint: allow(atomic-protocol) — head is single-writer (this thread); readers only use it as a hint and revalidate every slot via seq
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i as usize) & (RING_CAPACITY - 1)];
        // Single-writer seqlock write (Boehm): invalidate, release fence
        // (orders the invalidation before the payload stores), payload,
        // release publish (orders the payload before the new sequence).
        // nss-lint: allow(atomic-protocol) — the Release fence below orders this invalidation before the payload stores
        slot.seq.store(0, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        // nss-lint: allow(atomic-protocol) — payload store: ordered after the invalidation by the Release fence above, before publication by the Release store of seq below
        slot.name_tid.store(
            (u64::from(name_id) << 32) | u64::from(self.tid),
            Ordering::Relaxed,
        );
        // nss-lint: allow(atomic-protocol) — payload store: same seqlock-write ordering as name_tid above
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        // nss-lint: allow(atomic-protocol) — payload store: same seqlock-write ordering as name_tid above
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.seq.store(i + 1, Ordering::Release);
        // nss-lint: allow(atomic-protocol) — single-writer head bump; the slot itself was already published by the Release store of seq
        self.head.store(i + 1, Ordering::Relaxed);
    }
}

struct Recorder {
    state: Mutex<RecorderState>,
    epoch: Instant,
}

#[derive(Default)]
struct RecorderState {
    /// Every ring ever allocated, in allocation order; a ring's index here
    /// is its `tid`.
    rings: Vec<&'static Ring>,
    /// Rings whose owning thread has exited, available for reuse. A pooled
    /// ring stays registered in `rings` (its events remain visible to
    /// [`events`]); the lock hands single-writer ownership to the next
    /// thread.
    free: Vec<&'static Ring>,
    names: Vec<&'static str>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        state: Mutex::default(),
        epoch: Instant::now(),
    })
}

/// Owns a ring for the lifetime of one thread; on thread exit the ring is
/// returned to the free pool for the next recording thread.
struct RingGuard(&'static Ring);

impl Drop for RingGuard {
    fn drop(&mut self) {
        recorder().state.lock().free.push(self.0);
    }
}

thread_local! {
    static LOCAL_RING: std::cell::RefCell<Option<RingGuard>> =
        const { std::cell::RefCell::new(None) };
}

fn acquire_ring() -> &'static Ring {
    let mut state = recorder().state.lock();
    if let Some(ring) = state.free.pop() {
        return ring;
    }
    let ring: &'static Ring = Box::leak(Box::new(Ring {
        slots: (0..RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                name_tid: AtomicU64::new(0),
                start_ns: AtomicU64::new(0),
                dur_ns: AtomicU64::new(0),
            })
            .collect(),
        head: AtomicU64::new(0),
        tid: state.rings.len() as u32,
    }));
    state.rings.push(ring);
    ring
}

/// Runs `f` with the calling thread's ring, acquiring one (pooled or
/// fresh) on first use. Returns `None` — dropping the event — only in the
/// narrow window where the thread's TLS is already being torn down.
fn with_local_ring<R>(f: impl FnOnce(&'static Ring) -> R) -> Option<R> {
    LOCAL_RING
        .try_with(|cell| {
            let mut guard = cell.borrow_mut();
            let ring = guard.get_or_insert_with(|| RingGuard(acquire_ring())).0;
            f(ring)
        })
        .ok()
}

/// Rings allocated so far (live + pooled). Bounded by the peak number of
/// concurrently recording threads, not by the total threads ever spawned.
pub fn ring_count() -> usize {
    recorder().state.lock().rings.len()
}

/// Interns a span name, returning its dense id. Call once per call site
/// (the [`crate::trace_span!`] macro caches the id in a `OnceLock`).
pub fn intern(name: &'static str) -> u32 {
    let names = &mut recorder().state.lock().names;
    if let Some(i) = names.iter().position(|&n| n == name) {
        return i as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

/// Resolves an interned id back to its name (`"?"` for unknown ids).
pub fn name_of(id: u32) -> &'static str {
    recorder()
        .state
        .lock()
        .names
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

/// Nanoseconds since the recorder epoch (the first use of any trace API
/// in the process).
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Records a completed span directly (the RAII path is
/// [`crate::trace_span!`] / [`TraceSpan`]).
pub fn record(name_id: u32, start_ns: u64, dur_ns: u64) {
    with_local_ring(|ring| ring.record(name_id, start_ns, dur_ns));
}

/// An in-flight flight-recorder span; on drop it records into both the
/// `<name>.seconds` histogram and the owning thread's ring.
#[derive(Debug)]
pub struct TraceSpan {
    hist: &'static Histogram,
    name_id: u32,
    start_ns: u64,
}

impl TraceSpan {
    /// Starts a span (used by the [`crate::trace_span!`] macro, which
    /// resolves `hist` and `name_id` once per call site).
    pub fn start(hist: &'static Histogram, name_id: u32) -> Self {
        TraceSpan {
            hist,
            name_id,
            start_ns: now_ns(),
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let end = now_ns();
        let dur = end.saturating_sub(self.start_ns);
        self.hist.record(dur as f64 * 1e-9);
        record(self.name_id, self.start_ns, dur);
    }
}

/// Zero-sized guard returned by [`crate::trace_span!`] in disabled builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSpan;

/// Snapshot of the recorder: all retained events (sorted by start time)
/// plus the number of events overwritten by ring wrap-around.
pub fn events() -> (Vec<TraceEvent>, u64) {
    let rings = recorder().state.lock().rings.clone();
    let mut out = Vec::new();
    let mut overwritten = 0u64;
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        overwritten += head.saturating_sub(RING_CAPACITY as u64);
        let live = head.min(RING_CAPACITY as u64) as usize;
        for k in 0..live {
            let slot = &ring.slots[k];
            // Seqlock read: seq, payload, seq again. The owning thread may
            // be overwriting this slot concurrently; a changed or zero
            // sequence means the copy may be torn, so it is discarded.
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == 0 {
                continue;
            }
            // nss-lint: allow(atomic-protocol) — seqlock payload reads: ordered after seq1 by its Acquire load, before seq2 by the Acquire fence below; a torn read is discarded by the seq1 != seq2 check
            let name_tid = slot.name_tid.load(Ordering::Relaxed);
            // nss-lint: allow(atomic-protocol) — payload read: same seqlock-read ordering as name_tid above
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            // nss-lint: allow(atomic-protocol) — payload read: same seqlock-read ordering as name_tid above
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            // Acquire fence: the payload loads above cannot sink past the
            // validation load below.
            std::sync::atomic::fence(Ordering::Acquire);
            // nss-lint: allow(atomic-protocol) — validation load: the Acquire fence above keeps the payload loads from sinking below it
            let seq2 = slot.seq.load(Ordering::Relaxed);
            if seq1 != seq2 {
                continue;
            }
            out.push(TraceEvent {
                name_id: (name_tid >> 32) as u32,
                tid: name_tid as u32,
                start_ns,
                dur_ns,
            });
        }
    }
    out.sort_by_key(|e| (e.start_ns, e.tid, e.dur_ns, e.name_id));
    (out, overwritten)
}

/// Renders the recorder as Chrome `trace_event` JSON (the "JSON Array
/// Format" object variant): complete (`"ph": "X"`) events with
/// microsecond timestamps, one `tid` lane per ring (successive
/// short-lived threads reuse pooled rings, so a lane reads as a worker
/// slot rather than an OS thread).
pub fn chrome_trace_json() -> String {
    use std::fmt::Write;
    let (evs, overwritten) = events();
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
    for (i, e) in evs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"cat\": \"nss\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}}}",
            crate::export::json_escape(name_of(e.name_id)),
            e.start_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.tid,
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"otherData\": {{\"events\": {}, \"overwritten\": {overwritten}}}\n}}\n",
        evs.len()
    );
    out
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests whose threads take rings from the shared pool:
    /// a flood that recycles another test's ring overwrites that test's
    /// events, and concurrent pool traffic can merge or grow lanes.
    /// It stays a `std` mutex: the tests hold it across calls that take
    /// the recorder's checked lock.
    #[expect(
        clippy::disallowed_types,
        reason = "held across calls that take a checked nss_obs::sync::Mutex"
    )]
    static POOL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pool_guard() -> std::sync::MutexGuard<'static, ()> {
        // A failed test poisons the lock; the pool itself stays valid.
        POOL.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn intern_is_idempotent_and_resolvable() {
        let a = intern("trace.test.alpha");
        let b = intern("trace.test.alpha");
        assert_eq!(a, b);
        assert_eq!(name_of(a), "trace.test.alpha");
        assert_ne!(a, intern("trace.test.beta"));
        assert_eq!(name_of(u32::MAX), "?");
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let id = intern("trace.test.rt");
        let t0 = now_ns();
        record(id, t0, 1_500);
        let (evs, _) = events();
        let ev = evs
            .iter()
            .find(|e| e.name_id == id && e.start_ns == t0)
            .expect("event retained");
        assert_eq!(ev.dur_ns, 1_500);
    }

    #[test]
    fn trace_span_records_histogram_and_event() {
        let hist = crate::registry::Registry::global().histogram("trace.test.span.seconds");
        let before = hist.count();
        let id = intern("trace.test.span");
        {
            let _s = TraceSpan::start(hist, id);
        }
        assert_eq!(hist.count(), before + 1);
        let (evs, _) = events();
        assert!(evs.iter().any(|e| e.name_id == id));
    }

    #[test]
    fn ring_is_bounded_and_reports_overwrites() {
        let _pool = pool_guard();
        // Flood one thread's ring well past capacity from a dedicated
        // thread so other tests' events are unaffected.
        let id = intern("trace.test.flood");
        std::thread::spawn(move || {
            for i in 0..(RING_CAPACITY as u64 + 100) {
                record(id, i, 1);
            }
        })
        .join()
        .expect("flood thread");
        let (evs, overwritten) = events();
        let flood: Vec<_> = evs.iter().filter(|e| e.name_id == id).collect();
        assert!(flood.len() <= RING_CAPACITY);
        assert!(overwritten >= 100);
        // Newest events survive: the final start_ns values are present.
        assert!(flood
            .iter()
            .any(|e| e.start_ns == RING_CAPACITY as u64 + 99));
    }

    #[test]
    fn events_are_sorted_and_multi_thread_lanes_distinct() {
        let _pool = pool_guard();
        let id = intern("trace.test.lanes");
        // The barrier keeps all three threads alive (rings held) while
        // each records: concurrent recorders must occupy distinct rings.
        // Without it a finished thread could return its ring to the pool
        // for the next one to reuse, merging the lanes.
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    record(id, 10 + k, 5);
                    barrier.wait();
                })
            })
            .collect();
        for h in handles {
            h.join().expect("lane thread");
        }
        let (evs, _) = events();
        let lanes: std::collections::BTreeSet<u32> = evs
            .iter()
            .filter(|e| e.name_id == id && e.start_ns >= 10 && e.start_ns < 13)
            .map(|e| e.tid)
            .collect();
        assert_eq!(lanes.len(), 3, "each thread records in its own lane");
        assert!(evs.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn sequential_threads_reuse_pooled_rings() {
        let _pool = pool_guard();
        let id = intern("trace.test.pool");
        // Strictly sequential short-lived threads: each one's ring returns
        // to the pool before the next starts, so they must recycle rings
        // instead of allocating one each. Other tests run concurrently and
        // may take from / add to the pool, hence the slack in the bound.
        let before = ring_count();
        for i in 0..32u64 {
            std::thread::spawn(move || record(id, i, 1))
                .join()
                .expect("pool thread");
        }
        let grown = ring_count().saturating_sub(before);
        assert!(grown <= 4, "32 sequential threads allocated {grown} rings");
        // The events themselves survive the handoffs.
        let (evs, _) = events();
        let kept = evs.iter().filter(|e| e.name_id == id).count();
        assert_eq!(kept, 32);
    }

    #[test]
    fn chrome_trace_shape() {
        let id = intern("trace.test.chrome\"quote");
        record(id, 2_000, 3_000);
        let j = chrome_trace_json();
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("trace.test.chrome\\\"quote"));
        // ts/dur are microseconds: 2000ns = 2.000us, 3000ns = 3.000us.
        assert!(j.contains("\"ts\": 2.000"), "{j}");
        assert!(j.contains("\"dur\": 3.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
