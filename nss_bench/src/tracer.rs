//! The benchmark's own spans, recorded from outside the program around
//! calls into its public functions.
//!
//! A span has a name (its layer), start and end, the span that caused it
//! and a request id (the replication or request index). Spans go to a
//! bounded in-memory buffer, at most [`Tracer::new`]'s `cap_per_name` per
//! layer so a flood of request spans cannot crowd out the rare ones; the
//! rest are counted as dropped. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no parent".
pub const ROOT: u64 = 0;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique, ≥ 1.
    pub id: u64,
    /// The causing span, or [`ROOT`].
    pub parent: u64,
    /// Layer name.
    pub name: &'static str,
    /// Small per-process thread number.
    pub thread: u32,
    /// Replication or request index.
    pub request: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A started span; finish it with [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span records nothing until Tracer::end"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    kept: BTreeMap<&'static str, usize>,
    dropped: BTreeMap<&'static str, u64>,
}

/// The span recorder shared by every thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    cap_per_name: usize,
    buffer: Mutex<Buffer>,
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Tracer {
    /// A tracer keeping at most `cap_per_name` spans of each layer.
    pub fn new(cap_per_name: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            cap_per_name,
            buffer: Mutex::new(Buffer::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn start(&self, name: &'static str, parent: u64, request: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: thread_number(),
            request: open.request,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        let mut buf = self.buffer.lock().expect("a span recorder panicked");
        let kept = buf.kept.entry(span.name).or_insert(0);
        if *kept < self.cap_per_name {
            *kept += 1;
            buf.spans.push(span);
        } else {
            *buf.dropped.entry(span.name).or_insert(0) += 1;
        }
        span.dur_ns()
    }

    /// Runs `f` inside a span; `f` gets the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = self.start(name, parent, request);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Every span kept so far, in completion order, and the dropped count.
    pub fn snapshot(&self) -> (Vec<Span>, u64) {
        let buf = self.buffer.lock().expect("a span recorder panicked");
        (buf.spans.clone(), buf.dropped.values().sum())
    }
}

/// What one layer did over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer (span) name.
    pub name: &'static str,
    /// Spans kept.
    pub count: usize,
    /// Summed span durations.
    pub busy_ns: u64,
    /// Summed self time: each span's duration minus the part of it that
    /// its children cover.
    pub self_ns: u64,
    /// Span durations in nanoseconds, ascending.
    pub durations_ns: Vec<f64>,
}

/// Per-layer totals over a set of spans.
pub fn layers(spans: &[Span]) -> Vec<Layer> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered_ns(s.start_ns, s.end_ns, kids));
        let layer = by_name.entry(s.name).or_insert_with(|| Layer {
            name: s.name,
            count: 0,
            busy_ns: 0,
            self_ns: 0,
            durations_ns: Vec::new(),
        });
        layer.count += 1;
        layer.busy_ns += s.dur_ns();
        layer.self_ns += s.dur_ns() - covered;
        layer.durations_ns.push(s.dur_ns() as f64);
    }
    by_name
        .into_values()
        .map(|mut l| {
            l.durations_ns.sort_by(f64::total_cmp);
            l
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
/// Children on different threads may overlap; they are counted once.
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The spans as Chrome `trace_event` JSON (Perfetto and `chrome://tracing`
/// load it); ids, parents and request ids ride in `args`.
pub fn chrome_json(spans: &[Span], dropped: u64, provenance: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 256);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        );
    }
    let _ = write!(
        out,
        "\n],\"dropped\":{dropped},\"provenance\":{provenance}}}\n"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread: 0,
            request: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // A 100 ns cell with two workers overlapping on [20, 60] and a
        // third child running past the cell's end.
        let spans = [
            span(1, ROOT, "cell", 0, 100),
            span(2, 1, "worker", 10, 60),
            span(3, 1, "worker", 20, 70),
            span(4, 1, "worker", 90, 130),
            span(5, 2, "sim.run", 10, 60),
        ];
        let layers = layers(&spans);
        let get = |n: &str| layers.iter().find(|l| l.name == n).expect("layer");
        // Children cover [10, 70] ∪ [90, 100] = 70 ns of the cell.
        assert_eq!(get("cell").self_ns, 30);
        assert_eq!(get("cell").busy_ns, 100);
        // Worker 2 is fully covered by its run (self 0); the others have
        // no children.
        assert_eq!(get("worker").self_ns, 50 + 40);
        assert_eq!(get("worker").busy_ns, 140);
        assert_eq!(get("worker").count, 3);
        assert_eq!(get("sim.run").self_ns, 50);
    }

    #[test]
    fn covered_merges_and_clips() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (15, 30), (40, 50)]), 30);
        assert_eq!(covered_ns(0, 100, &[(0, 100), (10, 20)]), 100);
        assert_eq!(covered_ns(50, 100, &[(0, 60), (90, 200)]), 20);
        assert_eq!(covered_ns(0, 10, &[(20, 30)]), 0);
    }

    #[test]
    fn buffer_is_bounded_per_layer_and_counts_drops() {
        let t = Tracer::new(2);
        let root = t.start("root", ROOT, 0);
        for i in 0..5 {
            t.span("http.request", root.id(), i, |_| ());
        }
        t.end(root);
        let (spans, dropped) = t.snapshot();
        assert_eq!(dropped, 3);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().any(|s| s.name == "root"));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn chrome_json_parses() {
        let spans = [span(1, ROOT, "cell", 0, 1500), span(2, 1, "run", 10, 20)];
        let json = chrome_json(&spans, 4, "{}");
        let doc = nss_obs::jsonval::Json::parse(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(doc.get("dropped").and_then(|v| v.as_f64()), Some(4.0));
        assert_eq!(events[0].get("dur").and_then(|v| v.as_f64()), Some(1.5));
    }
}
