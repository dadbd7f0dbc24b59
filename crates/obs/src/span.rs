//! RAII wall-time spans for coarse regions (a figure, a sweep).
//!
//! A [`SpanTimer`] measures the wall time between construction and drop,
//! records it into the histogram `<name>.seconds`, and files one event in
//! the flight recorder ([`crate::trace`]), so per-figure spans show in a
//! `--trace-out` timeline next to the engines' [`crate::trace_span!`]s.
//!
//! Unlike `trace_span!`, which resolves its name once per call site, a
//! span resolves its name on every drop (a histogram lookup plus a name
//! intern), so one call site may time a different name each time — the
//! figure registry times every figure through one `span!`. That per-event
//! lookup is why loop bodies in the engine crates must use `trace_span!`
//! instead (`nss-lint`'s feature-hygiene rule).

use crate::registry::Registry;
use crate::trace;

/// An in-flight span; records on drop.
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    start_ns: u64,
}

impl SpanTimer {
    /// Starts a span.
    pub fn start(name: &'static str) -> Self {
        SpanTimer {
            name,
            start_ns: trace::now_ns(),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let dur_ns = trace::now_ns().saturating_sub(self.start_ns);
        Registry::global()
            .histogram(&format!("{}.seconds", self.name))
            .record(dur_ns as f64 * 1e-9);
        trace::record(trace::intern(self.name), self.start_ns, dur_ns);
    }
}

/// Zero-sized guard returned by [`crate::span!`] in disabled builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSpan;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_event_and_histogram() {
        // One call site, two names: each is filed under its own name.
        let names = ["span.test.fig_a", "span.test.fig_b"];
        let hists = names.map(|n| Registry::global().histogram(&format!("{n}.seconds")));
        let before = hists.map(|h| h.count());
        let t0 = trace::now_ns();
        for name in names {
            let _s = SpanTimer::start(name);
        }
        let (evs, _) = trace::events();
        for ((name, hist), before) in names.iter().zip(hists).zip(before) {
            assert_eq!(hist.count(), before + 1, "{name}.seconds recorded");
            let id = trace::intern(name);
            assert!(
                evs.iter().any(|e| e.name_id == id && e.start_ns >= t0),
                "{name} filed in the flight recorder"
            );
        }
    }
}
