//! # nss-obs — zero-cost instrumentation for the nss workspace
//!
//! A dependency-free observability facade in the spirit of the `metrics`
//! crate, hand-rolled (like the `vendor/` shims) so the workspace stays
//! hermetic. Three layers:
//!
//! * **Metrics** ([`registry`]) — process-global atomic [`registry::Counter`]s
//!   and fixed-bucket [`registry::Histogram`]s interned by name. Accessed
//!   through the [`counter!`], [`observe!`], and [`set_label!`] macros.
//! * **Spans** ([`trace_span!`]) — RAII wall-time timers that record into
//!   a histogram and the bounded flight recorder ([`trace`]).
//! * **Provenance** ([`manifest`]) — a [`manifest::RunManifest`] describing
//!   one experiment run (config fingerprint, master seed, `git describe`,
//!   wall time, FNV-64 hashes of every emitted artifact), serialized as
//!   JSON next to the `results/` artifacts it describes.
//!
//! Snapshots export to pretty console tables, JSON, and the Prometheus text
//! exposition format via [`export`].
//!
//! ## Zero cost when disabled
//!
//! Instrumentation *must not* tax the analysis kernel or the simulator when
//! nobody is looking. The `enabled` cargo feature governs the macros:
//!
//! * With `enabled` **off** (default), [`counter!`], [`observe!`],
//!   [`trace_span!`], and [`set_label!`] expand to no-ops — argument
//!   expressions are *not evaluated* — and [`enabled()`] is `const false`,
//!   so guarded measurement code (`if nss_obs::enabled() { … }`) is
//!   dead-code eliminated. Instrumented sweeps are bitwise identical with the feature
//!   on and off; CI's output-identity step asserts exactly that.
//! * With `enabled` **on**, counters are single relaxed atomic adds and
//!   histogram records are one atomic add per bucket/sum/count — safe to
//!   leave in warm (not innermost) loops.
//!
//! The [`console`] layer (verbosity-gated status lines) and [`manifest`]
//! are *not* feature-gated: they are user-facing output control and
//! provenance, not hot-path measurement.
//!
//! ```
//! nss_obs::counter!("demo.events").add(3);
//! nss_obs::observe!("demo.latency_seconds", 0.25);
//! {
//!     let _span = nss_obs::trace_span!("demo.work");
//!     // ... timed region ...
//! }
//! if nss_obs::enabled() {
//!     assert_eq!(nss_obs::registry::Registry::global().counter("demo.events").get(), 3);
//! }
//! ```

#![deny(missing_docs)]

pub mod console;
pub mod export;
pub mod http;
pub mod jsonval;
pub mod manifest;
pub mod registry;
pub mod serve;
pub mod trace;

/// True iff this build carries live instrumentation (`enabled` feature).
///
/// Const-evaluates, so `if nss_obs::enabled() { expensive_measure(); }`
/// compiles to nothing in a disabled build.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Interns (once) and returns the `&'static` [`registry::Counter`] with the
/// given name. Disabled builds get a no-op handle with the same API.
///
/// ```
/// nss_obs::counter!("doc.counter.events").add(2);
/// nss_obs::counter!("doc.counter.events").inc();
/// if nss_obs::enabled() {
///     let reg = nss_obs::registry::Registry::global();
///     assert_eq!(reg.counter("doc.counter.events").get(), 3);
/// }
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __NSS_OBS_COUNTER: ::std::sync::OnceLock<&'static $crate::registry::Counter> =
            ::std::sync::OnceLock::new();
        *__NSS_OBS_COUNTER.get_or_init(|| $crate::registry::Registry::global().counter($name))
    }};
}

/// Disabled: a shared no-op counter; the name expression is not evaluated
/// (it is referenced from a never-called closure so its bindings still
/// count as used).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        let _ = || $name;
        &$crate::registry::NOOP_COUNTER
    }};
}

/// Records `$value` (as `f64`) into the named [`registry::Histogram`].
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {{
        static __NSS_OBS_HIST: ::std::sync::OnceLock<&'static $crate::registry::Histogram> =
            ::std::sync::OnceLock::new();
        __NSS_OBS_HIST
            .get_or_init(|| $crate::registry::Registry::global().histogram($name))
            .record($value as f64);
    }};
}

/// Disabled: expands to nothing; neither argument is evaluated (both are
/// referenced from a never-called closure to keep their bindings used).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {{
        let _ = || ($name, $value);
    }};
}

/// Interns (once) and returns the `&'static` [`registry::Gauge`] with the
/// given name. Disabled builds get a no-op handle with the same API.
///
/// ```
/// nss_obs::gauge!("doc.gauge.bytes").set(4096.0);
/// if nss_obs::enabled() {
///     let reg = nss_obs::registry::Registry::global();
///     assert_eq!(reg.gauge("doc.gauge.bytes").get(), 4096.0);
/// }
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __NSS_OBS_GAUGE: ::std::sync::OnceLock<&'static $crate::registry::Gauge> =
            ::std::sync::OnceLock::new();
        *__NSS_OBS_GAUGE.get_or_init(|| $crate::registry::Registry::global().gauge($name))
    }};
}

/// Disabled: a shared no-op gauge; the name expression is not evaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        let _ = || $name;
        &$crate::registry::NOOP_GAUGE
    }};
}

/// Starts an RAII [`trace::TraceSpan`]: on drop it records wall time into
/// the histogram `<name>.seconds` **and** pushes a structured event into
/// the bounded lock-free flight recorder ([`trace`]), from which
/// `--trace-out` dumps a Chrome `trace_event` JSON timeline.
///
/// Each call site resolves its name once; from then on recording is a
/// handful of relaxed stores into a per-thread ring — no locking, no
/// allocation, bounded memory — so it is safe in per-phase and per-shard
/// loops. A call site times one name: code that times several (the
/// figure registry) expands the macro once per name.
///
/// ```
/// {
///     let _span = nss_obs::trace_span!("doc.trace.work");
///     // … timed region …
/// }
/// if nss_obs::enabled() {
///     // Wall time landed in the `<name>.seconds` histogram on drop.
///     let reg = nss_obs::registry::Registry::global();
///     assert_eq!(reg.histogram("doc.trace.work.seconds").snapshot().count, 1);
/// }
/// ```
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {{
        static __NSS_OBS_TRACE: ::std::sync::OnceLock<(&'static $crate::registry::Histogram, u32)> =
            ::std::sync::OnceLock::new();
        let (hist, id) = *__NSS_OBS_TRACE.get_or_init(|| {
            (
                $crate::registry::Registry::global()
                    .histogram(&::std::format!("{}.seconds", $name)),
                $crate::trace::intern($name),
            )
        });
        $crate::trace::TraceSpan::start(hist, id)
    }};
}

/// Disabled: a zero-sized guard; the name expression is not evaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {{
        let _ = || $name;
        $crate::trace::NoopSpan
    }};
}

/// Sets a free-form string label (e.g. the RNG master seed of the current
/// run) exported alongside the metrics.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! set_label {
    ($key:expr, $value:expr) => {{
        $crate::registry::Registry::global().set_label($key, ::std::format!("{}", $value));
    }};
}

/// Disabled: expands to nothing; neither argument is evaluated.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! set_label {
    ($key:expr, $value:expr) => {{
        let _ = || ($key, $value);
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_reflects_feature() {
        assert_eq!(super::enabled(), cfg!(feature = "enabled"));
    }

    #[test]
    fn macros_compile_in_both_configurations() {
        crate::counter!("lib.test.counter").inc();
        crate::counter!("lib.test.counter").add(2);
        crate::observe!("lib.test.hist", 1.5);
        crate::set_label!("lib.test.label", 42);
        crate::gauge!("lib.test.gauge").set(3.5);
        let _tspan = crate::trace_span!("lib.test.trace_span");
        #[cfg(feature = "enabled")]
        {
            let reg = crate::registry::Registry::global();
            assert_eq!(reg.counter("lib.test.counter").get(), 3);
        }
    }
}
