//! The global metric registry: named atomic counters and fixed-bucket
//! histograms.
//!
//! Metrics are interned by name on first use and live for the process
//! lifetime (`Box::leak` — the set of metric names is a small static
//! vocabulary, so the leak is bounded). Handles are `&'static`, so the hot
//! path after interning is a single relaxed atomic add with no locking;
//! the [`crate::counter!`] macro additionally caches the handle in a
//! per-call-site `OnceLock`, so the registry lock is taken once per call
//! site, ever.

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a free-standing counter (registry-less; mostly for tests).
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` (relaxed; counters are statistical, not synchronizing).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in an atomic).
///
/// Gauges report *levels* — memory footprints, load-imbalance ratios —
/// where only the most recent value is meaningful, unlike the
/// monotonically accumulating [`Counter`].
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Creates a gauge reading 0.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the current value (relaxed; gauges are statistical).
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 until first set — note `0f64.to_bits() == 0`).
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// The shared no-op counter handle returned by [`crate::counter!`] in
/// disabled builds. Same API as [`Counter`], zero behavior.
pub static NOOP_COUNTER: NoopCounter = NoopCounter;

/// The shared no-op gauge handle returned by [`crate::gauge!`] in disabled
/// builds. Same API as [`Gauge`], zero behavior.
pub static NOOP_GAUGE: NoopGauge = NoopGauge;

/// Zero-sized stand-in for [`Gauge`] when instrumentation is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopGauge;

impl NoopGauge {
    /// Does nothing.
    #[inline(always)]
    pub fn set(&self, _v: f64) {}

    /// Always zero.
    #[inline(always)]
    pub fn get(&self) -> f64 {
        0.0
    }
}

/// Zero-sized stand-in for [`Counter`] when instrumentation is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopCounter;

impl NoopCounter {
    /// Does nothing.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// Does nothing.
    #[inline(always)]
    pub fn inc(&self) {}

    /// Always zero.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Number of finite histogram bucket bounds (one overflow bucket follows).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Upper bound of finite bucket `i`: `2^(i − 21)`.
///
/// Covers ~0.5 µs … ~1000 s with two buckets per decade-ish — sized for
/// wall-clock observations (sweep cells, replications, figure spans) while
/// remaining serviceable for any positive magnitude.
#[inline]
pub fn bucket_bound(i: usize) -> f64 {
    f64::powi(2.0, i as i32 - 21)
}

/// A fixed-bucket histogram (power-of-two bounds, see [`bucket_bound`]),
/// recording count, sum, min, and max alongside the bucket counts.
#[derive(Debug)]
pub struct Histogram {
    /// `buckets[i]` counts observations `v ≤ bucket_bound(i)`; the final
    /// slot is the +∞ overflow bucket. Non-cumulative; exporters integrate.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    /// Sum of observations, stored as `f64::to_bits` and updated by CAS.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation. Non-finite values are counted in the
    /// overflow bucket but excluded from sum/min/max, so a stray NaN can
    /// never poison the aggregates.
    pub fn record(&self, v: f64) {
        let idx = if v.is_finite() {
            self.buckets
                .iter()
                .take(HISTOGRAM_BUCKETS)
                .enumerate()
                .find_map(|(i, _)| (v <= bucket_bound(i)).then_some(i))
                .unwrap_or(HISTOGRAM_BUCKETS)
        } else {
            HISTOGRAM_BUCKETS
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            fetch_update_f64(&self.sum_bits, |s| s + v);
            fetch_update_f64(&self.min_bits, |m| m.min(v));
            fetch_update_f64(&self.max_bits, |m| m.max(v));
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        HistogramSnapshot {
            count,
            sum,
            min: if count > 0 && min.is_finite() {
                Some(min)
            } else {
                None
            },
            max: if count > 0 && max.is_finite() {
                Some(max)
            } else {
                None
            },
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

fn fetch_update_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        // nss-lint: allow(atomic-protocol) — CAS loop over one lone f64 cell (min/max fold): success publishes nothing beyond the cell itself, so there is no payload for Acquire/Release to order
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Smallest finite observation, if any.
    pub min: Option<f64>,
    /// Largest finite observation, if any.
    pub max: Option<f64>,
    /// Per-bucket (non-cumulative) counts; last entry is the +∞ bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 < q ≤ 1`) by linear interpolation within
    /// the fixed power-of-two buckets, Prometheus `histogram_quantile`
    /// style. `None` when the histogram is empty or `q` is out of range.
    ///
    /// The estimate is clamped to the observed `[min, max]` when those are
    /// known, so coarse buckets can never report a quantile outside the
    /// data. Observations landing in the +∞ overflow bucket interpolate to
    /// the largest finite bound (or `max` when recorded).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        let mut estimate = None;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= rank {
                let hi = if i < HISTOGRAM_BUCKETS {
                    bucket_bound(i)
                } else {
                    // Overflow bucket: no finite upper edge to interpolate
                    // toward; report its lower edge (clamped to max below).
                    bucket_bound(HISTOGRAM_BUCKETS - 1)
                };
                let lo = if i == 0 { 0.0 } else { bucket_bound(i - 1) };
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                estimate = Some(lo + frac * (hi - lo));
                break;
            }
            cum = next;
        }
        let mut v = estimate?;
        if let Some(min) = self.min {
            v = v.max(min);
        }
        if let Some(max) = self.max {
            v = v.min(max);
        }
        Some(v)
    }

    /// The (p50, p90, p99) triple most reports want.
    pub fn percentiles(&self) -> (Option<f64>, Option<f64>, Option<f64>) {
        (self.quantile(0.5), self.quantile(0.9), self.quantile(0.99))
    }

    /// Subtracts an earlier snapshot of the *same* histogram, yielding the
    /// observations recorded in between. `min`/`max` cannot be windowed
    /// retroactively, so the delta carries the later snapshot's values when
    /// anything was recorded in the window and `None` otherwise.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.saturating_sub(earlier.count);
        HistogramSnapshot {
            count,
            sum: if count == 0 {
                0.0
            } else {
                self.sum - earlier.sum
            },
            min: if count == 0 { None } else { self.min },
            max: if count == 0 { None } else { self.max },
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(&a, &b)| a.saturating_sub(b))
                .collect(),
        }
    }
}

/// A point-in-time copy of an entire [`Registry`] — every counter, gauge,
/// histogram, and label — taken with [`Registry::snapshot`].
///
/// Snapshots subtract: [`RegistrySnapshot::delta_since`] yields only what
/// was recorded between two snapshots, which is how reports isolate a
/// measured run from warm-up traffic sharing the same process registry.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// Sorted `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// Sorted `(name, value)` gauges (point-in-time levels).
    pub gauges: Vec<(String, f64)>,
    /// Sorted `(name, snapshot)` histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Sorted `(key, value)` labels.
    pub labels: Vec<(String, String)>,
}

impl RegistrySnapshot {
    /// The metrics recorded since `earlier` (counters and histogram
    /// aggregates subtract; gauges and labels are levels, so the later
    /// value is kept). Metrics that did not exist at `earlier` delta
    /// against zero.
    pub fn delta_since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let base_counter = |name: &str| -> u64 {
            earlier
                .counters
                .binary_search_by(|(k, _)| k.as_str().cmp(name))
                .map_or(0, |i| earlier.counters[i].1)
        };
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            buckets: Vec::new(),
        };
        RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(base_counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let base = earlier
                        .histograms
                        .binary_search_by(|(n, _)| n.as_str().cmp(k))
                        .map_or(&empty, |i| &earlier.histograms[i].1);
                    (k.clone(), h.delta_since(base))
                })
                .collect(),
            labels: self.labels.clone(),
        }
    }
}

/// The process-global metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    maps: Mutex<Maps>,
}

/// Every name the registry has interned, behind the registry's one lock.
#[derive(Debug, Default)]
struct Maps {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    histograms: BTreeMap<String, &'static Histogram>,
    labels: BTreeMap<String, String>,
}

/// Returns the handle interned under `name`, leaking a fresh one first.
fn intern<M>(map: &mut BTreeMap<String, &'static M>, name: &str, new: fn() -> M) -> &'static M {
    if let Some(m) = map.get(name) {
        return m;
    }
    let m: &'static M = Box::leak(Box::new(new()));
    map.insert(name.to_string(), m);
    m
}

impl Registry {
    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// Interns (on first use) and returns the counter named `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        intern(&mut self.maps.lock().counters, name, Counter::new)
    }

    /// Interns (on first use) and returns the gauge named `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        intern(&mut self.maps.lock().gauges, name, Gauge::new)
    }

    /// Interns (on first use) and returns the histogram named `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        intern(&mut self.maps.lock().histograms, name, Histogram::new)
    }

    /// Sets (or replaces) a string label.
    pub fn set_label(&self, key: &str, value: String) {
        self.maps.lock().labels.insert(key.to_string(), value);
    }

    /// A full point-in-time [`RegistrySnapshot`] — the unit the delta API
    /// ([`RegistrySnapshot::delta_since`]) works over. All four maps are
    /// read under one guard, so no metric registered mid-snapshot shows in
    /// one section and not another.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let maps = self.maps.lock();
        RegistrySnapshot {
            counters: maps
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: maps
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            labels: maps
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Zeroes every counter and histogram and clears labels. Registered
    /// handles stay valid (tests and repeated bench runs use this to take
    /// clean deltas).
    pub fn reset(&self) {
        let mut maps = self.maps.lock();
        maps.counters.values().for_each(|c| c.reset());
        maps.gauges.values().for_each(|g| g.reset());
        maps.histograms.values().for_each(|h| h.reset());
        maps.labels.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn interning_returns_same_handle() {
        let reg = Registry::default();
        let a = reg.counter("x") as *const Counter;
        let b = reg.counter("x") as *const Counter;
        assert_eq!(a, b);
        assert_ne!(a, reg.counter("y") as *const Counter);
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
        // The range brackets realistic wall times.
        assert!(bucket_bound(0) < 1e-6);
        assert!(bucket_bound(HISTOGRAM_BUCKETS - 1) > 1000.0);
    }

    #[test]
    fn histogram_aggregates() {
        let h = Histogram::new();
        for v in [0.001, 0.002, 0.004, 1.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 1.007).abs() < 1e-12);
        assert_eq!(s.min, Some(0.001));
        assert_eq!(s.max, Some(1.0));
        assert!((s.mean() - 1.007 / 4.0).abs() < 1e-12);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn histogram_bucket_placement() {
        let h = Histogram::new();
        h.record(bucket_bound(5)); // exactly on a bound → that bucket (le)
        h.record(bucket_bound(5) * 1.01); // just past → next bucket
        h.record(1e12); // beyond the last finite bound → overflow
        let s = h.snapshot();
        assert_eq!(s.buckets[5], 1);
        assert_eq!(s.buckets[6], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS], 1);
    }

    #[test]
    fn histogram_ignores_nan_in_aggregates() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(2.0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 2.0);
        assert_eq!(s.min, Some(2.0));
        assert_eq!(s.max, Some(2.0));
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = Registry::default();
        reg.counter("a").add(7);
        reg.histogram("h").record(1.0);
        reg.set_label("k", "v".into());
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a".into(), 0)]);
        assert_eq!(snap.histograms[0].1.count, 0);
        assert!(snap.labels.is_empty());
    }

    #[test]
    fn gauge_is_last_value_wins() {
        let reg = Registry::default();
        let g = reg.gauge("mem.bytes");
        assert_eq!(g.get(), 0.0);
        g.set(1024.0);
        g.set(2048.0);
        assert_eq!(reg.gauge("mem.bytes").get(), 2048.0);
        assert_eq!(reg.snapshot().gauges, vec![("mem.bytes".into(), 2048.0)]);
        reg.reset();
        assert_eq!(reg.gauge("mem.bytes").get(), 0.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 100 observations spread uniformly inside the (0.5, 1.0] bucket.
        for i in 0..100 {
            h.record(0.5 + 0.005 * (i as f64 + 0.5));
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5).expect("non-empty");
        let p90 = s.quantile(0.9).expect("non-empty");
        let p99 = s.quantile(0.99).expect("non-empty");
        // Linear interpolation inside one bucket tracks the uniform data.
        assert!((p50 - 0.75).abs() < 0.01, "p50 = {p50}");
        assert!((p90 - 0.95).abs() < 0.01, "p90 = {p90}");
        assert!(p99 > p90 && p90 > p50);
        // Quantiles never leave the observed range.
        assert!(p99 <= s.max.expect("max recorded"));
        assert!(s.quantile(0.001).expect("ok") >= s.min.expect("min"));
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), None);
        h.record(3.0);
        let s = h.snapshot();
        // One observation: every quantile collapses to it (via clamping).
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(0.99), Some(3.0));
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(1.5), None);
        // Overflow-bucket observations clamp to the recorded max.
        let h = Histogram::new();
        h.record(1e12);
        assert_eq!(h.snapshot().quantile(0.9), Some(1e12));
    }

    #[test]
    fn registry_snapshot_delta_isolates_a_window() {
        let reg = Registry::default();
        reg.counter("c").add(10);
        reg.histogram("h").record(1.0);
        reg.gauge("g").set(7.0);
        let before = reg.snapshot();
        reg.counter("c").add(5);
        reg.counter("new").add(2);
        reg.histogram("h").record(2.0);
        reg.gauge("g").set(9.0);
        let delta = reg.snapshot().delta_since(&before);
        let counters: std::collections::BTreeMap<_, _> = delta.counters.into_iter().collect();
        assert_eq!(counters["c"], 5);
        assert_eq!(counters["new"], 2);
        let (_, h) = &delta.histograms[0];
        assert_eq!(h.count, 1);
        assert!((h.sum - 2.0).abs() < 1e-12);
        assert_eq!(h.max, Some(2.0)); // later snapshot's max, documented caveat
        assert_eq!(h.buckets.iter().sum::<u64>(), 1);
        // Gauges are levels: the delta carries the later reading.
        assert_eq!(delta.gauges, vec![("g".into(), 9.0)]);
    }

    #[test]
    fn histogram_delta_of_identical_snapshots_is_empty() {
        let h = Histogram::new();
        h.record(0.5);
        let s = h.snapshot();
        let d = s.delta_since(&s);
        assert_eq!(d.count, 0);
        assert_eq!(d.sum, 0.0);
        assert_eq!(d.min, None);
        assert_eq!(d.max, None);
        assert!(d.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = Registry::default();
        let c = reg.counter("conc");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
