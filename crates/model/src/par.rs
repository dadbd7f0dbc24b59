//! Fan-out of independent work over scoped threads.
//!
//! The model, analysis and simulator crates fan work out only through
//! this module: [`map_indexed`] work-steals the ring model's (ρ × p) cells
//! and the simulator's seeded replications, and [`map_units`] runs
//! pre-split units (the CSR build's two passes, the sharded engine's
//! per-phase chunks).
//! Both return results in index or unit order, so output never depends on
//! which thread finished first. A panicking worker's payload is re-raised
//! on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::thread::ScopedJoinHandle;

/// Resolves a thread-count request against the available work: `0` means
/// every available core; the result is capped at `work` and is at least 1.
pub fn workers(threads: usize, work: usize) -> usize {
    let t = match threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };
    t.min(work).max(1)
}

/// Computes `f(0) … f(n - 1)` on `workers` threads and returns the results
/// in index order.
///
/// Workers claim indices from a shared atomic cursor, so uneven items
/// balance themselves, and each keeps its own `(index, result)` list; the
/// lists are merged by index after the join. Every index is claimed
/// exactly once (`tests/loom_par.rs` checks the cursor under every
/// interleaving). With `workers <= 1` it runs inline on the calling thread.
pub fn map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut out = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Relaxed);
            if i >= n {
                return out;
            }
            out.push((i, f(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        handles.into_iter().flat_map(join).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Runs `f` on each of `units`, one scoped thread per unit (inline when
/// there is only one), and returns the results in unit order.
///
/// `stage` names the fan-out in the telemetry plane (no-op unless the
/// `obs` feature is live): one flight-recorder event spanning the call,
/// each unit's wall time into the `<stage>.shard.seconds` histogram, and
/// the max/mean unit-time ratio into the `<stage>.imbalance` gauge. They
/// are published from the calling thread after the join, so the flight
/// recorder gets no ring per short-lived worker and the workers stay
/// instrumentation-free.
pub fn map_units<U, T, F>(stage: &'static str, units: Vec<U>, f: F) -> Vec<T>
where
    U: Send,
    T: Send,
    F: Fn(U) -> T + Sync,
{
    let start_ns = clock();
    let timed = |unit: U| {
        let t0 = clock();
        let out = f(unit);
        (out, clock().saturating_sub(t0))
    };
    let timed: Vec<(T, u64)> = if units.len() <= 1 {
        units.into_iter().map(timed).collect()
    } else {
        let timed = &timed;
        std::thread::scope(|scope| {
            let handles: Vec<_> = units
                .into_iter()
                .map(|unit| scope.spawn(move || timed(unit)))
                .collect();
            handles.into_iter().map(join).collect()
        })
    };
    if nss_obs::enabled() {
        publish(stage, start_ns, timed.iter().map(|&(_, ns)| ns));
    }
    timed.into_iter().map(|(out, _)| out).collect()
}

/// Joins a worker, re-raising its panic on the calling thread.
fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Nanoseconds on the flight-recorder clock (0 when instrumentation is
/// off, so the timing const-folds away).
#[inline]
fn clock() -> u64 {
    if nss_obs::enabled() {
        nss_obs::trace::now_ns()
    } else {
        0
    }
}

/// Publishes one [`map_units`] call: the spanning event, the per-unit
/// histogram and the imbalance gauge. Nothing is recorded for zero units.
fn publish(stage: &'static str, start_ns: u64, unit_ns: impl ExactSizeIterator<Item = u64>) {
    let units = unit_ns.len();
    if units == 0 {
        return;
    }
    let end_ns = nss_obs::trace::now_ns();
    nss_obs::trace::record(
        nss_obs::trace::intern(stage),
        start_ns,
        end_ns.saturating_sub(start_ns),
    );
    let reg = nss_obs::registry::Registry::global();
    let hist = reg.histogram(&format!("{stage}.shard.seconds"));
    let mut max_ns = 0u64;
    let mut sum_ns = 0u64;
    for ns in unit_ns {
        hist.record(ns as f64 * 1e-9);
        max_ns = max_ns.max(ns);
        sum_ns += ns;
    }
    let mean_ns = sum_ns as f64 / units as f64;
    if mean_ns > 0.0 {
        // 1.0 = perfectly balanced units; the slowest unit's multiple of
        // the mean is the wall-clock cost of the imbalance.
        reg.gauge(&format!("{stage}.imbalance"))
            .set(max_ns as f64 / mean_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_resolves_zero_and_caps_at_the_work() {
        assert!(workers(0, usize::MAX) >= 1);
        assert_eq!(workers(4, 2), 2);
        assert_eq!(workers(3, 10), 3);
        assert_eq!(workers(5, 0), 1);
        assert_eq!(workers(0, 0), 1);
    }

    #[test]
    fn map_indexed_returns_index_order_at_any_worker_count() {
        for w in [0, 1, 2, 3, 8, 64] {
            for n in [0, 1, 2, 5, 100] {
                let got = map_indexed(n, w, |i| i * i);
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(got, want, "n = {n}, workers = {w}");
            }
        }
    }

    #[test]
    fn map_units_returns_unit_order() {
        for n in [0, 1, 2, 7] {
            let units: Vec<usize> = (0..n).rev().collect();
            let want: Vec<usize> = units.iter().map(|u| u + 1).collect();
            assert_eq!(map_units("par.test.order", units, |u| u + 1), want);
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let message = |r: std::thread::Result<Vec<usize>>| {
            let payload = r.expect_err("the worker panic must propagate");
            payload.downcast_ref::<&str>().copied().unwrap_or_default()
        };
        let indexed = std::panic::catch_unwind(|| {
            map_indexed(8, 2, |i| if i == 5 { panic!("index five") } else { i })
        });
        assert_eq!(message(indexed), "index five");
        let units = std::panic::catch_unwind(|| {
            map_units("par.test.panic", vec![0, 1, 2], |u| {
                if u == 1 {
                    panic!("unit one")
                }
                u
            })
        });
        assert_eq!(message(units), "unit one");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn map_units_publishes_one_sample_per_unit_and_the_imbalance() {
        const STAGE: &str = "par.test.telemetry";
        let reg = nss_obs::registry::Registry::global();
        let hist = reg.histogram("par.test.telemetry.shard.seconds");
        let before = hist.count();
        let units: Vec<u64> = vec![1, 2, 3];
        map_units(STAGE, units, |ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        });
        assert_eq!(hist.count(), before + 3);
        let imbalance = reg.gauge("par.test.telemetry.imbalance").get();
        assert!((1.0..=3.0).contains(&imbalance), "imbalance {imbalance}");
        let id = nss_obs::trace::intern(STAGE);
        let (events, _) = nss_obs::trace::events();
        assert_eq!(events.iter().filter(|e| e.name_id == id).count(), 1);
    }
}
