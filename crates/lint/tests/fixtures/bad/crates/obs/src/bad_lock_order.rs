//! Deliberate lock-order violations: an alpha→beta / beta→alpha cycle
//! split across two functions, a blocking call under a guard, a
//! caller-supplied closure invoked while the lock is held, and the seeded
//! `obs::registry` inversion below.

pub fn ab(s: &State) {
    let a = s.alpha.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let b = s.beta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    use_both(&a, &b);
}

pub fn ba(s: &State) {
    let b = s.beta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let a = s.alpha.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    use_both(&a, &b);
}

pub fn drain(rx: &std::sync::Mutex<ConnReceiver>) -> Option<Conn> {
    rx.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .recv()
        .ok()
}

pub fn fill(s: &State, build: impl FnOnce() -> u64) -> u64 {
    let mut a = s.alpha.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let v = build();
    *a = v;
    v
}

fn use_both(_a: &u64, _b: &u64) {}

/// The seeded registry inversion: `reset` takes `gauges` inside
/// `counters`, and `gauges_snapshot` takes `counters` inside `gauges`.
/// No test drives the registry from two threads and no loom model covers
/// it, so tests, clippy and the output diff all pass; this rule alone
/// reports the cycle.
impl Registry {
    pub fn reset(&self) {
        let counters = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let gauges = self.gauges.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for c in counters.values() {
            c.reset();
        }
        for g in gauges.values() {
            g.reset();
        }
    }

    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        let gauges = self.gauges.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _counters = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect()
    }
}

impl Counter {
    fn reset(&self) {}
}

impl Gauge {
    fn reset(&self) {}
}
