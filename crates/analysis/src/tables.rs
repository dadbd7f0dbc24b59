//! Table-driven kernels shared across the (ρ × p) parameter sweeps.
//!
//! Every cell of a density × probability sweep runs the same ring recursion
//! with the same geometry: the lens areas `A(x, k)` / `B(x, k)` (and the
//! quadrature abscissae they are evaluated at) depend only on `(P, r,
//! quad_points[, cs_factor])` — never on `ρ` or `p`. The seed implementation
//! re-evaluated those lens integrals through closures for every cell, every
//! phase, and every quadrature point; this module precomputes them **once**
//! and shares them across the whole sweep:
//!
//! * [`GeometryTables`] — `A(x_q, j, k)` and `B(x_q, j, k)` sampled at
//!   exactly the composite-Simpson abscissae used by
//!   [`crate::quadrature::simpson`], plus the matching point weights. Its
//!   [`GeometryTables::integrate`] replicates `simpson`'s accumulation order
//!   term for term, so a table-driven integral is **bitwise identical** to
//!   the closure-driven one.
//! * [`SharedKernel`] — geometry tables + μ/μ′ evaluators bundled behind
//!   an `Arc` so sweep workers share one allocation.
//! * [`KernelCache`] — interns `SharedKernel`s by config fingerprint
//!   ([`KernelKey`]); repeated sweeps over the same base configuration reuse
//!   the same kernel, including across threads.
//! * [`MuMemo`] / [`MuCsMemo`] — per-run memoization of the closed-form μ
//!   lattice values behind the interpolating evaluators. `mu_closed_form`
//!   is a pure function, so caching its integer-lattice values and
//!   replicating the interpolation arithmetic preserves results bitwise
//!   while removing the `O(s)` `powf` chain from the inner loop.

use crate::mu::{MuEvaluator, MuMode};
use crate::mu_cs::{lattice, mu_cs_closed_form, MuCsEvaluator};
use crate::ring_geometry::RingGeometry;
use crate::ring_model::RingModelConfig;
use nss_model::comm::CollisionRule;
use nss_obs::sync::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Precomputed lens-area tables at the Simpson abscissae.
///
/// For a node in ring `j` at offset `x` from the ring's inner boundary, the
/// recursion needs `A(x, k)` (area of ring `k` within transmission range)
/// and, under carrier sensing, `B(x, k)` (area within the carrier annulus).
/// Both are sampled at the `n + 1` composite-Simpson abscissae over `[0, r]`
/// for every `(j, k)` ring pair, where `n` is `quad_points` rounded up to
/// even exactly as [`crate::quadrature::simpson`] does.
#[derive(Debug, Clone)]
pub struct GeometryTables {
    p: u32,
    cs_factor: Option<f64>,
    /// Number of Simpson panels (even); there are `n + 1` abscissae.
    n: usize,
    /// Panel width `h = r / n`, computed as `simpson` computes it.
    h: f64,
    /// `xs[i]` = the `i`-th Simpson abscissa: `0.0`, `i·h`, …, `r`.
    xs: Vec<f64>,
    /// `a[((j-1)·P + (k-1))·(n+1) + i]` = `A(xs[i], k)` for a ring-`j` node.
    a: Vec<f64>,
    /// Same layout as `a`, for `B`; empty unless built with a `cs_factor`.
    b: Vec<f64>,
}

impl GeometryTables {
    /// Builds the tables for a `P`-ring field of ring width `r`, sampling at
    /// the `simpson` abscissae for `quad_points` panels. `cs_factor` also
    /// builds the carrier-sense `B` table (for `CollisionRule::CarrierSense`).
    pub fn build(p: u32, r: f64, quad_points: usize, cs_factor: Option<f64>) -> Self {
        let geom = RingGeometry::new(p, r);
        // Replicate simpson's panel rounding and abscissa arithmetic exactly:
        // n rounded up to even, h = (b − a)/n, interior points a + i·h, and
        // the endpoints taken as a and b themselves.
        let n = if quad_points.is_multiple_of(2) {
            quad_points.max(2)
        } else {
            quad_points + 1
        };
        let (lo, hi) = (0.0f64, r);
        let h = (hi - lo) / n as f64;
        let mut xs = Vec::with_capacity(n + 1);
        xs.push(lo);
        for i in 1..n {
            xs.push(lo + i as f64 * h);
        }
        xs.push(hi);

        let pu = p as usize;
        let stride = n + 1;
        let mut a = vec![0.0f64; pu * pu * stride];
        for j in 1..=p {
            for k in 1..=p {
                let base = ((j as usize - 1) * pu + (k as usize - 1)) * stride;
                for (i, &x) in xs.iter().enumerate() {
                    a[base + i] = geom.a_area(j, x, k);
                }
            }
        }
        let b = if let Some(factor) = cs_factor {
            let mut b = vec![0.0f64; pu * pu * stride];
            for j in 1..=p {
                for k in 1..=p {
                    let base = ((j as usize - 1) * pu + (k as usize - 1)) * stride;
                    for (i, &x) in xs.iter().enumerate() {
                        b[base + i] = geom.b_area(j, x, k, factor);
                    }
                }
            }
            b
        } else {
            Vec::new()
        };

        GeometryTables {
            p,
            cs_factor,
            n,
            h,
            xs,
            a,
            b,
        }
    }

    /// The carrier-sense factor the `B` table was built for, if any.
    pub fn cs_factor(&self) -> Option<f64> {
        self.cs_factor
    }

    /// Number of Simpson panels `n` (even); abscissa count is `n + 1`.
    pub fn panels(&self) -> usize {
        self.n
    }

    /// The Simpson abscissae `0 = x_0 < x_1 < … < x_n = r`.
    pub fn abscissae(&self) -> &[f64] {
        &self.xs
    }

    /// `A(x_i, k)` for a ring-`j` node (`j`, `k` 1-based; `i` abscissa index).
    #[inline]
    pub fn a(&self, j: u32, k: u32, i: usize) -> f64 {
        let pu = self.p as usize;
        self.a[((j as usize - 1) * pu + (k as usize - 1)) * (self.n + 1) + i]
    }

    /// `B(x_i, k)` for a ring-`j` node. Panics if built without a `cs_factor`.
    #[inline]
    pub fn b(&self, j: u32, k: u32, i: usize) -> f64 {
        assert!(
            !self.b.is_empty(),
            "GeometryTables built without a carrier-sense factor"
        );
        let pu = self.p as usize;
        self.b[((j as usize - 1) * pu + (k as usize - 1)) * (self.n + 1) + i]
    }

    /// Row of `A(·, k)` values across all abscissae for a ring-`j` node.
    #[inline]
    pub fn a_row(&self, j: u32, k: u32) -> &[f64] {
        let pu = self.p as usize;
        let base = ((j as usize - 1) * pu + (k as usize - 1)) * (self.n + 1);
        &self.a[base..base + self.n + 1]
    }

    /// Row of `B(·, k)` values across all abscissae for a ring-`j` node.
    #[inline]
    pub fn b_row(&self, j: u32, k: u32) -> &[f64] {
        assert!(
            !self.b.is_empty(),
            "GeometryTables built without a carrier-sense factor"
        );
        let pu = self.p as usize;
        let base = ((j as usize - 1) * pu + (k as usize - 1)) * (self.n + 1);
        &self.b[base..base + self.n + 1]
    }

    /// Approximate heap footprint of the tables in bytes.
    pub fn bytes(&self) -> usize {
        (self.xs.capacity() + self.a.capacity() + self.b.capacity()) * std::mem::size_of::<f64>()
    }

    /// Integrates `f(i, x_i)` over `[0, r]`, replicating
    /// [`crate::quadrature::simpson`]'s accumulation order exactly: the two
    /// endpoint terms first, then interior points in index order with 4/2
    /// weights, then one multiplication by `h/3`. For any `g`,
    /// `tables.integrate(|_, x| g(x))` is bitwise equal to
    /// `simpson(g, 0.0, r, quad_points)`.
    #[inline]
    pub fn integrate(&self, mut f: impl FnMut(usize, f64) -> f64) -> f64 {
        let n = self.n;
        let mut acc = f(0, self.xs[0]) + f(n, self.xs[n]);
        for i in 1..n {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            acc += w * f(i, self.xs[i]);
        }
        acc * self.h / 3.0
    }
}

/// Per-run memo of the interpolating μ evaluator.
///
/// [`MuEvaluator::eval`] in `Interpolate` mode calls the `O(s)` closed form
/// at `⌊k⌋` and `⌈k⌉` for every quadrature point of every ring of every
/// phase. The lattice values are pure, so this memo caches them in a flat
/// vector and replays the evaluator's interpolation arithmetic verbatim —
/// results are bitwise identical to `MuEvaluator::eval`. `Poisson` mode has
/// no lattice structure and delegates to the evaluator unchanged.
#[derive(Debug, Clone)]
pub struct MuMemo {
    ev: MuEvaluator,
    /// `vals[k] = μ(k, s)`; `NaN` marks a not-yet-computed entry.
    vals: Vec<f64>,
    /// Lattice lookups served from the memo (maintained in `obs` builds).
    hits: u64,
    /// Lattice lookups that ran the `O(s)` closed form.
    misses: u64,
}

impl MuMemo {
    /// Wraps an evaluator.
    pub fn new(ev: MuEvaluator) -> Self {
        MuMemo {
            ev,
            vals: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` of the lattice memo. Zero in non-`obs` builds —
    /// maintaining the counts costs two branches per quadrature point, so
    /// they are compiled out with the rest of the instrumentation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    #[inline]
    fn lattice(&mut self, k: u64) -> f64 {
        let idx = k as usize;
        if idx >= self.vals.len() {
            self.vals.resize(idx + 1, f64::NAN);
        }
        let v = self.vals[idx];
        if v.is_nan() {
            if nss_obs::enabled() {
                self.misses += 1;
            }
            let fresh = crate::mu::mu_closed_form(k, self.ev.slots());
            self.vals[idx] = fresh;
            fresh
        } else {
            if nss_obs::enabled() {
                self.hits += 1;
            }
            v
        }
    }

    /// `μ(k, s)` for real `k`; bitwise equal to [`MuEvaluator::eval`].
    #[inline]
    pub fn eval(&mut self, k: f64) -> f64 {
        if self.ev.mode() != MuMode::Interpolate {
            return self.ev.eval(k);
        }
        let k = k.max(0.0);
        let lo = k.floor();
        let hi = k.ceil();
        let mu_lo = self.lattice(lo as u64);
        if lo == hi {
            return mu_lo;
        }
        let mu_hi = self.lattice(hi as u64);
        mu_lo + (k - lo) * (mu_hi - mu_lo)
    }
}

/// Per-run memo of the bilinear carrier-sense μ′ evaluator; the 2-D
/// analogue of [`MuMemo`], bitwise equal to [`MuCsEvaluator::eval`].
#[derive(Debug, Clone)]
pub struct MuCsMemo {
    ev: MuCsEvaluator,
    vals: HashMap<(u64, u64), f64>,
    hits: u64,
    misses: u64,
}

impl MuCsMemo {
    /// Wraps an evaluator.
    pub fn new(ev: MuCsEvaluator) -> Self {
        MuCsMemo {
            ev,
            vals: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` of the lattice memo; zero in non-`obs` builds
    /// (see [`MuMemo::stats`]).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    #[inline]
    fn lattice(&mut self, k1: u64, k2: u64) -> f64 {
        let s = self.ev.slots();
        let mut fresh = false;
        let v = *self.vals.entry((k1, k2)).or_insert_with(|| {
            fresh = true;
            mu_cs_closed_form(k1, k2, s)
        });
        if nss_obs::enabled() {
            if fresh {
                self.misses += 1;
            } else {
                self.hits += 1;
            }
        }
        v
    }

    /// `μ'(k1, k2, s)` for real arguments; bitwise equal to
    /// [`MuCsEvaluator::eval`].
    #[inline]
    pub fn eval(&mut self, k1: f64, k2: f64) -> f64 {
        if self.ev.mode() != MuMode::Interpolate {
            return self.ev.eval(k1, k2);
        }
        let k1 = k1.max(0.0);
        let k2 = k2.max(0.0);
        let (a0, a1, fa) = lattice(k1);
        let (b0, b1, fb) = lattice(k2);
        let f00 = self.lattice(a0, b0);
        let f10 = self.lattice(a1, b0);
        let f01 = self.lattice(a0, b1);
        let f11 = self.lattice(a1, b1);
        let fx0 = f00 + fa * (f10 - f00);
        let fx1 = f01 + fa * (f11 - f01);
        fx0 + fb * (fx1 - fx0)
    }
}

/// Everything a [`crate::ring_model::RingModel`] run needs that does *not*
/// depend on `ρ` or the broadcast probability — built once, shared by
/// reference across all cells of a sweep.
#[derive(Debug)]
pub struct SharedKernel {
    /// The ring decomposition (cheap, kept for geometric queries).
    pub geom: RingGeometry,
    /// Lens-area tables at the Simpson abscissae.
    pub tables: GeometryTables,
    /// The μ evaluator (transmission-range collisions).
    pub mu: MuEvaluator,
    /// The μ′ evaluator (carrier-sense collisions).
    pub mu_cs: MuCsEvaluator,
    /// Ring areas `C_1..C_P` (1-based ring `j` at index `j − 1`).
    pub ring_areas: Vec<f64>,
}

impl SharedKernel {
    /// Builds the kernel for a configuration (only the ρ/p-independent
    /// fields are read).
    pub fn build(config: &RingModelConfig) -> Self {
        let geom = RingGeometry::new(config.p, config.r);
        let cs_factor = match config.collision {
            CollisionRule::TransmissionRange => None,
            CollisionRule::CarrierSense { factor } => Some(factor),
        };
        SharedKernel {
            geom,
            tables: GeometryTables::build(config.p, config.r, config.quad_points, cs_factor),
            mu: MuEvaluator::new(config.s, config.mu_mode),
            mu_cs: MuCsEvaluator::new(config.s, config.mu_mode),
            ring_areas: (1..=config.p).map(|j| geom.ring_area(j)).collect(),
        }
    }

    /// Approximate heap footprint of the kernel in bytes: geometry tables
    /// and ring areas.
    pub fn bytes(&self) -> usize {
        self.tables.bytes() + self.ring_areas.capacity() * std::mem::size_of::<f64>()
    }
}

/// The ρ/p-independent fingerprint of a [`RingModelConfig`]: two configs
/// with equal keys can share one [`SharedKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelKey {
    /// Ring count `P`.
    pub p: u32,
    /// Jitter slots `s`.
    pub s: u32,
    /// `r.to_bits()` (bit-exact float identity).
    pub r_bits: u64,
    /// Simpson panels requested.
    pub quad_points: usize,
    /// μ evaluation mode.
    pub mu_mode: MuMode,
    /// Carrier-sense factor bits, `None` for transmission-range collisions.
    pub cs_bits: Option<u64>,
}

impl KernelKey {
    /// The fingerprint of a configuration.
    pub fn of(config: &RingModelConfig) -> Self {
        KernelKey {
            p: config.p,
            s: config.s,
            r_bits: config.r.to_bits(),
            quad_points: config.quad_points,
            mu_mode: config.mu_mode,
            cs_bits: match config.collision {
                CollisionRule::TransmissionRange => None,
                CollisionRule::CarrierSense { factor } => Some(factor.to_bits()),
            },
        }
    }
}

/// Interning cache of [`SharedKernel`]s keyed by [`KernelKey`].
///
/// Read-mostly: after the first sweep over a configuration every lookup is
/// a brief locked probe returning an `Arc` clone. A `BTreeMap` (rather than
/// a hash map) keeps every traversal — `bytes()`, debug dumps — in key
/// order, so cache reports are deterministic across runs. Use
/// [`KernelCache::global`] for the process-wide instance the sweep and
/// experiment pipelines share.
///
/// ```
/// use nss_analysis::prelude::*;
/// use nss_analysis::tables::KernelCache;
///
/// let cache = KernelCache::new();
/// let config = RingModelConfig::paper(80.0, 0.3);
/// let first = cache.get(&config);
/// // Same (p, s, r, quadrature, μ-mode) ⇒ the same interned tables; ρ and
/// // the broadcast probability are *not* part of the key.
/// let again = cache.get(&RingModelConfig::paper(140.0, 0.3));
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// let (hits, misses) = cache.stats();
/// assert_eq!((hits, misses), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct KernelCache {
    map: Mutex<BTreeMap<KernelKey, Arc<SharedKernel>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl KernelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache.
    pub fn global() -> &'static KernelCache {
        static GLOBAL: OnceLock<KernelCache> = OnceLock::new();
        GLOBAL.get_or_init(KernelCache::new)
    }

    /// Returns the interned kernel for `config`, building it on first use.
    ///
    /// The build runs under the map's lock, so concurrent misses on one
    /// key build it once. Metrics are taken only after the guard drops:
    /// an obs macro's first call locks the registry.
    pub fn get(&self, config: &RingModelConfig) -> Arc<SharedKernel> {
        let key = KernelKey::of(config);
        let mut map = self.map.lock();
        if let Some(kernel) = map.get(&key) {
            let kernel = Arc::clone(kernel);
            drop(map);
            self.hits.fetch_add(1, Ordering::Relaxed);
            nss_obs::counter!("analysis.kernel_cache.hit").inc();
            return kernel;
        }
        let kernel = Arc::new(SharedKernel::build(config));
        map.insert(key, Arc::clone(&kernel));
        // Live footprint (counterpart of the cumulative interned_bytes
        // counter), summed while the map is in hand.
        let resident = if nss_obs::enabled() {
            map.values().map(|k| k.bytes()).sum::<usize>()
        } else {
            0
        };
        drop(map);
        self.misses.fetch_add(1, Ordering::Relaxed);
        nss_obs::counter!("analysis.kernel_cache.miss").inc();
        nss_obs::counter!("analysis.kernel_cache.interned_bytes").add(kernel.bytes() as u64);
        nss_obs::gauge!("analysis.kernel_cache.bytes").set(resident as f64);
        kernel
    }

    /// Number of interned kernels.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True if no kernel has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// `(hits, misses)` over the cache's lifetime. Maintained in every
    /// build — the two relaxed atomic adds sit next to a lock acquisition,
    /// so they are free relative to the lookup itself.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Approximate heap footprint of every currently interned kernel.
    pub fn bytes(&self) -> usize {
        self.map.lock().values().map(|k| k.bytes()).sum()
    }

    /// Drops every interned kernel (outstanding `Arc`s stay valid).
    /// Hit/miss statistics are preserved.
    pub fn clear(&self) {
        self.map.lock().clear();
        nss_obs::gauge!("analysis.kernel_cache.bytes").set(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::simpson;

    fn cfg() -> RingModelConfig {
        RingModelConfig::paper(60.0, 0.3)
    }

    #[test]
    fn abscissae_match_simpson_arguments() {
        // Record the exact x values simpson feeds its integrand.
        let seen = std::cell::RefCell::new(Vec::new());
        let _ = simpson(
            |x| {
                seen.borrow_mut().push(x);
                x
            },
            0.0,
            1.0,
            64,
        );
        let seen = seen.into_inner();
        let tables = GeometryTables::build(5, 1.0, 64, None);
        // simpson visits a, b, then interior points; the table stores them
        // sorted. Compare as sets with bitwise equality.
        let mut seen_sorted = seen.clone();
        seen_sorted.sort_by(f64::total_cmp);
        assert_eq!(seen_sorted.len(), tables.abscissae().len());
        for (a, b) in seen_sorted.iter().zip(tables.abscissae()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn odd_quad_points_round_up_like_simpson() {
        let tables = GeometryTables::build(3, 1.0, 33, None);
        assert_eq!(tables.panels(), 34);
        assert_eq!(tables.abscissae().len(), 35);
        let tables = GeometryTables::build(3, 1.0, 0, None);
        assert_eq!(tables.panels(), 2);
    }

    #[test]
    fn table_lookups_equal_direct_geometry_bitwise() {
        let geom = RingGeometry::new(5, 1.0);
        let tables = GeometryTables::build(5, 1.0, 32, Some(2.0));
        for j in 1..=5u32 {
            for k in 1..=5u32 {
                for (i, &x) in tables.abscissae().iter().enumerate() {
                    assert_eq!(
                        tables.a(j, k, i).to_bits(),
                        geom.a_area(j, x, k).to_bits(),
                        "A({j},{x},{k})"
                    );
                    assert_eq!(
                        tables.b(j, k, i).to_bits(),
                        geom.b_area(j, x, k, 2.0).to_bits(),
                        "B({j},{x},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn integrate_replicates_simpson_bitwise() {
        let tables = GeometryTables::build(5, 1.0, 64, None);
        let g = |x: f64| (1.5 + x) * (x * 3.1).sin().abs();
        let via_simpson = simpson(g, 0.0, 1.0, 64);
        let via_tables = tables.integrate(|_, x| g(x));
        assert_eq!(via_simpson.to_bits(), via_tables.to_bits());
    }

    #[test]
    fn mu_memo_matches_evaluator_bitwise() {
        for mode in [MuMode::Interpolate, MuMode::Poisson] {
            let ev = MuEvaluator::new(3, mode);
            let mut memo = MuMemo::new(ev);
            for i in 0..2000 {
                let k = f64::from(i) * 0.071;
                assert_eq!(
                    memo.eval(k).to_bits(),
                    ev.eval(k).to_bits(),
                    "mode {mode:?}, k = {k}"
                );
            }
            // Negative clamp path.
            assert_eq!(memo.eval(-1.0).to_bits(), ev.eval(-1.0).to_bits());
        }
    }

    #[test]
    fn mu_cs_memo_matches_evaluator_bitwise() {
        for mode in [MuMode::Interpolate, MuMode::Poisson] {
            let ev = MuCsEvaluator::new(3, mode);
            let mut memo = MuCsMemo::new(ev);
            for i in 0..60 {
                for j in 0..60 {
                    let k1 = f64::from(i) * 0.37;
                    let k2 = f64::from(j) * 0.53;
                    assert_eq!(
                        memo.eval(k1, k2).to_bits(),
                        ev.eval(k1, k2).to_bits(),
                        "mode {mode:?}, k = ({k1}, {k2})"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_interns_by_fingerprint() {
        let cache = KernelCache::new();
        let a = cache.get(&cfg());
        // ρ and p changes hit the same kernel.
        let mut other = cfg();
        other.rho = 140.0;
        other.prob = 0.9;
        let b = cache.get(&other);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        // quad_points changes miss.
        let mut fine = cfg();
        fine.quad_points = 128;
        let c = cache.get(&fine);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // Carrier sense gets its own kernel with B tables.
        let mut cs = cfg();
        cs.collision = CollisionRule::CARRIER_SENSE_2R;
        let d = cache.get(&cs);
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(d.tables.cs_factor().is_some());
        assert_eq!(cache.len(), 3);
        // So does another slot count, whose μ evaluators differ.
        let e = cache.get(&RingModelConfig { s: 5, ..cfg() });
        assert_eq!(e.mu.slots(), 5);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_introspection_tracks_hits_misses_and_bytes() {
        let cache = KernelCache::new();
        assert_eq!(cache.stats(), (0, 0));
        assert_eq!(cache.bytes(), 0);
        let a = cache.get(&cfg());
        assert_eq!(cache.stats(), (0, 1));
        let _ = cache.get(&cfg());
        let _ = cache.get(&cfg());
        assert_eq!(cache.stats(), (2, 1));
        assert!(cache.bytes() >= a.tables.bytes());
        assert_eq!(cache.bytes(), a.bytes());
        // Clearing drops the kernels but keeps the lifetime statistics.
        cache.clear();
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn memo_stats_reflect_obs_feature() {
        let mut memo = MuMemo::new(MuEvaluator::new(3, MuMode::Interpolate));
        let _ = memo.eval(1.5);
        let _ = memo.eval(1.5);
        let (hits, misses) = memo.stats();
        if nss_obs::enabled() {
            assert_eq!(misses, 2); // lattice points 1 and 2
            assert_eq!(hits, 2); // revisited on the second eval
        } else {
            assert_eq!((hits, misses), (0, 0));
        }
    }

    #[test]
    fn ring_areas_match_geometry() {
        let kernel = SharedKernel::build(&cfg());
        for j in 1..=5u32 {
            assert_eq!(
                kernel.ring_areas[j as usize - 1].to_bits(),
                kernel.geom.ring_area(j).to_bits()
            );
        }
    }

    #[test]
    fn cache_survives_a_build_that_panics_under_the_lock() {
        // Building a kernel for s = 0 panics while `get` holds the map's
        // guard, which poisons the lock; later calls must recover the map.
        let cache = KernelCache::new();
        let bad = RingModelConfig { s: 0, ..cfg() };
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.get(&bad)));
        assert!(built.is_err());
        let _ = cache.get(&RingModelConfig::paper(60.0, 0.2));
        assert_eq!(cache.len(), 1);
    }
}
