//! The slot-contention success probability `μ(K, s)` (Eq. 2 of the paper).
//!
//! `μ(K, s)` is the probability that, when `K` identical items are dropped
//! uniformly at random into `s` identical buckets, at least one bucket holds
//! exactly one item. In protocol terms: `K` informed neighbors each pick one
//! of `s` jitter slots; the tagged receiver gets at least one collision-free
//! packet iff some slot carries exactly one transmission.
//!
//! Two independent implementations are provided:
//!
//! 1. [`MuTable`] — the paper's recursion (Eq. 2), conditioning on the
//!    number of items in the first bucket, evaluated by dynamic programming.
//! 2. [`mu_closed_form`] — an inclusion–exclusion formula over the set of
//!    "good" buckets, derived independently:
//!    `μ(K,s) = Σ_{t=1}^{min(s,K)} (−1)^{t+1} C(s,t) (K)_t s^{−t} ((s−t)/s)^{K−t}`.
//!
//! They agree to ~1e-12 (see tests), which validates both; the closed form
//! is used in hot paths because it is O(s) per evaluation with no state.
//!
//! The paper plugs the *expected* contender count `g(x)·p` — a real number —
//! into the integer-argument `μ`. [`MuEvaluator`] supports the paper's
//! implicit choice (linear interpolation between integer lattice points) and
//! a principled alternative (Poisson mixture over the contender count),
//! selectable via [`MuMode`].

use crate::combinatorics::{falling_factorial, poisson_pmf, BinomialPmf};

/// The paper's recursion (Eq. 2), evaluated by dynamic programming.
///
/// `μ(K, 1) = [K = 1]`; for `s > 1`, condition on the count `i` in the
/// first bucket (binomial with `q = 1/s`):
///
/// * `i = 1` → success outright,
/// * `i = 0` → success iff the remaining `K` items succeed in `s−1` buckets,
/// * `i ≥ 2` → success iff the remaining `K−i` items succeed in `s−1` buckets.
///
/// Each [`MuTable::mu`] call runs the recursion afresh in `O(s·K²)`: the
/// model evaluates μ through [`mu_closed_form`], and this is the
/// independent reference the tests compare it against.
#[derive(Debug)]
pub struct MuTable {
    s: u32,
}

impl MuTable {
    /// Creates a table for `s ≥ 1` slots.
    pub fn new(s: u32) -> Self {
        assert!(s >= 1, "need at least one slot");
        MuTable { s }
    }

    /// `μ(K, s)` by the paper's recursion.
    pub fn mu(&self, k: u64) -> f64 {
        if k < 2 {
            return if k == 1 { 1.0 } else { 0.0 };
        }
        let len = k as usize + 1;
        // s' = 1: μ(k, 1) = [k == 1]
        let mut prev: Vec<f64> = (0..len).map(|i| if i == 1 { 1.0 } else { 0.0 }).collect();
        for sp in 2..=self.s {
            let q = 1.0 / f64::from(sp);
            let mut cur = vec![0.0f64; len];
            cur[1] = 1.0;
            for kk in 2..len {
                let mut acc = 0.0;
                for (i, pi) in BinomialPmf::new(kk as u64, q) {
                    // nss-lint: allow(float-safety) — skip terms whose pmf underflowed to literal 0.0; they contribute nothing
                    if pi == 0.0 {
                        continue;
                    }
                    acc += match i {
                        1 => pi,
                        0 => pi * prev[kk],
                        _ => {
                            let rem = kk - i as usize;
                            if rem == 0 {
                                0.0
                            } else {
                                pi * prev[rem]
                            }
                        }
                    };
                }
                cur[kk] = acc;
            }
            prev = cur;
        }
        prev[k as usize]
    }
}

/// `μ(K, s)` by inclusion–exclusion over the "exactly-one-item" buckets.
///
/// With `E_b` = "bucket `b` holds exactly one item",
/// `P(∩_{b∈T} E_b) = (K)_t · s^{−t} · ((s−t)/s)^{K−t}` for `|T| = t`, so
/// `μ = Σ_t (−1)^{t+1} C(s,t) (K)_t s^{−t} ((s−t)/s)^{K−t}`.
///
/// ```
/// use nss_analysis::mu::mu_closed_form;
///
/// assert_eq!(mu_closed_form(1, 3), 1.0);               // lone sender wins
/// assert!((mu_closed_form(2, 3) - 2.0 / 3.0) < 1e-12); // 2 senders, 3 slots
/// assert!(mu_closed_form(50, 3) < 1e-6);               // congestion collapse
/// ```
pub fn mu_closed_form(k: u64, s: u32) -> f64 {
    assert!(s >= 1);
    if k == 0 {
        return 0.0;
    }
    let sf = f64::from(s);
    let tmax = (s as u64).min(k);
    let mut acc = 0.0f64;
    let mut binom_st = 1.0f64; // C(s, t), updated iteratively
    for t in 1..=tmax {
        binom_st *= (f64::from(s) - (t - 1) as f64) / t as f64;
        let base = (sf - t as f64) / sf;
        // 0^0 = 1 (t = s and K = t); 0^positive = 0.
        // nss-lint: allow(float-safety) — base = (s−t)/s is exactly 0.0 iff t = s; the 0^0 lattice case below needs the exact branch
        let pow = if base == 0.0 {
            if k == t {
                1.0
            } else {
                0.0
            }
        } else {
            base.powf((k - t) as f64)
        };
        let term = binom_st * falling_factorial(k, t) * sf.powi(-(t as i32)) * pow;
        if t % 2 == 1 {
            acc += term;
        } else {
            acc -= term;
        }
    }
    acc.clamp(0.0, 1.0)
}

/// How to evaluate `μ` at a *real-valued* expected contender count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum MuMode {
    /// Linear interpolation between the integer lattice points — the
    /// paper's (implicit) choice; `μ(k) = k` for `k ∈ [0, 1]`.
    #[default]
    Interpolate,
    /// Poisson mixture: `E_{N ~ Poisson(k)}[μ(N, s)]`, treating the
    /// contender count as a Poisson random variable with the given mean —
    /// consistent with the spatial-Poisson view of the deployment.
    Poisson,
}

/// Evaluator of `μ(k, s)` for real `k ≥ 0` under a chosen [`MuMode`].
///
/// Cheap to construct; all evaluation is stateless (closed form), so the
/// evaluator is `Copy` and trivially shareable across threads.
#[derive(Debug, Clone, Copy)]
pub struct MuEvaluator {
    s: u32,
    mode: MuMode,
}

impl MuEvaluator {
    /// Creates an evaluator for `s` slots in the given mode.
    pub fn new(s: u32, mode: MuMode) -> Self {
        assert!(s >= 1, "need at least one slot");
        MuEvaluator { s, mode }
    }

    /// The slot count.
    pub fn slots(&self) -> u32 {
        self.s
    }

    /// The real-`k` evaluation mode.
    pub fn mode(&self) -> MuMode {
        self.mode
    }

    /// `μ(k, s)` for real `k ≥ 0` (negative inputs are clamped to 0).
    pub fn eval(&self, k: f64) -> f64 {
        let k = k.max(0.0);
        match self.mode {
            MuMode::Interpolate => {
                let lo = k.floor();
                let hi = k.ceil();
                let mu_lo = mu_closed_form(lo as u64, self.s);
                if lo == hi {
                    return mu_lo;
                }
                let mu_hi = mu_closed_form(hi as u64, self.s);
                mu_lo + (k - lo) * (mu_hi - mu_lo)
            }
            MuMode::Poisson => poisson_pmf(k, 1e-12)
                .into_iter()
                .map(|(n, p)| p * mu_closed_form(n, self.s))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force μ(K, s) by enumerating all s^K assignments.
    fn mu_brute(k: u32, s: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let total = (s as u64).pow(k);
        let mut good = 0u64;
        for code in 0..total {
            let mut counts = vec![0u32; s as usize];
            let mut c = code;
            for _ in 0..k {
                counts[(c % s as u64) as usize] += 1;
                c /= s as u64;
            }
            if counts.contains(&1) {
                good += 1;
            }
        }
        good as f64 / total as f64
    }

    #[test]
    fn recursion_matches_brute_force() {
        for s in 1..=4u32 {
            let table = MuTable::new(s);
            for k in 0..=9u64 {
                if (s as u64).pow(k as u32) > 300_000 {
                    continue;
                }
                let expect = mu_brute(k as u32, s);
                let got = table.mu(k);
                assert!(
                    (got - expect).abs() < 1e-12,
                    "μ({k},{s}): recursion {got} vs brute {expect}"
                );
            }
        }
    }

    #[test]
    fn closed_form_matches_recursion() {
        for s in 1..=6u32 {
            let table = MuTable::new(s);
            for k in 0..=200u64 {
                let a = table.mu(k);
                let b = mu_closed_form(k, s);
                assert!(
                    (a - b).abs() < 1e-10,
                    "μ({k},{s}): recursion {a} vs closed {b}"
                );
            }
        }
    }

    #[test]
    fn known_values() {
        // μ(1, s) = 1 for all s.
        for s in 1..=8 {
            assert_eq!(mu_closed_form(1, s), 1.0);
        }
        // μ(K, 1) = [K == 1].
        assert_eq!(mu_closed_form(2, 1), 0.0);
        assert_eq!(mu_closed_form(5, 1), 0.0);
        // μ(2, 2) = 1/2 (the (1,1) split of 4 equally likely outcomes ×2).
        assert!((mu_closed_form(2, 2) - 0.5).abs() < 1e-12);
        // μ(2, 3): P(two different buckets) = 2/3.
        assert!((mu_closed_form(2, 3) - 2.0 / 3.0).abs() < 1e-12);
        // μ(3, 3): 1 − P(no singleton) = 1 − P(all same)= 1 − 3/27 ... plus
        // (2,1,0)-type has a singleton; (3,0,0) doesn't. P = 1 − 3/27 − ...
        // brute force cross-check is authoritative:
        assert!((mu_closed_form(3, 3) - mu_brute(3, 3)).abs() < 1e-12);
    }

    #[test]
    fn mu_decays_for_large_k() {
        // With many contenders every slot collides: μ → 0.
        let table = MuTable::new(3);
        assert!(table.mu(50) < 1e-6);
        assert!(mu_closed_form(500, 3) < 1e-60);
        // μ is NOT monotone near the origin (μ(2,3)=2/3 < μ(3,3)=8/9), but
        // decays monotonically once contention dominates (K ≳ 2s).
        let mut prev = mu_closed_form(6, 3);
        for k in 7..60 {
            let v = mu_closed_form(k, 3);
            assert!(
                v <= prev + 1e-12,
                "μ({k},3) = {v} > μ({},3) = {prev}",
                k - 1
            );
            prev = v;
        }
        // The non-monotone bump near the origin, pinned exactly.
        assert!((mu_closed_form(2, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert!((mu_closed_form(3, 3) - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn more_slots_help() {
        for k in 2..40u64 {
            let a = mu_closed_form(k, 2);
            let b = mu_closed_form(k, 4);
            let c = mu_closed_form(k, 8);
            assert!(a <= b + 1e-12 && b <= c + 1e-12, "k={k}: {a} {b} {c}");
        }
    }

    #[test]
    fn table_extension_is_consistent() {
        // Query in increasing order, then verify against a fresh big table.
        let lazy = MuTable::new(3);
        let small: Vec<f64> = (0..10).map(|k| lazy.mu(k)).collect();
        let _ = lazy.mu(300); // force extension
        for (k, &v) in small.iter().enumerate() {
            assert_eq!(lazy.mu(k as u64), v, "value changed after extension");
        }
    }

    #[test]
    fn evaluator_interpolation() {
        let ev = MuEvaluator::new(3, MuMode::Interpolate);
        // k in [0,1] is linear: μ(0)=0, μ(1)=1.
        assert!((ev.eval(0.25) - 0.25).abs() < 1e-12);
        assert_eq!(ev.eval(0.0), 0.0);
        assert_eq!(ev.eval(1.0), 1.0);
        assert_eq!(ev.eval(-3.0), 0.0);
        // Integer points equal the exact values.
        for k in 0..20u64 {
            assert!((ev.eval(k as f64) - mu_closed_form(k, 3)).abs() < 1e-12);
        }
        // Midpoint is the average of neighbors.
        let mid = ev.eval(4.5);
        let avg = 0.5 * (mu_closed_form(4, 3) + mu_closed_form(5, 3));
        assert!((mid - avg).abs() < 1e-12);
    }

    #[test]
    fn evaluator_poisson_mixture() {
        let ev = MuEvaluator::new(3, MuMode::Poisson);
        // λ = 0 → no contenders → 0.
        assert_eq!(ev.eval(0.0), 0.0);
        // For small λ, μ ≈ P(N=1) = λe^{−λ}, plus tiny N≥2 contributions.
        let v = ev.eval(0.01);
        assert!((v - 0.01 * (-0.01f64).exp()).abs() < 1e-4);
        // Mixture of values in [0,1] stays in [0,1].
        for lam in [0.1, 1.0, 3.0, 10.0, 80.0] {
            let v = ev.eval(lam);
            assert!((0.0..=1.0).contains(&v), "λ={lam}: {v}");
        }
        // Monte-Carlo cross-check at λ = 4.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(8);
        let trials = 200_000;
        let mut succ = 0u32;
        for _ in 0..trials {
            // Sample N ~ Poisson(4) by Knuth.
            let l = (-4.0f64).exp();
            let mut n = 0u32;
            let mut p = 1.0;
            loop {
                p *= rng.random::<f64>();
                if p <= l {
                    break;
                }
                n += 1;
            }
            let mut slots = [0u32; 3];
            for _ in 0..n {
                slots[rng.random_range(0..3)] += 1;
            }
            if slots.contains(&1) {
                succ += 1;
            }
        }
        let mc = f64::from(succ) / f64::from(trials);
        let anal = ev.eval(4.0);
        assert!((mc - anal).abs() < 0.005, "MC {mc} vs analytic {anal}");
    }

    #[test]
    fn modes_agree_at_low_density_disagree_at_peak() {
        // Both modes agree at k=0 and for huge k (both → 0); they differ
        // most around k ≈ 1-3 where μ is near its peak.
        let li = MuEvaluator::new(3, MuMode::Interpolate);
        let po = MuEvaluator::new(3, MuMode::Poisson);
        assert!((li.eval(0.0) - po.eval(0.0)).abs() < 1e-12);
        assert!(li.eval(100.0) < 1e-8 && po.eval(100.0) < 1e-4);
        let d = (li.eval(1.0) - po.eval(1.0)).abs();
        assert!(d > 0.05, "expected visible modelling difference, got {d}");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = MuEvaluator::new(0, MuMode::Interpolate);
    }
}
