//! Carrier-sense contention probability `μ'(K1, K2, s)` (Eq. A.1).
//!
//! Appendix A of the paper extends the collision model with a carrier-sense
//! range: a reception at `v` succeeds only if its slot carries exactly one
//! transmission from `v`'s *transmission* range (type-A items, `K1` of them)
//! and **zero** transmissions from the carrier-sense annulus (type-B items,
//! `K2` of them). `μ'(K1, K2, s)` is the probability that at least one of
//! the `s` slots is "good" in this sense.
//!
//! As with [`crate::mu`], we implement the paper's recursion (for
//! validation) and an independently derived inclusion–exclusion closed form
//! used in hot paths:
//!
//! `μ'(K1,K2,s) = Σ_{t=1}^{min(s,K1)} (−1)^{t+1} C(s,t) (K1)_t s^{−t}
//!               ((s−t)/s)^{K1−t+K2}`
//!
//! (type-B items must avoid all `t` tagged slots, contributing the extra
//! `((s−t)/s)^{K2}` factor; setting `K2 = 0` recovers `μ`).
//!
//! For Poisson-distributed contender counts the formula collapses further
//! via the factorial-moment identity `E[(N)_t z^{N−t}] = λ^t e^{λ(z−1)}`:
//!
//! `μ'_Poisson(λ1,λ2,s) = Σ_t (−1)^{t+1} C(s,t) (λ1/s)^t
//!                        e^{−(λ1+λ2)·t/s}`.

use crate::combinatorics::{falling_factorial, BinomialPmf};
use crate::mu::MuMode;
use std::collections::HashMap;

/// `μ'(K1, K2, s)` by the paper's recursion (Eq. A.1), memoized.
///
/// Exponential-state DP intended for validation at small arguments; use
/// [`mu_cs_closed_form`] in production paths.
#[derive(Debug, Default)]
pub struct MuCsTable {
    memo: HashMap<(u64, u64, u32), f64>,
}

impl MuCsTable {
    /// Creates an empty memo table.
    pub fn new() -> Self {
        Self::default()
    }

    /// `μ'(K1, K2, s)` by recursion on the first bucket's contents.
    pub fn mu_cs(&mut self, k1: u64, k2: u64, s: u32) -> f64 {
        assert!(s >= 1);
        if k1 == 0 {
            return 0.0;
        }
        if s == 1 {
            return if k1 == 1 && k2 == 0 { 1.0 } else { 0.0 };
        }
        if k1 == 1 && k2 == 0 {
            return 1.0;
        }
        if let Some(&v) = self.memo.get(&(k1, k2, s)) {
            return v;
        }
        let q = 1.0 / f64::from(s);
        // Joint distribution of (i type-A, j type-B) in the first bucket:
        // independent binomials.
        let pa: Vec<(u64, f64)> = BinomialPmf::new(k1, q).collect();
        let pb: Vec<(u64, f64)> = BinomialPmf::new(k2, q).collect();
        let mut acc = 0.0;
        for &(i, pi) in &pa {
            // nss-lint: allow(float-safety) — skip terms whose pmf underflowed to literal 0.0
            if pi == 0.0 {
                continue;
            }
            for &(j, pj) in &pb {
                let p = pi * pj;
                // nss-lint: allow(float-safety) — exact zero product of underflowed pmfs contributes nothing
                if p == 0.0 {
                    continue;
                }
                if i == 1 && j == 0 {
                    acc += p;
                } else {
                    let r1 = k1 - i;
                    if r1 == 0 {
                        continue; // no type-A left → failure
                    }
                    acc += p * self.mu_cs(r1, k2 - j, s - 1);
                }
            }
        }
        self.memo.insert((k1, k2, s), acc);
        acc
    }
}

/// `μ'(K1, K2, s)` by inclusion–exclusion (module docs for the derivation).
pub fn mu_cs_closed_form(k1: u64, k2: u64, s: u32) -> f64 {
    assert!(s >= 1);
    if k1 == 0 {
        return 0.0;
    }
    let sf = f64::from(s);
    let tmax = (s as u64).min(k1);
    let mut acc = 0.0f64;
    let mut binom_st = 1.0f64;
    for t in 1..=tmax {
        binom_st *= (sf - (t - 1) as f64) / t as f64;
        let base = (sf - t as f64) / sf;
        let expo = (k1 - t + k2) as f64;
        // nss-lint: allow(float-safety) — base is exactly 0.0 iff t = s; an exact 0^0 lattice branch
        let pow = if base == 0.0 {
            // nss-lint: allow(float-safety) — expo is an integer-valued cast of k1 − t + k2, so exact zero is the K = t case
            if expo == 0.0 {
                1.0
            } else {
                0.0
            }
        } else {
            base.powf(expo)
        };
        let term = binom_st * falling_factorial(k1, t) * sf.powi(-(t as i32)) * pow;
        if t % 2 == 1 {
            acc += term;
        } else {
            acc -= term;
        }
    }
    acc.clamp(0.0, 1.0)
}

/// Analytic Poisson-mixture form: contender counts `N1 ~ Poisson(λ1)`,
/// `N2 ~ Poisson(λ2)` independent.
pub fn mu_cs_poisson(lambda1: f64, lambda2: f64, s: u32) -> f64 {
    assert!(s >= 1);
    let l1 = lambda1.max(0.0);
    let l2 = lambda2.max(0.0);
    // nss-lint: allow(float-safety) — exact zero after `.max(0.0)` clamping: no senders at all
    if l1 == 0.0 {
        return 0.0;
    }
    let sf = f64::from(s);
    let mut acc = 0.0f64;
    let mut binom_st = 1.0f64;
    for t in 1..=s as u64 {
        binom_st *= (sf - (t - 1) as f64) / t as f64;
        let term = binom_st * (l1 / sf).powf(t as f64) * (-(l1 + l2) * t as f64 / sf).exp();
        if t % 2 == 1 {
            acc += term;
        } else {
            acc -= term;
        }
    }
    acc.clamp(0.0, 1.0)
}

/// Evaluator of `μ'` at real-valued expected contender counts.
#[derive(Debug, Clone, Copy)]
pub struct MuCsEvaluator {
    s: u32,
    mode: MuMode,
}

impl MuCsEvaluator {
    /// Creates an evaluator for `s` slots in the given mode.
    pub fn new(s: u32, mode: MuMode) -> Self {
        assert!(s >= 1, "need at least one slot");
        MuCsEvaluator { s, mode }
    }

    /// The slot count.
    pub fn slots(&self) -> u32 {
        self.s
    }

    /// The real-`k` evaluation mode.
    pub fn mode(&self) -> MuMode {
        self.mode
    }

    /// `μ'(k1, k2, s)` for real `k1, k2 ≥ 0`.
    ///
    /// In [`MuMode::Interpolate`] this is bilinear interpolation on the
    /// integer lattice (reducing to the paper's 1-D interpolation when
    /// either argument is integral); in [`MuMode::Poisson`] it is the exact
    /// analytic mixture [`mu_cs_poisson`].
    pub fn eval(&self, k1: f64, k2: f64) -> f64 {
        let k1 = k1.max(0.0);
        let k2 = k2.max(0.0);
        match self.mode {
            MuMode::Poisson => mu_cs_poisson(k1, k2, self.s),
            MuMode::Interpolate => {
                let (a0, a1, fa) = lattice(k1);
                let (b0, b1, fb) = lattice(k2);
                let f00 = mu_cs_closed_form(a0, b0, self.s);
                let f10 = mu_cs_closed_form(a1, b0, self.s);
                let f01 = mu_cs_closed_form(a0, b1, self.s);
                let f11 = mu_cs_closed_form(a1, b1, self.s);
                let fx0 = f00 + fa * (f10 - f00);
                let fx1 = f01 + fa * (f11 - f01);
                fx0 + fb * (fx1 - fx0)
            }
        }
    }
}

/// Splits `x ≥ 0` into its bracketing integer lattice points and the
/// fractional offset: `(⌊x⌋, ⌈x⌉, x − ⌊x⌋)`.
#[inline]
pub(crate) fn lattice(x: f64) -> (u64, u64, f64) {
    let lo = x.floor();
    (lo as u64, x.ceil() as u64, x - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force μ'(K1, K2, s) by enumeration.
    fn mu_cs_brute(k1: u32, k2: u32, s: u32) -> f64 {
        if k1 == 0 {
            return 0.0;
        }
        let total = (s as u64).pow(k1 + k2);
        let mut good = 0u64;
        for code in 0..total {
            let mut a = vec![0u32; s as usize];
            let mut b = vec![0u32; s as usize];
            let mut c = code;
            for t in 0..(k1 + k2) {
                let slot = (c % s as u64) as usize;
                if t < k1 {
                    a[slot] += 1;
                } else {
                    b[slot] += 1;
                }
                c /= s as u64;
            }
            if a.iter().zip(&b).any(|(&ai, &bi)| ai == 1 && bi == 0) {
                good += 1;
            }
        }
        good as f64 / total as f64
    }

    #[test]
    fn recursion_matches_brute_force() {
        let mut table = MuCsTable::new();
        for s in 1..=3u32 {
            for k1 in 0..=4u32 {
                for k2 in 0..=4u32 {
                    if (s as u64).pow(k1 + k2) > 200_000 {
                        continue;
                    }
                    let expect = mu_cs_brute(k1, k2, s);
                    let got = table.mu_cs(u64::from(k1), u64::from(k2), s);
                    assert!(
                        (got - expect).abs() < 1e-12,
                        "μ'({k1},{k2},{s}): recursion {got} vs brute {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_recursion() {
        let mut table = MuCsTable::new();
        for s in 1..=4u32 {
            for k1 in 0..=12u64 {
                for k2 in 0..=12u64 {
                    let a = table.mu_cs(k1, k2, s);
                    let b = mu_cs_closed_form(k1, k2, s);
                    assert!(
                        (a - b).abs() < 1e-11,
                        "μ'({k1},{k2},{s}): recursion {a} vs closed {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn reduces_to_mu_without_carrier_contenders() {
        for s in 1..=5u32 {
            for k1 in 0..=60u64 {
                let a = mu_cs_closed_form(k1, 0, s);
                let b = crate::mu::mu_closed_form(k1, s);
                assert!((a - b).abs() < 1e-12, "K1={k1},s={s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn monotone_decreasing_in_k2() {
        for k1 in 1..=10u64 {
            let mut prev = f64::INFINITY;
            for k2 in 0..=30u64 {
                let v = mu_cs_closed_form(k1, k2, 3);
                assert!(v <= prev + 1e-12, "μ' must decrease in K2");
                prev = v;
            }
        }
    }

    #[test]
    fn carrier_sense_strictly_hurts() {
        // Any carrier contender strictly reduces success probability (when
        // success was possible at all).
        for k1 in 1..=8u64 {
            let with = mu_cs_closed_form(k1, 3, 3);
            let without = mu_cs_closed_form(k1, 0, 3);
            assert!(with < without, "K1={k1}: {with} !< {without}");
        }
    }

    #[test]
    fn known_values() {
        // K1=1, K2=1, s=2: A alone in its slot and B elsewhere: P = 1/2.
        assert!((mu_cs_closed_form(1, 1, 2) - 0.5).abs() < 1e-12);
        // K1=1, K2=0 → certain success.
        assert_eq!(mu_cs_closed_form(1, 0, 7), 1.0);
        // s=1 with any B → failure.
        assert_eq!(mu_cs_closed_form(1, 1, 1), 0.0);
        assert_eq!(mu_cs_closed_form(1, 0, 1), 1.0);
    }

    #[test]
    fn poisson_closed_matches_pmf_mixture() {
        use crate::combinatorics::poisson_pmf;
        for &(l1, l2) in &[(0.5, 0.0), (1.0, 2.0), (3.0, 5.0), (0.2, 10.0)] {
            let analytic = mu_cs_poisson(l1, l2, 3);
            let mut mixed = 0.0;
            for (n1, p1) in poisson_pmf(l1, 1e-13) {
                for &(n2, p2) in &poisson_pmf(l2, 1e-13) {
                    mixed += p1 * p2 * mu_cs_closed_form(n1, n2, 3);
                }
            }
            assert!(
                (analytic - mixed).abs() < 1e-8,
                "λ=({l1},{l2}): analytic {analytic} vs mixture {mixed}"
            );
        }
    }

    #[test]
    fn evaluator_bilinear_consistency() {
        let ev = MuCsEvaluator::new(3, MuMode::Interpolate);
        // Integer lattice points are exact.
        for k1 in 0..6u64 {
            for k2 in 0..6u64 {
                let a = ev.eval(k1 as f64, k2 as f64);
                let b = mu_cs_closed_form(k1, k2, 3);
                assert!((a - b).abs() < 1e-12);
            }
        }
        // 1-D reduction when k2 is integral matches MuEvaluator.
        let mu1d = crate::mu::MuEvaluator::new(3, MuMode::Interpolate);
        for k in [0.3, 1.7, 4.2, 9.9] {
            assert!((ev.eval(k, 0.0) - mu1d.eval(k)).abs() < 1e-12);
        }
        // Bounded.
        for k1 in [0.0, 0.5, 2.5, 8.1] {
            for k2 in [0.0, 0.5, 2.5, 8.1] {
                let v = ev.eval(k1, k2);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn evaluator_poisson_mode() {
        let ev = MuCsEvaluator::new(3, MuMode::Poisson);
        assert_eq!(ev.eval(0.0, 5.0), 0.0);
        let a = ev.eval(2.0, 0.0);
        let b = ev.eval(2.0, 4.0);
        assert!(b < a, "carrier contention must hurt: {b} !< {a}");
    }
}
