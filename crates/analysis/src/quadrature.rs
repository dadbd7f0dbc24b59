//! Numerical integration for the ring recursion (Eq. 4 / Eq. A.3).
//!
//! The integrands are smooth except for kinks where lens configurations
//! change (tangency radii), so composite Simpson with a moderate fixed point
//! count is both fast and accurate.

/// Composite trapezoid rule with `n ≥ 1` panels.
pub fn trapezoid(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    assert!(n >= 1, "need at least one panel");
    if a == b {
        return 0.0;
    }
    let h = (b - a) / n as f64;
    let mut acc = 0.5 * (f(a) + f(b));
    for i in 1..n {
        acc += f(a + i as f64 * h);
    }
    acc * h
}

/// Composite Simpson rule with `n` panels (`n` is rounded up to even).
pub fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    if a == b {
        return 0.0;
    }
    let n = if n.is_multiple_of(2) { n.max(2) } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut acc = f(a) + f(b);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * f(a + i as f64 * h);
    }
    acc * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn trapezoid_linear_exact() {
        // trapezoid is exact on affine functions even with one panel
        let v = trapezoid(|x| 3.0 * x + 1.0, 0.0, 2.0, 1);
        assert!((v - 8.0).abs() < 1e-12);
    }

    #[test]
    fn simpson_cubic_exact() {
        // Simpson is exact on cubics
        let v = simpson(|x| x * x * x - 2.0 * x, -1.0, 3.0, 2);
        let exact = |x: f64| x.powi(4) / 4.0 - x * x;
        assert!((v - (exact(3.0) - exact(-1.0))).abs() < 1e-10);
    }

    #[test]
    fn simpson_odd_panel_count_rounds_up() {
        let v = simpson(|x| x * x, 0.0, 1.0, 3);
        assert!((v - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn simpson_sine() {
        // Composite-Simpson error bound: (b−a)h⁴/180·max|f⁗| ≈ 1e-7 at 64
        // panels; assert within 1e-6.
        let v = simpson(f64::sin, 0.0, PI, 64);
        assert!((v - 2.0).abs() < 1e-6);
        let v = simpson(f64::sin, 0.0, PI, 512);
        assert!((v - 2.0).abs() < 1e-10);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(trapezoid(|x| x, 1.0, 1.0, 4), 0.0);
        assert_eq!(simpson(|x| x, 1.0, 1.0, 4), 0.0);
    }

    #[test]
    fn reversed_interval_is_negative() {
        let fwd = simpson(|x| x * x, 0.0, 2.0, 8);
        let rev = simpson(|x| x * x, 2.0, 0.0, 8);
        assert!((fwd + rev).abs() < 1e-12);
    }

    #[test]
    fn fixed_simpson_converges_on_ring_like_integrand() {
        // Integrand shaped like the ring recursion's: weight · smooth prob.
        let f = |x: f64| (4.0 + x) * (1.0 - (-3.0 * x).exp());
        let coarse = simpson(f, 0.0, 1.0, 32);
        let fine = simpson(f, 0.0, 1.0, 1024);
        // O(h⁴) error at 32 panels for this integrand is ~1e-6.
        assert!((coarse - fine).abs() < 1e-5);
    }
}
