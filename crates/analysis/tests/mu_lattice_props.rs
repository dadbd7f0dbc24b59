//! The sweep's μ and μ′ lattices against the interpolating evaluators.
//!
//! [`MuMemo::eval_into`] and [`MuCsMemo::eval_into`] split each contender
//! count with the cast floor `k as u64` and always interpolate towards
//! `⌊k⌋ + 1`, where the evaluators take `floor`, `ceil` and return early on
//! an integral `k`. These properties pin the two bit for bit over the
//! inputs where they could part: integers, the float just below an
//! integer, `[0, 1)`, negatives and NaN, on fresh lattices and on one
//! lattice reused across cases, as a sweep reuses it.

use nss_analysis::mu::{MuEvaluator, MuMode};
use nss_analysis::mu_cs::MuCsEvaluator;
use nss_analysis::tables::{MuCsMemo, MuMemo};
use proptest::collection::vec;
use proptest::prelude::*;

/// Maps a drawn `(kind, x)` with `x ∈ [0, 10⁴)` to one input class.
fn contenders(kind: u32, x: f64) -> f64 {
    match kind {
        0 => x,
        1 => x.floor(),
        // The float just below an integer ≥ 1.
        2 => f64::from_bits((x.floor() + 1.0).to_bits() - 1),
        3 => x / 1e4,
        4 => -x,
        _ => f64::NAN,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mu_slice_path_equals_the_evaluator_bitwise(
        cases in vec(vec((0u32..6, 0.0f64..1e4), 1..80), 1..6),
        s in 1u32..6,
    ) {
        let ev = MuEvaluator::new(s, MuMode::Interpolate);
        let mut shared = MuMemo::new(ev);
        for case in &cases {
            let ks: Vec<f64> = case.iter().map(|&(kind, x)| contenders(kind, x)).collect();
            let mut out = vec![0.0; ks.len()];
            shared.eval_into(&ks, &mut out);
            let mut fresh_out = vec![0.0; ks.len()];
            MuMemo::new(ev).eval_into(&ks, &mut fresh_out);
            for ((&k, &got), &fresh) in ks.iter().zip(&out).zip(&fresh_out) {
                let want = ev.eval(k);
                prop_assert!(got.to_bits() == want.to_bits(), "k = {k}: {got} vs {want}");
                prop_assert!(fresh.to_bits() == want.to_bits(), "k = {k}: {fresh} vs {want}");
            }
        }
    }

    #[test]
    fn mu_cs_slice_path_equals_the_evaluator_bitwise(
        cases in vec((vec(((0u32..6, 0.0f64..1e4), (0u32..6, 0.0f64..1e4)), 1..40), 0u32..2), 1..5),
        s in 1u32..5,
    ) {
        let ev = MuCsEvaluator::new(s, MuMode::Interpolate);
        let mut shared = MuCsMemo::new(ev);
        for (case, small) in &cases {
            // Small cases stay inside the dense rectangle; the others reach
            // past its cap, where points are computed on the spot.
            let scale = if *small == 1 { 1e-2 } else { 1.0 };
            let k = |(kind, x): (u32, f64)| contenders(kind, x * scale);
            let k1s: Vec<f64> = case.iter().map(|&(a, _)| k(a)).collect();
            let k2s: Vec<f64> = case.iter().map(|&(_, b)| k(b)).collect();
            let mut out = vec![0.0; case.len()];
            shared.eval_into(&k1s, &k2s, &mut out);
            for ((&k1, &k2), &got) in k1s.iter().zip(&k2s).zip(&out) {
                let want = ev.eval(k1, k2);
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "k = ({k1}, {k2}): {got} vs {want}"
                );
            }
        }
    }
}
