//! Simple-flooding analysis and the Fig. 12 success-rate correlation.
//!
//! §6 of the paper defines the *success rate* of a broadcast in simple
//! flooding (CAM, `p = 1`) as the fraction of the sender's neighbors that
//! receive its packet cleanly, and observes that the ratio
//! `p* / success_rate` — with `p*` the latency-constrained optimal
//! probability of Fig. 4(b) — is nearly constant (~11) across densities.
//! That correlation suggests tuning `p` from a locally measurable quantity
//! without knowing the node density (implemented in `nss-core::adaptive`).

use crate::optimize::{Objective, ProbabilitySweep};
use crate::ring_model::{RingModel, RingModelConfig};

/// Average per-broadcast delivery success rate of simple flooding in CAM at
/// density `rho`, per the analytical model.
pub fn flooding_success_rate(base: RingModelConfig) -> f64 {
    let mut cfg = base;
    cfg.prob = 1.0;
    RingModel::new(cfg)
        .with_success_rate_tracking()
        .run()
        .mean_success_rate()
        .unwrap_or(0.0)
}

/// One row of the Fig. 12 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessRateRow {
    /// Node density (expected neighbors per node).
    pub rho: f64,
    /// Flooding per-broadcast success rate at this density.
    pub success_rate: f64,
    /// Latency-constrained optimal broadcast probability (Fig. 4b).
    pub optimal_prob: f64,
    /// `optimal_prob / success_rate` — the paper reports ≈ 11 throughout.
    pub ratio: f64,
}

/// Computes the Fig. 12 series: flooding success rate vs the optimal
/// probability for `MaxReachAtLatency{latency_phases}` over a density range.
pub fn success_rate_correlation(
    base: RingModelConfig,
    rhos: &[f64],
    probs: &[f64],
    latency_phases: f64,
) -> Vec<SuccessRateRow> {
    rhos.iter()
        .map(|&rho| {
            let mut cfg = base;
            cfg.rho = rho;
            let sr = flooding_success_rate(cfg);
            let sweep = ProbabilitySweep::run(cfg, probs);
            let opt = sweep
                .optimum(Objective::MaxReachAtLatency {
                    phases: latency_phases,
                })
                .map_or(0.0, |o| o.prob);
            SuccessRateRow {
                rho,
                success_rate: sr,
                optimal_prob: opt,
                ratio: if sr > 0.0 { opt / sr } else { f64::NAN },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_base() -> RingModelConfig {
        let mut cfg = RingModelConfig::paper(60.0, 1.0);
        cfg.quad_points = 32;
        cfg
    }

    #[test]
    fn success_rate_in_unit_interval_and_falls_with_density() {
        let mut lo_cfg = fast_base();
        lo_cfg.rho = 20.0;
        let mut hi_cfg = fast_base();
        hi_cfg.rho = 140.0;
        let lo = flooding_success_rate(lo_cfg);
        let hi = flooding_success_rate(hi_cfg);
        assert!(lo > 0.0 && lo < 1.0, "sr(20) = {lo}");
        assert!(hi > 0.0 && hi < 1.0, "sr(140) = {hi}");
        assert!(hi < lo, "success rate must fall with density: {hi} !< {lo}");
    }

    #[test]
    fn correlation_rows_well_formed() {
        let probs: Vec<f64> = (1..=20).map(|i| f64::from(i) / 20.0).collect();
        let rows = success_rate_correlation(fast_base(), &[20.0, 80.0], &probs, 5.0);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.success_rate > 0.0 && row.success_rate < 1.0);
            assert!(row.optimal_prob > 0.0 && row.optimal_prob <= 1.0);
            assert!(row.ratio.is_finite() && row.ratio > 0.0);
        }
        // Both curves decrease with density...
        assert!(rows[1].success_rate < rows[0].success_rate);
        assert!(rows[1].optimal_prob <= rows[0].optimal_prob);
    }

    #[test]
    fn ratio_roughly_stable_across_density() {
        // The paper's qualitative claim: the ratio varies far less than
        // either quantity alone. Check the ratio's spread is much smaller
        // than the optimal probability's spread (relative terms).
        let probs: Vec<f64> = (1..=40).map(|i| f64::from(i) / 40.0).collect();
        let rows = success_rate_correlation(fast_base(), &[20.0, 60.0, 100.0, 140.0], &probs, 5.0);
        let ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
        let prob_spread = rows[0].optimal_prob / rows[3].optimal_prob;
        let rmax = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let rmin = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let ratio_spread = rmax / rmin;
        assert!(
            ratio_spread < prob_spread,
            "ratio spread {ratio_spread} should be tighter than p* spread {prob_spread}"
        );
    }
}
