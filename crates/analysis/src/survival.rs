//! Branching-process extinction correction for small broadcast
//! probabilities.
//!
//! The ring recursion (Eq. 4) is a *mean-field* model: it propagates
//! expectations, so its cascades never die. Real PB_CAM executions at
//! small `p` frequently go extinct in the first few phases (every informed
//! node declines to rebroadcast, or all rebroadcasts collide), which is why
//! the paper's analytical energy optima (Fig. 6b: `p* < 0.1`, `M* ≈ 40`)
//! sit below its own simulated ones (Fig. 10b: `p* ≈ 0.1–0.2`, `M* ≈ 80`).
//!
//! This module grafts a Galton–Watson survival estimate onto the ring
//! model:
//!
//! 1. The early cascade is viewed in *transmitter generations*: phase-`i`
//!    transmitters beget phase-`i+1` transmitters with mean offspring
//!    `m_i = B_{i+1} / B_i` (read directly off the mean-field profile's
//!    broadcast series).
//! 2. With Poisson-approximated offspring, a single lineage's extinction
//!    probability solves `q = e^{m (q − 1)}` (the classical fixed point).
//! 3. The cascade starts from `X₀ ~ Binomial(ρ, p)` first-generation
//!    transmitters (ring-1 nodes flipping the coin), so the cascade
//!    survives with probability `1 − (1 − p(1 − q))^ρ`.
//! 4. The adjusted reachability mixes the mean-field prediction (given
//!    survival) with the extinct outcome (only ring `R_1` informed).
//!
//! This is an explicitly approximate refinement — generation-dependent
//! offspring are collapsed to the early-phase mean — but it moves the
//! analytical energy-side predictions toward the simulated truth (see the
//! `ext-survival` experiment).

use crate::ring_model::RingProfile;

/// Survival analysis of one analytical execution profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalEstimate {
    /// Early-phase mean offspring per transmitter (`m`).
    pub offspring_mean: f64,
    /// Extinction probability of a single transmitter lineage (`q`).
    pub lineage_extinction: f64,
    /// Probability the whole cascade survives the start-up phase.
    pub cascade_survival: f64,
    /// Mean-field final reachability (the uncorrected prediction).
    pub mean_field_reachability: f64,
    /// Extinction-adjusted expected final reachability.
    pub adjusted_reachability: f64,
}

/// Computes the survival estimate for a ring-model profile.
pub fn survival_estimate(profile: &RingProfile) -> SurvivalEstimate {
    let cfg = &profile.config;
    let series = profile.phase_series();
    let mean_field = series.final_reachability();

    // Offspring mean from the earliest well-defined generation ratio:
    // B_3 / B_2 (phase 1 is the deterministic source broadcast). When the
    // cascade is too short to measure, treat it as subcritical.
    let b = &profile.broadcasts_by_phase;
    let offspring_mean = if b.len() >= 3 && b[1] > 1e-12 {
        b[2] / b[1]
    } else {
        0.0
    };

    let lineage_extinction = poisson_extinction(offspring_mean);
    // X0 ~ Binomial(rho, p): each of the ~rho ring-1 nodes independently
    // becomes a gen-1 transmitter with probability p; the cascade dies iff
    // every started lineage dies.
    let per_node_survival = cfg.prob * (1.0 - lineage_extinction);
    let cascade_survival = 1.0 - (1.0 - per_node_survival).powf(cfg.rho);

    // Extinct outcome: ring R_1 (informed by the collision-free source
    // broadcast) plus the source — rho + 1 of N nodes.
    let extinct_reach = ((cfg.rho + 1.0) / cfg.n_total()).min(1.0);
    let adjusted = cascade_survival * mean_field + (1.0 - cascade_survival) * extinct_reach;

    SurvivalEstimate {
        offspring_mean,
        lineage_extinction,
        cascade_survival,
        mean_field_reachability: mean_field,
        adjusted_reachability: adjusted,
    }
}

/// Extinction probability of a Galton–Watson process with Poisson(`m`)
/// offspring: the smallest root of `q = e^{m(q−1)}`.
///
/// Subcritical or critical (`m ≤ 1`) processes die almost surely.
pub fn poisson_extinction(m: f64) -> f64 {
    if m.is_nan() || m <= 1.0 {
        return 1.0;
    }
    // Fixed-point iteration from 0 converges monotonically to the smallest
    // root for supercritical processes.
    let mut q = 0.0f64;
    for _ in 0..200 {
        let next = (m * (q - 1.0)).exp();
        if (next - q).abs() < 1e-14 {
            return next;
        }
        q = next;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_model::{RingModel, RingModelConfig};

    fn estimate(rho: f64, prob: f64) -> SurvivalEstimate {
        let mut cfg = RingModelConfig::paper(rho, prob);
        cfg.quad_points = 32;
        survival_estimate(&RingModel::new(cfg).run())
    }

    #[test]
    fn poisson_extinction_known_values() {
        // Subcritical/critical → certain extinction.
        assert_eq!(poisson_extinction(0.5), 1.0);
        assert_eq!(poisson_extinction(1.0), 1.0);
        assert_eq!(poisson_extinction(0.0), 1.0);
        // m = 2: q = e^{2(q-1)} → q ≈ 0.2032.
        let q = poisson_extinction(2.0);
        assert!(
            (q - (2.0 * (q - 1.0)).exp()).abs() < 1e-12,
            "not a fixed point"
        );
        assert!((q - 0.2032).abs() < 1e-3, "q(2) = {q}");
        // Extinction falls toward 0 as m grows.
        assert!(poisson_extinction(5.0) < 0.01);
        let mut prev = 1.0;
        for m in [1.1, 1.5, 2.0, 3.0, 6.0] {
            let q = poisson_extinction(m);
            assert!(q < prev, "extinction must fall with m");
            prev = q;
        }
    }

    #[test]
    fn survival_low_at_tiny_p_high_at_moderate_p() {
        let tiny = estimate(80.0, 0.02);
        let moderate = estimate(80.0, 0.3);
        assert!(
            tiny.cascade_survival < 0.9,
            "p=0.02 cascades should often die: survival {}",
            tiny.cascade_survival
        );
        assert!(
            moderate.cascade_survival > 0.95,
            "p=0.3 cascades should almost surely survive: {}",
            moderate.cascade_survival
        );
        assert!(tiny.cascade_survival < moderate.cascade_survival);
    }

    #[test]
    fn adjustment_only_reduces_reachability() {
        for &(rho, p) in &[(40.0, 0.02), (40.0, 0.1), (80.0, 0.05), (140.0, 0.02)] {
            let e = estimate(rho, p);
            assert!(
                e.adjusted_reachability <= e.mean_field_reachability + 1e-12,
                "rho={rho}, p={p}: adjusted {} > mean-field {}",
                e.adjusted_reachability,
                e.mean_field_reachability
            );
            assert!((0.0..=1.0).contains(&e.adjusted_reachability));
        }
    }

    #[test]
    fn adjustment_negligible_at_flooding() {
        let e = estimate(60.0, 1.0);
        assert!(
            (e.adjusted_reachability - e.mean_field_reachability).abs() < 0.02,
            "flooding shouldn't be extinction-limited: {} vs {}",
            e.adjusted_reachability,
            e.mean_field_reachability
        );
    }

    #[test]
    fn zero_probability_certain_extinction() {
        let e = estimate(60.0, 0.0);
        assert_eq!(e.cascade_survival, 0.0);
        // Adjusted = extinct outcome = (rho+1)/N.
        let expect = 61.0 / 1500.0;
        assert!((e.adjusted_reachability - expect).abs() < 1e-9);
    }

    // The simulation cross-check (the correction lands closer to the
    // measured mean than the raw mean-field value) lives in the workspace
    // integration tests: `tests/analysis_vs_sim.rs`.
}
