//! Density-aware CFM cost functions — the refinement the paper's §6
//! proposes as future work.
//!
//! CFM's fixed per-packet costs `t_f, e_f` hide the contention resolution
//! a real substrate must perform, which is why CFM predictions diverge
//! from CAM reality as density grows. The paper suggests a middle ground:
//! *keep CFM's reliable-broadcast programming model but make its cost
//! functions density-dependent*, charging each "atomic" transmission the
//! expected number of physical attempts.
//!
//! With `sr(ρ)` the per-broadcast delivery success rate of the underlying
//! CAM channel (computable from the flooding analysis, Fig. 12), a
//! reliable transmission costs a geometric number of attempts with mean
//! `1 / sr(ρ)`, so:
//!
//! `t_f(ρ) = t_a / sr(ρ)`, `e_f(ρ) = e_a / sr(ρ)`.
//!
//! [`RefinedCfm`] tabulates `sr` over a density range once (each entry is
//! one ring-model run) and interpolates between entries; its
//! `expected_attempts` is the `1 / sr(ρ)` factor.

use crate::flooding::flooding_success_rate;
use crate::ring_model::RingModelConfig;

/// Density-dependent CFM cost model (the paper's §6 proposal).
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedCfm {
    /// `(ρ, sr(ρ))` samples, sorted by ρ.
    table: Vec<(f64, f64)>,
}

impl RefinedCfm {
    /// Calibrates the success-rate table by running the flooding analysis
    /// at each density in `rhos` (must be non-empty; sorted internally).
    pub fn calibrate(base: RingModelConfig, rhos: &[f64]) -> Self {
        assert!(!rhos.is_empty(), "need at least one calibration density");
        let mut table: Vec<(f64, f64)> = rhos
            .iter()
            .map(|&rho| {
                let mut cfg = base;
                cfg.rho = rho;
                (rho, flooding_success_rate(cfg))
            })
            .collect();
        table.sort_by(|a, b| a.0.total_cmp(&b.0));
        RefinedCfm { table }
    }

    /// Builds the model from explicit `(ρ, sr)` samples (e.g. measured
    /// rather than analytical rates).
    pub fn from_samples(mut samples: Vec<(f64, f64)>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(
            samples
                .iter()
                .all(|&(r, s)| r > 0.0 && (0.0..=1.0).contains(&s)),
            "samples must have positive rho and sr in [0,1]"
        );
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        RefinedCfm { table: samples }
    }

    /// The calibration table.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.table
    }

    /// Interpolated per-broadcast success rate at density `ρ` (clamped to
    /// the calibrated range).
    pub fn success_rate(&self, rho: f64) -> f64 {
        let t = &self.table;
        if rho <= t[0].0 {
            return t[0].1;
        }
        if rho >= t[t.len() - 1].0 {
            return t[t.len() - 1].1;
        }
        let i = t.partition_point(|&(r, _)| r < rho);
        let (r0, s0) = t[i - 1];
        let (r1, s1) = t[i];
        s0 + (rho - r0) / (r1 - r0) * (s1 - s0)
    }

    /// Expected physical attempts per reliable transmission at density `ρ`
    /// (geometric retry model).
    pub fn expected_attempts(&self, rho: f64) -> f64 {
        let sr = self.success_rate(rho);
        if sr <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / sr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrated() -> RefinedCfm {
        let mut base = RingModelConfig::paper(60.0, 1.0);
        base.quad_points = 32;
        RefinedCfm::calibrate(base, &[20.0, 60.0, 100.0, 140.0])
    }

    #[test]
    fn attempts_grow_with_density() {
        let model = calibrated();
        let mut prev = 0.0;
        for rho in [20.0, 60.0, 100.0, 140.0] {
            let attempts = model.expected_attempts(rho);
            assert!(attempts >= 1.0, "at least one attempt");
            assert!(
                attempts > prev,
                "retransmissions must grow with density: {attempts} at rho={rho}"
            );
            prev = attempts;
        }
    }

    #[test]
    fn interpolation_behaviour() {
        let model = RefinedCfm::from_samples(vec![(20.0, 0.4), (100.0, 0.1)]);
        // Endpoints exact, clamped beyond.
        assert_eq!(model.success_rate(20.0), 0.4);
        assert_eq!(model.success_rate(100.0), 0.1);
        assert_eq!(model.success_rate(5.0), 0.4);
        assert_eq!(model.success_rate(500.0), 0.1);
        // Midpoint linear.
        assert!((model.success_rate(60.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_success_rate_is_infinite_cost() {
        let model = RefinedCfm::from_samples(vec![(50.0, 0.0)]);
        assert!(model.expected_attempts(50.0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        let _ = RefinedCfm::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "sr in [0,1]")]
    fn invalid_samples_rejected() {
        let _ = RefinedCfm::from_samples(vec![(10.0, 1.5)]);
    }
}
