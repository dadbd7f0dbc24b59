//! Broadcast performance metrics (§4.1 of the paper).
//!
//! Both the analytical ring model (`nss-analysis`) and the packet-level
//! simulator (`nss-sim`) summarize an execution as a [`PhaseSeries`]:
//! cumulative informed-node and broadcast counts at the end of each time
//! phase. The four non-trivial metrics of §4.1 are then computed here,
//! using the paper's uniform-within-phase interpolation (§4.2.4) so that
//! latency and energy are continuous quantities measured in fractional
//! phases / broadcasts.

use crate::error::ConfigError;

/// Phase-granular summary of one broadcast execution.
///
/// Index `i` of the cumulative vectors corresponds to the end of phase
/// `T_{i+1}`; an implicit origin point (0 informed beyond the source, 0
/// broadcasts) precedes phase 1.
/// ```
/// use nss_model::metrics::PhaseSeries;
///
/// let s = PhaseSeries {
///     n_total: 100.0,
///     informed_cum: vec![10.0, 40.0, 70.0],
///     broadcasts_cum: vec![1.0, 5.0, 17.0],
/// };
/// assert_eq!(s.reachability_at_latency(2.0), 0.4);
/// assert_eq!(s.latency_to_reach(0.25), Some(1.5)); // mid-phase crossing
/// assert_eq!(s.broadcasts_to_reach(0.25), Some(3.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSeries {
    /// Total node count `N` (including the source).
    pub n_total: f64,
    /// Cumulative informed nodes (including the source) at the end of each
    /// phase. Must be non-decreasing.
    pub informed_cum: Vec<f64>,
    /// Cumulative broadcast count at the end of each phase (the source's
    /// initial transmission is phase 1's broadcast). Non-decreasing.
    pub broadcasts_cum: Vec<f64>,
}

impl PhaseSeries {
    /// Validates internal consistency (lengths match, monotone, bounded).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.informed_cum.len() != self.broadcasts_cum.len() {
            return Err(ConfigError::Inconsistent {
                what: "informed/broadcast series lengths differ",
                at: None,
            });
        }
        if self.n_total <= 0.0 {
            return Err(ConfigError::NotPositive {
                field: "n_total",
                value: self.n_total,
            });
        }
        let mut prev = 0.0;
        for (i, &v) in self.informed_cum.iter().enumerate() {
            if v < prev - 1e-9 {
                return Err(ConfigError::Inconsistent {
                    what: "informed_cum decreases at phase",
                    at: Some(i + 1),
                });
            }
            if v > self.n_total * (1.0 + 1e-9) {
                return Err(ConfigError::Inconsistent {
                    what: "informed_cum exceeds n_total at phase",
                    at: Some(i + 1),
                });
            }
            prev = v;
        }
        let mut prev = 0.0;
        for (i, &v) in self.broadcasts_cum.iter().enumerate() {
            if v < prev - 1e-9 {
                return Err(ConfigError::Inconsistent {
                    what: "broadcasts_cum decreases at phase",
                    at: Some(i + 1),
                });
            }
            prev = v;
        }
        Ok(())
    }

    /// Number of recorded phases.
    pub fn phases(&self) -> usize {
        self.informed_cum.len()
    }

    /// Final reachability: informed fraction when the execution terminated.
    pub fn final_reachability(&self) -> f64 {
        self.informed_cum.last().map_or(0.0, |&v| v / self.n_total)
    }

    /// Total broadcasts over the whole execution.
    pub fn total_broadcasts(&self) -> f64 {
        self.broadcasts_cum.last().copied().unwrap_or(0.0)
    }

    /// Informed count at fractional phase time `t ≥ 0` (uniform-within-phase
    /// interpolation; `t = 0` is the start of phase 1).
    pub fn informed_at(&self, t: f64) -> f64 {
        interp_series(&self.informed_cum, t)
    }

    /// Cumulative broadcasts at fractional phase time `t ≥ 0`.
    pub fn broadcasts_at(&self, t: f64) -> f64 {
        interp_series(&self.broadcasts_cum, t)
    }

    /// **Metric 1** — reachability achieved within a latency budget of
    /// `phases` time phases (may be fractional).
    pub fn reachability_at_latency(&self, phases: f64) -> f64 {
        self.informed_at(phases) / self.n_total
    }

    /// **Metric 3** — latency (fractional phases) until reachability first
    /// reaches `target ∈ (0, 1]`; `None` if the execution never gets there.
    pub fn latency_to_reach(&self, target: f64) -> Option<f64> {
        let goal = target * self.n_total;
        inverse_interp(&self.informed_cum, goal)
    }

    /// **Metric 4** — broadcasts expended until reachability first reaches
    /// `target`; `None` if unreachable. Broadcasts are interpolated at the
    /// same fractional phase time as the reachability crossing.
    pub fn broadcasts_to_reach(&self, target: f64) -> Option<f64> {
        self.latency_to_reach(target).map(|t| self.broadcasts_at(t))
    }

    /// **Metric 5** — reachability achieved by the time the cumulative
    /// broadcast count reaches `budget`. If the whole execution uses fewer
    /// broadcasts than `budget`, the final reachability is returned.
    pub fn reachability_under_budget(&self, budget: f64) -> f64 {
        match inverse_interp(&self.broadcasts_cum, budget) {
            Some(t) => self.informed_at(t) / self.n_total,
            None => self.final_reachability(),
        }
    }
}

/// Piecewise-linear interpolation of a cumulative per-phase series at
/// fractional phase time `t`; clamps beyond the recorded range.
fn interp_series(cum: &[f64], t: f64) -> f64 {
    if cum.is_empty() || t <= 0.0 {
        return 0.0;
    }
    let n = cum.len();
    if t >= n as f64 {
        return cum[n - 1];
    }
    let i = t.floor() as usize; // completed phases
    let frac = t - i as f64;
    let base = if i == 0 { 0.0 } else { cum[i - 1] };
    let next = cum[i.min(n - 1)];
    base + frac * (next - base)
}

/// Earliest fractional phase time at which the cumulative series reaches
/// `goal`; `None` if it never does.
fn inverse_interp(cum: &[f64], goal: f64) -> Option<f64> {
    if goal <= 0.0 {
        return Some(0.0);
    }
    let mut base = 0.0f64;
    for (i, &v) in cum.iter().enumerate() {
        if v >= goal - 1e-12 {
            let gain = v - base;
            if gain <= 0.0 {
                return Some(i as f64); // flat segment already at goal
            }
            return Some(i as f64 + ((goal - base) / gain).clamp(0.0, 1.0));
        }
        base = v;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> PhaseSeries {
        PhaseSeries {
            n_total: 100.0,
            informed_cum: vec![10.0, 40.0, 70.0, 80.0, 80.0],
            broadcasts_cum: vec![1.0, 5.0, 17.0, 29.0, 33.0],
        }
    }

    #[test]
    fn validation_accepts_good_series() {
        assert!(series().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_series() {
        let mut s = series();
        s.informed_cum[2] = 5.0;
        assert!(s.validate().is_err());
        let mut s = series();
        s.informed_cum[4] = 200.0;
        assert!(s.validate().is_err());
        let mut s = series();
        s.broadcasts_cum.pop();
        assert!(s.validate().is_err());
        let mut s = series();
        s.n_total = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn reachability_at_integer_latencies() {
        let s = series();
        assert!((s.reachability_at_latency(1.0) - 0.10).abs() < 1e-12);
        assert!((s.reachability_at_latency(3.0) - 0.70).abs() < 1e-12);
        // beyond the recorded horizon → final value
        assert!((s.reachability_at_latency(99.0) - 0.80).abs() < 1e-12);
        assert_eq!(s.reachability_at_latency(0.0), 0.0);
    }

    #[test]
    fn reachability_interpolates_within_phase() {
        let s = series();
        // Halfway through phase 2: 10 + 0.5·30 = 25.
        assert!((s.reachability_at_latency(1.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn latency_inverse_of_reachability() {
        let s = series();
        for target in [0.05, 0.1, 0.25, 0.5, 0.72, 0.8] {
            let t = s.latency_to_reach(target).unwrap();
            let back = s.reachability_at_latency(t);
            assert!(
                (back - target).abs() < 1e-9,
                "target {target}: t={t}, back={back}"
            );
        }
    }

    #[test]
    fn latency_unreachable_target() {
        let s = series();
        assert_eq!(s.latency_to_reach(0.81), None);
        assert_eq!(s.latency_to_reach(1.0), None);
        assert_eq!(s.latency_to_reach(0.0), Some(0.0));
    }

    #[test]
    fn latency_exact_phase_boundaries() {
        let s = series();
        assert!((s.latency_to_reach(0.10).unwrap() - 1.0).abs() < 1e-12);
        assert!((s.latency_to_reach(0.40).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn broadcasts_to_reach_interpolates() {
        let s = series();
        // 25% reached at t = 1.5 → broadcasts = 1 + 0.5·4 = 3.
        let b = s.broadcasts_to_reach(0.25).unwrap();
        assert!((b - 3.0).abs() < 1e-12);
        assert_eq!(s.broadcasts_to_reach(0.9), None);
    }

    #[test]
    fn reachability_under_budget() {
        let s = series();
        // Budget 3 → t = 1.5 → 25 informed.
        assert!((s.reachability_under_budget(3.0) - 0.25).abs() < 1e-12);
        // Budget beyond the run → final reachability.
        assert!((s.reachability_under_budget(1000.0) - 0.8).abs() < 1e-12);
        // Zero budget → nothing.
        assert_eq!(s.reachability_under_budget(0.0), 0.0);
    }

    #[test]
    fn budget_duality_with_broadcast_metric() {
        // reach_under_budget(broadcasts_to_reach(R)) == R (when achievable):
        // the §4.1 duality between metrics 4 and 5.
        let s = series();
        for target in [0.1, 0.3, 0.6, 0.79] {
            let b = s.broadcasts_to_reach(target).unwrap();
            let r = s.reachability_under_budget(b);
            assert!((r - target).abs() < 1e-9, "target {target}: b={b}, r={r}");
        }
    }

    #[test]
    fn flat_segments_handled() {
        let s = PhaseSeries {
            n_total: 10.0,
            informed_cum: vec![5.0, 5.0, 5.0],
            broadcasts_cum: vec![1.0, 1.0, 1.0],
        };
        assert!((s.latency_to_reach(0.5).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(s.latency_to_reach(0.51), None);
        assert!((s.reachability_under_budget(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_series() {
        let s = PhaseSeries {
            n_total: 10.0,
            informed_cum: vec![],
            broadcasts_cum: vec![],
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.final_reachability(), 0.0);
        assert_eq!(s.reachability_at_latency(5.0), 0.0);
        assert_eq!(s.latency_to_reach(0.5), None);
    }
}
