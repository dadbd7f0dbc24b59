//! Parallel (density × probability) parameter sweeps.
//!
//! Every figure of the paper's evaluation is a grid over densities
//! ρ ∈ {20..140} and probabilities p. Each density is one
//! [`ProbabilitySweep`] row, which shares one μ lattice across its
//! probabilities; rows are independent, so this module fans them out with
//! [`nss_model::par::map_indexed`] and reassembles the grid in order.

use crate::optimize::{Objective, ProbabilitySweep};
use crate::ring_model::RingModelConfig;
use nss_model::metrics::PhaseSeries;
use nss_model::par;

/// Results of a full (ρ × p) sweep of the analytical model.
#[derive(Debug, Clone)]
pub struct DensitySweep {
    /// Base configuration (its `rho` and `prob` are overridden per cell).
    pub base: RingModelConfig,
    /// Density axis.
    pub rhos: Vec<f64>,
    /// Probability axis.
    pub probs: Vec<f64>,
    /// `grid[ri][pi]` = phase series at `(rhos[ri], probs[pi])`.
    pub grid: Vec<Vec<PhaseSeries>>,
}

impl DensitySweep {
    /// The paper's density axis: 20, 40, …, 140.
    pub fn paper_rhos() -> Vec<f64> {
        (1..=7).map(|i| f64::from(i) * 20.0).collect()
    }

    /// Runs the sweep on up to `threads` worker threads (0 = available
    /// parallelism), one [`ProbabilitySweep`] row per density. Every cell
    /// shares one interned kernel, and every cell of a row one μ lattice,
    /// so workers only run the phase recursion.
    pub fn run(base: RingModelConfig, rhos: &[f64], probs: &[f64], threads: usize) -> Self {
        let grid = par::map_indexed(rhos.len(), par::workers(threads, rhos.len()), |ri| {
            // Gate the clock reads themselves on the obs feature so
            // uninstrumented builds pay nothing.
            let row_start = nss_obs::enabled().then(std::time::Instant::now);
            let row = ProbabilitySweep::run(
                RingModelConfig {
                    rho: rhos[ri],
                    ..base
                },
                probs,
            );
            if let Some(start) = row_start {
                nss_obs::observe!("analysis.sweep.row_seconds", start.elapsed().as_secs_f64());
                nss_obs::counter!("analysis.sweep.cells").add(probs.len() as u64);
            }
            row.series
        });
        DensitySweep {
            base,
            rhos: rhos.to_vec(),
            probs: probs.to_vec(),
            grid,
        }
    }

    /// Objective values over the grid: `values[ri][pi]`, `None` where the
    /// constraint is infeasible.
    pub fn evaluate(&self, obj: Objective) -> Vec<Vec<Option<f64>>> {
        self.grid
            .iter()
            .map(|row| row.iter().map(|s| obj.evaluate(s)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep(threads: usize) -> DensitySweep {
        let mut base = RingModelConfig::paper(20.0, 0.5);
        base.quad_points = 24;
        let rhos = [20.0, 80.0, 140.0];
        let probs: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
        DensitySweep::run(base, &rhos, &probs, threads)
    }

    #[test]
    fn grid_shape_and_alignment() {
        let s = small_sweep(4);
        assert_eq!(s.grid.len(), 3);
        assert!(s.grid.iter().all(|r| r.len() == 10));
        // n_total scales with rho: first row 20·25=500, last 140·25=3500.
        assert!((s.grid[0][0].n_total - 500.0).abs() < 1e-9);
        assert!((s.grid[2][9].n_total - 3500.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = small_sweep(1);
        let b = small_sweep(4);
        for (ra, rb) in a.grid.iter().zip(&b.grid) {
            for (sa, sb) in ra.iter().zip(rb) {
                assert_eq!(sa.informed_cum, sb.informed_cum);
                assert_eq!(sa.broadcasts_cum, sb.broadcasts_cum);
            }
        }
    }

    #[test]
    fn infeasible_cells_are_none() {
        let s = small_sweep(0);
        let vals = s.evaluate(Objective::MinLatencyForReach { target: 0.999 });
        // Some cell must be infeasible at 99.9% reachability under CAM.
        assert!(vals.iter().flatten().any(|v| v.is_none()));
    }

    #[test]
    fn paper_rhos_axis() {
        assert_eq!(
            DensitySweep::paper_rhos(),
            vec![20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0]
        );
    }
}
