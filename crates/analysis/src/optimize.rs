//! Broadcast-probability optimization against the §4.1 performance metrics.
//!
//! The paper treats the broadcast probability `p` as the tunable algorithm
//! parameter and selects it by sweeping a grid (0.01..1.00 in the analysis)
//! and reading off the argmax/argmin for the metric of interest. This module
//! implements that sweep.

use crate::ring_model::{RingModel, RingModelConfig};
use crate::sharded::CacheWeight;
use crate::tables::{MuCsMemo, MuMemo};
use nss_model::metrics::PhaseSeries;

/// One of the four §4.1 optimization objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Metric 1: maximize reachability within a latency budget (phases).
    MaxReachAtLatency {
        /// Latency budget in (possibly fractional) phases.
        phases: f64,
    },
    /// Metric 3: minimize latency (phases) to a reachability target.
    MinLatencyForReach {
        /// Reachability target in (0, 1].
        target: f64,
    },
    /// Metric 4: minimize broadcasts to a reachability target.
    MinBroadcastsForReach {
        /// Reachability target in (0, 1].
        target: f64,
    },
    /// Metric 5: maximize reachability within a broadcast budget.
    MaxReachUnderBudget {
        /// Broadcast budget (count).
        budget: f64,
    },
}

impl Objective {
    /// True for maximization objectives.
    pub fn is_max(&self) -> bool {
        matches!(
            self,
            Objective::MaxReachAtLatency { .. } | Objective::MaxReachUnderBudget { .. }
        )
    }

    /// Evaluates the objective on one execution summary. `None` means the
    /// execution cannot satisfy the constraint (e.g. never reaches the
    /// target), which the paper renders as a gap in the curve.
    pub fn evaluate(&self, series: &PhaseSeries) -> Option<f64> {
        match *self {
            Objective::MaxReachAtLatency { phases } => Some(series.reachability_at_latency(phases)),
            Objective::MinLatencyForReach { target } => series.latency_to_reach(target),
            Objective::MinBroadcastsForReach { target } => series.broadcasts_to_reach(target),
            Objective::MaxReachUnderBudget { budget } => {
                Some(series.reachability_under_budget(budget))
            }
        }
    }

    /// The best `(p, value)` point for this objective: the first point no
    /// later point strictly beats (ties go to the earliest, i.e. the lowest
    /// `p` on an ascending grid). `None` values are infeasible and skipped;
    /// `None` overall means no point is feasible.
    pub fn best(&self, points: impl IntoIterator<Item = (f64, Option<f64>)>) -> Option<Optimum> {
        points.into_iter().fold(None, |best, (prob, value)| {
            let Some(value) = value else { return best };
            let better = match best {
                None => true,
                Some(b) if self.is_max() => value > b.value,
                Some(b) => value < b.value,
            };
            if better {
                Some(Optimum { prob, value })
            } else {
                best
            }
        })
    }
}

/// An optimal probability with the metric value it achieves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimum {
    /// The optimal broadcast probability.
    pub prob: f64,
    /// The metric value at that probability.
    pub value: f64,
}

/// A sweep of the analytical model over a probability grid at fixed density.
#[derive(Debug, Clone)]
pub struct ProbabilitySweep {
    /// Base configuration; its `prob` field is overridden per grid point.
    pub base: RingModelConfig,
    /// The probability grid.
    pub probs: Vec<f64>,
    /// Phase series for each grid point, aligned with `probs`.
    pub series: Vec<PhaseSeries>,
}

impl ProbabilitySweep {
    /// Runs the ring model at every probability in `probs`. All grid points
    /// share one interned kernel (see [`crate::tables::KernelCache`]) and
    /// one pair of μ/μ′ lattices, so each lattice value is computed once per
    /// sweep rather than once per point.
    pub fn run(base: RingModelConfig, probs: &[f64]) -> Self {
        ProbabilitySweep {
            base,
            probs: probs.to_vec(),
            series: Self::run_over(base, probs, &mut None),
        }
    }

    /// The series of [`ProbabilitySweep::run`], computed over the lattices
    /// in `memos` (created by the first grid point when `None`), which the
    /// caller can inspect afterwards.
    fn run_over(
        base: RingModelConfig,
        probs: &[f64],
        memos: &mut Option<(MuMemo, MuCsMemo)>,
    ) -> Vec<PhaseSeries> {
        probs
            .iter()
            .map(|&prob| {
                let model = RingModel::new(RingModelConfig { prob, ..base });
                let (mu, mu_cs) = memos.get_or_insert_with(|| model.memos());
                model.run_with(mu, mu_cs).phase_series()
            })
            .collect()
    }

    /// The paper's analysis grid: 0.01..=1.00 step 0.01.
    pub fn paper_grid() -> Vec<f64> {
        (1..=100).map(|i| f64::from(i) / 100.0).collect()
    }

    /// The paper's simulation grid: 0.05..=1.00 step 0.05.
    pub fn sim_grid() -> Vec<f64> {
        (1..=20).map(|i| f64::from(i) / 20.0).collect()
    }

    /// The best grid point for the objective, if any point is feasible.
    pub fn optimum(&self, obj: Objective) -> Option<Optimum> {
        obj.best(
            self.probs
                .iter()
                .zip(&self.series)
                .map(|(&p, s)| (p, obj.evaluate(s))),
        )
    }
}

/// A resident sweep is charged its probability grid plus each point's
/// per-phase series.
impl CacheWeight for ProbabilitySweep {
    fn cache_bytes(&self) -> usize {
        let series_heap: usize = self
            .series
            .iter()
            .map(|s| {
                (s.informed_cum.capacity() + s.broadcasts_cum.capacity())
                    * std::mem::size_of::<f64>()
                    + std::mem::size_of::<PhaseSeries>()
            })
            .sum();
        self.probs.capacity() * std::mem::size_of::<f64>() + series_heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::comm::CollisionRule;

    fn bits(s: &PhaseSeries) -> (u64, Vec<u64>, Vec<u64>) {
        let v = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        (
            s.n_total.to_bits(),
            v(&s.informed_cum),
            v(&s.broadcasts_cum),
        )
    }

    #[test]
    fn a_shared_lattice_leaves_every_point_as_a_fresh_run_computes_it() {
        // Carrier sense runs the coarser grid: its fresh runs are slow in
        // debug builds.
        for (collision, probs) in [
            (
                CollisionRule::TransmissionRange,
                ProbabilitySweep::paper_grid(),
            ),
            (
                CollisionRule::CARRIER_SENSE_2R,
                ProbabilitySweep::sim_grid(),
            ),
        ] {
            for rho in [2.0, 60.0, 140.0] {
                let base = RingModelConfig {
                    collision,
                    ..RingModelConfig::paper(rho, 0.0)
                };
                let sweep = ProbabilitySweep::run(base, &probs);
                // Reversed, every point meets the lattice in another state.
                let reversed: Vec<f64> = probs.iter().rev().copied().collect();
                let backwards = ProbabilitySweep::run(base, &reversed);
                for (i, &prob) in probs.iter().enumerate() {
                    let fresh = RingModel::new(RingModelConfig { prob, ..base })
                        .run()
                        .phase_series();
                    let at = format!("{collision:?}, rho {rho}, p {prob}");
                    assert_eq!(bits(&sweep.series[i]), bits(&fresh), "{at}");
                    let back = &backwards.series[probs.len() - 1 - i];
                    assert_eq!(bits(back), bits(&fresh), "{at}, reversed");
                }
            }
        }
    }

    #[test]
    fn a_dense_sweep_computes_each_lattice_point_it_reads_once() {
        // nss-serve's largest density: the μ lattice spans hundreds of
        // thousands of entries, but a sweep reads only some of them.
        let grid = ProbabilitySweep::paper_grid();
        let base = RingModelConfig::paper(1e6, 0.0);
        let mut memos = None;
        assert_eq!(
            ProbabilitySweep::run_over(base, &grid, &mut memos).len(),
            100
        );
        let (mu, _) = memos.expect("the first grid point creates the lattices");
        // Every closed form filled its own entry, so none ran twice.
        assert_eq!(mu.stats().1 as usize, mu.computed());
        // The lattice reaches past 10⁵ transmitters and stays lazy: the
        // sweep computes a small share of its entries.
        assert!(mu.span() > 100_000, "span {}", mu.span());
        assert!(
            mu.computed() * 10 < mu.span(),
            "{} of {} entries computed",
            mu.computed(),
            mu.span()
        );

        // Carrier sense spans far past its dense rectangle; the points
        // beyond it are still computed once each.
        let cs = RingModelConfig {
            collision: CollisionRule::CARRIER_SENSE_2R,
            ..base
        };
        let mut memos = None;
        assert_eq!(ProbabilitySweep::run_over(cs, &grid, &mut memos).len(), 100);
        let (_, mu_cs) = memos.expect("the first grid point creates the lattices");
        assert_eq!(mu_cs.stats().1 as usize, mu_cs.computed());
    }

    fn coarse_sweep(rho: f64) -> ProbabilitySweep {
        let mut base = RingModelConfig::paper(rho, 0.0);
        base.quad_points = 32; // keep tests fast
        let probs: Vec<f64> = (1..=20).map(|i| f64::from(i) / 20.0).collect();
        ProbabilitySweep::run(base, &probs)
    }

    #[test]
    fn grids_match_paper() {
        let g = ProbabilitySweep::paper_grid();
        assert_eq!(g.len(), 100);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[99] - 1.0).abs() < 1e-12);
        let g = ProbabilitySweep::sim_grid();
        assert_eq!(g.len(), 20);
        assert!((g[0] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn objective_duality_latency_vs_reach() {
        // The optimal p maximizing reachability in 5 phases should also be
        // (near-)optimal for minimizing latency to that reachability — the
        // §4.1 duality, visible as identical curves in Figs. 4b and 5b.
        let sweep = coarse_sweep(60.0);
        let opt_reach = sweep
            .optimum(Objective::MaxReachAtLatency { phases: 5.0 })
            .unwrap();
        let opt_lat = sweep
            .optimum(Objective::MinLatencyForReach {
                target: opt_reach.value * 0.999,
            })
            .unwrap();
        assert!(
            (opt_reach.prob - opt_lat.prob).abs() <= 0.101,
            "dual optima far apart: {} vs {}",
            opt_reach.prob,
            opt_lat.prob
        );
    }

    #[test]
    fn optimal_prob_decreases_with_density() {
        // The paper's headline: p* for metric 1 drops rapidly with rho.
        let obj = Objective::MaxReachAtLatency { phases: 5.0 };
        let p20 = coarse_sweep(20.0).optimum(obj).unwrap().prob;
        let p140 = coarse_sweep(140.0).optimum(obj).unwrap().prob;
        assert!(
            p140 < p20,
            "optimal p should fall with density: rho=20 → {p20}, rho=140 → {p140}"
        );
    }

    #[test]
    fn energy_optimal_prob_is_small() {
        // The paper: p* for the energy metric stays in [0, ~0.1-0.2].
        let obj = Objective::MinBroadcastsForReach { target: 0.6 };
        for rho in [40.0, 100.0] {
            let opt = coarse_sweep(rho).optimum(obj).unwrap();
            assert!(
                opt.prob <= 0.3,
                "rho={rho}: energy-optimal p = {} too large",
                opt.prob
            );
        }
    }

    #[test]
    fn infeasible_targets_yield_none() {
        let sweep = coarse_sweep(20.0);
        assert!(sweep
            .optimum(Objective::MinLatencyForReach { target: 1.01 })
            .is_none());
        // Some points infeasible, others not → the series reflect gaps.
        let obj = Objective::MinLatencyForReach { target: 0.7 };
        assert!(sweep.series.iter().any(|s| obj.evaluate(s).is_some()));
    }

    #[test]
    fn max_objectives_always_feasible() {
        let sweep = coarse_sweep(40.0);
        for obj in [
            Objective::MaxReachAtLatency { phases: 5.0 },
            Objective::MaxReachUnderBudget { budget: 35.0 },
        ] {
            assert!(sweep.series.iter().all(|s| obj.evaluate(s).is_some()));
        }
    }

    #[test]
    fn best_keeps_the_first_of_equal_points_and_skips_infeasible_ones() {
        let max_obj = Objective::MaxReachAtLatency { phases: 5.0 };
        let min_obj = Objective::MinLatencyForReach { target: 0.5 };
        let points = [
            (0.1, None),
            (0.2, Some(3.0)),
            (0.3, Some(1.0)),
            (0.4, Some(3.0)),
            (0.5, None),
            (0.6, Some(1.0)),
        ];
        let at = |prob, value| Some(Optimum { prob, value });
        assert_eq!(max_obj.best(points), at(0.2, 3.0));
        assert_eq!(min_obj.best(points), at(0.3, 1.0));
        assert_eq!(
            max_obj.best([(0.1, Some(0.4)), (0.2, Some(0.9))]),
            at(0.2, 0.9)
        );
        assert_eq!(
            min_obj.best([(0.1, Some(7.0)), (0.2, Some(5.0))]),
            at(0.2, 5.0)
        );
        assert_eq!(min_obj.best([(0.1, None), (0.2, None)]), None);
        assert_eq!(max_obj.best([]), None);
    }
}
