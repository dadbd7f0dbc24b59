//! Metric-driven selection of the broadcast probability, with simulated
//! validation — the "performance analysis → refine → choose p" loop of the
//! paper's Fig. 1(b).

use crate::network::NetworkModel;
use nss_analysis::mu::MuMode;
use nss_analysis::optimize::{Objective, Optimum, ProbabilitySweep};
use nss_analysis::ring_model::RingModelConfig;
use nss_model::comm::{CollisionRule, CommunicationModel, MediumBackend};
use nss_model::deployment::Deployment;
use nss_model::error::ConfigError;
use nss_sim::runner::{ReplicatedTraces, Replication};
use nss_sim::slotted::GossipConfig;
use serde::{Deserialize, Serialize};

/// Design-time optimizer: evaluates the analytical model over a probability
/// grid and picks the best `p` for a §4.1 objective.
#[derive(Debug, Clone)]
pub struct DesignOptimizer {
    model: NetworkModel,
    grid: Vec<f64>,
    quad_points: usize,
}

impl DesignOptimizer {
    /// Creates an optimizer for the given network model (must be a disk
    /// deployment under CAM — the configuration the analysis covers).
    pub fn new(model: NetworkModel) -> Result<Self, ConfigError> {
        model.validate()?;
        if model.rho().is_none() {
            return Err(ConfigError::Inconsistent {
                what: "analytical optimization requires the disk deployment",
                at: None,
            });
        }
        if !model.comm.collisions_possible() {
            return Err(ConfigError::Inconsistent {
                what: "PB_CAM optimization targets the Collision Aware Model",
                at: None,
            });
        }
        Ok(DesignOptimizer {
            model,
            grid: ProbabilitySweep::paper_grid(),
            quad_points: 64,
        })
    }

    /// Overrides the probability grid (default: the paper's 0.01..1.00).
    pub fn with_grid(mut self, grid: Vec<f64>) -> Self {
        assert!(!grid.is_empty(), "empty probability grid");
        self.grid = grid;
        self
    }

    /// Overrides the quadrature resolution (speed/accuracy knob).
    pub fn with_quad_points(mut self, q: usize) -> Self {
        self.quad_points = q;
        self
    }

    /// The analytical ring-model configuration implied by the network
    /// model (with a placeholder probability).
    pub fn ring_config(&self) -> RingModelConfig {
        let Deployment::Disk(d) = self.model.deployment else {
            unreachable!("checked in constructor");
        };
        let collision = match self.model.comm {
            CommunicationModel::Cam(rule) => rule,
            CommunicationModel::Cfm => CollisionRule::TransmissionRange,
        };
        let mut cfg = RingModelConfig::paper(d.rho(), 0.0);
        cfg.p = d.p_factor;
        cfg.s = self.model.slots;
        cfg.r = d.comm_radius;
        cfg.collision = collision;
        cfg.mu_mode = MuMode::Interpolate;
        cfg.quad_points = self.quad_points;
        cfg
    }

    /// Selects the best probability for `objective` on the analytical
    /// model. `None` when no grid point satisfies the constraint.
    pub fn choose(&self, objective: Objective) -> Option<Optimum> {
        ProbabilitySweep::run(self.ring_config(), &self.grid).optimum(objective)
    }

    /// Validates a chosen probability by simulation: runs `replications`
    /// seeded executions of PB_CAM at `prob` and returns the traces for
    /// metric extraction.
    pub fn validate(&self, prob: f64, replications: u32, master_seed: u64) -> ReplicatedTraces {
        let gossip = GossipConfig {
            s: self.model.slots,
            prob,
            model: self.model.comm,
            max_phases: 10_000,
            track_success_rate: false,
            backend: MediumBackend::UnitDisk,
        };
        Replication::paper(self.model.deployment, gossip, master_seed)
            .with_runs(replications)
            .run()
    }

    /// Full design loop: choose `p` analytically, validate by simulation,
    /// and report predicted vs measured values of the objective.
    pub fn design(
        &self,
        objective: Objective,
        replications: u32,
        master_seed: u64,
    ) -> Option<DesignReport> {
        let optimum = self.choose(objective)?;
        let traces = self.validate(optimum.prob, replications, master_seed);
        let measured: Vec<Option<f64>> = traces
            .series()
            .iter()
            .map(|s| objective.evaluate(s))
            .collect();
        let (summary, feasible) = nss_sim::stats::Summary::of_feasible(&measured);
        Some(DesignReport {
            objective,
            optimum,
            measured_mean: summary.mean,
            measured_std: summary.std_dev,
            feasible_fraction: feasible,
            replications,
        })
    }
}

/// Outcome of one design-and-validate cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// The optimized objective.
    pub objective: Objective,
    /// Analytically chosen probability and predicted metric value.
    pub optimum: Optimum,
    /// Simulated mean of the metric at the chosen probability.
    pub measured_mean: f64,
    /// Simulated standard deviation.
    pub measured_std: f64,
    /// Fraction of replications satisfying the constraint.
    pub feasible_fraction: f64,
    /// Number of replications run.
    pub replications: u32,
}

impl DesignReport {
    /// Relative gap between prediction and measurement (measured −
    /// predicted, as a fraction of the prediction's magnitude).
    pub fn relative_gap(&self) -> f64 {
        if self.optimum.value.abs() < f64::EPSILON {
            return 0.0;
        }
        (self.measured_mean - self.optimum.value) / self.optimum.value.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;

    fn fast_optimizer(rho: f64) -> DesignOptimizer {
        DesignOptimizer::new(NetworkModel::paper(rho))
            .unwrap()
            .with_grid((1..=10).map(|i| f64::from(i) / 10.0).collect())
            .with_quad_points(32)
    }

    #[test]
    fn rejects_incompatible_models() {
        let mut m = NetworkModel::paper(40.0);
        m.comm = CommunicationModel::Cfm;
        assert!(DesignOptimizer::new(m).is_err());
        let m = NetworkModel {
            deployment: Deployment::Grid(nss_model::deployment::GridDeployment::new(5, 1.0, 1.0)),
            ..NetworkModel::paper(40.0)
        };
        assert!(DesignOptimizer::new(m).is_err());
    }

    #[test]
    fn ring_config_mirrors_model() {
        let opt = fast_optimizer(60.0);
        let cfg = opt.ring_config();
        assert_eq!(cfg.p, 5);
        assert_eq!(cfg.s, 3);
        assert!((cfg.rho - 60.0).abs() < 1e-9);
    }

    #[test]
    fn choose_picks_feasible_optimum() {
        let opt = fast_optimizer(60.0);
        let best = opt
            .choose(Objective::MaxReachAtLatency { phases: 5.0 })
            .unwrap();
        assert!(best.prob > 0.0 && best.prob <= 1.0);
        assert!(best.value > 0.3, "optimum reachability {}", best.value);
        // Flooding must not be the optimum at this density.
        assert!(best.prob < 1.0);
    }

    #[test]
    fn design_loop_prediction_close_to_simulation() {
        let opt = fast_optimizer(60.0);
        let report = opt
            .design(Objective::MaxReachAtLatency { phases: 5.0 }, 8, 42)
            .unwrap();
        assert_eq!(report.replications, 8);
        assert!(report.feasible_fraction > 0.99);
        assert!(report.measured_mean > 0.0 && report.measured_mean <= 1.0);
        // The paper finds analysis and simulation agree on shape; allow a
        // generous band for the absolute level on few replications.
        assert!(
            report.relative_gap().abs() < 0.4,
            "prediction {} vs measured {} gap too large",
            report.optimum.value,
            report.measured_mean
        );
    }

    #[test]
    fn infeasible_objective_gives_none() {
        let opt = fast_optimizer(20.0);
        assert!(opt
            .design(Objective::MinLatencyForReach { target: 1.01 }, 2, 1)
            .is_none());
    }
}
