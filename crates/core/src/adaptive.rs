//! Density-oblivious adaptive probability selection (§6 / Fig. 12).
//!
//! The paper observes that the ratio between the latency-optimal broadcast
//! probability `p*(ρ)` and the flooding per-broadcast success rate `sr(ρ)`
//! is nearly constant (≈ 11) across densities. Since a node can *measure*
//! the local success rate (count which neighbors acknowledge hearing a
//! probe) without knowing ρ, this yields a practical tuning rule:
//!
//! `p ≈ clamp(ratio · sr_measured, 0, 1)`.
//!
//! This module calibrates the ratio on the analytical model, estimates the
//! success rate by simulated probing, and evaluates the adaptive rule
//! against the oracle (density-aware) optimum.

use crate::network::NetworkModel;
use nss_analysis::flooding::success_rate_correlation;
use nss_analysis::optimize::{Objective, ProbabilitySweep};
use nss_analysis::ring_model::RingModelConfig;
use nss_model::deployment::Deployment;
use nss_model::rng::{SeedFactory, Stream};
use nss_model::topology::Topology;
use nss_sim::executor::Executor;
use nss_sim::runner::Replication;
use nss_sim::slotted::GossipConfig;

/// A calibrated success-rate → probability controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveController {
    /// The calibrated `p*/sr` ratio.
    pub ratio: f64,
}

impl AdaptiveController {
    /// Calibrates the ratio on the analytical model over a density range
    /// (the Fig. 12 computation), averaging `p*/sr` across densities.
    pub fn calibrate(base: RingModelConfig, rhos: &[f64], latency_phases: f64) -> Self {
        assert!(!rhos.is_empty(), "need at least one calibration density");
        let rows =
            success_rate_correlation(base, rhos, &ProbabilitySweep::paper_grid(), latency_phases);
        let ratios: Vec<f64> = rows
            .iter()
            .map(|r| r.ratio)
            .filter(|r| r.is_finite())
            .collect();
        assert!(!ratios.is_empty(), "calibration produced no finite ratios");
        AdaptiveController {
            ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
        }
    }

    /// Maps a measured success rate to a broadcast probability.
    pub fn probability(&self, success_rate: f64) -> f64 {
        (self.ratio * success_rate).clamp(0.0, 1.0)
    }
}

/// Maps per-node measured success rates to per-node broadcast
/// probabilities with the calibrated ratio — the spatially-adaptive
/// variant of the §6 rule for deployments with density hotspots.
/// Feed the result to [`Executor::per_node_probs`].
pub fn per_node_probabilities(controller: &AdaptiveController, rates: &[f64]) -> Vec<f64> {
    rates.iter().map(|&sr| controller.probability(sr)).collect()
}

/// Estimates the flooding success rate on a concrete topology by running
/// `probes` seeded flooding executions with per-broadcast tracking and
/// averaging — the measurable quantity the controller consumes.
pub fn measure_success_rate(topo: &Topology, s: u32, probes: u32, master_seed: u64) -> f64 {
    let factory = SeedFactory::new(master_seed);
    let mut cfg = GossipConfig::flooding_cam();
    cfg.s = s;
    cfg.track_success_rate = true;
    let mut total = 0.0;
    let mut count = 0u32;
    for i in 0..probes {
        let trace = Executor::new(topo)
            .gossip(cfg)
            .run(factory.seed(Stream::Protocol, u64::from(i)));
        if let Some(sr) = trace.mean_success_rate() {
            total += sr;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / f64::from(count)
    }
}

/// Result of evaluating the adaptive rule on one network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOutcome {
    /// Measured flooding success rate on the deployed network.
    pub measured_success_rate: f64,
    /// Probability selected by the adaptive rule.
    pub adaptive_prob: f64,
    /// Mean reachability-in-budget achieved by the adaptive probability.
    pub adaptive_reach: f64,
    /// Oracle (analytical, density-aware) optimal probability.
    pub oracle_prob: f64,
    /// Mean reachability achieved by the oracle probability.
    pub oracle_reach: f64,
}

impl AdaptiveOutcome {
    /// How much of the oracle's reachability the adaptive rule captures.
    pub fn efficiency(&self) -> f64 {
        if self.oracle_reach <= 0.0 {
            return 1.0;
        }
        self.adaptive_reach / self.oracle_reach
    }
}

/// Evaluates the adaptive rule end-to-end on the paper's network model:
/// probe → choose `p` → run PB_CAM, compared against the analytical oracle.
/// The replications run on `threads` workers (0 = available parallelism).
pub fn evaluate_adaptive(
    model: &NetworkModel,
    controller: &AdaptiveController,
    latency_phases: f64,
    replications: u32,
    master_seed: u64,
    threads: usize,
) -> AdaptiveOutcome {
    #[expect(
        clippy::panic,
        reason = "documented precondition of the adaptive experiment; only the disk deployment defines a true density"
    )]
    let Deployment::Disk(d) = model.deployment
    else {
        panic!("adaptive evaluation requires the disk deployment");
    };

    // Oracle: analytical optimum at the true (unknown to the node) density.
    let mut ring = RingModelConfig::paper(d.rho(), 0.0);
    ring.p = d.p_factor;
    ring.s = model.slots;
    ring.r = d.comm_radius;
    #[expect(
        clippy::expect_used,
        reason = "MaxReachAtLatency is total over a non-empty grid, so an optimum always exists"
    )]
    let oracle = ProbabilitySweep::run(ring, &ProbabilitySweep::paper_grid())
        .optimum(Objective::MaxReachAtLatency {
            phases: latency_phases,
        })
        .expect("max objective always feasible");

    // Probe + run on fresh deployments per replication.
    let mut cfg = GossipConfig::pb_cam(oracle.prob);
    cfg.s = model.slots;
    let fields = Replication::paper(model.deployment, cfg, master_seed)
        .with_runs(replications)
        .with_threads(threads)
        .map(|f| {
            let sr = measure_success_rate(&f.topo, model.slots, 1, f.seed(Stream::Jitter));
            let seed = f.seed(Stream::Protocol);
            let reach = |exec: Executor<'_>| {
                exec.run(seed)
                    .phase_series()
                    .reachability_at_latency(latency_phases)
            };
            let adaptive = reach(f.executor().prob(controller.probability(sr)));
            (sr, adaptive, reach(f.executor()))
        });
    let mut sr_total = 0.0;
    let mut adaptive_total = 0.0;
    let mut oracle_total = 0.0;
    for (sr, adaptive, oracle) in fields {
        sr_total += sr;
        adaptive_total += adaptive;
        oracle_total += oracle;
    }
    let n = f64::from(replications.max(1));
    let sr_mean = sr_total / n;
    AdaptiveOutcome {
        measured_success_rate: sr_mean,
        adaptive_prob: controller.probability(sr_mean),
        adaptive_reach: adaptive_total / n,
        oracle_prob: oracle.prob,
        oracle_reach: oracle_total / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_ring() -> RingModelConfig {
        let mut cfg = RingModelConfig::paper(60.0, 1.0);
        cfg.quad_points = 32;
        cfg
    }

    #[test]
    fn calibration_produces_sane_ratio() {
        let ctl = AdaptiveController::calibrate(fast_ring(), &[40.0, 100.0], 5.0);
        assert!(
            ctl.ratio > 1.0 && ctl.ratio < 50.0,
            "implausible ratio {}",
            ctl.ratio
        );
    }

    #[test]
    fn probability_clamps() {
        let ctl = AdaptiveController { ratio: 11.0 };
        assert_eq!(ctl.probability(0.0), 0.0);
        assert_eq!(ctl.probability(1.0), 1.0);
        let p = ctl.probability(0.02);
        assert!((p - 0.22).abs() < 1e-12);
    }

    #[test]
    fn measured_success_rate_falls_with_density() {
        let lo = Topology::build(&Deployment::disk(4, 1.0, 20.0).sample(1));
        let hi = Topology::build(&Deployment::disk(4, 1.0, 100.0).sample(1));
        let sr_lo = measure_success_rate(&lo, 3, 3, 7);
        let sr_hi = measure_success_rate(&hi, 3, 3, 7);
        assert!(sr_lo > 0.0 && sr_lo <= 1.0);
        assert!(sr_hi > 0.0 && sr_hi <= 1.0);
        assert!(
            sr_hi < sr_lo,
            "denser → more collisions: {sr_hi} !< {sr_lo}"
        );
    }

    #[test]
    fn per_node_mapping_clamps_and_aligns() {
        let ctl = AdaptiveController { ratio: 10.0 };
        let rates = [0.0, 0.05, 0.2, 1.0];
        let probs = per_node_probabilities(&ctl, &rates);
        assert_eq!(probs.len(), 4);
        assert_eq!(probs[0], 0.0);
        assert!((probs[1] - 0.5).abs() < 1e-12);
        assert_eq!(probs[2], 1.0); // clamped
        assert_eq!(probs[3], 1.0);
    }

    #[test]
    fn adaptive_rule_competitive_with_oracle() {
        let model = NetworkModel::paper(80.0);
        let ctl = AdaptiveController::calibrate(fast_ring(), &[40.0, 100.0], 5.0);
        let out = evaluate_adaptive(&model, &ctl, 5.0, 4, 99, 0);
        assert!(out.measured_success_rate > 0.0);
        assert!(out.adaptive_prob > 0.0 && out.adaptive_prob <= 1.0);
        assert!(
            out.efficiency() > 0.6,
            "adaptive rule too far from oracle: {:?}",
            out
        );
    }
}
