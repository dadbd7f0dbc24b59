//! Quantifying the CFM/CAM prediction gap for simple flooding.
//!
//! The paper's motivating claim (§1.2, §4): analyzing simple flooding under
//! CFM predicts reachability 1 with latency `O(P)` phases and energy
//! `O(N)`, but those predictions are "inaccurate or even misleading" once
//! packet collisions exist. This module computes the CFM predictions
//! exactly (they are graph properties) and measures the CAM reality by
//! simulation, packaging the gap the paper motivates with.

use crate::network::NetworkModel;
use nss_model::ids::NodeId;
use nss_model::rng::Stream;
use nss_sim::runner::Replication;
use nss_sim::slotted::GossipConfig;
use nss_sim::stats::Summary;

/// CFM's analytical predictions for simple flooding on one topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfmPrediction {
    /// Predicted reachability: the connected fraction from the source
    /// (exactly 1 in the paper's idealized connected network).
    pub reachability: f64,
    /// Predicted latency in phases: the source's graph eccentricity
    /// (information moves one hop per phase under CFM).
    pub latency_phases: f64,
    /// Predicted broadcast count: every reached node broadcasts once.
    pub broadcasts: f64,
}

/// Measured CAM behavior of simple flooding on the same deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CamMeasurement {
    /// Mean final reachability (unbounded time — collisions mostly slow
    /// the cascade rather than stop it).
    pub final_reachability: Summary,
    /// Mean reachability at the CFM-predicted completion time (the
    /// source's eccentricity in phases) — where the CFM promise is
    /// actually broken.
    pub reachability_at_cfm_latency: Summary,
    /// Mean latency (phases) until the cascade died.
    pub latency_phases: Summary,
    /// Mean broadcast count.
    pub broadcasts: Summary,
}

/// The paper's motivating gap, for one network model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapReport {
    /// What CFM analysis promises.
    pub cfm: CfmPrediction,
    /// What CAM execution delivers.
    pub cam: CamMeasurement,
}

impl GapReport {
    /// Reachability shortfall at the CFM-predicted completion time: CFM
    /// promises full coverage by the eccentricity phase; CAM delivers this
    /// much less.
    pub fn reachability_gap(&self) -> f64 {
        self.cfm.reachability - self.cam.reachability_at_cfm_latency.mean
    }

    /// Latency inflation: how much longer the CAM cascade ran than CFM's
    /// predicted completion time.
    pub fn latency_inflation(&self) -> f64 {
        if self.cfm.latency_phases <= 0.0 {
            return 1.0;
        }
        self.cam.latency_phases.mean / self.cfm.latency_phases
    }
}

/// Computes the CFM prediction and the CAM measurement for simple flooding
/// on `replications` fresh deployments of `model`, run on `threads`
/// workers (0 = available parallelism).
pub fn flooding_gap(
    model: &NetworkModel,
    replications: u32,
    master_seed: u64,
    threads: usize,
) -> GapReport {
    let mut cfg = GossipConfig::flooding_cam();
    cfg.s = model.slots;
    let fields = Replication::paper(model.deployment, cfg, master_seed)
        .with_runs(replications)
        .with_threads(threads)
        .map(|f| {
            let topo = &f.topo;
            // CFM prediction: pure graph analysis, no simulation needed.
            let ecc = f64::from(topo.source_eccentricity(NodeId::SOURCE));
            let cfm = CfmPrediction {
                reachability: topo.reachable_fraction(NodeId::SOURCE),
                latency_phases: ecc,
                broadcasts: topo
                    .bfs_levels(NodeId::SOURCE)
                    .iter()
                    .filter(|&&l| l != u32::MAX)
                    .count() as f64,
            };
            // CAM reality.
            let trace = f.executor().run(f.seed(Stream::Protocol));
            let cam = [
                trace.final_reachability(),
                trace.phase_series().reachability_at_latency(ecc),
                trace.phases() as f64,
                trace.total_broadcasts() as f64,
            ];
            (cfm, cam)
        });
    let cfm = |get: fn(&CfmPrediction) -> f64| {
        mean(&fields.iter().map(|(c, _)| get(c)).collect::<Vec<_>>())
    };
    let cam = |i: usize| Summary::of(&fields.iter().map(|(_, m)| m[i]).collect::<Vec<_>>());
    GapReport {
        cfm: CfmPrediction {
            reachability: cfm(|c| c.reachability),
            latency_phases: cfm(|c| c.latency_phases),
            broadcasts: cfm(|c| c.broadcasts),
        },
        cam: CamMeasurement {
            final_reachability: cam(0),
            reachability_at_cfm_latency: cam(1),
            latency_phases: cam(2),
            broadcasts: cam(3),
        },
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_grows_with_density() {
        let sparse = flooding_gap(&NetworkModel::paper(20.0), 4, 5, 0);
        let dense = flooding_gap(&NetworkModel::paper(120.0), 4, 5, 0);
        // CFM promises ≈ full coverage at both densities...
        assert!(sparse.cfm.reachability > 0.9);
        assert!(dense.cfm.reachability > 0.99);
        // ...but CAM flooding degrades as density rises.
        assert!(
            dense.reachability_gap() > sparse.reachability_gap(),
            "gap should grow with density: sparse {:.3}, dense {:.3}",
            sparse.reachability_gap(),
            dense.reachability_gap()
        );
        assert!(
            dense.reachability_gap() > 0.1,
            "dense flooding should visibly miss CFM's promise"
        );
        // ...and run far longer than the CFM-predicted completion time.
        assert!(
            dense.latency_inflation() > 1.3,
            "latency inflation {}",
            dense.latency_inflation()
        );
    }

    #[test]
    fn cfm_broadcast_prediction_counts_reached_nodes() {
        let report = flooding_gap(&NetworkModel::paper(40.0), 3, 9, 0);
        // Under CFM every reached node broadcasts once: count ≈ reach · N.
        let n = 40.0 * 25.0;
        assert!(
            (report.cfm.broadcasts - report.cfm.reachability * n).abs() < 1.0,
            "CFM broadcasts {} vs reach·N {}",
            report.cfm.broadcasts,
            report.cfm.reachability * n
        );
    }

    #[test]
    fn cam_never_beats_cfm_reachability() {
        for rho in [20.0, 60.0] {
            let r = flooding_gap(&NetworkModel::paper(rho), 3, 11, 0);
            assert!(
                r.cam.final_reachability.mean <= r.cfm.reachability + 1e-9,
                "rho={rho}: CAM {} > CFM {}",
                r.cam.final_reachability.mean,
                r.cfm.reachability
            );
        }
    }
}
