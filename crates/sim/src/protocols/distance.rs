//! Distance-based (area-based) broadcast suppression.
//!
//! The second member of the Williams et al. taxonomy the paper cites
//! (§2): a node rebroadcasts only if the *additional area* its
//! transmission would cover is large enough, approximated by the distance
//! to the closest heard sender — if some sender was within `d·r`, the
//! node's own broadcast would add little coverage, so it stays silent.
//! Extending the paper's analysis to this scheme is its declared future
//! work; here it runs under identical CAM semantics for empirical
//! comparison with PB_CAM.
//!
//! Distance knowledge is assumed available from received signal strength
//! (the standard assumption in the cited work); the simulator reads it
//! from ground-truth positions.

use crate::slotted::{run_gossip_with, Coins, GossipConfig, Rebroadcast, SlotArbiter};
use crate::trace::SimTrace;
use nss_model::comm::CommunicationModel;
use nss_model::ids::NodeId;
use nss_model::topology::Topology;

/// Configuration of a distance-based broadcast execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceConfig {
    /// Slots per phase.
    pub s: u32,
    /// Suppression distance as a fraction of the transmission radius:
    /// a node stays silent if it heard a sender within `threshold · r`.
    pub threshold: f64,
    /// Communication model.
    pub model: CommunicationModel,
}

impl DistanceConfig {
    /// A common setting: suppress when the closest sender is within 0.4·r.
    pub fn paper(threshold: f64) -> Self {
        DistanceConfig {
            s: 3,
            threshold,
            model: CommunicationModel::CAM,
        }
    }
}

/// Distance suppression as a policy on the PB_CAM phase loop: flood with
/// `p = 1`, but transmit at the scheduled slot only if every sender heard
/// so far was farther than `suppress_r`.
struct DistanceSuppression {
    suppress_r: f64,
    /// Closest distance at which each node has heard the packet so far.
    closest: Vec<f64>,
}

impl Rebroadcast for DistanceSuppression {
    fn transmits(&self, u: u32) -> bool {
        self.closest[u as usize] > self.suppress_r
    }

    fn heard(&mut self, topo: &Topology, rx: NodeId, tx: NodeId, _dup: bool) {
        let d = topo.position(rx).dist(&topo.position(tx));
        let closest = &mut self.closest[rx.index()];
        if d < *closest {
            *closest = d;
        }
    }
}

/// Runs one distance-based broadcast execution.
pub fn run_distance_broadcast(topo: &Topology, cfg: &DistanceConfig, seed: u64) -> SimTrace {
    assert!(cfg.s >= 1, "need at least one slot");
    assert!(
        (0.0..=1.0).contains(&cfg.threshold),
        "threshold must be a fraction of r"
    );
    let gossip = GossipConfig {
        s: cfg.s,
        model: cfg.model,
        ..GossipConfig::flooding_cam()
    };
    let mut policy = DistanceSuppression {
        suppress_r: cfg.threshold * topo.comm_radius(),
        closest: vec![f64::INFINITY; topo.len()],
    };
    let arbiter = SlotArbiter::plain(&gossip, topo.len());
    run_gossip_with(topo, &gossip, &mut policy, Coins::rng(seed), arbiter, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::slotted::GossipConfig;
    use nss_model::deployment::{DeployedNetwork, Deployment};
    use nss_model::geometry::Point2;

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    #[test]
    fn zero_threshold_is_flooding() {
        // threshold 0 never suppresses (closest heard distance > 0 always).
        let topo = line(6);
        let t = run_distance_broadcast(&topo, &DistanceConfig::paper(0.0), 3);
        let f = Executor::new(&topo)
            .gossip(GossipConfig::flooding_cam())
            .run(3);
        assert_eq!(t.informed_count() > 4, f.informed_count() > 4);
        assert!(t.total_broadcasts() <= t.informed_count() as u64);
    }

    #[test]
    fn full_threshold_suppresses_almost_everything() {
        // threshold 1: any heard sender (necessarily within r) suppresses,
        // so only the source transmits.
        let topo = line(6);
        let t = run_distance_broadcast(&topo, &DistanceConfig::paper(1.0), 3);
        assert_eq!(t.total_broadcasts(), 1);
        assert_eq!(t.informed_count(), 2); // source + its one neighbor
    }

    #[test]
    fn line_far_nodes_relay() {
        // Unit-spaced line: each hop hears its sender at distance exactly 1
        // — beyond a 0.5 threshold — so the packet relays the whole line
        // (modulo collisions; on a line the chain is collision-light).
        let topo = line(8);
        let completed = (0..30)
            .filter(|&s| {
                run_distance_broadcast(&topo, &DistanceConfig::paper(0.5), s).final_reachability()
                    == 1.0
            })
            .count();
        assert!(completed > 15, "only {completed}/30 completed");
    }

    #[test]
    fn suppression_cuts_broadcasts_under_cfm() {
        // Under CFM, duplicates arrive cleanly, so close-by nodes hear
        // nearby senders and stay silent.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 60.0).sample(9));
        let mut cfg = DistanceConfig::paper(0.6);
        cfg.model = CommunicationModel::Cfm;
        let mut dist_tx = 0u64;
        let mut flood_tx = 0u64;
        let mut reach = 0.0;
        for seed in 0..5 {
            let t = run_distance_broadcast(&topo, &cfg, seed);
            dist_tx += t.total_broadcasts();
            reach += t.final_reachability();
            flood_tx += Executor::new(&topo)
                .gossip(GossipConfig::gossip_cfm(1.0))
                .run(seed)
                .total_broadcasts();
        }
        assert!(
            dist_tx * 2 < flood_tx,
            "distance suppression should halve traffic: {dist_tx} vs {flood_tx}"
        );
        assert!(reach / 5.0 > 0.9, "coverage should survive suppression");
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 40.0).sample(2));
        let a = run_distance_broadcast(&topo, &DistanceConfig::paper(0.4), 6);
        let b = run_distance_broadcast(&topo, &DistanceConfig::paper(0.4), 6);
        assert_eq!(a.first_rx_phase, b.first_rx_phase);
    }

    #[test]
    fn trace_valid() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(5));
        for seed in 0..4 {
            run_distance_broadcast(&topo, &DistanceConfig::paper(0.4), seed)
                .phase_series()
                .validate()
                .unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "fraction of r")]
    fn invalid_threshold_rejected() {
        let topo = line(2);
        let _ = run_distance_broadcast(&topo, &DistanceConfig::paper(1.5), 0);
    }
}
