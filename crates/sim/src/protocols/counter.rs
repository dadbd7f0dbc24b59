//! Counter-based broadcast suppression (Williams et al. taxonomy).
//!
//! The paper's related work cites the counter-based scheme as the next
//! design point after probability-based broadcast; analysing it is the
//! paper's declared future work. We implement it so the two schemes can be
//! compared empirically under identical CAM semantics:
//!
//! * On first reception, a node schedules a tentative rebroadcast in a
//!   random slot of the next phase (same jitter as PB_CAM).
//! * While waiting it counts *duplicate* clean receptions of the packet.
//!   At its scheduled slot it transmits only if the counter is still below
//!   the threshold `C` — overheard duplicates are evidence its
//!   neighborhood is already covered.
//!
//! With `C = ∞` this degenerates to simple flooding; small `C` suppresses
//! redundant transmissions in dense regions adaptively — the same goal the
//! optimal PB_CAM probability pursues, but density-aware for free.

use crate::slotted::{run_gossip_with, Coins, GossipConfig, Rebroadcast, SlotArbiter};
use crate::trace::SimTrace;
use nss_model::comm::CommunicationModel;
use nss_model::ids::NodeId;
use nss_model::topology::Topology;

/// Configuration of a counter-based broadcast execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterConfig {
    /// Slots per phase.
    pub s: u32,
    /// Suppression threshold `C`: transmit only if fewer than `C`
    /// duplicates were overheard before the scheduled slot.
    pub threshold: u32,
    /// Communication model (CAM by default; CFM for contrast).
    pub model: CommunicationModel,
}

impl CounterConfig {
    /// The common configuration used in the literature: `C = 3`.
    pub fn paper(threshold: u32) -> Self {
        CounterConfig {
            s: 3,
            threshold,
            model: CommunicationModel::CAM,
        }
    }
}

/// Counter suppression as a policy on the PB_CAM phase loop: flood with
/// `p = 1`, but transmit at the scheduled slot only while fewer than
/// `threshold` duplicates have been overheard.
struct CounterSuppression {
    threshold: u32,
    dups: Vec<u32>,
}

impl Rebroadcast for CounterSuppression {
    // The counter is consulted at transmission time (slot granularity):
    // duplicates overheard in earlier slots — including earlier slots of
    // this very phase — suppress the pending rebroadcast.
    fn transmits(&self, u: u32) -> bool {
        self.dups[u as usize] < self.threshold
    }

    fn heard(&mut self, _topo: &Topology, rx: NodeId, _tx: NodeId, dup: bool) {
        if dup {
            self.dups[rx.index()] += 1;
        }
    }
}

/// Runs one counter-based broadcast execution.
pub fn run_counter_broadcast(topo: &Topology, cfg: &CounterConfig, seed: u64) -> SimTrace {
    assert!(cfg.s >= 1, "need at least one slot");
    assert!(cfg.threshold >= 1, "threshold 0 would suppress everything");
    let gossip = GossipConfig {
        s: cfg.s,
        model: cfg.model,
        ..GossipConfig::flooding_cam()
    };
    let mut policy = CounterSuppression {
        threshold: cfg.threshold,
        dups: vec![0; topo.len()],
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
    fn high_threshold_equals_flooding_on_sparse_graphs() {
        // On a line, nodes hear ≤1 duplicate before their slot, so C = 10
        // never suppresses: identical structure to flooding.
        let topo = line(7);
        let cfg = CounterConfig::paper(10);
        let t = run_counter_broadcast(&topo, &cfg, 2);
        let f = Executor::new(&topo)
            .gossip(GossipConfig::flooding_cam())
            .run(2);
        // Same reachability shape (both may lose to collisions, but the
        // counter run can't transmit *more* than flooding).
        assert!(t.total_broadcasts() <= f.total_broadcasts() + 1);
        assert!(t.final_reachability() > 0.5);
    }

    #[test]
    fn suppression_strong_under_cfm() {
        // Under CFM every duplicate arrives cleanly, so the counter fires
        // aggressively: broadcasts collapse versus flooding.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 80.0).sample(5));
        let mut flood_tx = 0u64;
        let mut counter_tx = 0u64;
        let mut counter_reach = 0.0;
        let runs = 5;
        for seed in 0..runs {
            flood_tx += Executor::new(&topo)
                .gossip(GossipConfig::gossip_cfm(1.0))
                .run(seed)
                .total_broadcasts();
            let mut cfg = CounterConfig::paper(3);
            cfg.model = CommunicationModel::Cfm;
            let t = run_counter_broadcast(&topo, &cfg, seed);
            counter_tx += t.total_broadcasts();
            counter_reach += t.final_reachability();
        }
        assert!(
            counter_tx * 2 < flood_tx,
            "C=3 under CFM should suppress >50%: {counter_tx} vs {flood_tx}"
        );
        assert!(
            counter_reach / runs as f64 > 0.9,
            "CFM counter broadcast should still cover the network"
        );
    }

    #[test]
    fn suppression_weak_under_cam_collisions() {
        // Under Assumption-6 CAM most duplicates collide and never reach
        // the counter, so suppression is mild — an observation PB_CAM's
        // probabilistic thinning does not suffer from. The counter scheme
        // must still never transmit more than flooding.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 80.0).sample(5));
        for seed in 0..5 {
            let flood = Executor::new(&topo)
                .gossip(GossipConfig::flooding_cam())
                .run(seed);
            let counter = run_counter_broadcast(&topo, &CounterConfig::paper(3), seed);
            assert!(
                counter.total_broadcasts() <= flood.total_broadcasts(),
                "counter must not exceed flooding: {} vs {}",
                counter.total_broadcasts(),
                flood.total_broadcasts()
            );
        }
    }

    #[test]
    fn threshold_monotonicity() {
        // Higher threshold → (weakly) more transmissions.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 60.0).sample(9));
        let mut prev = 0u64;
        for c in [1u32, 2, 4, 16] {
            let mut total = 0u64;
            for seed in 0..5 {
                total +=
                    run_counter_broadcast(&topo, &CounterConfig::paper(c), seed).total_broadcasts();
            }
            assert!(
                total + 5 >= prev,
                "C={c}: broadcasts {total} dropped below C-1 level {prev}"
            );
            prev = total;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 40.0).sample(1));
        let a = run_counter_broadcast(&topo, &CounterConfig::paper(3), 4);
        let b = run_counter_broadcast(&topo, &CounterConfig::paper(3), 4);
        assert_eq!(a.first_rx_phase, b.first_rx_phase);
    }

    #[test]
    fn trace_valid() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(7));
        for seed in 0..4 {
            let t = run_counter_broadcast(&topo, &CounterConfig::paper(2), seed);
            t.phase_series().validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "threshold 0")]
    fn zero_threshold_rejected() {
        let topo = line(2);
        let mut cfg = CounterConfig::paper(3);
        cfg.threshold = 0;
        let _ = run_counter_broadcast(&topo, &cfg, 0);
    }
}
