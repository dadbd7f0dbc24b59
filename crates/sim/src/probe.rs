//! Per-node success-rate probing.
//!
//! §6 of the paper proposes tuning the broadcast probability from the
//! locally observable per-broadcast success rate instead of the (unknown,
//! possibly spatially varying) node density. The global variant is
//! measured by [`crate::slotted`]'s success-rate tracking; this module
//! measures the **per-node** rate — the quantity each node would estimate
//! for itself in a deployment with density hotspots.
//!
//! The probe runs `rounds` simple-flooding executions on the PB_CAM phase
//! loop and records, for every broadcast a node performs, the fraction of
//! its neighbors that received the packet cleanly. Nodes that never
//! transmitted during the probe (unreached, or zero-degree) fall back to
//! the global mean.

use crate::slotted::{run_gossip_with, Coins, GossipConfig, Rebroadcast, SlotArbiter};
use crate::trace::NEVER;
use nss_model::ids::NodeId;
use nss_model::rng::{derive_seed, Stream};
use nss_model::topology::Topology;

/// Flooding with a per-transmitter tally of clean deliveries.
struct Tally(Vec<u32>);

impl Rebroadcast for Tally {
    fn heard(&mut self, _topo: &Topology, _rx: NodeId, tx: NodeId, _dup: bool) {
        self.0[tx.index()] += 1;
    }
}

/// Per-node mean per-broadcast success rates measured by flooding probes.
///
/// Returns one rate per node in `[0, 1]`.
pub fn probe_per_node_success(topo: &Topology, s: u32, rounds: u32, master_seed: u64) -> Vec<f64> {
    assert!(s >= 1, "need at least one slot");
    assert!(rounds >= 1, "need at least one probe round");
    let n = topo.len();
    let cfg = GossipConfig {
        s,
        ..GossipConfig::flooding_cam()
    };

    let mut rate_sum = vec![0.0f64; n];
    let mut tx_count = vec![0u32; n];
    let mut tally = Tally(vec![0u32; n]);

    for round in 0..rounds {
        let seed = derive_seed(master_seed, Stream::Probe, u64::from(round));
        let arbiter = SlotArbiter::plain(&cfg, n);
        let trace = run_gossip_with(topo, &cfg, &mut tally, Coins::rng(seed), arbiter, None);
        // Flooding without faults: every informed node broadcast exactly
        // once, so its tally is the deliveries of that one broadcast.
        for (t, delivered) in tally.0.iter_mut().enumerate() {
            let deg = topo.degree(NodeId(t as u32));
            if trace.first_rx_phase[t] != NEVER && deg > 0 {
                rate_sum[t] += f64::from(*delivered) / deg as f64;
                tx_count[t] += 1;
            }
            *delivered = 0;
        }
    }

    // Global fallback for nodes that never transmitted.
    let (num, den) = rate_sum
        .iter()
        .zip(&tx_count)
        .fold((0.0, 0u32), |(a, b), (&r, &c)| (a + r, b + c));
    let global = if den > 0 { num / f64::from(den) } else { 0.0 };
    rate_sum
        .iter()
        .zip(&tx_count)
        .map(|(&r, &c)| if c > 0 { r / f64::from(c) } else { global })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::deployment::{ClusterDeployment, Deployment};

    #[test]
    fn rates_are_probabilities() {
        let topo = nss_model::topology::Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(3));
        let rates = probe_per_node_success(&topo, 3, 3, 7);
        assert_eq!(rates.len(), topo.len());
        assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)));
        // In a connected-ish network, rates vary across nodes.
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "expected spatial variation");
    }

    #[test]
    fn deterministic() {
        let topo = nss_model::topology::Topology::build(&Deployment::disk(3, 1.0, 30.0).sample(1));
        let a = probe_per_node_success(&topo, 3, 2, 5);
        let b = probe_per_node_success(&topo, 3, 2, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn hotspot_nodes_see_lower_success() {
        // Clustered deployment: nodes inside a hotspot contend with many
        // neighbors → lower measured success than sparse background nodes.
        let c = ClusterDeployment::new(5, 1.0, 4, 120.0, 1.0, 2.0);
        let net = Deployment::Cluster(c).sample(11);
        let topo = nss_model::topology::Topology::build(&net);
        let rates = probe_per_node_success(&topo, 3, 3, 9);

        // Split nodes by degree (proxy for hotspot membership).
        let mut dense = Vec::new();
        let mut sparse = Vec::new();
        for (u, &rate) in rates.iter().enumerate() {
            let d = topo.degree(NodeId(u as u32));
            if d > 80 {
                dense.push(rate);
            } else if d > 0 && d < 20 {
                sparse.push(rate);
            }
        }
        assert!(!dense.is_empty() && !sparse.is_empty(), "need both classes");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&dense) < mean(&sparse),
            "hotspots should measure lower success: dense {:.3} vs sparse {:.3}",
            mean(&dense),
            mean(&sparse)
        );
    }
}
