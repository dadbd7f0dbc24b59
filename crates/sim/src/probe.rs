//! Per-node success-rate probing.
//!
//! §6 of the paper proposes tuning the broadcast probability from the
//! locally observable per-broadcast success rate instead of the (unknown,
//! possibly spatially varying) node density. The global variant is
//! measured by [`crate::slotted`]'s success-rate tracking; this module
//! measures the **per-node** rate — the quantity each node would estimate
//! for itself in a deployment with density hotspots.
//!
//! The probe runs `rounds` simple-flooding executions and records, for
//! every broadcast a node performs, the fraction of its neighbors that
//! received the packet cleanly. Nodes that never transmitted during the
//! probe (unreached, or zero-degree) fall back to the global mean.

use crate::bits::BitSet;
use crate::medium::{Medium, MediumScratch};
use nss_model::comm::CommunicationModel;
use nss_model::ids::NodeId;
use nss_model::rng::{derive_seed, Stream};
use nss_model::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-node mean per-broadcast success rates measured by flooding probes.
///
/// Returns one rate per node in `[0, 1]`.
pub fn probe_per_node_success(topo: &Topology, s: u32, rounds: u32, master_seed: u64) -> Vec<f64> {
    assert!(s >= 1, "need at least one slot");
    assert!(rounds >= 1, "need at least one probe round");
    let n = topo.len();
    let medium = Medium::new(CommunicationModel::CAM);
    let mut scratch = MediumScratch::new(n);

    let mut rate_sum = vec![0.0f64; n];
    let mut tx_count = vec![0u32; n];
    let mut delivered = vec![0u32; n];

    for round in 0..rounds {
        let mut rng =
            SmallRng::seed_from_u64(derive_seed(master_seed, Stream::Probe, u64::from(round)));
        let mut informed = BitSet::new(n);
        informed.set(NodeId::SOURCE.index());
        let mut pending: Vec<u32> = vec![NodeId::SOURCE.0];
        let mut slots: Vec<Vec<u32>> = vec![Vec::new(); s as usize];
        let mut first = true;

        while !pending.is_empty() {
            for sl in &mut slots {
                sl.clear();
            }
            if first {
                slots[0].push(NodeId::SOURCE.0);
                first = false;
            } else {
                for &u in &pending {
                    slots[rng.random_range(0..s) as usize].push(u);
                }
            }
            let mut newly: Vec<u32> = Vec::new();
            for sl in &slots {
                medium.resolve_slot(topo, sl, &mut scratch, None, |rx, tx| {
                    delivered[tx.index()] += 1;
                    if !informed.get(rx.index()) {
                        informed.set(rx.index());
                        newly.push(rx.0);
                    }
                });
            }
            for sl in &slots {
                for &t in sl {
                    let deg = topo.degree(NodeId(t));
                    if deg > 0 {
                        rate_sum[t as usize] += f64::from(delivered[t as usize]) / deg as f64;
                        tx_count[t as usize] += 1;
                    }
                    delivered[t as usize] = 0;
                }
            }
            pending = newly;
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
