//! Event-delivery metric for transmit-only sensor fields.
//!
//! The paper's broadcast experiments measure how information spreads *from*
//! the source. Transmit-only capability classes
//! ([`Capability::TransmitOnly`](nss_model::faults::Capability)) invert the
//! question: a cheap sensor that can radio but never listen detects an
//! event and must push it *into* the network. This module scores that
//! uplink: every transmit-capable non-sink node repeatedly broadcasts its
//! event report over a contended CAM medium, and we count how many events
//! are (a) **heard** — cleanly received at least once by a node that can
//! listen — and (b) **deliverable** — heard by a receiver that can relay
//! to the sink (node 0) through the receive-capable subgraph.
//!
//! The relay leg is scored structurally (a BFS over alive, receive-capable
//! nodes), not simulated slot-by-slot: once a listening relay holds the
//! report, the ordinary gossip machinery of [`crate::slotted`] applies and
//! is measured elsewhere. What this metric isolates is the part that is
//! *new* under capability classes — the contended first hop out of a deaf
//! transmitter — so it is an optimistic bound on end-to-end delivery
//! (sleep schedules and energy exhaustion are ignored on the relay leg).
//!
//! All randomness (transmit coins, slot picks, link loss) is stateless
//! hashing, so the metric is deterministic for a given `(field, seed)` and
//! identical under any execution order.

use crate::faults::FaultState;
use crate::medium::{Medium, MediumScratch};
use nss_model::comm::{CommunicationModel, MediumBackend};
use nss_model::faults::{hash_unit, Capability, FaultPlan};
use nss_model::ids::NodeId;
use nss_model::topology::Topology;

/// Salt for the per-(source, round) transmit coin.
const EVENT_COIN_SALT: u64 = 0x00E7_C01A_5EED_0001;
/// Salt for the per-(source, round) slot pick.
const EVENT_SLOT_SALT: u64 = 0x00E7_5107_5EED_0002;

/// Scenario description for one event-delivery measurement.
#[derive(Debug, Clone, Copy)]
pub struct EventField<'a> {
    /// Capability classes and loss model for the field.
    pub plan: &'a FaultPlan,
    /// Seed for the plan's random decisions (capability draw, link loss).
    pub faults_seed: u64,
    /// How many phases each source retries its report.
    pub rounds: u32,
    /// Slots per round the sources randomize over.
    pub slots: u32,
    /// Per-round transmit probability of each source.
    pub prob: f64,
    /// Physical-layer backend arbitrating the uplink slots.
    pub backend: MediumBackend,
}

/// Outcome of [`run_event_delivery`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventDeliveryReport {
    /// Event sources: transmit-capable nodes other than the sink.
    pub sources: u32,
    /// Sources whose report was cleanly received by a listening node.
    pub heard: u32,
    /// Heard sources with a listening receiver in the sink's
    /// receive-capable component.
    pub delivered: u32,
    /// Rounds each source was given.
    pub rounds: u32,
    /// Garbled receptions across the run (collisions plus, under a SINR
    /// backend, sub-threshold rejects).
    pub collisions: u64,
    /// Mean 1-based round of first clean reception, over heard sources
    /// (`0.0` when nothing was heard).
    pub mean_first_heard_round: f64,
}

impl EventDeliveryReport {
    /// Fraction of sources heard by any listening node.
    pub fn heard_rate(&self) -> f64 {
        if self.sources == 0 {
            0.0
        } else {
            f64::from(self.heard) / f64::from(self.sources)
        }
    }

    /// Fraction of sources whose report can reach the sink.
    pub fn delivery_rate(&self) -> f64 {
        if self.sources == 0 {
            0.0
        } else {
            f64::from(self.delivered) / f64::from(self.sources)
        }
    }
}

/// True when `u` can relay toward the sink: fully capable (alive and
/// listening) under the field's capability draw.
fn relays(plan: &FaultPlan, u: u32, faults_seed: u64) -> bool {
    plan.capability_of(u, faults_seed) == Capability::Normal
}

/// BFS component of the sink over relay-capable nodes.
fn sink_component(topo: &Topology, plan: &FaultPlan, faults_seed: u64) -> Vec<bool> {
    let n = topo.len();
    let mut in_comp = vec![false; n];
    if n == 0 || !relays(plan, 0, faults_seed) {
        return in_comp;
    }
    in_comp[0] = true;
    let mut queue = std::collections::VecDeque::from([0u32]);
    while let Some(u) = queue.pop_front() {
        for &v in topo.neighbors(NodeId(u)) {
            if !in_comp[v as usize] && relays(plan, v, faults_seed) {
                in_comp[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    in_comp
}

/// Runs the uplink metric over `field` and returns its report.
///
/// Every transmit-capable node except the sink is an event source. Each
/// round, each not-yet-heard source flips a stateless coin
/// (`field.prob`), picks one of `field.slots` slots, and broadcasts; the
/// slots are arbitrated by the CAM medium under `field.backend`, with the
/// plan's link loss and hearing mask applied. Deterministic in
/// `(topo, field, seed)`.
pub fn run_event_delivery(
    topo: &Topology,
    field: &EventField<'_>,
    seed: u64,
) -> EventDeliveryReport {
    #[expect(
        clippy::panic,
        reason = "documented contract: entry points panic on invalid configs; `validate()` is the fallible path"
    )]
    field
        .plan
        .validate()
        .unwrap_or_else(|e| panic!("invalid FaultPlan: {e}"));
    #[expect(
        clippy::panic,
        reason = "documented contract: entry points panic on invalid configs"
    )]
    field
        .backend
        .validate()
        .unwrap_or_else(|e| panic!("invalid MediumBackend: {e}"));
    assert!(field.rounds > 0, "need at least one round");
    assert!(field.slots > 0, "need at least one slot per round");
    assert!(
        (0.0..=1.0).contains(&field.prob),
        "transmit probability must lie in [0,1]"
    );

    let n = topo.len();
    let medium = Medium::with_backend(CommunicationModel::CAM, field.backend);
    let mut scratch = MediumScratch::new(n);
    let mut fs = FaultState::new(field.plan, field.faults_seed, n);
    let in_comp = sink_component(topo, field.plan, field.faults_seed);

    let sources: Vec<u32> = (1..n as u32)
        .filter(|&u| {
            field
                .plan
                .capability_of(u, field.faults_seed)
                .can_transmit()
        })
        .collect();
    let mut first_heard: Vec<u32> = vec![u32::MAX; n];
    let mut delivered_mask = vec![false; n];
    let mut heard = 0u32;
    let mut delivered = 0u32;
    let mut collisions = 0u64;
    let mut slot_txs: Vec<Vec<u32>> = vec![Vec::new(); field.slots as usize];

    for round in 0..field.rounds {
        if heard == sources.len() as u32 {
            break;
        }
        fs.begin_phase(round);
        for bucket in &mut slot_txs {
            bucket.clear();
        }
        for &u in &sources {
            if first_heard[u as usize] != u32::MAX || !fs.is_alive(u as usize) {
                continue;
            }
            let payload = (u64::from(round) << 32) | u64::from(u);
            if hash_unit(seed ^ EVENT_COIN_SALT, payload) >= field.prob {
                continue;
            }
            let pick = hash_unit(seed ^ EVENT_SLOT_SALT, payload) * f64::from(field.slots);
            let slot = (pick as u32).min(field.slots - 1);
            slot_txs[slot as usize].push(u);
        }
        for (slot, txs) in slot_txs.iter().enumerate() {
            if txs.is_empty() {
                continue;
            }
            let sf = fs.slot(round, slot as u32);
            let stats = medium.resolve_slot(topo, txs, &mut scratch, Some(&sf), |rx, tx| {
                let (src, listener) = (tx.index(), rx.index());
                if first_heard[src] == u32::MAX {
                    first_heard[src] = round + 1;
                    heard += 1;
                }
                if !delivered_mask[src] && in_comp[listener] {
                    delivered_mask[src] = true;
                    delivered += 1;
                }
            });
            collisions += stats.collisions + stats.sinr_rejects;
        }
    }

    let heard_rounds: u64 = sources
        .iter()
        .filter(|&&u| first_heard[u as usize] != u32::MAX)
        .map(|&u| u64::from(first_heard[u as usize]))
        .sum();
    EventDeliveryReport {
        sources: sources.len() as u32,
        heard,
        delivered,
        rounds: field.rounds,
        collisions,
        mean_first_heard_round: if heard == 0 {
            0.0
        } else {
            heard_rounds as f64 / f64::from(heard)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::comm::SinrParams;
    use nss_model::deployment::Deployment;

    fn topo(nodes: u32, sample: u64) -> Topology {
        Topology::build(&Deployment::disk(nodes, 1.0, 60.0).sample(sample))
    }

    fn line(n: usize) -> Topology {
        use nss_model::deployment::DeployedNetwork;
        use nss_model::geometry::Point2;
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    fn field(plan: &FaultPlan) -> EventField<'_> {
        EventField {
            plan,
            faults_seed: 11,
            rounds: 20,
            slots: 4,
            prob: 0.5,
            backend: MediumBackend::UnitDisk,
        }
    }

    #[test]
    fn fault_free_connected_field_delivers_everything() {
        // A line is connected by construction, so every source's report
        // must be heard and deliverable within the retry budget.
        let topo = line(6);
        let plan = FaultPlan::none();
        let report = run_event_delivery(&topo, &field(&plan), 3);
        assert_eq!(report.sources as usize, topo.len() - 1);
        assert_eq!(report.heard, report.sources);
        assert_eq!(report.delivered, report.sources);
        assert!((report.heard_rate() - 1.0).abs() < 1e-12);
        assert!(report.mean_first_heard_round >= 1.0);
    }

    #[test]
    fn transmit_only_sources_still_count_and_deliver_through_listeners() {
        let topo = topo(5, 2);
        let plan = FaultPlan::transmit_only(0.4);
        let report = run_event_delivery(&topo, &field(&plan), 3);
        // Transmit-only nodes are sources too; only dead nodes drop out.
        assert_eq!(report.sources as usize, topo.len() - 1);
        assert!(report.heard > 0);
        assert!(report.delivered <= report.heard);
        // Determinism: same inputs, same report.
        let again = run_event_delivery(&topo, &field(&plan), 3);
        assert_eq!(report, again);
    }

    #[test]
    fn saturated_transmit_only_field_is_deaf() {
        // Near-total transmit-only fraction: almost nobody can listen, so
        // hearing (and delivery) collapses versus the fault-free field.
        let topo = topo(5, 2);
        let healthy = FaultPlan::none();
        let deaf = FaultPlan::transmit_only(0.95);
        let base = run_event_delivery(&topo, &field(&healthy), 3);
        let worst = run_event_delivery(&topo, &field(&deaf), 3);
        assert!(worst.heard < base.heard);
        assert!(worst.delivered < base.delivered);
    }

    #[test]
    fn sinr_backend_is_deterministic_and_bounded() {
        let topo = topo(5, 2);
        let plan = FaultPlan::transmit_only(0.3);
        let mut f = field(&plan);
        f.backend = MediumBackend::Sinr(SinrParams::DEFAULT);
        let a = run_event_delivery(&topo, &f, 9);
        let b = run_event_delivery(&topo, &f, 9);
        assert_eq!(a, b);
        assert!(a.heard <= a.sources);
        assert!(a.delivered <= a.heard);
    }

    #[test]
    fn dead_sink_kills_delivery_but_not_hearing() {
        let topo = topo(5, 2);
        // Kill every node's relay capability by making everyone lossless
        // but the sink unreachable: a fully dead field has no sources.
        let plan = FaultPlan::thinned(1.0);
        let report = run_event_delivery(&topo, &field(&plan), 3);
        assert_eq!(report.sources, 0);
        assert_eq!(report.heard, 0);
        assert_eq!(report.delivery_rate(), 0.0);
    }
}
