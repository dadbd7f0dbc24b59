//! Executor-side interpretation of a [`FaultPlan`].
//!
//! The plan itself (in `nss-model`) is a pure description; this module
//! turns it into per-phase liveness masks and per-slot link-loss decisions
//! for the simulator. Two invariants drive the design:
//!
//! 1. **Statelessness of random decisions.** Link-loss coins and
//!    dead-from-start thinning are pure hashes of
//!    `(faults_seed, phase, slot, tx, rx)` — no RNG object is advanced, so
//!    outcomes are identical under any thread count and any evaluation
//!    order, and the protocol/jitter streams are never perturbed.
//! 2. **Zero cost when absent.** Executors map an empty plan to `None` and
//!    take the exact pre-fault code path; nothing here runs.

use crate::bits::BitSet;
use crate::medium::SlotStats;
use nss_model::faults::{hash_unit, Capability, FaultPlan, NodeOutage};
use nss_model::rng::splitmix64;

/// Per-slot fault context handed to [`crate::medium::Medium::resolve_slot`]:
/// a liveness mask plus the link-loss coin for this `(phase, slot)`.
#[derive(Debug)]
pub struct SlotFaults<'a> {
    /// Effective *hearing* mask this phase: dead receivers hear nothing,
    /// and neither do transmit-only nodes (which stay alive as senders but
    /// have no receiver chain).
    pub alive: &'a BitSet,
    /// Per-delivery independent loss probability.
    pub link_loss: f64,
    /// Whitened `(seed, phase, slot)` mix keying the per-link coins.
    mix: u64,
}

impl<'a> SlotFaults<'a> {
    /// Builds the context for one slot. `phase` and `slot` index the coin
    /// space so repeated transmissions over the same link see independent
    /// losses.
    pub fn new(alive: &'a BitSet, link_loss: f64, faults_seed: u64, phase: u32, slot: u32) -> Self {
        let mut s = faults_seed
            ^ u64::from(phase).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ u64::from(slot).wrapping_mul(0x1656_67B1_9E37_79F9);
        let mix = splitmix64(&mut s);
        SlotFaults {
            alive,
            link_loss,
            mix,
        }
    }

    /// Whether the `tx → rx` packet survives the independent link-loss
    /// coin in this slot. Pure function of `(mix, tx, rx)`.
    pub fn link_delivers(&self, tx: u32, rx: u32) -> bool {
        if self.link_loss <= 0.0 {
            return true;
        }
        if self.link_loss >= 1.0 {
            return false;
        }
        hash_unit(self.mix, (u64::from(tx) << 32) | u64::from(rx)) >= self.link_loss
    }
}

/// Phase-stepped liveness tracking for one execution of a [`FaultPlan`].
///
/// Composes the plan's downtime sources — scheduled outages, duty cycling,
/// dead-from-start thinning, and energy exhaustion — into a single `alive`
/// mask, recomputed at each [`FaultState::begin_phase`]. Energy exhaustion
/// ([`FaultState::note_broadcast`]) takes effect at the *next* phase
/// boundary: a node finishes the phase in which it spends its last unit.
#[derive(Debug)]
pub struct FaultState<'a> {
    plan: &'a FaultPlan,
    seed: u64,
    /// The plan's outages of non-source nodes below `n`, sorted by node:
    /// [`FaultState::begin_phase`] walks them alongside the nodes, so a
    /// phase costs O(n + |outages|) rather than a scan of every outage per
    /// node. (Outages of the source or of nodes outside the field have no
    /// effect, as in [`FaultPlan::scheduled_awake`].)
    outages: Vec<NodeOutage>,
    /// Survives the run-level `dead_frac` thinning (fixed at construction).
    survives: BitSet,
    /// Has a receiver chain: capability class is not
    /// [`Capability::TransmitOnly`] (fixed at construction).
    rx_capable: BitSet,
    /// Broadcast counts toward `energy_budget`.
    broadcasts: Vec<u32>,
    exhausted: BitSet,
    alive: BitSet,
    /// `alive ∧ rx_capable` — the reception-gating mask handed to the
    /// medium. Bitwise equal to `alive` when `tx_only_frac` is zero, so
    /// plans without transmit-only nodes stay byte-identical.
    hearing: BitSet,
}

impl<'a> FaultState<'a> {
    /// Prepares fault tracking for an `n`-node execution under `seed`
    /// (derived from [`Stream::Faults`](nss_model::rng::Stream::Faults)).
    pub fn new(plan: &'a FaultPlan, seed: u64, n: usize) -> Self {
        let mut survives = BitSet::new(n);
        let mut rx_capable = BitSet::new(n);
        for u in 0..n {
            if plan.survives_thinning(u as u32, seed) {
                survives.set(u);
            }
            if plan.capability_of(u as u32, seed) != Capability::TransmitOnly {
                rx_capable.set(u);
            }
        }
        let mut outages: Vec<NodeOutage> = plan
            .outages
            .iter()
            .filter(|o| o.node != 0 && (o.node as usize) < n)
            .copied()
            .collect();
        outages.sort_by_key(|o| o.node);
        FaultState {
            plan,
            seed,
            outages,
            survives,
            rx_capable,
            broadcasts: vec![0; n],
            exhausted: BitSet::new(n),
            alive: BitSet::filled(n),
            hearing: BitSet::filled(n),
        }
    }

    /// Recomputes the effective liveness mask for `phase` (1-based).
    pub fn begin_phase(&mut self, phase: u32) {
        let mut outages = self.outages.iter().peekable();
        let duty = self.plan.duty_cycle;
        for u in 0..self.alive.len() {
            // Equal to `plan.scheduled_awake(u, phase)`: the node's outages
            // are the next run of the sorted list.
            let mut down = false;
            while let Some(o) = outages.next_if(|o| o.node as usize == u) {
                down |= o.covers(phase);
            }
            let scheduled = u == 0 || (!down && duty.is_none_or(|d| d.awake(u as u32, phase)));
            let alive = self.survives.get(u) && !self.exhausted.get(u) && scheduled;
            self.alive.assign(u, alive);
            self.hearing.assign(u, alive && self.rx_capable.get(u));
        }
    }

    /// Effective liveness mask for the current phase.
    pub fn alive(&self) -> &BitSet {
        &self.alive
    }

    /// Whether node `u` is alive in the current phase (can transmit;
    /// transmit-only nodes count as alive).
    pub fn is_alive(&self, u: usize) -> bool {
        self.alive.get(u)
    }

    /// The reception-gating mask (`alive ∧ rx_capable`) for this phase:
    /// node `u` can *receive* iff it is alive and not in the transmit-only
    /// capability class.
    pub fn hearing(&self) -> &BitSet {
        &self.hearing
    }

    /// Number of alive nodes in the current phase.
    pub fn alive_count(&self) -> u32 {
        self.alive.count_ones() as u32
    }

    /// Records one broadcast by `u` toward its energy budget. The source
    /// (node 0) is exempt — a dead source makes every metric degenerate.
    pub fn note_broadcast(&mut self, u: u32) {
        if u == 0 {
            return;
        }
        let Some(budget) = self.plan.energy_budget else {
            return;
        };
        let c = &mut self.broadcasts[u as usize];
        *c += 1;
        if *c >= budget {
            self.exhausted.set(u as usize);
        }
    }

    /// Per-slot fault context for the medium. The reception mask is the
    /// hearing mask, so transmit-only nodes are counted as `dead_drops`
    /// receivers exactly like fault-killed ones.
    pub fn slot(&self, phase: u32, slot: u32) -> SlotFaults<'_> {
        SlotFaults::new(&self.hearing, self.plan.link_loss, self.seed, phase, slot)
    }
}

/// Publishes a phase's fault counters to `nss-obs` (no-ops when the `obs`
/// feature is off or instrumentation is disabled).
pub fn record_fault_obs(stats: &SlotStats) {
    nss_obs::counter!("sim.losses").add(stats.losses);
    nss_obs::counter!("sim.dead_drops").add(stats.dead_drops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::faults::DutyCycle;
    use proptest::prelude::*;
    use proptest::{collection, option};

    #[test]
    fn link_coins_are_deterministic_and_slot_independent() {
        let alive = BitSet::filled(4);
        let a = SlotFaults::new(&alive, 0.5, 99, 3, 1);
        let b = SlotFaults::new(&alive, 0.5, 99, 3, 1);
        for tx in 0..4u32 {
            for rx in 0..4u32 {
                assert_eq!(a.link_delivers(tx, rx), b.link_delivers(tx, rx));
            }
        }
        // Different slots / phases / seeds key independent coins: over many
        // links the outcomes must not all agree.
        let c = SlotFaults::new(&alive, 0.5, 99, 3, 2);
        let d = SlotFaults::new(&alive, 0.5, 100, 3, 1);
        let links: Vec<(u32, u32)> = (0..40).map(|i| (i, (i + 1) % 40)).collect();
        let same_c = links
            .iter()
            .filter(|&&(t, r)| a.link_delivers(t, r) == c.link_delivers(t, r))
            .count();
        let same_d = links
            .iter()
            .filter(|&&(t, r)| a.link_delivers(t, r) == d.link_delivers(t, r))
            .count();
        assert!(same_c < links.len(), "slot index must matter");
        assert!(same_d < links.len(), "seed must matter");
    }

    #[test]
    fn link_loss_extremes() {
        let alive = BitSet::filled(2);
        let never = SlotFaults::new(&alive, 0.0, 1, 1, 0);
        assert!(never.link_delivers(0, 1));
        let always = SlotFaults::new(&alive, 1.0, 1, 1, 0);
        assert!(!always.link_delivers(0, 1));
    }

    #[test]
    fn link_loss_rate_matches_probability() {
        let alive = BitSet::filled(2);
        let f = SlotFaults::new(&alive, 0.3, 7, 2, 0);
        let lost = (0..10_000u32)
            .filter(|&i| !f.link_delivers(i, i.wrapping_add(1)))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((0.27..=0.33).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn fault_state_composes_downtime() {
        let mut plan = FaultPlan::none();
        plan.outages.push(NodeOutage {
            node: 2,
            from_phase: 2,
            until_phase: Some(4),
        });
        plan.duty_cycle = Some(DutyCycle {
            period: 2,
            on_phases: 1,
        });
        let mut fs = FaultState::new(&plan, 5, 4);
        fs.begin_phase(1);
        // Source always alive; others follow the duty stagger.
        assert!(fs.is_alive(0));
        fs.begin_phase(2);
        assert!(!fs.is_alive(2), "outage overrides duty cycle");
        fs.begin_phase(4);
        // Outage over; node 2's duty phase: (4+2)%2=0 < 1 → awake.
        assert!(fs.is_alive(2));
        assert!(fs.alive_count() >= 1);
    }

    #[test]
    fn energy_budget_exhausts_at_next_phase() {
        let mut plan = FaultPlan::none();
        plan.energy_budget = Some(2);
        let mut fs = FaultState::new(&plan, 0, 3);
        fs.begin_phase(1);
        fs.note_broadcast(1);
        fs.begin_phase(2);
        assert!(fs.is_alive(1), "one broadcast of two spent");
        fs.note_broadcast(1);
        assert!(fs.is_alive(1), "still alive within the phase");
        fs.begin_phase(3);
        assert!(!fs.is_alive(1), "budget exhausted");
        // The source never exhausts.
        fs.note_broadcast(0);
        fs.note_broadcast(0);
        fs.note_broadcast(0);
        fs.begin_phase(4);
        assert!(fs.is_alive(0));
    }

    #[test]
    fn hearing_mask_tracks_capability_classes() {
        // Without transmit-only nodes the hearing mask IS the alive mask.
        let plan = FaultPlan::thinned(0.4);
        let mut fs = FaultState::new(&plan, 11, 300);
        fs.begin_phase(1);
        assert_eq!(fs.hearing(), fs.alive());
        // With a transmit-only class, tx-only nodes stay alive (transmit)
        // but drop out of the hearing mask.
        let mixed = FaultPlan {
            dead_frac: 0.2,
            tx_only_frac: 0.3,
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&mixed, 11, 300);
        fs.begin_phase(1);
        let mut tx_only_seen = 0;
        for u in 0..300 {
            match mixed.capability_of(u as u32, 11) {
                Capability::Normal => {
                    assert!(fs.is_alive(u) && fs.hearing().get(u), "node {u}");
                }
                Capability::TransmitOnly => {
                    assert!(fs.is_alive(u) && !fs.hearing().get(u), "node {u}");
                    tx_only_seen += 1;
                }
                Capability::Dead => {
                    assert!(!fs.is_alive(u) && !fs.hearing().get(u), "node {u}");
                }
            }
        }
        assert!(tx_only_seen > 50, "expected a sizable tx-only class");
        // The slot context gates reception on the hearing mask.
        let sf = fs.slot(1, 0);
        assert_eq!(sf.alive, fs.hearing());
    }

    #[test]
    fn thinning_fixed_for_whole_run() {
        let plan = FaultPlan::thinned(0.5);
        let mut fs = FaultState::new(&plan, 31, 200);
        fs.begin_phase(1);
        let first = fs.alive().clone();
        fs.begin_phase(7);
        assert_eq!(fs.alive(), &first, "thinning is run-level");
        assert!(fs.is_alive(0), "source survives");
        let dead = 200 - first.count_ones();
        assert!(dead > 50, "roughly half should die, got {dead}/200");
    }

    #[test]
    fn source_outage_leaves_the_source_awake() {
        let mut plan = FaultPlan::none();
        plan.outages.push(NodeOutage::crash(0, 1));
        plan.outages.push(NodeOutage::crash(1, 2));
        let mut fs = FaultState::new(&plan, 0, 3);
        for phase in 1..5 {
            fs.begin_phase(phase);
            assert!(fs.is_alive(0) && fs.hearing().get(0), "phase {phase}");
            assert_eq!(fs.is_alive(1), phase < 2, "phase {phase}");
            assert!(fs.is_alive(2), "phase {phase}");
        }
    }

    #[test]
    fn outage_beyond_the_field_is_ignored() {
        use crate::executor::Executor;
        use crate::slotted::GossipConfig;
        use nss_model::deployment::DeployedNetwork;
        use nss_model::geometry::Point2;
        use nss_model::topology::Topology;

        let plan = FaultPlan::parse_spec("out=4000000000:1-").unwrap();
        let mut fs = FaultState::new(&plan, 0, 100);
        fs.begin_phase(1);
        assert_eq!(fs.alive_count(), 100);
        // End to end on a 100-node field: nobody is down, and the run
        // informs exactly the nodes the fault-free run does.
        let pts = (0..100)
            .map(|i| Point2::new(f64::from(i % 10) * 0.6, f64::from(i / 10) * 0.6))
            .collect();
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let cfg = GossipConfig::pb_cam(0.6);
        let plain = Executor::new(&topo).gossip(cfg).run(5);
        let faulted = Executor::new(&topo).gossip(cfg).faults(plan).run(5);
        assert!(faulted.alive_by_phase.iter().all(|&a| a == 100));
        assert_eq!(plain.first_rx_phase, faulted.first_rx_phase);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The node-sorted outage index agrees with the plan's own
        /// per-node scan, `FaultPlan::scheduled_awake`, on random outage
        /// lists (several per node, some of the source or past the field)
        /// with and without a duty cycle, at every phase.
        #[test]
        fn outage_index_matches_scheduled_awake(
            n in 1usize..40,
            outages in collection::vec((0u32..48, 1u32..12, option::of(1u32..8)), 0..60),
            duty in option::of((1u32..5, 1u32..5)),
        ) {
            let mut plan = FaultPlan::none();
            plan.outages = outages
                .iter()
                .map(|&(node, from_phase, len)| NodeOutage {
                    node,
                    from_phase,
                    until_phase: len.map(|l| from_phase + l),
                })
                .collect();
            plan.duty_cycle = duty.map(|(on, extra)| DutyCycle {
                period: on + extra - 1,
                on_phases: on,
            });
            let mut fs = FaultState::new(&plan, 0, n);
            for phase in 1..16 {
                fs.begin_phase(phase);
                for u in 0..n {
                    prop_assert_eq!(
                        fs.is_alive(u),
                        plan.scheduled_awake(u as u32, phase),
                        "node {}, phase {}", u, phase
                    );
                }
            }
        }
    }
}
