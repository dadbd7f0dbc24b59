//! TDMA: implementing CFM on a collision-prone channel via time diversity.
//!
//! §3.2.1 of the paper lists TDMA among the multi-packet-reception
//! techniques that realize CFM's reliable broadcast: "assigning to each
//! sensor node a specific time slot that is ideally unique in its
//! neighborhood", while warning that such coordination "might not be
//! affordable for large scale networks". This module makes both halves of
//! that sentence concrete:
//!
//! * [`TdmaSchedule::build`] computes a **distance-2 greedy coloring** of
//!   the topology. Two transmitters within two hops share a potential
//!   receiver, so distance-2 separation is exactly the condition for a
//!   collision-free broadcast schedule under Assumption 6.
//! * [`Executor::run_tdma`](crate::executor::Executor::run_tdma) executes
//!   flooding on that schedule **through the CAM medium** — and the tests
//!   assert that *zero* collisions occur, i.e. the schedule really does
//!   implement CFM on CAM hardware.
//! * The price is the frame length (= color count), which grows with the
//!   distance-2 degree ≈ 4ρ: dense networks pay enormous latency for
//!   reliability — the trade-off the paper invokes to justify studying
//!   CSMA-style CAM algorithms instead.

use crate::bits::BitSet;
use crate::faults::FaultState;
use crate::medium::{Medium, MediumScratch};
use nss_model::comm::{CommunicationModel, MediumBackend};
use nss_model::faults::FaultPlan;
use nss_model::ids::NodeId;
use nss_model::topology::Topology;

/// A distance-2 TDMA slot assignment.
///
/// ```
/// use nss_model::prelude::*;
/// use nss_sim::executor::Executor;
/// use nss_sim::tdma::TdmaSchedule;
///
/// let topo = Topology::build(&Deployment::disk(3, 1.0, 30.0).sample(1));
/// let schedule = TdmaSchedule::build(&topo);
/// assert!(schedule.verify(&topo));
/// let out = Executor::new(&topo).run_tdma(&schedule);
/// assert_eq!(out.collisions, 0); // TDMA implements CFM on CAM hardware
/// ```
#[derive(Debug, Clone)]
pub struct TdmaSchedule {
    /// Slot (color) of each node within the frame.
    pub slot_of: Vec<u32>,
    /// Frame length (number of distinct slots).
    pub frame_len: u32,
}

impl TdmaSchedule {
    /// Greedy distance-2 coloring in descending-degree order (a standard
    /// heuristic: high-degree nodes are hardest to place, so place them
    /// first).
    pub fn build(topo: &Topology) -> Self {
        let n = topo.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&u| std::cmp::Reverse(topo.degree(NodeId(u))));

        let mut slot_of = vec![u32::MAX; n];
        let mut frame_len = 0u32;
        // Scratch: slots already used within distance 2 of the node being
        // colored, as a boolean bitmap sized to the current frame.
        let mut used: Vec<bool> = Vec::new();
        for &u in &order {
            used.clear();
            used.resize(frame_len as usize + 1, false);
            let mut mark = |v: u32| {
                let s = slot_of[v as usize];
                if s != u32::MAX {
                    used[s as usize] = true;
                }
            };
            for &v in topo.neighbors(NodeId(u)) {
                mark(v);
                for &w in topo.neighbors(NodeId(v)) {
                    if w != u {
                        mark(w);
                    }
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "`used` is sized `max_degree + 2`, so a free slot always exists past the neighbors' claims"
            )]
            let slot = used
                .iter()
                .position(|&b| !b)
                .expect("bitmap always has a free trailing slot") as u32;
            slot_of[u as usize] = slot;
            frame_len = frame_len.max(slot + 1);
        }
        TdmaSchedule { slot_of, frame_len }
    }

    /// Verifies the distance-2 property: no two distinct nodes within two
    /// hops of each other share a slot.
    pub fn verify(&self, topo: &Topology) -> bool {
        for u in 0..topo.len() as u32 {
            let su = self.slot_of[u as usize];
            for &v in topo.neighbors(NodeId(u)) {
                if v != u && self.slot_of[v as usize] == su {
                    return false;
                }
                for &w in topo.neighbors(NodeId(v)) {
                    if w != u && self.slot_of[w as usize] == su {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Outcome of a TDMA flooding execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdmaOutcome {
    /// Total nodes.
    pub n_total: usize,
    /// Nodes informed (including the source).
    pub informed: usize,
    /// Transmissions performed (one per informed node with neighbors).
    pub transmissions: u64,
    /// Clean deliveries observed.
    pub deliveries: u64,
    /// Collisions observed (must be zero for a valid schedule).
    pub collisions: u64,
    /// Receptions destroyed by the fault plan's link-loss coin (zero for
    /// fault-free runs).
    pub losses: u64,
    /// Receptions addressed to fault-killed nodes (zero for fault-free
    /// runs).
    pub dead_drops: u64,
    /// Elapsed time in **slots** (contrast with CSMA phases of `s` slots).
    pub slots_elapsed: u64,
    /// Frame length of the schedule used.
    pub frame_len: u32,
}

impl TdmaOutcome {
    /// Informed fraction.
    pub fn reachability(&self) -> f64 {
        self.informed as f64 / self.n_total as f64
    }
}

/// Core TDMA loop, parameterized over the physical-layer backend (the
/// [`crate::executor::Executor`] entry point). Under a SINR backend the
/// `collisions` field counts every reception garbled by interference —
/// in-range concurrency *and* SINR-threshold rejects.
pub(crate) fn run_tdma_with(
    topo: &Topology,
    schedule: &TdmaSchedule,
    faults: Option<(&FaultPlan, u64)>,
    backend: MediumBackend,
) -> TdmaOutcome {
    let n = topo.len();
    assert_eq!(schedule.slot_of.len(), n, "schedule/topology size mismatch");
    let medium = Medium::with_backend(CommunicationModel::CAM, backend);
    let mut scratch = MediumScratch::new(n);
    let mut fault_state = faults.map(|(plan, fseed)| FaultState::new(plan, fseed, n));

    let mut informed = BitSet::new(n);
    informed.set(NodeId::SOURCE.index());
    let mut has_tx = BitSet::new(n);
    let mut pending = 1usize; // informed nodes that have not yet transmitted

    let mut transmissions = 0u64;
    let mut deliveries = 0u64;
    let mut collisions = 0u64;
    let mut losses = 0u64;
    let mut dead_drops = 0u64;
    let mut slots_elapsed = 0u64;
    let frame = u64::from(schedule.frame_len.max(1));

    // Safety cap: every node transmits at most once, so at most n frames
    // suffice in the fault-free case; faults can only remove transmissions.
    let max_slots = frame * (n as u64 + 1);
    let mut transmitters: Vec<u32> = Vec::new();
    while pending > 0 && slots_elapsed < max_slots {
        let slot = (slots_elapsed % frame) as u32;
        let phase = (slots_elapsed / frame) as u32 + 1;
        if slot == 0 {
            if let Some(fs) = fault_state.as_mut() {
                fs.begin_phase(phase);
            }
        }
        transmitters.clear();
        // Word-parallel scan over `informed & !has_tx`: only the pending
        // frontier is visited, not all n nodes.
        informed.for_each_set_and_not(&has_tx, |ui| {
            if schedule.slot_of[ui] == slot {
                if let Some(fs) = fault_state.as_ref() {
                    if !fs.is_alive(ui) {
                        return; // sleeps through its slot; retries next frame
                    }
                }
                transmitters.push(ui as u32);
            }
        });
        if !transmitters.is_empty() {
            // Expected deliveries if collision-free: sum of degrees.
            let expected: u64 = transmitters
                .iter()
                .map(|&t| topo.degree(NodeId(t)) as u64)
                .sum();
            let sf = fault_state.as_ref().map(|fs| fs.slot(phase, slot));
            let stats =
                medium.resolve_slot(topo, &transmitters, &mut scratch, sf.as_ref(), |rx, _tx| {
                    if !informed.get(rx.index()) {
                        informed.set(rx.index());
                        pending += 1;
                    }
                });
            deliveries += stats.deliveries;
            collisions += expected - stats.deliveries - stats.losses - stats.dead_drops;
            losses += stats.losses;
            dead_drops += stats.dead_drops;
            transmissions += transmitters.len() as u64;
            for &t in &transmitters {
                has_tx.set(t as usize);
                pending -= 1;
            }
            if let Some(fs) = fault_state.as_mut() {
                for &t in &transmitters {
                    fs.note_broadcast(t);
                }
            }
        }
        slots_elapsed += 1;
    }

    TdmaOutcome {
        n_total: n,
        informed: informed.count_ones(),
        transmissions,
        deliveries,
        collisions,
        losses,
        dead_drops,
        slots_elapsed,
        frame_len: schedule.frame_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use nss_model::deployment::{DeployedNetwork, Deployment};
    use nss_model::geometry::Point2;

    // The former free-function entry points, reconstructed on top of the
    // `Executor` builder: every outcome below exercises the public API.
    fn run_tdma_flooding(topo: &Topology, schedule: &TdmaSchedule) -> TdmaOutcome {
        Executor::new(topo).run_tdma(schedule)
    }

    fn run_tdma_flooding_faulty(
        topo: &Topology,
        schedule: &TdmaSchedule,
        plan: &FaultPlan,
        faults_seed: u64,
    ) -> TdmaOutcome {
        Executor::new(topo)
            .faults(plan.clone())
            .faults_seed(faults_seed)
            .run_tdma(schedule)
    }

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    #[test]
    fn line_coloring_uses_three_slots() {
        // Distance-2 coloring of a path needs exactly 3 colors.
        let topo = line(10);
        let schedule = TdmaSchedule::build(&topo);
        assert!(schedule.verify(&topo));
        assert_eq!(schedule.frame_len, 3);
    }

    #[test]
    fn coloring_valid_on_random_disks() {
        for (rho, seed) in [(20.0, 1u64), (60.0, 2), (100.0, 3)] {
            let topo = Topology::build(&Deployment::disk(3, 1.0, rho).sample(seed));
            let schedule = TdmaSchedule::build(&topo);
            assert!(schedule.verify(&topo), "invalid coloring at rho={rho}");
            // Frame length bounded by distance-2 degree + 1.
            let mut max_d2 = 0usize;
            for u in 0..topo.len() as u32 {
                let mut seen = std::collections::HashSet::new();
                for &v in topo.neighbors(NodeId(u)) {
                    seen.insert(v);
                    for &w in topo.neighbors(NodeId(v)) {
                        if w != u {
                            seen.insert(w);
                        }
                    }
                }
                max_d2 = max_d2.max(seen.len());
            }
            assert!(
                schedule.frame_len as usize <= max_d2 + 1,
                "frame {} exceeds greedy bound {}",
                schedule.frame_len,
                max_d2 + 1
            );
        }
    }

    #[test]
    fn tdma_flooding_is_collision_free_on_cam() {
        // The whole point: a distance-2 schedule implements CFM on the CAM
        // medium — zero collisions even though arbitration is Assumption 6.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 60.0).sample(7));
        let schedule = TdmaSchedule::build(&topo);
        let out = run_tdma_flooding(&topo, &schedule);
        assert_eq!(out.collisions, 0, "TDMA must be collision-free");
        // Full coverage of the connected component.
        let expect = topo.reachable_fraction(NodeId::SOURCE);
        assert!((out.reachability() - expect).abs() < 1e-12);
        // One transmission per informed node.
        assert_eq!(out.transmissions, out.informed as u64);
    }

    #[test]
    fn tdma_latency_scales_with_frame_length() {
        // Dense network: long frame → flooding takes ecc·frame-ish slots,
        // far beyond CSMA's phase count. Quantifies §3.2.1's affordability
        // warning.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 80.0).sample(9));
        let schedule = TdmaSchedule::build(&topo);
        let out = run_tdma_flooding(&topo, &schedule);
        assert_eq!(out.collisions, 0);
        assert!(
            out.frame_len as f64 > 80.0,
            "distance-2 frame should exceed rho: {}",
            out.frame_len
        );
        assert!(
            out.slots_elapsed > u64::from(out.frame_len),
            "multi-hop flooding spans multiple frames"
        );
    }

    #[test]
    fn line_flooding_completes_quickly() {
        let topo = line(8);
        let schedule = TdmaSchedule::build(&topo);
        let out = run_tdma_flooding(&topo, &schedule);
        assert_eq!(out.informed, 8);
        assert_eq!(out.collisions, 0);
        // 7 hops × frame 3 is a loose upper bound.
        assert!(out.slots_elapsed <= 7 * 3 + 3);
    }

    #[test]
    fn deliveries_equal_degree_sums() {
        // Collision-free ⇒ every transmission reaches all its neighbors.
        let topo = Topology::build(&Deployment::disk(3, 1.0, 30.0).sample(4));
        let schedule = TdmaSchedule::build(&topo);
        let out = run_tdma_flooding(&topo, &schedule);
        assert_eq!(out.collisions, 0);
        // Only informed nodes transmit; each delivers deg packets.
        assert!(out.deliveries >= out.transmissions, "deg ≥ 1 in this net");
    }

    #[test]
    fn deterministic() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 40.0).sample(2));
        let s1 = TdmaSchedule::build(&topo);
        let s2 = TdmaSchedule::build(&topo);
        assert_eq!(s1.slot_of, s2.slot_of);
        assert_eq!(
            run_tdma_flooding(&topo, &s1).slots_elapsed,
            run_tdma_flooding(&topo, &s2).slots_elapsed
        );
    }

    #[test]
    fn empty_plan_matches_fault_free_run() {
        let topo = Topology::build(&Deployment::disk(3, 1.0, 40.0).sample(2));
        let schedule = TdmaSchedule::build(&topo);
        let plain = run_tdma_flooding(&topo, &schedule);
        let faulted = run_tdma_flooding_faulty(&topo, &schedule, &FaultPlan::none(), 123);
        assert_eq!(plain, faulted);
    }

    #[test]
    fn link_loss_breaks_tdma_reliability() {
        // TDMA implements CFM only under Assumption 5; with lossy links the
        // schedule still avoids collisions but deliveries drop.
        let topo = Topology::build(&Deployment::disk(3, 1.0, 40.0).sample(2));
        let schedule = TdmaSchedule::build(&topo);
        let plain = run_tdma_flooding(&topo, &schedule);
        let lossy = run_tdma_flooding_faulty(&topo, &schedule, &FaultPlan::lossy(0.4), 9);
        assert_eq!(lossy.collisions, 0, "schedule still collision-free");
        assert!(lossy.losses > 0);
        assert!(lossy.deliveries < plain.deliveries);
        assert!(lossy.informed <= plain.informed);
        // Deterministic under the same faults seed.
        let again = run_tdma_flooding_faulty(&topo, &schedule, &FaultPlan::lossy(0.4), 9);
        assert_eq!(lossy, again);
    }

    #[test]
    fn duty_cycling_degrades_but_stays_deterministic() {
        // Sleeping receivers miss their neighbor's single transmission
        // permanently (TDMA has no retransmission), so duty cycling can
        // only reduce coverage — and the drops are accounted for.
        let topo = line(6);
        let schedule = TdmaSchedule::build(&topo);
        let mut plan = FaultPlan::none();
        plan.duty_cycle = Some(nss_model::faults::DutyCycle {
            period: 2,
            on_phases: 1,
        });
        let out = run_tdma_flooding_faulty(&topo, &schedule, &plan, 3);
        let plain = run_tdma_flooding(&topo, &schedule);
        assert!(out.informed <= plain.informed);
        assert!(
            out.informed >= 2,
            "the always-awake source still reaches someone"
        );
        assert!(out.dead_drops > 0, "sleeping receivers drop packets");
        assert_eq!(out, run_tdma_flooding_faulty(&topo, &schedule, &plan, 3));
    }

    #[test]
    fn per_phase_crashes_run_on_tdma() {
        // q = 1 crashes every non-source node at frame 1: the source's
        // broadcast lands on dead radios only.
        let topo = line(6);
        let schedule = TdmaSchedule::build(&topo);
        let all = FaultPlan::per_phase_crashes(topo.len(), 1.0, 4).unwrap();
        let out = run_tdma_flooding_faulty(&topo, &schedule, &all, 4);
        assert_eq!((out.informed, out.transmissions, out.dead_drops), (1, 1, 1));
        // A moderate hazard still costs coverage on a random field.
        let topo = Topology::build(&Deployment::disk(3, 1.0, 30.0).sample(5));
        let schedule = TdmaSchedule::build(&topo);
        let plan = FaultPlan::per_phase_crashes(topo.len(), 0.3, 4).unwrap();
        let out = run_tdma_flooding_faulty(&topo, &schedule, &plan, 4);
        assert!(out.informed < run_tdma_flooding(&topo, &schedule).informed);
        assert!(out.dead_drops > 0);
    }

    #[test]
    fn singleton() {
        let topo = line(1);
        let schedule = TdmaSchedule::build(&topo);
        let out = run_tdma_flooding(&topo, &schedule);
        assert_eq!(out.informed, 1);
        assert_eq!(out.transmissions, 1);
        assert_eq!(out.collisions, 0);
    }
}
