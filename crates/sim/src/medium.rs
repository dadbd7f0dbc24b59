//! Per-slot medium arbitration: who receives what, under CFM or CAM.
//!
//! The slotted executor hands the medium the set of nodes transmitting in
//! one slot; the medium applies the communication model's reception rule
//! (§3.2 / Assumption 6 / Appendix A) and reports every clean delivery as a
//! `(receiver, transmitter)` pair:
//!
//! * **CFM** — every transmission reaches every neighbor (atomic, reliable).
//! * **CAM, transmission range** — `v` receives iff exactly one node within
//!   `r` of `v` transmitted in the slot.
//! * **CAM, carrier sense `f·r`** — additionally, no node in the annulus
//!   `(r, f·r]` of `v` may have transmitted.
//!
//! A second physical-layer *backend* replaces the unit-disk reception rule
//! with the SINR model (see [`MediumBackend::Sinr`]): normalized received
//! power `p = (r²/d²)^(α/2)` per transmitter, and `v` decodes its strongest
//! in-range candidate iff `p / (N + Σ interference) ≥ β`, with interference
//! summed over every other transmitter within `κ·r` of `v`. The sum is
//! accumulated per receiver in the spatial grid's canonical iteration
//! order, so results are bit-identical under any engine or thread count.
//!
//! Each rule is written once, here, as a crate-private pure function that
//! both engines call — [`Medium::resolve_slot`] with plain words, and the
//! sharded engine's pass A / pass B with relaxed atomic words:
//!
//! * `expose` — which nodes one transmission reaches, and how;
//! * `exposure_add` — one such visit as an increment of the receiver's
//!   packed exposure word (in-range count, annulus count, transmitter id);
//! * `classify` — Assumption 6 / Appendix A at one receiver, from its word;
//! * `sinr_decode` — the SINR threshold test at one receiver;
//! * `gate` — the fault plan's hearing mask and link-loss coin.

use crate::bits::BitSet;
use crate::faults::SlotFaults;
use nss_model::comm::{CollisionRule, CommunicationModel, MediumBackend, SinrParams};
use nss_model::ids::NodeId;
use nss_model::topology::Topology;

/// Reusable scratch buffers for slot resolution (sized to the topology).
///
/// Each receiver's exposure is one packed word (`exposure_add`), the
/// same encoding the sharded engine's atomic arbiter accumulates, so its
/// 16-bit count fields cap a receiver at 65,535 in-range (and as many
/// annulus) transmitters per slot.
#[derive(Debug)]
pub struct MediumScratch {
    exposure: Vec<u64>,
    touched: Vec<u32>,
    tx_bits: BitSet,
}

impl MediumScratch {
    /// Allocates scratch space for an `n`-node topology.
    pub fn new(n: usize) -> Self {
        MediumScratch {
            exposure: vec![0; n],
            touched: Vec::with_capacity(256),
            tx_bits: BitSet::new(n),
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.exposure[v as usize] = 0;
        }
        self.touched.clear();
    }

    /// Accumulates one [`expose`] visit: transmitter `t` reaches `v`.
    fn note(&mut self, v: u32, t: u32, reach: Reach) {
        let w = &mut self.exposure[v as usize];
        if *w == 0 {
            self.touched.push(v);
        }
        debug_assert!(
            *w & COUNT_MASK < COUNT_MASK && (*w >> 16) & COUNT_MASK < COUNT_MASK,
            "exposure count overflows 16 bits"
        );
        *w = w.wrapping_add(exposure_add(t, reach));
    }
}

/// Outcome accounting for one resolved slot.
///
/// Counts are per *(receiver, slot)* pair and pre-protocol-filtering: a
/// delivery to an already-informed node still counts here — duplicate
/// suppression is protocol logic layered above the medium. A receiver the
/// fault plan has down is a `dead_drops`, never a delivery (`gate`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Clean deliveries reported via `on_delivery`.
    pub deliveries: u64,
    /// Receivers that heard ≥ 2 in-range transmissions garble each other
    /// (CAM Assumption 6: nobody wins).
    pub collisions: u64,
    /// Receivers whose single clean reception was destroyed by
    /// carrier-annulus interference (Appendix A rule only).
    pub cs_deferrals: u64,
    /// Clean receptions destroyed by the fault plan's independent
    /// link-loss coin (the packet still occupied the channel, so it
    /// collided like any other transmission before the coin was flipped).
    pub losses: u64,
    /// Clean receptions addressed to a node the fault plan had killed
    /// (crash schedule, duty-cycle sleep, thinning, energy exhaustion).
    pub dead_drops: u64,
    /// Sole-candidate receptions the SINR threshold test rejected: no
    /// concurrent in-range transmitter, but out-of-range interference (or
    /// noise) pushed SINR below β. Zero under the unit-disk backend.
    pub sinr_rejects: u64,
    /// Deliveries decoded *despite* ≥ 2 concurrent in-range transmitters —
    /// the SINR capture effect, impossible under unit-disk Assumption 6.
    pub sinr_captures: u64,
}

impl SlotStats {
    /// Accumulates another slot's counts.
    pub fn absorb(&mut self, other: SlotStats) {
        self.deliveries += other.deliveries;
        self.collisions += other.collisions;
        self.cs_deferrals += other.cs_deferrals;
        self.losses += other.losses;
        self.dead_drops += other.dead_drops;
        self.sinr_rejects += other.sinr_rejects;
        self.sinr_captures += other.sinr_captures;
    }
}

/// The arbitration engine for one communication model.
#[derive(Debug, Clone, Copy)]
pub struct Medium {
    model: CommunicationModel,
    backend: MediumBackend,
}

impl Medium {
    /// Creates a medium implementing the given communication model under
    /// the default unit-disk backend (the paper's reception rules).
    pub fn new(model: CommunicationModel) -> Self {
        Medium {
            model,
            backend: MediumBackend::UnitDisk,
        }
    }

    /// Creates a medium with an explicit physical-layer backend.
    ///
    /// The backend only affects CAM arbitration: CFM is reliable by
    /// assumption, so it ignores the physical layer entirely. Under
    /// [`MediumBackend::Sinr`] the CAM [`CollisionRule`] is subsumed by
    /// the interference sum and ignored.
    pub fn with_backend(model: CommunicationModel, backend: MediumBackend) -> Self {
        Medium { model, backend }
    }

    /// The model this medium implements.
    pub fn model(&self) -> CommunicationModel {
        self.model
    }

    /// The physical-layer backend this medium resolves slots under.
    pub fn backend(&self) -> MediumBackend {
        self.backend
    }

    /// Resolves one slot: `transmitters` all transmit simultaneously;
    /// `on_delivery(receiver, transmitter)` fires for every clean delivery.
    /// Returns the slot's delivery/collision accounting (see [`SlotStats`]).
    ///
    /// Deliveries are reported for *all* in-range nodes, informed or not —
    /// duplicate-suppression is protocol logic, not medium logic. When a
    /// [`SlotFaults`] context is supplied, each *arbitration-clean* delivery
    /// is additionally gated by the receiver's liveness (`dead_drops`) and
    /// the independent link-loss coin (`losses`); arbitration itself is
    /// unaffected — a lost or unheard packet still occupied the channel.
    pub fn resolve_slot(
        &self,
        topo: &Topology,
        transmitters: &[u32],
        scratch: &mut MediumScratch,
        faults: Option<&SlotFaults<'_>>,
        mut on_delivery: impl FnMut(NodeId, NodeId),
    ) -> SlotStats {
        let mut stats = SlotStats::default();
        if transmitters.is_empty() {
            return stats;
        }
        let mut deliver = |stats: &mut SlotStats, tx: u32, rx: u32| {
            if gate(stats, faults, tx, rx) {
                on_delivery(NodeId(rx), NodeId(tx));
            }
        };
        let rule = Rule::of(self.model, self.backend);
        if let Rule::Cfm = rule {
            // Reliable: every neighbor hears every transmission.
            for &t in transmitters {
                expose(topo, t, None, |v, _| deliver(&mut stats, t, v));
            }
        } else {
            let sinr = matches!(rule, Rule::Sinr(_));
            scratch.reset();
            for &t in transmitters {
                expose(topo, t, rule.cs_factor(), |v, reach| {
                    scratch.note(v, t, reach)
                });
                if sinr {
                    scratch.tx_bits.set(t as usize);
                }
            }
            for &v in &scratch.touched {
                let heard = if let Rule::Sinr(params) = rule {
                    sinr_decode(topo, v, &params, &scratch.tx_bits, &mut stats)
                } else {
                    classify(scratch.exposure[v as usize], &mut stats)
                };
                if let Some(t) = heard {
                    deliver(&mut stats, t, v);
                }
            }
            if sinr {
                for &t in transmitters {
                    scratch.tx_bits.clear_bit(t as usize);
                }
            }
        }
        record_obs(&stats, matches!(rule, Rule::Sinr(_)), faults.is_some());
        stats
    }
}

/// Publishes a resolved slot's (or phase's) accounting to `nss-obs`; the
/// SINR and fault counters only when that layer is active.
pub(crate) fn record_obs(stats: &SlotStats, sinr: bool, faults: bool) {
    nss_obs::counter!("sim.deliveries").add(stats.deliveries);
    nss_obs::counter!("sim.collisions").add(stats.collisions);
    nss_obs::counter!("sim.cs_deferrals").add(stats.cs_deferrals);
    if sinr {
        nss_obs::counter!("sim.sinr.rejects").add(stats.sinr_rejects);
        nss_obs::counter!("sim.sinr.captures").add(stats.sinr_captures);
    }
    if faults {
        crate::faults::record_fault_obs(stats);
    }
}

/// The reception rule a `(model, backend)` pair selects. Both engines
/// dispatch on this one value, so they can never disagree about which
/// rule applies.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rule {
    /// CFM: every transmission reaches every neighbor.
    Cfm,
    /// CAM under the unit-disk backend, with the Appendix-A carrier-sense
    /// factor `f` when the collision rule has one.
    Cam {
        /// Carrier-sense range as a multiple of `r`.
        cs_factor: Option<f64>,
    },
    /// CAM under the SINR backend (the collision rule is subsumed).
    Sinr(SinrParams),
}

impl Rule {
    /// The rule a medium applies; CFM ignores the physical layer.
    pub(crate) fn of(model: CommunicationModel, backend: MediumBackend) -> Self {
        match (model, backend) {
            (CommunicationModel::Cfm, _) => Rule::Cfm,
            (CommunicationModel::Cam(_), MediumBackend::Sinr(params)) => Rule::Sinr(params),
            (CommunicationModel::Cam(rule), MediumBackend::UnitDisk) => Rule::Cam {
                cs_factor: match rule {
                    CollisionRule::TransmissionRange => None,
                    CollisionRule::CarrierSense { factor } => Some(factor),
                },
            },
        }
    }

    /// The carrier-sense factor [`expose`] walks the annulus with.
    pub(crate) fn cs_factor(self) -> Option<f64> {
        match self {
            Rule::Cam { cs_factor } => cs_factor,
            Rule::Cfm | Rule::Sinr(_) => None,
        }
    }
}

/// How a transmission reaches a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reach {
    /// Within the transmission range `r`.
    InRange,
    /// In the carrier-sense annulus `(r, f·r]`.
    Annulus,
}

/// Exposure walk for transmitter `t`: visits its in-range neighbors in
/// adjacency order, then — with a carrier-sense factor `f` — every node of
/// the annulus `(r, f·r]` in the grid's canonical order.
#[inline]
pub(crate) fn expose(
    topo: &Topology,
    t: u32,
    cs_factor: Option<f64>,
    mut visit: impl FnMut(u32, Reach),
) {
    for &v in topo.neighbors(NodeId(t)) {
        visit(v, Reach::InRange);
    }
    if let Some(factor) = cs_factor {
        let pos = topo.position(NodeId(t));
        let r = topo.comm_radius();
        let r2 = r * r;
        topo.for_each_within(&pos, factor * r, |v| {
            if v.0 != t && topo.position(v).dist_sq(&pos) > r2 {
                visit(v.0, Reach::Annulus);
            }
        });
    }
}

/// Mask of one 16-bit count field of an exposure word.
const COUNT_MASK: u64 = 0xFFFF;

/// One [`expose`] visit as an increment of the receiver's packed exposure
/// word, the accumulator both arbiters keep per receiver:
///
/// * bits 0–15 count the in-range transmitters,
/// * bits 16–31 count the carrier-sense annulus transmitters,
/// * bits 32–63 hold the wrapping sum of the in-range transmitter ids.
///
/// Adding increments is commutative, so the word is the same under any
/// visit order, and with exactly one in-range transmitter the id sum is
/// that transmitter's id. The id sum overflows bit 63 by design; callers
/// add with `wrapping_add` (atomic adds wrap anyway). The 16-bit counts
/// hold up to 65,535 transmitters each, far past any slot's contention.
#[inline]
pub(crate) fn exposure_add(t: u32, reach: Reach) -> u64 {
    match reach {
        Reach::InRange => (u64::from(t) << 32) | 1,
        Reach::Annulus => 1 << 16,
    }
}

/// Unit-disk classification at one receiver from its packed exposure word
/// ([`exposure_add`]): Assumption 6 garbles every reception when two or
/// more in-range transmitters reached it; Appendix A defers a single clean
/// one when any annulus transmitter did. Returns the transmitter heard and
/// tallies collisions and deferrals into `stats`.
#[inline]
pub(crate) fn classify(exposure: u64, stats: &mut SlotStats) -> Option<u32> {
    let rx = exposure & COUNT_MASK;
    let cs = (exposure >> 16) & COUNT_MASK;
    match (rx, cs) {
        (0, _) => None,
        (1, 0) => Some((exposure >> 32) as u32),
        (1, _) => {
            stats.cs_deferrals += 1;
            None
        }
        _ => {
            stats.collisions += 1;
            None
        }
    }
}

/// SINR decode at receiver `v`, given the slot's transmitter set.
///
/// One sweep of the spatial grid around `v` accumulates the interference
/// sum over every transmitter within `κ·r` in the grid's canonical order
/// (so the sum is bit-identical under any engine or thread count), tracks
/// the strongest in-range candidate (ties broken toward the lower node id)
/// and counts the candidates. The candidate decodes iff
/// `p / (noise + Σ others) ≥ β`. Returns the decoded transmitter and
/// tallies captures (decoded despite ≥ 2 candidates), collisions and
/// rejects into `stats`.
pub(crate) fn sinr_decode(
    topo: &Topology,
    v: u32,
    params: &SinrParams,
    tx_bits: &BitSet,
    stats: &mut SlotStats,
) -> Option<u32> {
    let r = topo.comm_radius();
    let r2 = r * r;
    // Floor d² at a tiny fraction of r² so co-located nodes don't produce
    // an infinite power (the result stays finite and deterministic).
    let d2_floor = r2 * 1e-12;
    let pos = topo.position(NodeId(v));
    let mut total = 0.0f64;
    let mut best_p = -1.0f64;
    let mut best_tx = u32::MAX;
    let mut candidates = 0u32;
    topo.for_each_within(&pos, params.interference_factor * r, |u| {
        if u.0 == v || !tx_bits.get(u.index()) {
            return;
        }
        let d2 = topo.position(u).dist_sq(&pos).max(d2_floor);
        let p = (r2 / d2).powf(params.alpha * 0.5);
        total += p;
        if d2 <= r2 {
            candidates += 1;
            if p > best_p || (p == best_p && u.0 < best_tx) {
                best_p = p;
                best_tx = u.0;
            }
        }
    });
    if best_tx == u32::MAX {
        return None; // only in-range receivers are asked; defensive
    }
    let denom = params.noise + (total - best_p).max(0.0);
    // No noise and no interference: SINR is unbounded.
    if denom <= 0.0 || best_p / denom >= params.beta {
        if candidates > 1 {
            stats.sinr_captures += 1;
        }
        Some(best_tx)
    } else {
        if candidates > 1 {
            stats.collisions += 1;
        } else {
            stats.sinr_rejects += 1;
        }
        None
    }
}

/// Fault gate for one arbitration-clean reception `tx → rx`: the receiver
/// must be in the hearing mask, then the packet must survive the link-loss
/// coin. Tallies the outcome (`dead_drops`, `losses` or `deliveries`) and
/// returns whether the packet is delivered. Without a fault context every
/// clean reception is delivered.
#[inline]
pub(crate) fn gate(
    stats: &mut SlotStats,
    faults: Option<&SlotFaults<'_>>,
    tx: u32,
    rx: u32,
) -> bool {
    if let Some(f) = faults {
        if !f.alive.get(rx as usize) {
            stats.dead_drops += 1;
            return false;
        }
        if !f.link_delivers(tx, rx) {
            stats.losses += 1;
            return false;
        }
    }
    stats.deliveries += 1;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::deployment::DeployedNetwork;
    use nss_model::geometry::Point2;

    /// Line of nodes at unit spacing with radius 1: i—(i±1) adjacency.
    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    fn collect_deliveries(medium: &Medium, topo: &Topology, tx: &[u32]) -> Vec<(u32, u32)> {
        let mut scratch = MediumScratch::new(topo.len());
        let mut out = Vec::new();
        medium.resolve_slot(topo, tx, &mut scratch, None, |rx, t| out.push((rx.0, t.0)));
        out.sort_unstable();
        out
    }

    #[test]
    fn cfm_delivers_to_all_neighbors_despite_concurrency() {
        let topo = line(4); // 0-1-2-3
        let medium = Medium::new(CommunicationModel::Cfm);
        // 1 and 2 transmit concurrently: CFM delivers everything.
        let d = collect_deliveries(&medium, &topo, &[1, 2]);
        assert_eq!(d, vec![(0, 1), (1, 2), (2, 1), (3, 2)]);
    }

    #[test]
    fn cam_single_transmitter_reaches_neighbors() {
        let topo = line(4);
        let medium = Medium::new(CommunicationModel::CAM);
        let d = collect_deliveries(&medium, &topo, &[1]);
        assert_eq!(d, vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn cam_collision_at_common_neighbor() {
        let topo = line(4); // 0-1-2-3
        let medium = Medium::new(CommunicationModel::CAM);
        // 1 and 3 both cover node 2 → collision at 2; nodes 0 and 4... node
        // 0 hears only 1, node 2 hears both (collided).
        let d = collect_deliveries(&medium, &topo, &[1, 3]);
        assert_eq!(d, vec![(0, 1)]);
    }

    #[test]
    fn cam_all_concurrent_transmissions_collide() {
        // Assumption 6: *none* of the concurrent transmissions to a common
        // destination succeeds — not "one wins".
        let pts = vec![
            Point2::new(0.0, 0.0),  // receiver
            Point2::new(0.5, 0.0),  // tx A
            Point2::new(-0.5, 0.0), // tx B
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let medium = Medium::new(CommunicationModel::CAM);
        let d = collect_deliveries(&medium, &topo, &[1, 2]);
        // A and B hear each other cleanly (each hears exactly one tx);
        // the middle receiver hears both → nothing.
        assert_eq!(d, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn carrier_sense_blocks_annulus_interference() {
        // Receiver at 0; its neighbor tx at 0.9; interferer at 2.4 — outside
        // transmission range of the receiver but inside carrier range 2r
        // of the receiver (distance 2.4 ≤ 2? No — 2.4 > 2). Place at 1.8:
        // distance 1.8 ∈ (1, 2] → destroys reception under CS, not under TR.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.0),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let tr = Medium::new(CommunicationModel::CAM);
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        // Under TR: node 0 hears only node 1 → delivery; node 2's packet to
        // node 1 collides with node 1's own tx? Node 1 is transmitting, but
        // the model doesn't forbid a transmitter from receiving — physical
        // half-duplex is a refinement the protocols enforce by ignoring
        // deliveries to transmitters.
        let d = collect_deliveries(&tr, &topo, &[1, 2]);
        assert!(d.contains(&(0, 1)), "TR should deliver 1→0: {d:?}");
        // Under CS: the interferer at 1.8 kills the delivery at 0.
        let d = collect_deliveries(&cs, &topo, &[1, 2]);
        assert!(
            !d.iter().any(|&(rx, _)| rx == 0),
            "CS must block 1→0: {d:?}"
        );
    }

    #[test]
    fn carrier_sense_equals_tr_when_no_annulus_interferers() {
        let topo = line(5);
        let tr = Medium::new(CommunicationModel::CAM);
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        // Single transmitter: identical outcomes.
        assert_eq!(
            collect_deliveries(&tr, &topo, &[2]),
            collect_deliveries(&cs, &topo, &[2])
        );
    }

    #[test]
    fn carrier_sense_annulus_interferer_two_hops_away() {
        let topo = line(5); // 0-1-2-3-4, spacing 1
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        // tx: 1 and 3. Node 2 hears both → collision either way. Node 0:
        // neighbor 1 transmits; node 3 is at distance 3 > 2 → clean. Node 4
        // symmetric.
        let d = collect_deliveries(&cs, &topo, &[1, 3]);
        assert_eq!(d, vec![(0, 1), (4, 3)]);
        // tx: 0 and 2. Node 1 hears both → collided. Node 3: neighbor 2
        // transmits, node 0 at distance 3 → clean. But wait: node 0 at
        // distance 2 from node 2's receiver... receiver 3: distance to tx 0
        // is 3 → outside 2r. Clean.
        let d = collect_deliveries(&cs, &topo, &[0, 2]);
        assert_eq!(
            d,
            vec![(1, 0), (3, 2)]
                .into_iter()
                .filter(|&(rx, _)| rx == 3)
                .collect::<Vec<_>>()
        );
    }

    /// Exposure words at the id extremes: the id sums of two high ids
    /// overflow bit 63, which must leave both count fields intact.
    #[test]
    fn exposure_word_keeps_counts_at_id_extremes() {
        let word = |hits: &[(u32, Reach)]| {
            hits.iter().fold(0u64, |w, &(t, reach)| {
                w.wrapping_add(exposure_add(t, reach))
            })
        };
        let mut st = SlotStats::default();
        let top = u32::MAX;
        assert_eq!(classify(word(&[(top, Reach::InRange)]), &mut st), Some(top));
        assert_eq!(classify(word(&[(0, Reach::InRange)]), &mut st), Some(0));
        let pair = [(top - 1, Reach::InRange), (top - 2, Reach::InRange)];
        let w = word(&pair);
        assert_eq!((w & COUNT_MASK, (w >> 16) & COUNT_MASK), (2, 0));
        assert_eq!(classify(w, &mut st), None);
        assert_eq!(st.collisions, 1);
        // An annulus hit in any order lands in its own field.
        for hits in [
            [pair[0], pair[1], (7, Reach::Annulus)],
            [(7, Reach::Annulus), pair[1], pair[0]],
        ] {
            let w = word(&hits);
            assert_eq!((w & COUNT_MASK, (w >> 16) & COUNT_MASK), (2, 1));
        }
        // A sole in-range transmitter behind an annulus hit is deferred.
        let w = word(&[(top, Reach::Annulus), (top - 1, Reach::InRange)]);
        assert_eq!(
            (w & COUNT_MASK, (w >> 16) & COUNT_MASK, (w >> 32) as u32),
            (1, 1, top - 1)
        );
        assert_eq!(classify(w, &mut st), None);
        assert_eq!(
            st,
            SlotStats {
                collisions: 1,
                cs_deferrals: 1,
                ..SlotStats::default()
            }
        );
        assert_eq!(classify(0, &mut st), None);
    }

    #[test]
    fn empty_transmitter_set_is_noop() {
        let topo = line(3);
        let medium = Medium::new(CommunicationModel::CAM);
        assert!(collect_deliveries(&medium, &topo, &[]).is_empty());
    }

    fn slot_stats(medium: &Medium, topo: &Topology, tx: &[u32]) -> SlotStats {
        let mut scratch = MediumScratch::new(topo.len());
        medium.resolve_slot(topo, tx, &mut scratch, None, |_, _| {})
    }

    #[test]
    fn slot_stats_classify_outcomes() {
        let topo = line(4); // 0-1-2-3
        let cam = Medium::new(CommunicationModel::CAM);
        // 1 and 3 transmit: 0 hears 1 cleanly, 2 hears both → 1 collision.
        let s = slot_stats(&cam, &topo, &[1, 3]);
        assert_eq!(
            s,
            SlotStats {
                deliveries: 1,
                collisions: 1,
                ..SlotStats::default()
            }
        );
        // CFM never collides: 1 reaches {0, 2}, 3 reaches {2}.
        let cfm = Medium::new(CommunicationModel::Cfm);
        let s = slot_stats(&cfm, &topo, &[1, 3]);
        assert_eq!(s.deliveries, 3);
        assert_eq!(s.collisions, 0);
        // Empty slot: all zeros.
        assert_eq!(slot_stats(&cam, &topo, &[]), SlotStats::default());
    }

    #[test]
    fn slot_stats_count_cs_deferrals() {
        // Receiver 0, its tx at 0.9, and an annulus interferer at 1.8:
        // under carrier sense the single clean reception is deferred.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.0),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let cs = Medium::new(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R));
        let s = slot_stats(&cs, &topo, &[1, 2]);
        assert!(s.cs_deferrals >= 1, "expected a cs deferral: {s:?}");
        let tr = Medium::new(CommunicationModel::CAM);
        assert_eq!(slot_stats(&tr, &topo, &[1, 2]).cs_deferrals, 0);
    }

    #[test]
    fn slot_stats_absorb_accumulates() {
        let mut a = SlotStats {
            deliveries: 1,
            collisions: 2,
            cs_deferrals: 3,
            losses: 4,
            dead_drops: 5,
            sinr_rejects: 6,
            sinr_captures: 7,
        };
        a.absorb(SlotStats {
            deliveries: 10,
            collisions: 20,
            cs_deferrals: 30,
            losses: 40,
            dead_drops: 50,
            sinr_rejects: 60,
            sinr_captures: 70,
        });
        assert_eq!(
            a,
            SlotStats {
                deliveries: 11,
                collisions: 22,
                cs_deferrals: 33,
                losses: 44,
                dead_drops: 55,
                sinr_rejects: 66,
                sinr_captures: 77,
            }
        );
    }

    #[test]
    fn faults_gate_clean_deliveries() {
        use crate::bits::BitSet;
        use crate::faults::SlotFaults;
        let topo = line(4); // 0-1-2-3
        let cam = Medium::new(CommunicationModel::CAM);
        let mut scratch = MediumScratch::new(topo.len());
        // Node 2 is dead: 1's transmission reaches 0 but drops at 2.
        let alive = BitSet::from_bools(&[true, true, false, true]);
        let f = SlotFaults::new(&alive, 0.0, 0, 1, 0);
        let mut out = Vec::new();
        let s = cam.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |rx, t| {
            out.push((rx.0, t.0));
        });
        assert_eq!(out, vec![(0, 1)]);
        assert_eq!(s.deliveries, 1);
        assert_eq!(s.dead_drops, 1);
        assert_eq!(s.losses, 0);
        // Total link loss: every clean reception is destroyed.
        let alive = BitSet::filled(4);
        let f = SlotFaults::new(&alive, 1.0, 0, 1, 0);
        let s = cam.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |_, _| {
            panic!("nothing should be delivered")
        });
        assert_eq!(s.deliveries, 0);
        assert_eq!(s.losses, 2);
        // CFM deliveries are gated by the same coins.
        let cfm = Medium::new(CommunicationModel::Cfm);
        let s = cfm.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |_, _| {
            panic!("nothing should be delivered")
        });
        assert_eq!(s.losses, 2);
        // No fault context: behavior unchanged.
        let s = cam.resolve_slot(&topo, &[1], &mut scratch, None, |_, _| {});
        assert_eq!(s.deliveries, 2);
        assert_eq!(s.losses + s.dead_drops, 0);
    }

    #[test]
    fn lost_packets_still_collide() {
        use crate::bits::BitSet;
        use crate::faults::SlotFaults;
        // 1 and 3 both cover 2. Even with link_loss = 1 the collision at 2
        // is still a collision (arbitration precedes the loss coin), and 0's
        // clean reception becomes a loss, not a delivery.
        let topo = line(4);
        let cam = Medium::new(CommunicationModel::CAM);
        let mut scratch = MediumScratch::new(topo.len());
        let alive = BitSet::filled(4);
        let f = SlotFaults::new(&alive, 1.0, 0, 1, 0);
        let s = cam.resolve_slot(&topo, &[1, 3], &mut scratch, Some(&f), |_, _| {});
        assert_eq!(s.collisions, 1);
        assert_eq!(s.deliveries, 0);
        assert!(s.losses >= 1);
    }

    fn sinr(params: SinrParams) -> Medium {
        Medium::with_backend(CommunicationModel::CAM, MediumBackend::Sinr(params))
    }

    #[test]
    fn sinr_single_transmitter_matches_unit_disk() {
        // One transmitter, zero noise: denominator is 0 → unbounded SINR →
        // every neighbor decodes, exactly like the unit-disk rule.
        let topo = line(4);
        let m = sinr(SinrParams::DEFAULT);
        let d = collect_deliveries(&m, &topo, &[1]);
        assert_eq!(d, vec![(0, 1), (2, 1)]);
        let s = slot_stats(&m, &topo, &[1]);
        assert_eq!(s.sinr_rejects, 0);
        assert_eq!(s.sinr_captures, 0);
    }

    #[test]
    fn sinr_capture_effect_beats_assumption_6() {
        // Receiver 0 hears tx A (d=0.3) and tx B (d=1.0) concurrently.
        // Assumption 6 collides both; SINR decodes A: p_A ≈ 37 ≫ p_B = 1.
        let pts = vec![
            Point2::new(0.0, 0.0), // receiver
            Point2::new(0.3, 0.0), // tx A
            Point2::new(1.0, 0.0), // tx B
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let unit = Medium::new(CommunicationModel::CAM);
        let d = collect_deliveries(&unit, &topo, &[1, 2]);
        assert!(
            !d.iter().any(|&(rx, _)| rx == 0),
            "unit-disk collides: {d:?}"
        );
        let m = sinr(SinrParams::DEFAULT);
        let d = collect_deliveries(&m, &topo, &[1, 2]);
        assert!(d.contains(&(0, 1)), "SINR captures the stronger tx: {d:?}");
        let s = slot_stats(&m, &topo, &[1, 2]);
        assert_eq!(s.sinr_captures, 1);
        assert_eq!(s.collisions, 0);
    }

    #[test]
    fn sinr_out_of_range_interference_rejects_sole_candidate() {
        // Receiver 0's only in-range tx is at 0.9; an interferer at 1.8 is
        // outside the disk but inside κ·r = 3. SINR ≈ 8.0 — fine at β = 1,
        // rejected at β = 10 (where unit-disk TR would still deliver).
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.0),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
        let lenient = sinr(SinrParams::DEFAULT);
        let d = collect_deliveries(&lenient, &topo, &[1, 2]);
        assert!(d.contains(&(0, 1)), "β=1 decodes: {d:?}");
        let strict = sinr(SinrParams {
            beta: 10.0,
            ..SinrParams::DEFAULT
        });
        let s = slot_stats(&strict, &topo, &[1, 2]);
        assert!(s.sinr_rejects >= 1, "β=10 must reject 1→0: {s:?}");
        let d = collect_deliveries(&strict, &topo, &[1, 2]);
        assert!(!d.iter().any(|&(rx, _)| rx == 0), "no delivery at 0: {d:?}");
        // Unit-disk TR is oblivious to the annulus interferer.
        let unit = Medium::new(CommunicationModel::CAM);
        assert!(collect_deliveries(&unit, &topo, &[1, 2]).contains(&(0, 1)));
    }

    #[test]
    fn sinr_noise_floor_shrinks_effective_range() {
        // Neighbors in line(4) sit at exactly d = r, so p = 1. With noise 4
        // and β = 1 the edge of the disk no longer decodes.
        let topo = line(4);
        let noisy = sinr(SinrParams {
            noise: 4.0,
            ..SinrParams::DEFAULT
        });
        let s = slot_stats(&noisy, &topo, &[1]);
        assert_eq!(s.deliveries, 0);
        assert_eq!(s.sinr_rejects, 2);
        // A gentle noise floor (SINR = 1/0.5 = 2 ≥ β = 1) still decodes.
        let mild = sinr(SinrParams {
            noise: 0.5,
            ..SinrParams::DEFAULT
        });
        assert_eq!(slot_stats(&mild, &topo, &[1]).deliveries, 2);
    }

    #[test]
    fn sinr_deliveries_gated_by_faults() {
        use crate::bits::BitSet;
        use crate::faults::SlotFaults;
        let topo = line(4);
        let m = sinr(SinrParams::DEFAULT);
        let mut scratch = MediumScratch::new(topo.len());
        // Node 2 can't hear (dead or transmit-only): 1→2 becomes dead_drop.
        let hearing = BitSet::from_bools(&[true, true, false, true]);
        let f = SlotFaults::new(&hearing, 0.0, 0, 1, 0);
        let mut out = Vec::new();
        let s = m.resolve_slot(&topo, &[1], &mut scratch, Some(&f), |rx, t| {
            out.push((rx.0, t.0));
        });
        assert_eq!(out, vec![(0, 1)]);
        assert_eq!(s.deliveries, 1);
        assert_eq!(s.dead_drops, 1);
    }

    #[test]
    fn sinr_scratch_reuse_is_clean() {
        // tx_bits must be fully cleared between slots, or stale transmitter
        // marks would poison later interference sums.
        let topo = line(5);
        let m = sinr(SinrParams::DEFAULT);
        let mut scratch = MediumScratch::new(topo.len());
        let first = m.resolve_slot(&topo, &[2], &mut scratch, None, |_, _| {});
        for _ in 0..3 {
            let again = m.resolve_slot(&topo, &[2], &mut scratch, None, |_, _| {});
            assert_eq!(again, first);
        }
        // Alternate transmitter sets through the same scratch.
        let a = m.resolve_slot(&topo, &[0, 4], &mut scratch, None, |_, _| {});
        let b = m.resolve_slot(&topo, &[0, 4], &mut scratch, None, |_, _| {});
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_across_slots() {
        let topo = line(4);
        let medium = Medium::new(CommunicationModel::CAM);
        let mut scratch = MediumScratch::new(topo.len());
        for _ in 0..3 {
            let mut out = Vec::new();
            medium.resolve_slot(&topo, &[1], &mut scratch, None, |rx, t| {
                out.push((rx.0, t.0))
            });
            out.sort_unstable();
            assert_eq!(out, vec![(0, 1), (2, 1)]);
        }
    }
}
