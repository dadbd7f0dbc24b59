//! Slot-synchronous execution of phase-structured gossip (PB_CAM's native
//! habitat, §4.2): the simulator's one PB_CAM phase loop.
//!
//! Time is organized in phases of `s` slots. A node informed during phase
//! `i` decides **once** — with probability `p` — whether to rebroadcast; if
//! it does, it transmits in a uniformly random slot of phase `i+1` (the
//! paper's jitter/backoff). Phase 1 is the source's uncontended broadcast.
//!
//! The loop is model-agnostic: a CFM model gives the collision-free
//! execution the paper uses as a motivating contrast, and a CAM model
//! gives PB_CAM proper (with either collision rule or the SINR backend).
//! It is scheme-agnostic too: who rebroadcasts is a `Rebroadcast` policy,
//! so the counter- and distance-based schemes and the per-node
//! success-rate probe ([`crate::probe`]) run on this same loop. And it is
//! engine-agnostic: both engines run it, each supplying two parts.
//!
//! * `Coins` — where the rebroadcast coin and the slot jitter come from:
//!   the sequential engine's `SmallRng` stream, drawn in `pending` order,
//!   or the sharded engine's stateless hashes of `(seed, phase, node)`.
//! * `SlotArbiter` — how a slot is resolved: [`Medium::resolve_slot`]
//!   over every receiver, or the sharded engine's arbiter
//!   ([`crate::sharded`]), whose worker threads each own a range of them.

use crate::bits::BitSet;
use crate::faults::{FaultState, SlotFaults};
use crate::medium::{Medium, MediumScratch, Rule, SlotStats};
use crate::sharded::{stateless_draw, validate_sharded, Arbiter};
use crate::trace::SimTrace;
use nss_model::comm::{CommunicationModel, MediumBackend};
use nss_model::error::ConfigError;
use nss_model::faults::FaultPlan;
use nss_model::ids::NodeId;
use nss_model::par;
use nss_model::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of a probability-based gossip execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Jitter slots per phase `s` (the paper uses 3).
    pub s: u32,
    /// Broadcast probability `p` (1.0 = simple flooding).
    pub prob: f64,
    /// Communication model (CFM, or CAM with a collision rule).
    pub model: CommunicationModel,
    /// Record per-broadcast delivery ratios (Fig. 12 measurement).
    pub track_success_rate: bool,
    /// Physical-layer backend resolving CAM slots (unit-disk reception by
    /// default; [`MediumBackend::Sinr`] replaces Assumption 6 with the
    /// SINR threshold test). Ignored under CFM.
    pub backend: MediumBackend,
}

impl GossipConfig {
    /// The paper's PB_CAM configuration (`s = 3`, transmission-range CAM).
    pub fn pb_cam(prob: f64) -> Self {
        GossipConfig {
            s: 3,
            prob,
            model: CommunicationModel::CAM,
            track_success_rate: false,
            backend: MediumBackend::UnitDisk,
        }
    }

    /// Simple flooding under CAM (`p = 1`).
    pub fn flooding_cam() -> Self {
        Self::pb_cam(1.0)
    }

    /// Probability-based gossip under CFM (no collisions).
    pub fn gossip_cfm(prob: f64) -> Self {
        GossipConfig {
            model: CommunicationModel::Cfm,
            ..Self::pb_cam(prob)
        }
    }

    /// Returns the config with a different physical-layer backend.
    pub fn with_backend(mut self, backend: MediumBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.s < 1 {
            return Err(ConfigError::TooSmall {
                field: "s",
                min: 1,
                value: u64::from(self.s),
            });
        }
        if !(0.0..=1.0).contains(&self.prob) {
            return Err(ConfigError::OutOfUnitRange {
                field: "prob",
                value: self.prob,
            });
        }
        self.backend.validate()?;
        Ok(())
    }
}

/// A per-node rebroadcast policy on the phase loop.
///
/// Every scheme the loop runs is a policy: PB_CAM's coin (any
/// `Fn(usize) -> f64` giving each node's rebroadcast probability) and the
/// counter- and distance-based suppression schemes of
/// [`crate::protocols`], which flood with `p = 1` and veto a scheduled
/// transmission on what the node overheard before its slot.
pub(crate) trait Rebroadcast {
    /// Probability that node `u`, informed last phase, schedules its
    /// rebroadcast (default: always, as in flooding).
    fn prob(&self, _u: usize) -> f64 {
        1.0
    }

    /// Transmit-time check at `u`'s scheduled slot, after every earlier
    /// slot of the phase has resolved. The source's phase-1 broadcast is
    /// unconditional.
    fn transmits(&self, _u: u32) -> bool {
        true
    }

    /// One delivery `tx → rx`; `dup` is true when `rx` was already
    /// informed.
    fn heard(&mut self, _topo: &Topology, _rx: NodeId, _tx: NodeId, _dup: bool) {}
}

/// The PB_CAM coin: a per-node rebroadcast probability.
impl<F: Fn(usize) -> f64> Rebroadcast for F {
    fn prob(&self, u: usize) -> f64 {
        self(u)
    }
}

/// Where the loop's random decisions come from.
pub(crate) enum Coins {
    /// The sequential engine's stream: one `SmallRng`, drawn in `pending`
    /// order — a coin only when `p < 1`, then the slot.
    Rng(SmallRng),
    /// The sharded engine's stateless coins, keyed by this seed: pure
    /// hashes of `(seed, phase, node)`, so no draw depends on an order.
    Stateless(u64),
}

impl Coins {
    /// The sequential stream seeded with `seed`.
    pub(crate) fn rng(seed: u64) -> Self {
        Coins::Rng(SmallRng::seed_from_u64(seed))
    }

    /// Node `u`'s decision in `phase`: the slot (of `s`) of its
    /// rebroadcast, or `None` when its coin of bias `p` says stay silent.
    fn draw(&mut self, phase: u32, u: u32, p: f64, s: u32) -> Option<usize> {
        match self {
            Coins::Rng(rng) => {
                (p >= 1.0 || rng.random::<f64>() < p).then(|| rng.random_range(0..s) as usize)
            }
            Coins::Stateless(seed) => stateless_draw(*seed, phase, u, p, s),
        }
    }
}

/// How the loop resolves one slot.
pub(crate) enum SlotArbiter {
    /// [`Medium::resolve_slot`] with plain exposure words: reports every
    /// delivery, duplicates included, in the medium's order.
    Plain(Medium, MediumScratch),
    /// The sharded engine's arbiter, its workers owning receiver ranges.
    Sharded(Arbiter),
}

impl SlotArbiter {
    /// The sequential engine's arbiter for an `n`-node run of `cfg`.
    pub(crate) fn plain(cfg: &GossipConfig, n: usize) -> Self {
        SlotArbiter::Plain(
            Medium::with_backend(cfg.model, cfg.backend),
            MediumScratch::new(n),
        )
    }

    /// The sharded engine's arbiter for an `n`-node run of `cfg` on
    /// `threads` workers (`0` = all available cores).
    pub(crate) fn sharded(cfg: &GossipConfig, n: usize, threads: usize) -> Self {
        SlotArbiter::Sharded(Arbiter::new(
            Rule::of(cfg.model, cfg.backend),
            n,
            par::workers(threads, n),
        ))
    }

    /// Resolves the slot in which `txs` transmit. Marks every receiver it
    /// reports in `informed`, and calls `deliver(rx, tx, dup)` per
    /// delivery, `dup` saying whether `rx` was informed before it.
    fn resolve(
        &mut self,
        topo: &Topology,
        txs: &[u32],
        sf: Option<&SlotFaults<'_>>,
        informed: &mut BitSet,
        mut deliver: impl FnMut(NodeId, NodeId, bool),
    ) -> SlotStats {
        match self {
            SlotArbiter::Plain(medium, scratch) => {
                medium.resolve_slot(topo, txs, scratch, sf, |rx, tx| {
                    let dup = informed.get(rx.index());
                    informed.set(rx.index());
                    deliver(rx, tx, dup);
                })
            }
            SlotArbiter::Sharded(arbiter) => arbiter.resolve(topo, txs, sf, informed, deliver),
        }
    }
}

/// The PB_CAM phase loop: one execution of `cfg` under the rebroadcast
/// `policy`, drawing from `coins` and resolving slots with `arbiter`,
/// optionally under faults. Public entry is the
/// [`crate::executor::Executor`] builder, which picks the engine's
/// `(coins, arbiter)` pair; the counter- and distance-based schemes and
/// the per-node probe call it directly.
///
/// The sharded arbiter reports only the deliveries to receivers not yet
/// informed when the slot starts, so a policy run on it must not read
/// duplicates: success-rate tracking is rejected there
/// ([`validate_sharded`]), and the counter and distance
/// policies run on the plain arbiter.
pub(crate) fn run_gossip_with(
    topo: &Topology,
    cfg: &GossipConfig,
    policy: &mut impl Rebroadcast,
    mut coins: Coins,
    mut arbiter: SlotArbiter,
    faults: Option<(&FaultPlan, u64)>,
) -> SimTrace {
    let checked = match arbiter {
        SlotArbiter::Plain(..) => cfg.validate(),
        SlotArbiter::Sharded(..) => validate_sharded(cfg),
    };
    #[expect(
        clippy::panic,
        reason = "documented contract: entry points panic on invalid configs; `validate()` is the fallible path"
    )]
    checked.unwrap_or_else(|e| panic!("invalid GossipConfig: {e}"));
    let n = topo.len();
    let mut trace = SimTrace::new(n);
    if n == 0 {
        return trace;
    }

    // Packed per-node flags: 64 nodes per word keeps the phase loop's
    // working set proportional to the active frontier.
    let mut informed = BitSet::new(n);
    informed.set(NodeId::SOURCE.index());
    // Fault interpretation is only instantiated for non-empty plans; the
    // `None` path below is byte-for-byte the pre-fault executor.
    let mut fault_state = faults.map(|(plan, fseed)| FaultState::new(plan, fseed, n));
    let sinr = matches!(Rule::of(cfg.model, cfg.backend), Rule::Sinr(_));
    let sharded = matches!(arbiter, SlotArbiter::Sharded(..));
    if let SlotArbiter::Sharded(arbiter) = &arbiter {
        arbiter.record_footprint(&informed);
    }

    // Nodes informed in the previous phase, pending their (single)
    // rebroadcast decision.
    let mut pending: Vec<u32> = vec![NodeId::SOURCE.0];
    // Per-slot transmitter lists, reused across phases.
    let mut slots: Vec<Vec<u32>> = vec![Vec::new(); cfg.s as usize];
    // Per-transmitter clean-delivery tally (success-rate tracking only).
    let mut delivered = vec![0u32; if cfg.track_success_rate { n } else { 0 }];

    // A one-shot cascade continues only while the previous phase informed
    // a new node, so the loop ends within `n` phases.
    for phase in 1.. {
        // Per-phase wall time (`sim.phase.seconds`) and a flight-recorder
        // event, for the sharded engine's long phases only: the sequential
        // engine's phases run by the million and would flood the recorder.
        let _phase_span = sharded.then(|| nss_obs::trace_span!("sim.phase"));
        for sl in &mut slots {
            sl.clear();
        }
        if let Some(fs) = fault_state.as_mut() {
            fs.begin_phase(phase);
        }
        if phase == 1 {
            // The source's initial broadcast: unconditional, uncontended.
            slots[0].push(NodeId::SOURCE.0);
        } else {
            for &u in &pending {
                // A node the fault plan has down this phase forfeits its
                // (single) rebroadcast opportunity.
                if fault_state
                    .as_ref()
                    .is_some_and(|fs| !fs.is_alive(u as usize))
                {
                    continue;
                }
                if let Some(sl) = coins.draw(phase, u, policy.prob(u as usize), cfg.s) {
                    slots[sl].push(u);
                }
            }
        }

        let mut newly: Vec<u32> = Vec::new();
        let mut phase_stats = SlotStats::default();
        for (si, sl) in slots.iter_mut().enumerate() {
            if phase > 1 {
                sl.retain(|&u| policy.transmits(u));
            }
            if sl.is_empty() {
                continue;
            }
            let sf = fault_state.as_ref().map(|fs| fs.slot(phase, si as u32));
            phase_stats.absorb(arbiter.resolve(
                topo,
                sl,
                sf.as_ref(),
                &mut informed,
                |rx, tx, dup| {
                    if let Some(d) = delivered.get_mut(tx.index()) {
                        *d += 1;
                    }
                    policy.heard(topo, rx, tx, dup);
                    if !dup {
                        trace.first_rx_phase[rx.index()] = phase;
                        newly.push(rx.0);
                    }
                },
            ));
        }
        let tx_count: u32 = slots.iter().map(|sl| sl.len() as u32).sum();
        if let Some(fs) = fault_state.as_mut() {
            for &u in slots.iter().flatten() {
                fs.note_broadcast(u);
            }
        }
        trace.broadcasts_by_phase.push(tx_count);
        nss_obs::counter!("sim.broadcasts").add(u64::from(tx_count));
        trace.deliveries_by_phase.push(phase_stats.deliveries);
        trace.collisions_by_phase.push(phase_stats.collisions);
        trace.cs_deferrals_by_phase.push(phase_stats.cs_deferrals);
        if sinr {
            trace.sinr_rejects_by_phase.push(phase_stats.sinr_rejects);
        }
        if let Some(fs) = fault_state.as_ref() {
            trace.losses_by_phase.push(phase_stats.losses);
            trace.dead_drops_by_phase.push(phase_stats.dead_drops);
            trace.alive_by_phase.push(fs.alive_count());
        }

        if cfg.track_success_rate {
            let mut rate_sum = 0.0f64;
            let mut count = 0u32;
            for &t in slots.iter().flatten() {
                let deg = topo.degree(NodeId(t));
                if deg > 0 {
                    rate_sum += f64::from(delivered[t as usize]) / deg as f64;
                    count += 1;
                }
                delivered[t as usize] = 0;
            }
            trace.success_rate_by_phase.push((rate_sum, count));
        }

        pending = newly;
        if pending.is_empty() {
            // Nobody was newly informed, so nobody has a rebroadcast
            // pending: the cascade is dead.
            break;
        }
    }
    trace
}

#[cfg(test)]
// The legacy free-function shims stay covered here until their removal;
// crate::executor::tests proves the builder reproduces each one bit-for-bit.
mod tests {
    use super::*;
    use crate::executor::Executor;
    use nss_model::comm::CollisionRule;
    use nss_model::deployment::{DeployedNetwork, Deployment};
    use nss_model::geometry::Point2;
    use nss_model::topology::Topology;

    // The former free-function entry points, reconstructed on top of the
    // `Executor` builder: every trace below exercises the public API.
    fn run_gossip(topo: &Topology, cfg: &GossipConfig, seed: u64) -> SimTrace {
        Executor::new(topo).gossip(*cfg).run(seed)
    }

    fn run_gossip_faulty(
        topo: &Topology,
        cfg: &GossipConfig,
        plan: &FaultPlan,
        seed: u64,
        faults_seed: u64,
    ) -> SimTrace {
        Executor::new(topo)
            .gossip(*cfg)
            .faults(plan.clone())
            .faults_seed(faults_seed)
            .run(seed)
    }

    fn run_gossip_per_node(
        topo: &Topology,
        cfg: &GossipConfig,
        probs: &[f64],
        seed: u64,
    ) -> SimTrace {
        Executor::new(topo)
            .gossip(*cfg)
            .per_node_probs(probs.to_vec())
            .run(seed)
    }

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    #[test]
    fn flooding_on_line_under_cfm_reaches_everyone() {
        let topo = line(10);
        let cfg = GossipConfig {
            model: CommunicationModel::Cfm,
            ..GossipConfig::flooding_cam()
        };
        let trace = run_gossip(&topo, &cfg, 1);
        assert_eq!(trace.informed_count(), 10);
        // Information moves one hop per phase: node i informed in phase i.
        for i in 1..10 {
            assert_eq!(trace.first_rx_phase[i], i as u32, "node {i}");
        }
        // Everyone broadcasts exactly once under p = 1.
        assert_eq!(trace.total_broadcasts(), 10);
    }

    #[test]
    fn flooding_on_line_under_cam_also_succeeds() {
        // On a line each node has ≤ 2 neighbors; with s = 3 slots the chain
        // usually survives, but single-run collisions are possible. Use a
        // seed that completes (determinism makes this stable) and verify
        // the collision rule does fire on some other seed.
        let topo = line(8);
        let cfg = GossipConfig::flooding_cam();
        let full = (0..50)
            .map(|seed| run_gossip(&topo, &cfg, seed).final_reachability())
            .filter(|&r| (r - 1.0).abs() < 1e-12)
            .count();
        assert!(full > 25, "most seeds should complete the line: {full}/50");
    }

    #[test]
    fn zero_probability_stops_immediately() {
        let topo = line(5);
        let cfg = GossipConfig::pb_cam(0.0);
        let trace = run_gossip(&topo, &cfg, 3);
        // Source informs node 1 in phase 1; nobody rebroadcasts.
        assert_eq!(trace.informed_count(), 2);
        assert_eq!(trace.total_broadcasts(), 1);
        assert!(trace.phases() <= 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 30.0).sample(5));
        let cfg = GossipConfig::pb_cam(0.4);
        let a = run_gossip(&topo, &cfg, 77);
        let b = run_gossip(&topo, &cfg, 77);
        assert_eq!(a.first_rx_phase, b.first_rx_phase);
        assert_eq!(a.broadcasts_by_phase, b.broadcasts_by_phase);
        let c = run_gossip(&topo, &cfg, 78);
        assert_ne!(a.first_rx_phase, c.first_rx_phase);
    }

    #[test]
    fn collision_star_topology() {
        // Two informed transmitters covering the same third node: under CAM
        // with s = 1 (single slot) the reception at the common neighbor
        // must fail in the phase where both transmit.
        let pts = vec![
            Point2::new(0.0, 0.0),  // source
            Point2::new(0.9, 0.6),  // A: neighbor of source and of C
            Point2::new(0.9, -0.6), // B: neighbor of source and of C
            Point2::new(1.8, 0.0),  // C: neighbor of A and B only
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.2));
        let mut cfg = GossipConfig::flooding_cam();
        cfg.s = 1;
        let trace = run_gossip(&topo, &cfg, 0);
        // Phase 1: source informs A and B. Phase 2: A and B both transmit
        // in the single slot → C collides. C can never be informed later
        // (A and B broadcast only once).
        assert_eq!(trace.informed_count(), 3);
        assert_eq!(trace.first_rx_phase[3], crate::trace::NEVER);
    }

    #[test]
    fn jitter_slots_rescue_the_star() {
        // Same topology with s = 3: some seeds separate A and B into
        // different slots, informing C.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.6),
            Point2::new(0.9, -0.6),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.2));
        let cfg = GossipConfig::flooding_cam();
        let succeeded = (0..40)
            .filter(|&seed| run_gossip(&topo, &cfg, seed).informed_count() == 4)
            .count();
        // P(different slots) = 2/3 per trial.
        assert!(
            (15..=35).contains(&succeeded),
            "expected ≈ 2/3 of 40 trials, got {succeeded}"
        );
    }

    #[test]
    fn cfm_dominates_cam_reachability() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 60.0).sample(9));
        let cam = run_gossip(&topo, &GossipConfig::flooding_cam(), 1);
        let cfm = run_gossip(
            &topo,
            &GossipConfig {
                model: CommunicationModel::Cfm,
                ..GossipConfig::flooding_cam()
            },
            1,
        );
        assert!(cfm.final_reachability() >= cam.final_reachability());
        // CFM flooding reaches the whole connected component.
        let expect = topo.reachable_fraction(NodeId::SOURCE);
        assert!((cfm.final_reachability() - expect).abs() < 1e-12);
    }

    #[test]
    fn carrier_sense_reduces_or_equals_reachability() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(4));
        let mut reach_tr = 0.0;
        let mut reach_cs = 0.0;
        for seed in 0..10 {
            let tr = run_gossip(&topo, &GossipConfig::pb_cam(0.5), seed);
            let cs = run_gossip(
                &topo,
                &GossipConfig {
                    model: CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R),
                    ..GossipConfig::pb_cam(0.5)
                },
                seed,
            );
            reach_tr += tr.final_reachability();
            reach_cs += cs.final_reachability();
        }
        assert!(
            reach_cs <= reach_tr,
            "carrier sensing must not increase reachability: {reach_cs} vs {reach_tr}"
        );
    }

    #[test]
    fn success_rate_tracking_on_flooding() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 60.0).sample(2));
        let mut cfg = GossipConfig::flooding_cam();
        cfg.track_success_rate = true;
        let trace = run_gossip(&topo, &cfg, 11);
        let sr = trace.mean_success_rate().expect("broadcasts happened");
        assert!(sr > 0.0 && sr < 1.0, "success rate {sr}");
        // Phase 1 is the uncontended source broadcast: its rate is 1.
        let (sum, count) = trace.success_rate_by_phase[0];
        assert_eq!(count, 1);
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn broadcasts_bounded_by_informed_nodes() {
        // Each node transmits at most once, so M ≤ informed count.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(8));
        for seed in 0..5 {
            let t = run_gossip(&topo, &GossipConfig::pb_cam(0.7), seed);
            assert!(t.total_broadcasts() <= t.informed_count() as u64);
        }
    }

    #[test]
    fn phase_series_valid_on_random_runs() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 40.0).sample(3));
        for seed in 0..5 {
            let t = run_gossip(&topo, &GossipConfig::pb_cam(0.3), seed);
            t.phase_series().validate().expect("invalid phase series");
        }
    }

    #[test]
    fn singleton_network() {
        let topo = line(1);
        let t = run_gossip(&topo, &GossipConfig::flooding_cam(), 0);
        assert_eq!(t.informed_count(), 1);
        assert_eq!(t.total_broadcasts(), 1);
        assert_eq!(t.final_reachability(), 1.0);
    }

    #[test]
    fn config_validation() {
        let mut c = GossipConfig::pb_cam(0.5);
        assert!(c.validate().is_ok());
        c.prob = -0.1;
        assert!(c.validate().is_err());
        c = GossipConfig::pb_cam(0.5);
        c.s = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn per_node_probabilities_respected() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(2));
        let n = topo.len();
        // Uniform per-node vector must replay the scalar run exactly.
        let cfg = GossipConfig::pb_cam(0.4);
        let scalar = run_gossip(&topo, &cfg, 8);
        let vector = run_gossip_per_node(&topo, &cfg, &vec![0.4; n], 8);
        assert_eq!(scalar.first_rx_phase, vector.first_rx_phase);
        assert_eq!(scalar.broadcasts_by_phase, vector.broadcasts_by_phase);
        // All-zero probabilities stop after phase 1.
        let silent = run_gossip_per_node(&topo, &cfg, &vec![0.0; n], 8);
        assert_eq!(silent.total_broadcasts(), 1);
    }

    #[test]
    #[should_panic(expected = "one probability per node")]
    fn per_node_length_mismatch_rejected() {
        let topo = line(3);
        let _ = run_gossip_per_node(&topo, &GossipConfig::pb_cam(0.5), &[0.5, 0.5], 0);
    }

    #[test]
    fn zero_failure_rate_changes_nothing() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(6));
        let cfg = GossipConfig::pb_cam(0.4);
        let base = run_gossip(&topo, &cfg, 12);
        // q = 0 is the empty plan, so the run takes the exact fault-free
        // path: no fault series at all.
        let plan = FaultPlan::per_phase_crashes(topo.len(), 0.0, 3).unwrap();
        assert!(plan.is_empty());
        assert_eq!(run_gossip_faulty(&topo, &cfg, &plan, 12, 3), base);
    }

    #[test]
    fn failures_degrade_reachability() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(3));
        let cfg = GossipConfig::pb_cam(0.4);
        let reach = |q: f64| {
            let mut total = 0.0;
            for seed in 0..8 {
                let plan = FaultPlan::per_phase_crashes(topo.len(), q, seed).unwrap();
                total += run_gossip_faulty(&topo, &cfg, &plan, seed, seed).final_reachability();
            }
            total / 8.0
        };
        let healthy = reach(0.0);
        let failing = reach(0.3);
        assert!(
            failing < healthy - 0.05,
            "30% per-phase deaths should hurt: {failing} vs {healthy}"
        );
    }

    #[test]
    fn total_failure_kills_cascade_after_source() {
        let topo = line(6);
        // q = 1: every non-source node crashes at phase 1, before the
        // source's broadcast lands → only the source is informed, nobody
        // relays, and the one reception is a dead drop.
        let plan = FaultPlan::per_phase_crashes(topo.len(), 1.0, 0).unwrap();
        assert!(plan.outages.iter().all(|o| o.from_phase == 1));
        let t = run_gossip_faulty(&topo, &GossipConfig::flooding_cam(), &plan, 0, 0);
        assert_eq!(t.informed_count(), 1);
        assert_eq!(t.total_broadcasts(), 1);
        assert_eq!(t.alive_by_phase, vec![1]);
        assert_eq!(t.total_dead_drops(), 1);
    }

    #[test]
    fn empty_fault_plan_is_bitwise_identical() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(7));
        let cfg = GossipConfig::pb_cam(0.4);
        let plain = run_gossip(&topo, &cfg, 21);
        let faulted = run_gossip_faulty(&topo, &cfg, &FaultPlan::none(), 21, 999);
        assert_eq!(plain.first_rx_phase, faulted.first_rx_phase);
        assert_eq!(plain.broadcasts_by_phase, faulted.broadcasts_by_phase);
        assert_eq!(plain.deliveries_by_phase, faulted.deliveries_by_phase);
        assert_eq!(plain.collisions_by_phase, faulted.collisions_by_phase);
        assert!(faulted.losses_by_phase.is_empty());
        assert!(faulted.alive_by_phase.is_empty());
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(7));
        let cfg = GossipConfig::pb_cam(0.4);
        let plan = FaultPlan::lossy(0.3);
        let a = run_gossip_faulty(&topo, &cfg, &plan, 21, 5);
        let b = run_gossip_faulty(&topo, &cfg, &plan, 21, 5);
        assert_eq!(a.first_rx_phase, b.first_rx_phase);
        assert_eq!(a.losses_by_phase, b.losses_by_phase);
        // A different faults seed changes which packets drop without
        // touching the protocol stream (same broadcasting schedule in
        // phase 1, at least).
        let c = run_gossip_faulty(&topo, &cfg, &plan, 21, 6);
        assert_eq!(a.broadcasts_by_phase[0], c.broadcasts_by_phase[0]);
    }

    #[test]
    fn link_loss_degrades_reachability_monotonically() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(3));
        let cfg = GossipConfig::pb_cam(0.6);
        let reach = |loss: f64| {
            let plan = FaultPlan::lossy(loss);
            (0..6)
                .map(|seed| {
                    run_gossip_faulty(&topo, &cfg, &plan, seed, seed + 100).final_reachability()
                })
                .sum::<f64>()
                / 6.0
        };
        let r0 = reach(0.0);
        let r5 = reach(0.5);
        let r9 = reach(0.9);
        assert!(r0 > r5 + 0.02, "loss 0.5 should hurt: {r0} vs {r5}");
        assert!(r5 > r9, "loss 0.9 should hurt more: {r5} vs {r9}");
        // Losses are recorded once loss is non-zero.
        let t = run_gossip_faulty(&topo, &cfg, &FaultPlan::lossy(0.5), 0, 100);
        assert!(t.total_losses() > 0);
    }

    #[test]
    fn thinning_kills_nodes_and_records_alive_counts() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(3));
        let cfg = GossipConfig::pb_cam(0.6);
        let plan = FaultPlan::thinned(0.4);
        let t = run_gossip_faulty(&topo, &cfg, &plan, 1, 77);
        let n = topo.len() as u32;
        let alive = t.min_alive().expect("alive counts recorded");
        assert!(alive < n, "thinning should kill someone");
        assert!(alive > n / 4, "but not everyone");
        // Dead receivers show up as drops whenever they are in range.
        assert!(t.total_dead_drops() > 0);
        // Reachability can never exceed the alive fraction (plus nothing:
        // dead nodes are never informed).
        assert!(t.informed_count() as u32 <= alive.max(t.alive_by_phase[0]));
    }

    #[test]
    fn energy_budget_suppresses_reception_after_spend() {
        // With budget 1 every relay dies right after its broadcast; the
        // cascade still progresses (transmissions happen before death) but
        // alive counts shrink as the wave spends its energy.
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(2));
        let mut plan = FaultPlan::none();
        plan.energy_budget = Some(1);
        let cfg = GossipConfig::flooding_cam();
        let t = run_gossip_faulty(&topo, &cfg, &plan, 4, 8);
        let first = t.alive_by_phase.first().copied().unwrap();
        let last = t.alive_by_phase.last().copied().unwrap();
        assert!(
            last < first,
            "relays should exhaust their budget: {first} -> {last}"
        );
    }

    #[test]
    fn sinr_backend_runs_and_records_reject_series() {
        use nss_model::comm::SinrParams;
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(5));
        // β = 1, zero noise: uncontended slots decode like unit-disk, but
        // concurrent out-of-range interference can reject sole candidates.
        let cfg =
            GossipConfig::flooding_cam().with_backend(MediumBackend::Sinr(SinrParams::DEFAULT));
        let t = run_gossip(&topo, &cfg, 3);
        assert!(t.final_reachability() > 0.0);
        assert_eq!(t.sinr_rejects_by_phase.len(), t.phases());
        // Deterministic per seed.
        let again = run_gossip(&topo, &cfg, 3);
        assert_eq!(t, again);
        // The default backend leaves the series empty.
        let unit = run_gossip(&topo, &GossipConfig::flooding_cam(), 3);
        assert!(unit.sinr_rejects_by_phase.is_empty());
    }

    #[test]
    fn sinr_uncontended_flooding_matches_unit_disk_on_line() {
        use nss_model::comm::SinrParams;
        // On a line with s large enough that a seed separates transmitters,
        // compare against unit-disk where no slot ever has 2 transmitters:
        // use p=1, n=2 (source + one node) — only the source transmits in
        // phase 1 and node 1 in phase 2, each alone in its slot.
        let topo = line(2);
        let sinr_cfg =
            GossipConfig::flooding_cam().with_backend(MediumBackend::Sinr(SinrParams::DEFAULT));
        let unit_cfg = GossipConfig::flooding_cam();
        for seed in 0..5 {
            let a = run_gossip(&topo, &sinr_cfg, seed);
            let b = run_gossip(&topo, &unit_cfg, seed);
            assert_eq!(a.first_rx_phase, b.first_rx_phase);
            assert_eq!(a.deliveries_by_phase, b.deliveries_by_phase);
        }
    }

    #[test]
    fn transmit_only_nodes_relay_but_never_learn() {
        // A transmit-only node can never be informed (it hears nothing), so
        // under a plan converting most relays to tx-only, reachability
        // collapses toward the dead-node case even though the nodes are
        // "alive".
        let topo = Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(3));
        let cfg = GossipConfig::flooding_cam();
        let t = run_gossip_faulty(&topo, &cfg, &FaultPlan::transmit_only(0.6), 1, 77);
        let n = topo.len();
        // Tx-only nodes count as alive...
        assert_eq!(t.alive_by_phase[0] as usize, n);
        // ...but are never informed, and their missed receptions are drops.
        let plan = FaultPlan::transmit_only(0.6);
        for u in 0..n {
            if !plan.capability_of(u as u32, 77).can_receive() {
                assert_eq!(t.first_rx_phase[u], crate::trace::NEVER, "node {u}");
            }
        }
        assert!(t.total_dead_drops() > 0);
        let full = run_gossip(&topo, &cfg, 1);
        assert!(t.final_reachability() < full.final_reachability());
    }

    #[test]
    fn dead_nodes_never_marked_informed() {
        // A crashed node hears nothing, so every informed node first heard
        // the packet strictly before its crash phase.
        let topo = Topology::build(&Deployment::disk(3, 1.0, 30.0).sample(1));
        for q in [0.1, 0.5, 0.9] {
            let plan = FaultPlan::per_phase_crashes(topo.len(), q, 8).unwrap();
            let t = run_gossip_faulty(&topo, &GossipConfig::pb_cam(0.5), &plan, 5, 8);
            t.phase_series().validate().unwrap();
            for o in &plan.outages {
                let heard = t.first_rx_phase[o.node as usize];
                assert!(
                    heard == crate::trace::NEVER || heard < o.from_phase,
                    "q {q}: node {} informed in phase {heard}, crashed at {}",
                    o.node,
                    o.from_phase
                );
            }
        }
    }
}
