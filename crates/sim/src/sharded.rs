//! The sharded engine: the two parts it plugs into the PB_CAM phase loop
//! ([`crate::slotted`]) so that one replication runs on many threads.
//!
//! At 10⁶ nodes a single broadcast wave touches hundreds of megabytes of
//! adjacency and the per-phase work dwarfs what replication-level
//! parallelism can amortize. This engine shards the work *inside* a slot
//! across threads while keeping the result bitwise-identical for every
//! thread count:
//!
//! 1. **Stateless randomness.** The sequential engine draws coins from
//!    one `SmallRng` whose consumption order is part of the trace. Here
//!    every random decision — rebroadcast coin and slot jitter — is a pure
//!    hash of `(seed, phase, node)` (`stateless_draw`, the same
//!    counter-based discipline [`crate::faults`] uses for link-loss coins),
//!    so no decision depends on an order.
//! 2. **One packed word per receiver.** `Arbiter::resolve_slot` holds the
//!    claim protocol. Pass A walks each transmitter's exposure
//!    (`medium::expose`) and adds each visit to the receiver's packed
//!    exposure word (`medium::exposure_add`: in-range count, annulus count
//!    and the sum of in-range transmitter ids) with one relaxed
//!    `fetch_add` — commutative, so thread order cannot matter. The same
//!    add elects the receiver's owner: the one worker that reads the old
//!    word as 0 lists it as touched. Pass B then re-walks the touched set,
//!    each receiver owned by exactly one worker, which drains its word and
//!    applies `medium::classify` (or `medium::sinr_decode`) and
//!    `medium::gate`. The election is modelled in `tests/loom_claim.rs`.
//! 3. **Canonical order.** Per-worker partial outputs are merged in shard
//!    order, and the slot's deliveries are handed to the loop sorted by
//!    receiver, collapsing every schedule to one trace.
//!
//! The reception rules themselves are the sequential medium's — the same
//! functions, called in the same order — so the two arbiters agree slot
//! for slot (a property test pins this for random fields and transmitter
//! sets). Only the access to the packed exposure words differs: plain
//! there, atomic here. The coin streams differ too, so whole traces of the
//! two engines agree only where randomness is immaterial (CFM or
//! single-slot SINR flooding with `p = 1`), which the tests pin down.

use crate::bits::BitSet;
use crate::faults::SlotFaults;
use crate::medium::{
    classify, expose, exposure_add, gate, record_obs, sinr_decode, Reach, Rule, SlotStats,
};
use crate::slotted::GossipConfig;
use nss_model::error::ConfigError;
use nss_model::faults::hash_unit;
use nss_model::ids::NodeId;
use nss_model::par;
use nss_model::rng::splitmix64;
use nss_model::topology::Topology;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Salt separating the rebroadcast-coin stream from everything else.
const COIN_SALT: u64 = 0x8E44_55B6_ACD3_F1A9;
/// Salt separating the slot-jitter stream from the coin stream.
const SLOT_SALT: u64 = 0x5851_F42D_4C95_7F2D;

/// Whitened per-phase key for one of the stateless decision streams.
fn phase_mix(seed: u64, phase: u32, salt: u64) -> u64 {
    let mut s = seed ^ u64::from(phase).wrapping_mul(salt);
    splitmix64(&mut s)
}

/// Node `u`'s stateless decision in `phase`: the slot (of `s`) of its
/// rebroadcast, or `None` when its coin of bias `p` says stay silent.
pub(crate) fn stateless_draw(seed: u64, phase: u32, u: u32, p: f64, s: u32) -> Option<usize> {
    let u = u64::from(u);
    (p >= 1.0 || hash_unit(phase_mix(seed, phase, COIN_SALT), u) < p).then(|| {
        let s = s as usize;
        ((hash_unit(phase_mix(seed, phase, SLOT_SALT), u) * s as f64) as usize).min(s - 1)
    })
}

/// Checks the config feature the sharded engine deliberately omits.
///
/// `track_success_rate` tallies every delivery, duplicates included, but
/// the atomic arbiter reports only the deliveries to receivers not yet
/// informed. Use the sequential engine (`Executor::sequential`) for that
/// study. Node failures need no such check: they are `FaultPlan`
/// outages, which both engines interpret through the same `FaultState`.
pub fn validate_sharded(cfg: &GossipConfig) -> Result<(), ConfigError> {
    cfg.validate()?;
    if cfg.track_success_rate {
        return Err(ConfigError::Inconsistent {
            what: "the sharded engine does not track success rates (use Executor::sequential)",
            at: None,
        });
    }
    Ok(())
}

/// Runs `f` over contiguous chunks of `items` on up to `workers` threads
/// and returns the per-chunk results **in chunk order**, so downstream
/// merges see the same partial sequence under any actual parallelism.
/// `stage` labels the fan-out's telemetry ([`par::map_units`]).
fn map_chunks<T: Send>(
    stage: &'static str,
    items: &[u32],
    workers: usize,
    f: impl Fn(&[u32]) -> T + Sync,
) -> Vec<T> {
    let chunk = items.len().div_ceil(workers).max(1);
    par::map_units(stage, items.chunks(chunk).collect(), f)
}

/// One delivery `tx → rx`, packed so that sorting orders by receiver.
fn delivery(rx: u32, tx: u32) -> u64 {
    (u64::from(rx) << 32) | u64::from(tx)
}

/// Sorts a slot's packed deliveries and keeps one per receiver, the one
/// from the lowest transmitter: the order the loop sees them in.
fn canonical(deliveries: &mut Vec<u64>) {
    deliveries.sort_unstable();
    deliveries.dedup_by_key(|d| *d >> 32);
}

/// Pass A's visit: adds transmitter `t`'s [`exposure_add`] to receiver
/// word `word` and returns whether this call found the word 0, i.e. won
/// the receiver's ownership for pass B.
#[inline]
fn accumulate(word: &AtomicU64, t: u32, reach: Reach) -> bool {
    // nss-lint: allow(atomic-protocol) — the add doubles as the owner election: the adds commute and exactly one reads the old word 0; no payload rides on the word before the pass-A join, and crates/sim/tests/loom_claim.rs model-checks that Relaxed suffices
    word.fetch_add(exposure_add(t, reach), Relaxed) == 0
}

/// The sharded engine's arbitration state: the [`Rule`] plus the scratch
/// its two passes share.
///
/// CAM keeps one packed exposure word per receiver ([`exposure_add`]).
/// Pass A adds every visit to it with one relaxed `fetch_add`, which also
/// elects the receiver's single owner; the owner drains the word in pass
/// B. SINR uses the word only for that election — pass B recomputes
/// exposure from the per-slot transmitter set `tx_bits` — and CFM needs
/// no state at all.
pub(crate) struct Arbiter {
    rule: Rule,
    exposure: Vec<AtomicU64>,
    tx_bits: BitSet,
}

impl Arbiter {
    /// Sizes each buffer for an `n`-node topology, or empty when `rule`
    /// never touches it.
    pub(crate) fn new(rule: Rule, n: usize) -> Self {
        let words = if let Rule::Cfm = rule { 0 } else { n };
        Arbiter {
            rule,
            exposure: (0..words).map(|_| AtomicU64::new(0)).collect(),
            tx_bits: BitSet::new(if let Rule::Sinr(_) = rule { n } else { 0 }),
        }
    }

    /// Memory-footprint gauges: the informed bitset vs. the exposure
    /// words, so a scrape of a live million-node run shows where the
    /// resident bytes are.
    pub(crate) fn record_footprint(&self, informed: &BitSet) {
        let scratch = self.exposure.len() * std::mem::size_of::<AtomicU64>();
        nss_obs::gauge!("sim.bitset.bytes").set(informed.bytes() as f64);
        nss_obs::gauge!("sim.scratch.bytes").set(scratch as f64);
    }

    /// Resolves one slot for the phase loop on `workers` threads: calls
    /// `deliver(rx, tx, false)` once per receiver not yet `informed` that
    /// got a delivery, in ascending receiver order, marking it informed.
    pub(crate) fn resolve(
        &mut self,
        topo: &Topology,
        txs: &[u32],
        sf: Option<&SlotFaults<'_>>,
        informed: &mut BitSet,
        workers: usize,
        mut deliver: impl FnMut(NodeId, NodeId, bool),
    ) -> SlotStats {
        let (stats, mut deliveries) = self.resolve_slot(topo, txs, informed, sf, workers);
        record_obs(&stats, matches!(self.rule, Rule::Sinr(_)), sf.is_some());
        canonical(&mut deliveries);
        for d in deliveries {
            let (rx, tx) = ((d >> 32) as u32, d as u32);
            informed.set(rx as usize);
            deliver(NodeId(rx), NodeId(tx), false);
        }
        stats
    }

    /// Resolves one slot: returns its statistics and the packed
    /// [`delivery`]s to receivers not yet `informed` (unordered, and under
    /// CFM possibly several per receiver).
    ///
    /// CFM shards the transmitters and gates every `(tx, rx)` pair. CAM
    /// runs two passes. Pass A shards the transmitters over [`expose`] and
    /// [`accumulate`]s each visit into the receiver's exposure word; the
    /// worker whose add finds the word 0 claims the receiver into its
    /// local `touched` list. Pass B shards the touched set: the election
    /// guarantees each receiver appears exactly once, so its owner can
    /// drain the word and run [`classify`] (or [`sinr_decode`]) and
    /// [`gate`] without further synchronization — the same functions, in
    /// the same order, as [`crate::medium::Medium::resolve_slot`].
    fn resolve_slot(
        &mut self,
        topo: &Topology,
        txs: &[u32],
        informed: &BitSet,
        sf: Option<&SlotFaults<'_>>,
        workers: usize,
    ) -> (SlotStats, Vec<u64>) {
        let rule = self.rule;
        if let Rule::Cfm = rule {
            let partials = map_chunks("sim.slot.cfm", txs, workers, |chunk| {
                let mut st = SlotStats::default();
                let mut newly: Vec<u64> = Vec::new();
                for &t in chunk {
                    expose(topo, t, None, |v, _| {
                        if gate(&mut st, sf, t, v) && !informed.get(v as usize) {
                            newly.push(delivery(v, t));
                        }
                    });
                }
                (st, newly)
            });
            return merge_partials(partials);
        }
        if let Rule::Sinr(_) = rule {
            for &t in txs {
                self.tx_bits.set(t as usize);
            }
        }
        let this = &*self;

        // Pass A: accumulate exposure and elect each touched receiver's
        // owner. The per-chunk `lost` tally counts elections this worker
        // lost (word already non-zero) — the contention the protocol
        // absorbs; the `enabled()` guards const-fold the bookkeeping away
        // in uninstrumented builds.
        let touched_parts = map_chunks("sim.slot.expose", txs, workers, |chunk| {
            let mut touched: Vec<u32> = Vec::new();
            let mut lost: u64 = 0;
            for &t in chunk {
                expose(topo, t, rule.cs_factor(), |v, reach| {
                    if accumulate(&this.exposure[v as usize], t, reach) {
                        touched.push(v);
                    } else if nss_obs::enabled() {
                        lost += 1;
                    }
                });
            }
            (touched, lost)
        });
        let mut touched: Vec<u32> = Vec::new();
        let mut lost_total: u64 = 0;
        for (mut part, lost) in touched_parts {
            touched.append(&mut part);
            lost_total += lost;
        }
        nss_obs::counter!("sim.claim.won").add(touched.len() as u64);
        nss_obs::counter!("sim.claim.contended").add(lost_total);

        // Pass B: decide and gate, each receiver owned by one worker.
        let partials = map_chunks("sim.slot.classify", &touched, workers, |chunk| {
            let mut st = SlotStats::default();
            let mut newly: Vec<u64> = Vec::new();
            for &v in chunk {
                let vi = v as usize;
                // nss-lint: allow(atomic-protocol) — drain-and-reset after the phase barrier: joining pass A's scope ordered every election add before this swap, and crates/sim/tests/loom_claim.rs checks the drained word under every schedule
                let word = this.exposure[vi].swap(0, Relaxed);
                let heard = if let Rule::Sinr(params) = rule {
                    sinr_decode(topo, v, &params, &this.tx_bits, &mut st)
                } else {
                    classify(word, &mut st)
                };
                if let Some(t) = heard {
                    if gate(&mut st, sf, t, v) && !informed.get(vi) {
                        newly.push(delivery(v, t));
                    }
                }
            }
            (st, newly)
        });
        if let Rule::Sinr(_) = rule {
            for &t in txs {
                self.tx_bits.clear_bit(t as usize);
            }
        }
        merge_partials(partials)
    }
}

/// Folds per-worker `(stats, deliveries)` partials in shard order. The
/// stats sum commutes and [`canonical`] orders the deliveries, so the
/// slot's outcome is shard-layout independent.
fn merge_partials(partials: Vec<(SlotStats, Vec<u64>)>) -> (SlotStats, Vec<u64>) {
    let mut stats = SlotStats::default();
    let mut deliveries = Vec::new();
    for (st, mut part) in partials {
        stats.absorb(st);
        deliveries.append(&mut part);
    }
    (stats, deliveries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::medium::{Medium, MediumScratch};
    use crate::trace::SimTrace;
    use nss_model::comm::{CollisionRule, CommunicationModel, MediumBackend, SinrParams};
    use nss_model::deployment::{DeployedNetwork, Deployment};
    use nss_model::faults::FaultPlan;
    use nss_model::geometry::Point2;
    use proptest::prelude::*;
    use proptest::{collection, option};

    // The former free-function entry points, reconstructed on top of the
    // `Executor` builder: every trace below exercises the public API.
    // `sharded(threads)` keeps the shim's `0 = all cores` semantics.
    fn run_gossip(topo: &Topology, cfg: &GossipConfig, seed: u64) -> SimTrace {
        Executor::new(topo).gossip(*cfg).run(seed)
    }

    fn run_gossip_sharded(
        topo: &Topology,
        cfg: &GossipConfig,
        seed: u64,
        threads: usize,
    ) -> SimTrace {
        Executor::new(topo).gossip(*cfg).sharded(threads).run(seed)
    }

    fn run_gossip_sharded_faulty(
        topo: &Topology,
        cfg: &GossipConfig,
        plan: &FaultPlan,
        seed: u64,
        faults_seed: u64,
        threads: usize,
    ) -> SimTrace {
        Executor::new(topo)
            .gossip(*cfg)
            .faults(plan.clone())
            .faults_seed(faults_seed)
            .sharded(threads)
            .run(seed)
    }

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::build(&DeployedNetwork::from_positions(pts, 1.0))
    }

    fn assert_traces_equal(a: &SimTrace, b: &SimTrace) {
        assert_eq!(a.first_rx_phase, b.first_rx_phase);
        assert_eq!(a.broadcasts_by_phase, b.broadcasts_by_phase);
        assert_eq!(a.deliveries_by_phase, b.deliveries_by_phase);
        assert_eq!(a.collisions_by_phase, b.collisions_by_phase);
        assert_eq!(a.cs_deferrals_by_phase, b.cs_deferrals_by_phase);
        assert_eq!(a.losses_by_phase, b.losses_by_phase);
        assert_eq!(a.dead_drops_by_phase, b.dead_drops_by_phase);
        assert_eq!(a.alive_by_phase, b.alive_by_phase);
    }

    #[test]
    fn thread_count_invariant_fault_free() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(11));
        let cfg = GossipConfig::pb_cam(0.5);
        let base = run_gossip_sharded(&topo, &cfg, 42, 1);
        for threads in [2, 3, 4, 7] {
            let t = run_gossip_sharded(&topo, &cfg, 42, threads);
            assert_traces_equal(&base, &t);
        }
        // threads = 0 (auto) must also agree.
        assert_traces_equal(&base, &run_gossip_sharded(&topo, &cfg, 42, 0));
    }

    #[test]
    fn thread_count_invariant_carrier_sense() {
        use nss_model::comm::CollisionRule;
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(4));
        let mut cfg = GossipConfig::pb_cam(0.7);
        cfg.model = CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R);
        let base = run_gossip_sharded(&topo, &cfg, 9, 1);
        for threads in [2, 4] {
            assert_traces_equal(&base, &run_gossip_sharded(&topo, &cfg, 9, threads));
        }
        assert!(base.informed_count() > 1);
    }

    #[test]
    fn thread_count_invariant_under_faults() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(6));
        let cfg = GossipConfig::pb_cam(0.6);
        let mut plan = FaultPlan::lossy(0.3);
        plan.dead_frac = 0.2;
        let base = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, 1);
        for threads in [2, 4] {
            let t = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, threads);
            assert_traces_equal(&base, &t);
        }
        assert!(base.total_losses() > 0, "loss plan should drop packets");
        assert!(!base.alive_by_phase.is_empty());
    }

    #[test]
    fn empty_plan_matches_fault_free_path() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(3));
        let cfg = GossipConfig::pb_cam(0.5);
        let plain = run_gossip_sharded(&topo, &cfg, 5, 4);
        let faulted = run_gossip_sharded_faulty(&topo, &cfg, &FaultPlan::none(), 5, 99, 4);
        assert_traces_equal(&plain, &faulted);
        assert!(faulted.losses_by_phase.is_empty());
    }

    #[test]
    fn cfm_flooding_matches_sequential_engine() {
        // Under CFM with p = 1 no random decision affects the outcome:
        // information spreads in exact BFS layers, so the sharded engine
        // (hash coins) and the sequential engine (SmallRng) must agree on
        // every per-phase series despite their different RNG disciplines.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 45.0).sample(8));
        let cfg = GossipConfig {
            model: CommunicationModel::Cfm,
            ..GossipConfig::flooding_cam()
        };
        let seq = run_gossip(&topo, &cfg, 3);
        let shard = run_gossip_sharded(&topo, &cfg, 3, 4);
        assert_eq!(seq.first_rx_phase, shard.first_rx_phase);
        assert_eq!(seq.broadcasts_by_phase, shard.broadcasts_by_phase);
        assert_eq!(seq.deliveries_by_phase, shard.deliveries_by_phase);
        // And the informed set is the source's connected component.
        let expect = topo.reachable_fraction(NodeId::SOURCE);
        assert!((shard.final_reachability() - expect).abs() < 1e-12);
    }

    #[test]
    fn cam_collision_star_matches_semantics() {
        // Same construction as slotted's collision test: with s = 1 both
        // relays transmit in the only slot, so the far node must collide.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.9, 0.6),
            Point2::new(0.9, -0.6),
            Point2::new(1.8, 0.0),
        ];
        let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.2));
        let mut cfg = GossipConfig::flooding_cam();
        cfg.s = 1;
        let t = run_gossip_sharded(&topo, &cfg, 0, 4);
        assert_eq!(t.informed_count(), 3);
        assert_eq!(t.first_rx_phase[3], crate::trace::NEVER);
        // Both the far node and the (already-informed) source hear the two
        // overlapping relays → two collided receivers.
        assert_eq!(t.collisions_by_phase[1], 2);
    }

    #[test]
    fn trace_series_valid_and_bounded() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 40.0).sample(2));
        for seed in 0..5 {
            let t = run_gossip_sharded(&topo, &GossipConfig::pb_cam(0.4), seed, 3);
            t.phase_series().validate().expect("invalid phase series");
            assert!(t.total_broadcasts() <= t.informed_count() as u64);
        }
    }

    #[test]
    fn zero_probability_stops_after_source() {
        let topo = line(5);
        let t = run_gossip_sharded(&topo, &GossipConfig::pb_cam(0.0), 3, 2);
        assert_eq!(t.informed_count(), 2);
        assert_eq!(t.total_broadcasts(), 1);
    }

    #[test]
    fn singleton_network() {
        let topo = line(1);
        let t = run_gossip_sharded(&topo, &GossipConfig::flooding_cam(), 0, 4);
        assert_eq!(t.informed_count(), 1);
        assert_eq!(t.total_broadcasts(), 1);
    }

    #[test]
    fn probability_thins_broadcasts() {
        // Statistical sanity for the stateless coin: p = 0.3 should yield
        // clearly fewer broadcasts than flooding on a dense field.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 70.0).sample(13));
        let mut flood = 0u64;
        let mut thin = 0u64;
        for seed in 0..5 {
            flood += run_gossip_sharded(&topo, &GossipConfig::flooding_cam(), seed, 2)
                .total_broadcasts();
            thin +=
                run_gossip_sharded(&topo, &GossipConfig::pb_cam(0.3), seed, 2).total_broadcasts();
        }
        assert!(
            thin * 2 < flood,
            "p=0.3 should cut broadcasts well below flooding: {thin} vs {flood}"
        );
    }

    #[test]
    fn validate_sharded_rejects_sequential_only_features() {
        let mut cfg = GossipConfig::pb_cam(0.5);
        cfg.track_success_rate = true;
        assert!(matches!(
            validate_sharded(&cfg),
            Err(ConfigError::Inconsistent { .. })
        ));
        assert!(validate_sharded(&GossipConfig::pb_cam(0.5)).is_ok());
    }

    #[test]
    #[should_panic(expected = "sharded engine")]
    fn sequential_only_config_panics_at_entry() {
        let topo = line(3);
        let mut cfg = GossipConfig::pb_cam(0.5);
        cfg.track_success_rate = true;
        let _ = run_gossip_sharded(&topo, &cfg, 0, 2);
    }

    /// With live instrumentation, a sharded run must leave a coherent
    /// telemetry footprint: claim elections won/contended, per-stage shard
    /// timings, imbalance and memory gauges, and flight-recorder events.
    #[cfg(feature = "obs")]
    #[test]
    fn telemetry_footprint_is_coherent() {
        let reg = nss_obs::registry::Registry::global();
        let before = reg.snapshot();
        let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(21));
        let t = run_gossip_sharded(&topo, &GossipConfig::flooding_cam(), 17, 4);
        let delta = reg.snapshot().delta_since(&before);
        let counter = |name: &str| {
            delta
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |&(_, v)| v)
        };
        let won = counter("sim.claim.won");
        let contended = counter("sim.claim.contended");
        // Every delivery/collision/deferral receiver was claimed exactly
        // once; flooding a dense disk must also lose some elections.
        assert!(
            won >= t.total_deliveries() + t.total_collisions(),
            "won={won}"
        );
        assert!(contended > 0, "dense flooding must contend claims");
        let hist = |name: &str| {
            delta
                .histograms
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, h)| h.count)
        };
        assert!(hist("sim.phase.seconds") > 0, "phase spans missing");
        assert!(
            hist("sim.slot.expose.shard.seconds") > 0,
            "shard timings missing"
        );
        for g in ["sim.bitset.bytes", "sim.slot.expose.imbalance"] {
            assert!(
                delta.gauges.iter().any(|(k, v)| k == g && *v > 0.0),
                "gauge {g} missing or zero"
            );
        }
        let (events, _) = nss_obs::trace::events();
        assert!(
            events
                .iter()
                .any(|e| nss_obs::trace::name_of(e.name_id) == "sim.phase"),
            "flight recorder saw no sim.phase events"
        );
    }

    #[test]
    fn thread_count_invariant_under_sinr() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(11));
        let cfg = GossipConfig::pb_cam(0.5).with_backend(MediumBackend::Sinr(SinrParams {
            alpha: 3.0,
            beta: 0.5,
            noise: 0.05,
            interference_factor: 3.0,
        }));
        let base = run_gossip_sharded(&topo, &cfg, 42, 1);
        assert_eq!(base.sinr_rejects_by_phase.len(), base.phases());
        for threads in [2, 3, 4, 7] {
            let t = run_gossip_sharded(&topo, &cfg, 42, threads);
            assert_traces_equal(&base, &t);
            assert_eq!(base.sinr_rejects_by_phase, t.sinr_rejects_by_phase);
        }
        assert_traces_equal(&base, &run_gossip_sharded(&topo, &cfg, 42, 0));
    }

    #[test]
    fn sinr_flooding_single_slot_matches_sequential_engine() {
        // With s = 1 and p = 1 neither engine draws a consequential coin:
        // every informed node transmits in the only slot, and the SINR
        // interference sum is accumulated in the grid's canonical order by
        // both resolvers — the traces must agree exactly.
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(8));
        let mut cfg =
            GossipConfig::flooding_cam().with_backend(MediumBackend::Sinr(SinrParams::DEFAULT));
        cfg.s = 1;
        let seq = run_gossip(&topo, &cfg, 3);
        for threads in [1, 4] {
            let shard = run_gossip_sharded(&topo, &cfg, 3, threads);
            assert_eq!(seq.first_rx_phase, shard.first_rx_phase);
            assert_eq!(seq.broadcasts_by_phase, shard.broadcasts_by_phase);
            assert_eq!(seq.deliveries_by_phase, shard.deliveries_by_phase);
            assert_eq!(seq.collisions_by_phase, shard.collisions_by_phase);
            assert_eq!(seq.sinr_rejects_by_phase, shard.sinr_rejects_by_phase);
        }
    }

    #[test]
    fn sinr_with_capability_classes_is_thread_invariant() {
        let topo = Topology::build(&Deployment::disk(5, 1.0, 50.0).sample(6));
        let cfg = GossipConfig::pb_cam(0.6).with_backend(MediumBackend::Sinr(SinrParams::DEFAULT));
        let plan = FaultPlan {
            dead_frac: 0.1,
            tx_only_frac: 0.2,
            link_loss: 0.1,
            ..FaultPlan::default()
        };
        let base = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, 1);
        for threads in [2, 4] {
            let t = run_gossip_sharded_faulty(&topo, &cfg, &plan, 7, 70, threads);
            assert_traces_equal(&base, &t);
        }
        // Tx-only receivers drop packets without dying.
        assert!(base.total_dead_drops() > 0);
        assert_eq!(base.alive_by_phase[0], {
            let dead = (0..topo.len() as u32)
                .filter(|&u| !plan.survives_thinning(u, 70))
                .count() as u32;
            topo.len() as u32 - dead
        });
    }

    #[test]
    fn faulty_runs_deterministic_per_seed_pair() {
        let topo = Topology::build(&Deployment::disk(4, 1.0, 45.0).sample(5));
        let cfg = GossipConfig::pb_cam(0.5);
        let plan = FaultPlan::lossy(0.4);
        let a = run_gossip_sharded_faulty(&topo, &cfg, &plan, 2, 20, 3);
        let b = run_gossip_sharded_faulty(&topo, &cfg, &plan, 2, 20, 3);
        assert_traces_equal(&a, &b);
        // Protocol stream unaffected by the faults seed: phase-1 broadcast
        // schedule (just the source) is identical.
        let c = run_gossip_sharded_faulty(&topo, &cfg, &plan, 2, 21, 3);
        assert_eq!(a.broadcasts_by_phase[0], c.broadcasts_by_phase[0]);
    }

    /// Concurrent pass-A elections on shared exposure words: each touched
    /// word has exactly one owner, the drained words equal the sequential
    /// sum of the same visits, and a receiver with one in-range
    /// transmitter decodes that transmitter's id.
    #[test]
    fn exposure_election_has_one_owner_per_receiver() {
        const WORDS: u32 = 256;
        // Worker w transmits as `u32::MAX - w`. Worker 0 reaches every
        // receiver in range, worker 1 the even ones; workers 2 and 3 reach
        // receivers ≡ 1 (mod 4) in the annulus.
        let reach = |w: u32, v: u32| match w {
            0 => Some(Reach::InRange),
            1 => v.is_multiple_of(2).then_some(Reach::InRange),
            _ => (v % 4 == 1).then_some(Reach::Annulus),
        };
        let words: Vec<AtomicU64> = (0..WORDS).map(|_| AtomicU64::new(0)).collect();
        let owners: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let words = &words;
                    scope.spawn(move || {
                        (0..WORDS)
                            .filter(|&v| {
                                reach(w, v).is_some_and(|r| {
                                    accumulate(&words[v as usize], u32::MAX - w, r)
                                })
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut owned = owners.concat();
        owned.sort_unstable();
        assert_eq!(
            owned,
            (0..WORDS).collect::<Vec<_>>(),
            "election not exclusive"
        );
        let mut st = SlotStats::default();
        for (v, word) in (0..WORDS).zip(&words) {
            let word = word.swap(0, Relaxed);
            let expect = (0..4)
                .filter_map(|w| reach(w, v).map(|r| exposure_add(u32::MAX - w, r)))
                .fold(0u64, u64::wrapping_add);
            assert_eq!(word, expect, "receiver {v}");
            let heard = classify(word, &mut st);
            assert_eq!(heard, (v % 4 == 3).then_some(u32::MAX), "receiver {v}");
        }
        let quarter = u64::from(WORDS / 4);
        assert_eq!((st.collisions, st.cs_deferrals), (2 * quarter, quarter));
    }

    /// Resolves one slot through the sequential medium: its statistics and
    /// its deliveries in [`canonical`] order.
    fn sequential_slot(
        medium: &Medium,
        topo: &Topology,
        txs: &[u32],
        sf: Option<&SlotFaults<'_>>,
    ) -> (SlotStats, Vec<u64>) {
        let mut scratch = MediumScratch::new(topo.len());
        let mut heard = Vec::new();
        let stats = medium.resolve_slot(topo, txs, &mut scratch, sf, |rx, tx| {
            heard.push(delivery(rx.0, tx.0))
        });
        canonical(&mut heard);
        (stats, heard)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Per-slot engine agreement: on random fields and transmitter
        /// sets, under every reception rule, with and without a fault
        /// context, the sharded resolver at 1, 2 and 3 workers reports
        /// the same `SlotStats` and canonical deliveries as the
        /// sequential medium, down to the transmitter each receiver is
        /// handed. One arbiter serves all three runs, so its scratch must
        /// also come back clean after every slot.
        #[test]
        fn slot_resolution_matches_sequential_medium(
            nodes in collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u32..4), 1..200),
            side in 1.0f64..12.0,
            kind in 0u32..4,
            cs_factor in 1.0f64..3.0,
            sinr in (1.5f64..5.0, 0.05f64..3.0, (0.0f64..0.5, 1.0f64..4.0)),
            faults in option::of((0.0f64..1.0, 0u64..1_000)),
        ) {
            // Flag bit 0: transmits this slot; bit 1: cannot hear (only
            // consulted when a fault context is drawn).
            let pts = nodes.iter().map(|&(x, y, _)| Point2::new(x * side, y * side)).collect();
            let topo = Topology::build(&DeployedNetwork::from_positions(pts, 1.0));
            let txs: Vec<u32> = (0..nodes.len() as u32)
                .filter(|&u| nodes[u as usize].2 & 1 == 1)
                .collect();
            let hearing = BitSet::from_bools(
                &nodes.iter().map(|&(_, _, f)| f & 2 == 0).collect::<Vec<_>>(),
            );
            let (alpha, beta, (noise, interference_factor)) = sinr;
            let (model, backend) = match kind {
                0 => (CommunicationModel::Cfm, MediumBackend::UnitDisk),
                1 => (CommunicationModel::CAM, MediumBackend::UnitDisk),
                2 => (
                    CommunicationModel::Cam(CollisionRule::CarrierSense { factor: cs_factor }),
                    MediumBackend::UnitDisk,
                ),
                _ => (
                    CommunicationModel::CAM,
                    MediumBackend::Sinr(SinrParams { alpha, beta, noise, interference_factor }),
                ),
            };
            let sf = faults.map(|(loss, seed)| SlotFaults::new(&hearing, loss, seed, 3, 1));
            let medium = Medium::with_backend(model, backend);
            let expect = sequential_slot(&medium, &topo, &txs, sf.as_ref());
            let mut arbiter = Arbiter::new(Rule::of(model, backend), topo.len());
            let nobody = BitSet::new(topo.len());
            for workers in 1..=3 {
                let (stats, mut heard) =
                    arbiter.resolve_slot(&topo, &txs, &nobody, sf.as_ref(), workers);
                canonical(&mut heard);
                prop_assert_eq!((stats, heard), expect.clone(), "rule {kind}, {workers} workers");
            }
        }
    }
}
