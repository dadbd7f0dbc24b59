//! Cross-protocol invariants of [`nss_sim::trace::SimTrace`].
//!
//! Every executor — slotted gossip, counter/distance suppression, TDMA,
//! asynchronous gossip — fills the same trace structure; these tests pin
//! down the structural guarantees the analysis layer relies on:
//!
//! * a phase's deliveries cannot exceed `broadcasts × (n − 1)` (each
//!   transmission reaches at most every other node);
//! * the informed count derived from `first_rx_phase` is non-decreasing
//!   over phases, and every first reception in phase `p` is backed by at
//!   least that many deliveries in `p`;
//! * collision/deferral vectors line up with the phase axis, CFM never
//!   collides, and the transmission-range rule never defers;
//! * with the `obs` feature on, the global counters agree exactly with
//!   the trace totals.

#![expect(
    clippy::panic,
    reason = "test helpers outside #[test] bodies; a failed step must fail the test"
)]

use nss_model::deployment::Deployment;
use nss_model::topology::Topology;
use nss_sim::executor::Executor;
use nss_sim::protocols::{
    run_async_gossip, run_counter_broadcast, run_distance_broadcast, AsyncGossipConfig,
    CounterConfig, DistanceConfig,
};
use nss_sim::slotted::GossipConfig;
use nss_sim::trace::{SimTrace, NEVER};

/// Serializes every simulation in this binary: with `obs` on, the counter
/// tests read global-counter deltas that a concurrent run would inflate.
/// It stays a `std` mutex because it is held across simulations, which
/// take checked locks.
#[expect(
    clippy::disallowed_types,
    reason = "held across calls that take a checked nss_obs::sync::Mutex"
)]
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn disk(n_avg: u32, diameter: f64, seed: u64) -> Topology {
    Topology::build(&Deployment::disk(n_avg, 1.0, diameter).sample(seed))
}

/// Runs one representative execution of every slotted protocol.
fn slotted_traces(topo: &Topology, seed: u64) -> Vec<(&'static str, SimTrace)> {
    vec![
        (
            "flooding_cam",
            Executor::new(topo)
                .gossip(GossipConfig::flooding_cam())
                .run(seed),
        ),
        (
            "pb_cam",
            Executor::new(topo)
                .gossip(GossipConfig::pb_cam(0.6))
                .run(seed),
        ),
        (
            "gossip_cfm",
            Executor::new(topo)
                .gossip(GossipConfig::gossip_cfm(0.8))
                .run(seed),
        ),
        (
            "counter",
            run_counter_broadcast(topo, &CounterConfig::paper(3), seed),
        ),
        (
            "distance",
            run_distance_broadcast(topo, &DistanceConfig::paper(0.4), seed),
        ),
    ]
}

fn check_structure(name: &str, t: &SimTrace) {
    let n = t.n_total;
    let phases = t.phases();
    assert_eq!(
        t.deliveries_by_phase.len(),
        phases,
        "{name}: deliveries axis mismatch"
    );
    assert_eq!(
        t.collisions_by_phase.len(),
        phases,
        "{name}: collisions axis mismatch"
    );
    assert_eq!(
        t.cs_deferrals_by_phase.len(),
        phases,
        "{name}: deferrals axis mismatch"
    );
    for (i, (&d, &b)) in t
        .deliveries_by_phase
        .iter()
        .zip(&t.broadcasts_by_phase)
        .enumerate()
    {
        assert!(
            d <= u64::from(b) * (n as u64 - 1),
            "{name}: phase {i} has {d} deliveries from {b} broadcasts (n = {n})"
        );
    }
    t.phase_series().validate().unwrap_or_else(|e| {
        panic!("{name}: invalid phase series: {e}");
    });
}

fn check_first_rx(name: &str, t: &SimTrace) {
    let phases = t.phases();
    // Nodes first informed per phase index (1-based). The source is 0.
    let mut first_rx_hist = vec![0u64; phases + 1];
    for (v, &p) in t.first_rx_phase.iter().enumerate() {
        if p == NEVER {
            continue;
        }
        if v == 0 {
            assert_eq!(p, 0, "{name}: source must be informed at phase 0");
            continue;
        }
        assert!(p >= 1, "{name}: node {v} informed before any phase ran");
        assert!(
            (p as usize) <= phases,
            "{name}: node {v} informed in phase {p} of {phases}"
        );
        first_rx_hist[p as usize] += 1;
    }
    // Each first reception is one of that phase's deliveries.
    for (p, &fresh) in first_rx_hist.iter().enumerate().skip(1) {
        assert!(
            fresh <= t.deliveries_by_phase[p - 1],
            "{name}: phase {p} first-informs {fresh} nodes but delivered only {}",
            t.deliveries_by_phase[p - 1]
        );
    }
    // Monotonicity: cumulative informed count never decreases (trivially
    // true of a prefix sum of non-negative terms, asserted as a guard
    // against future representation changes).
    let mut cum = 0u64;
    let mut prev = 0u64;
    for &fresh in &first_rx_hist {
        cum += fresh;
        assert!(cum >= prev, "{name}: informed count decreased");
        prev = cum;
    }
    assert_eq!(
        cum + 1,
        t.informed_count() as u64,
        "{name}: histogram disagrees with informed_count()"
    );
}

#[test]
fn slotted_protocols_satisfy_trace_invariants() {
    let _serial = serial();
    for seed in 0..4u64 {
        let topo = disk(4, 40.0, seed + 100);
        for (name, t) in slotted_traces(&topo, seed) {
            check_structure(name, &t);
            check_first_rx(name, &t);
        }
    }
}

#[test]
fn cfm_never_records_collisions_or_deferrals() {
    let _serial = serial();
    let topo = disk(5, 40.0, 9);
    let t = Executor::new(&topo)
        .gossip(GossipConfig::gossip_cfm(1.0))
        .run(2);
    assert_eq!(t.total_collisions(), 0, "CFM cannot collide");
    assert_eq!(t.total_cs_deferrals(), 0, "CFM cannot defer");
    assert!(t.total_deliveries() > 0);
}

#[test]
fn transmission_range_rule_never_defers() {
    let _serial = serial();
    for seed in 0..3u64 {
        let topo = disk(6, 30.0, seed + 7);
        let t = Executor::new(&topo)
            .gossip(GossipConfig::flooding_cam())
            .run(seed);
        assert_eq!(
            t.total_cs_deferrals(),
            0,
            "TR rule has no carrier-sense annulus"
        );
    }
}

#[test]
fn dense_cam_flooding_records_collisions() {
    let _serial = serial();
    // A dense disk under CAM flooding must lose some receptions; the new
    // collision channel should see them.
    let topo = disk(8, 20.0, 3);
    let collided: u64 = (0..5)
        .map(|s| {
            Executor::new(&topo)
                .gossip(GossipConfig::flooding_cam())
                .run(s)
                .total_collisions()
        })
        .sum();
    assert!(collided > 0, "dense CAM flooding produced zero collisions");
}

#[test]
fn async_gossip_totals_are_consistent() {
    let _serial = serial();
    for seed in 0..4u64 {
        let topo = disk(4, 30.0, seed + 50);
        let n = topo.len() as u64;
        let t = run_async_gossip(&topo, &AsyncGossipConfig::paper(0.8), seed);
        // Window quantization can shift a delivery past its broadcast's
        // window, so the bound holds in aggregate rather than per phase.
        assert!(
            t.total_deliveries() + t.total_collisions() <= t.total_broadcasts() * (n - 1),
            "async: receptions exceed what {} broadcasts can reach",
            t.total_broadcasts()
        );
        assert_eq!(t.collisions_by_phase.len(), t.phases());
        assert_eq!(t.cs_deferrals_by_phase.len(), t.phases());
        check_first_rx("async", &t);
    }
}

/// With `obs` on, the global counters must agree with the trace exactly.
#[cfg(feature = "obs")]
mod obs_counters {
    use super::*;
    use nss_model::faults::FaultPlan;

    const NAMES: [&str; 6] = [
        "sim.broadcasts",
        "sim.deliveries",
        "sim.collisions",
        "sim.cs_deferrals",
        "sim.losses",
        "sim.dead_drops",
    ];

    /// Runs `run` alone and returns its trace with the deltas of [`NAMES`].
    fn counted(run: impl FnOnce() -> SimTrace) -> (SimTrace, [u64; 6]) {
        let _serial = serial();
        let read = || NAMES.map(|name| nss_obs::registry::Registry::global().counter(name).get());
        let before = read();
        let t = run();
        let after = read();
        (t, std::array::from_fn(|i| after[i] - before[i]))
    }

    fn assert_arbitration_counters(t: &SimTrace, d: &[u64; 6]) {
        assert_eq!(d[0], t.total_broadcasts(), "sim.broadcasts");
        assert_eq!(d[1], t.total_deliveries(), "sim.deliveries");
        assert_eq!(d[2], t.total_collisions(), "sim.collisions");
        assert_eq!(d[3], t.total_cs_deferrals(), "sim.cs_deferrals");
    }

    #[test]
    fn gossip_counters_match_trace_totals() {
        let topo = disk(5, 30.0, 11);
        let (t, d) = counted(|| {
            Executor::new(&topo)
                .gossip(GossipConfig::flooding_cam())
                .run(4)
        });
        assert_arbitration_counters(&t, &d);
    }

    /// Receptions a crashed radio misses are dead drops at the medium's
    /// fault gate, never deliveries — alone and combined with link loss,
    /// on both engines.
    #[test]
    fn failing_gossip_counters_match_trace_totals() {
        let topo = disk(5, 30.0, 11);
        let cfg = GossipConfig::pb_cam(0.8);
        let crashes = FaultPlan::per_phase_crashes(topo.len(), 0.15, 9).unwrap();
        let lossy = FaultPlan {
            link_loss: 0.2,
            ..crashes.clone()
        };
        for threads in [None, Some(2)] {
            let run = |plan: &FaultPlan| {
                let ex = Executor::new(&topo)
                    .gossip(cfg)
                    .faults(plan.clone())
                    .faults_seed(9);
                match threads {
                    None => ex.run(4),
                    Some(t) => ex.sharded(t).run(4),
                }
            };
            let (t, d) = counted(|| run(&crashes));
            assert_arbitration_counters(&t, &d);
            assert_eq!(d[5], t.total_dead_drops(), "sim.dead_drops");
            assert!(d[5] > 0, "crashes must surface as dead drops ({threads:?})");

            let (t, d) = counted(|| run(&lossy));
            assert_arbitration_counters(&t, &d);
            assert_eq!(d[4], t.total_losses(), "sim.losses");
            assert_eq!(d[5], t.total_dead_drops(), "sim.dead_drops");
            assert!(t.total_losses() > 0 && t.total_dead_drops() > 0);
        }
    }

    #[test]
    fn async_counters_match_trace_totals() {
        let topo = disk(4, 30.0, 21);
        let (t, d) = counted(|| run_async_gossip(&topo, &AsyncGossipConfig::paper(1.0), 5));
        assert_eq!(d[0], t.total_broadcasts());
        assert_eq!(d[1], t.total_deliveries());
        assert_eq!(d[2], t.total_collisions());
    }
}
