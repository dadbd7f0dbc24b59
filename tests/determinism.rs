//! Reproducibility guarantees across the whole stack: every randomized
//! component must be a pure function of its seed, regardless of thread
//! count — the property that makes recorded experiment seeds meaningful.

use nss::analysis::prelude::*;
use nss::model::comm::{MediumBackend, SinrParams};
use nss::model::prelude::*;
use nss::sim::prelude::*;
use nss_obs::manifest::fnv64;
use nss_sim::protocols::async_gossip::{
    run_async_gossip, run_async_gossip_faulty, AsyncGossipConfig,
};
use nss_sim::protocols::counter::{run_counter_broadcast, CounterConfig};
use nss_sim::protocols::distance::{run_distance_broadcast, DistanceConfig};

#[test]
fn deployments_replay_exactly() {
    let spec = Deployment::disk(5, 1.0, 70.0);
    let a = spec.sample(123);
    let b = spec.sample(123);
    assert_eq!(a.positions(), b.positions());
}

#[test]
fn full_pipeline_replays_exactly() {
    let run = || {
        Replication::paper(
            Deployment::disk(4, 1.0, 45.0),
            GossipConfig::pb_cam(0.35),
            5150,
        )
        .with_runs(6)
        .run()
        .traces
        .iter()
        .map(|t| (t.informed_count(), t.total_broadcasts()))
        .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn thread_count_does_not_change_results() {
    let with_threads = |threads| {
        Replication::paper(
            Deployment::disk(4, 1.0, 45.0),
            GossipConfig::pb_cam(0.35),
            31,
        )
        .with_runs(8)
        .with_threads(threads)
        .run()
        .traces
        .iter()
        .map(|t| t.first_rx_phase.clone())
        .collect::<Vec<_>>()
    };
    assert_eq!(with_threads(1), with_threads(4));
}

#[test]
fn analytical_sweep_thread_invariant() {
    let mut base = RingModelConfig::paper(20.0, 0.0);
    base.quad_points = 24;
    let rhos = [20.0, 60.0];
    let probs = [0.1, 0.5, 1.0];
    let a = DensitySweep::run(base, &rhos, &probs, 1);
    let b = DensitySweep::run(base, &rhos, &probs, 4);
    for (ra, rb) in a.grid.iter().zip(&b.grid) {
        for (sa, sb) in ra.iter().zip(rb) {
            assert_eq!(sa.informed_cum, sb.informed_cum);
        }
    }
}

#[test]
fn protocol_variants_replay_exactly() {
    let topo = Topology::build(&Deployment::disk(3, 1.0, 35.0).sample(8));
    let a = run_async_gossip(&topo, &AsyncGossipConfig::paper(0.4), 17);
    let b = run_async_gossip(&topo, &AsyncGossipConfig::paper(0.4), 17);
    assert_eq!(a.first_rx_phase, b.first_rx_phase);

    let a = run_counter_broadcast(&topo, &CounterConfig::paper(3), 17);
    let b = run_counter_broadcast(&topo, &CounterConfig::paper(3), 17);
    assert_eq!(a.first_rx_phase, b.first_rx_phase);
}

/// FNV-1a digest over `first_rx_phase` and every per-phase series of a
/// trace, each length-prefixed so series boundaries are part of the hash.
fn trace_digest(t: &SimTrace) -> u64 {
    let mut bytes = Vec::new();
    let mut series = |words: &mut dyn Iterator<Item = u64>| {
        let start = bytes.len();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let mut len = 0u64;
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
            len += 1;
        }
        bytes[start..start + 8].copy_from_slice(&len.to_le_bytes());
    };
    series(&mut t.first_rx_phase.iter().map(|&x| u64::from(x)));
    series(&mut t.broadcasts_by_phase.iter().map(|&x| u64::from(x)));
    series(&mut t.deliveries_by_phase.iter().copied());
    series(&mut t.collisions_by_phase.iter().copied());
    series(&mut t.cs_deferrals_by_phase.iter().copied());
    series(
        &mut t
            .success_rate_by_phase
            .iter()
            .flat_map(|&(sum, count)| [sum.to_bits(), u64::from(count)]),
    );
    series(&mut t.losses_by_phase.iter().copied());
    series(&mut t.dead_drops_by_phase.iter().copied());
    series(&mut t.alive_by_phase.iter().map(|&x| u64::from(x)));
    series(&mut t.sinr_rejects_by_phase.iter().copied());
    fnv64(&bytes)
}

/// Digests of reference executions, recorded before the sequential and
/// sharded arbitration paths were folded onto one set of rule functions;
/// the crash-outage and async entries were recorded before per-phase node
/// deaths became `FaultPlan` crash outages and before async gossip moved
/// onto the medium's exposure walk and fault gate (with the same outage
/// list built by hand). The `flood-dense` entries — flooding a
/// 14,000-node field at `sim_scale`'s density, where pass-A claims contend
/// — were recorded while the sharded arbiter still elected receivers
/// through a separate claim bitset. Any change to reception semantics, RNG
/// consumption order, or fault gating shows up here as a changed digest.
const RECORDED_DIGESTS: &[(&str, u64)] = &[
    ("seq/tr", 0x6af188e8108bc4cf),
    ("seq/cs", 0xa8ebbab8935b5bc3),
    ("seq/sinr", 0xcfaad84c15f971c1),
    ("seq/faults", 0xf391ae1287a612b9),
    ("seq/sinr-faults", 0xbcd2f932bb7224ae),
    ("seq/crash-outages", 0x6590e05be51eba1a),
    ("sharded1/cfm", 0xe58fd4ea1d23bfeb),
    ("sharded2/cfm", 0xe58fd4ea1d23bfeb),
    ("sharded1/tr", 0x577dea9c6bc647af),
    ("sharded2/tr", 0x577dea9c6bc647af),
    ("sharded1/cs", 0xe9ffa0ec9ef23431),
    ("sharded2/cs", 0xe9ffa0ec9ef23431),
    ("sharded1/sinr", 0xd6a948c71e617636),
    ("sharded2/sinr", 0xd6a948c71e617636),
    ("sharded1/faults", 0xd37bf9f36963bc68),
    ("sharded2/faults", 0xd37bf9f36963bc68),
    ("sharded1/crash-outages", 0x5421b38454fd3566),
    ("sharded2/crash-outages", 0x5421b38454fd3566),
    ("sharded1/flood-dense", 0x5d78166fbe80e383),
    ("sharded2/flood-dense", 0x5d78166fbe80e383),
    ("async/tr", 0xc78dac471e84493d),
    ("async/tr-faults", 0x56b17d679183991e),
    ("async/cs", 0x085c9ba3420d1185),
    ("async/cs-faults", 0xb80502509ec82f18),
    ("counter/cam", 0xeb047c9e6f6623ce),
    ("counter/cfm", 0x1cc015ad06956571),
    ("counter/cs", 0x401412f5147ba6b0),
    ("distance/cam", 0x72201870c9b210bc),
    ("distance/cfm", 0x80db993d2881d744),
];

fn reference_digests() -> Vec<(String, u64)> {
    let topo = Topology::build(&Deployment::disk(4, 1.0, 40.0).sample(11));
    let cs = CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R);
    let sinr = MediumBackend::Sinr(SinrParams {
        alpha: 3.0,
        beta: 0.5,
        noise: 0.05,
        interference_factor: 3.0,
    });
    let plan = FaultPlan {
        link_loss: 0.2,
        dead_frac: 0.1,
        tx_only_frac: 0.1,
        energy_budget: Some(2),
        ..FaultPlan::default()
    };
    let tr = GossipConfig::pb_cam(0.5);
    let cs_cfg = GossipConfig {
        model: cs,
        ..GossipConfig::pb_cam(0.6)
    };
    let sinr_cfg = GossipConfig::pb_cam(0.5).with_backend(sinr);
    let crashing = GossipConfig::pb_cam(0.7);
    let crash_plan = FaultPlan::per_phase_crashes(topo.len(), 0.05, 7).expect("valid hazard");
    let cfm = GossipConfig::gossip_cfm(0.4);

    let seq = |cfg: GossipConfig| Executor::new(&topo).gossip(cfg).run(42);
    let faulty = |cfg: GossipConfig| {
        Executor::new(&topo)
            .gossip(cfg)
            .faults(plan.clone())
            .faults_seed(7)
    };
    let sharded = |cfg: GossipConfig, threads| Executor::new(&topo).gossip(cfg).sharded(threads);

    let mut out: Vec<(String, SimTrace)> = vec![
        ("seq/tr".into(), seq(tr)),
        ("seq/cs".into(), seq(cs_cfg)),
        ("seq/sinr".into(), seq(sinr_cfg)),
        ("seq/faults".into(), faulty(tr).run(42)),
        ("seq/sinr-faults".into(), faulty(sinr_cfg).run(42)),
        (
            "seq/crash-outages".into(),
            Executor::new(&topo)
                .gossip(GossipConfig {
                    track_success_rate: true,
                    ..crashing
                })
                .faults(crash_plan.clone())
                .faults_seed(7)
                .run(42),
        ),
    ];
    for (name, cfg) in [("cfm", cfm), ("tr", tr), ("cs", cs_cfg), ("sinr", sinr_cfg)] {
        for threads in [1, 2] {
            out.push((
                format!("sharded{threads}/{name}"),
                sharded(cfg, threads).run(42),
            ));
        }
    }
    for threads in [1, 2] {
        out.push((
            format!("sharded{threads}/faults"),
            faulty(tr).sharded(threads).run(42),
        ));
    }
    for threads in [1, 2] {
        out.push((
            format!("sharded{threads}/crash-outages"),
            Executor::new(&topo)
                .gossip(crashing)
                .faults(crash_plan.clone())
                .faults_seed(7)
                .sharded(threads)
                .run(42),
        ));
    }
    let dense = Topology::build(&Deployment::disk(10, 1.0, 140.0).sample(2005));
    for threads in [1, 2] {
        out.push((
            format!("sharded{threads}/flood-dense"),
            Executor::new(&dense)
                .gossip(GossipConfig::flooding_cam())
                .sharded(threads)
                .run(2005),
        ));
    }
    let async_cs = AsyncGossipConfig {
        collision: CollisionRule::CARRIER_SENSE_2R,
        ..AsyncGossipConfig::paper(0.6)
    };
    for (name, cfg) in [("tr", AsyncGossipConfig::paper(0.5)), ("cs", async_cs)] {
        out.push((format!("async/{name}"), run_async_gossip(&topo, &cfg, 42)));
        out.push((
            format!("async/{name}-faults"),
            run_async_gossip_faulty(&topo, &cfg, &plan, 42, 7),
        ));
    }
    let counter = CounterConfig::paper(3);
    let distance = DistanceConfig::paper(0.4);
    let counter_cfm = CounterConfig {
        model: CommunicationModel::Cfm,
        ..counter
    };
    let counter_cs = CounterConfig {
        model: cs,
        ..counter
    };
    let distance_cfm = DistanceConfig {
        model: CommunicationModel::Cfm,
        ..distance
    };
    out.extend([
        (
            "counter/cam".into(),
            run_counter_broadcast(&topo, &counter, 42),
        ),
        (
            "counter/cfm".into(),
            run_counter_broadcast(&topo, &counter_cfm, 42),
        ),
        (
            "counter/cs".into(),
            run_counter_broadcast(&topo, &counter_cs, 42),
        ),
        (
            "distance/cam".into(),
            run_distance_broadcast(&topo, &distance, 42),
        ),
        (
            "distance/cfm".into(),
            run_distance_broadcast(&topo, &distance_cfm, 42),
        ),
    ]);
    out.into_iter()
        .map(|(name, t)| (name, trace_digest(&t)))
        .collect()
}

#[test]
fn traces_match_recorded_digests() {
    let actual = reference_digests();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let actual: Vec<(&str, u64)> = actual.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(
        actual, RECORDED_DIGESTS,
        "trace digests moved; current table:\n{table}"
    );
}

#[test]
fn seed_streams_do_not_alias() {
    // Deployment and protocol streams must differ even for equal indices:
    // otherwise topology and coin flips would be correlated.
    let f = SeedFactory::new(99);
    let mut seeds = std::collections::HashSet::new();
    for rep in 0..50 {
        for stream in [Stream::Deployment, Stream::Protocol, Stream::Jitter] {
            assert!(
                seeds.insert(f.seed(stream, rep)),
                "seed collision at rep {rep}, stream {stream:?}"
            );
        }
    }
}
