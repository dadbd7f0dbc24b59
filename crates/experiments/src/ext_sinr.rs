//! Ext T — the SINR physical layer versus the paper's unit-disk idealization.
//!
//! Part A overlays three reachability curves at the paper's mid density
//! (ρ = 60): the analytical ring-model prediction (which assumes unit-disk
//! reception, Assumption 6), the simulator under the default unit-disk
//! backend, and the simulator under the SINR backend with its default
//! parameters. Where the curves split is exactly where the idealization
//! stops paying for its tractability: SINR's capture effect *recovers*
//! receptions the unit-disk model writes off as collisions at high p, while
//! its interference threshold rejects marginal receptions unit-disk counts.
//!
//! Part B runs the transmit-only event-delivery metric
//! ([`nss_sim::events`]) over a growing transmit-only fraction under both
//! backends: deaf sensors push reports into an ever-smaller listening
//! population, and the backends disagree about how much the contended first
//! hop can carry.

use crate::common::{heading, Ctx};
use nss_analysis::ring_model::{RingModel, RingModelConfig};
use nss_model::comm::{MediumBackend, SinrParams};
use nss_model::deployment::Deployment;
use nss_model::faults::FaultPlan;
use nss_model::topology::Topology;
use nss_sim::events::{run_event_delivery, EventField};
use nss_sim::runner::Replication;
use nss_sim::slotted::GossipConfig;

/// Latency budget (phases) for the Part A reachability comparison.
const LATENCY: f64 = 10.0;

/// Density of both parts (the paper's mid point).
const RHO: f64 = 60.0;

pub fn run(ctx: &Ctx) {
    heading("Ext T: SINR backend vs unit-disk — reachability overlay and transmit-only uplink");
    part_a_overlay(ctx);
    part_b_events(ctx);
}

/// Part A: analytical prediction vs simulated unit-disk vs simulated SINR.
fn part_a_overlay(ctx: &Ctx) {
    let probs: Vec<f64> = if ctx.fast {
        vec![0.1, 0.3, 0.5, 0.7, 0.9]
    } else {
        ctx.sim_grid()
    };
    let sinr = MediumBackend::Sinr(SinrParams::DEFAULT);
    let mut csv = Vec::new();
    let mut anal_pts = Vec::new();
    let mut unit_pts = Vec::new();
    let mut sinr_pts = Vec::new();
    for (pi, &p) in probs.iter().enumerate() {
        let mut cfg = RingModelConfig::paper(RHO, p);
        cfg.quad_points = ctx.quad_points();
        let anal = RingModel::cached(cfg)
            .run()
            .phase_series()
            .reachability_at_latency(LATENCY);

        // Same seeds for both backends: the deployments (and the protocol
        // coin streams) are identical, so the delta is the physical layer.
        let rep = |backend: MediumBackend| {
            Replication::paper(
                Deployment::disk(5, 1.0, RHO),
                GossipConfig::pb_cam(p),
                ctx.seed.wrapping_add(0x51E0).wrapping_add(pi as u64),
            )
            .with_runs(ctx.sim_runs())
            .with_threads(ctx.threads)
            .with_faults(ctx.faults.clone())
            .with_medium(backend)
            .run()
            .reachability_at_latency(LATENCY)
        };
        let unit = rep(MediumBackend::UnitDisk);
        let shot = rep(sinr);
        csv.push(format!(
            "{p},{anal},{},{},{},{}",
            unit.mean, unit.ci95, shot.mean, shot.ci95
        ));
        anal_pts.push((p, anal));
        unit_pts.push((p, unit.mean));
        sinr_pts.push((p, shot.mean));
    }
    ctx.write_csv(
        "ext_sinr_overlay.csv",
        "p,analysis_reach,unitdisk_reach,unitdisk_ci95,sinr_reach,sinr_ci95",
        &csv,
    );
    let chart = nss_plot::Chart::new(
        "Reachability vs p: analysis and both physical layers (rho=60)",
        "broadcast probability p",
        "reachability within 10 phases",
    )
    .with_series(nss_plot::Series::new(
        "analysis (unit-disk rings)",
        anal_pts,
    ))
    .with_series(nss_plot::Series::new("sim, unit-disk backend", unit_pts))
    .with_series(nss_plot::Series::new("sim, SINR backend", sinr_pts));
    ctx.write_svg("ext_sinr_overlay.svg", &chart);
    nss_obs::status!("\nexpected shape: curves agree at low p; SINR capture lifts the high-p tail");
}

/// Part B: transmit-only uplink delivery under both backends.
fn part_b_events(ctx: &Ctx) {
    let fracs: &[f64] = if ctx.fast {
        &[0.0, 0.4, 0.8]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8]
    };
    let backends = [
        ("unit-disk", MediumBackend::UnitDisk),
        ("sinr", MediumBackend::Sinr(SinrParams::DEFAULT)),
    ];
    let samples = ctx.sim_runs();
    let mut csv = Vec::new();
    let mut series: Vec<(String, Vec<(f64, f64)>)> = backends
        .iter()
        .map(|(label, _)| (format!("delivery, {label}"), Vec::new()))
        .collect();
    for (fi, &frac) in fracs.iter().enumerate() {
        let plan = if frac == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::transmit_only(frac)
        };
        for (bi, (label, backend)) in backends.iter().enumerate() {
            let (mut heard, mut delivered, mut first) = (0.0, 0.0, 0.0);
            let mut first_n = 0u32;
            for run in 0..samples {
                let mix = ctx
                    .seed
                    .wrapping_add(0x51E1)
                    .wrapping_add((fi as u64) << 24)
                    .wrapping_add(u64::from(run));
                let topo = Topology::build(&Deployment::disk(5, 1.0, RHO).sample(mix));
                let field = EventField {
                    plan: &plan,
                    faults_seed: mix ^ 0xFA11,
                    rounds: 20,
                    slots: 4,
                    prob: 0.5,
                    backend: *backend,
                };
                let report = run_event_delivery(&topo, &field, mix ^ 0x3C07);
                heard += report.heard_rate();
                delivered += report.delivery_rate();
                if report.heard > 0 {
                    first += report.mean_first_heard_round;
                    first_n += 1;
                }
            }
            let n = f64::from(samples);
            let (heard, delivered) = (heard / n, delivered / n);
            let first = if first_n == 0 {
                0.0
            } else {
                first / f64::from(first_n)
            };
            csv.push(format!("{frac},{label},{heard},{delivered},{first}"));
            series[bi].1.push((frac, delivered));
        }
    }
    ctx.write_csv(
        "ext_sinr_events.csv",
        "tx_only_frac,backend,heard_rate,delivery_rate,mean_first_heard_round",
        &csv,
    );
    let mut chart = nss_plot::Chart::new(
        "Event delivery vs transmit-only fraction (rho=60)",
        "transmit-only fraction",
        "delivery rate to sink",
    );
    for (label, pts) in series {
        chart = chart.with_series(nss_plot::Series::new(label, pts));
    }
    ctx.write_svg("ext_sinr_events.svg", &chart);
    nss_obs::status!(
        "\nexpected shape: delivery degrades as listeners thin; backends split under contention"
    );
}
