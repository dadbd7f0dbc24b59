//! Ext R — deterministic fault injection: the analytical lossy-ring model
//! versus the simulator under a [`FaultPlan`].
//!
//! Part A sweeps an independent per-link loss probability λ at the paper's
//! mid density (ρ = 60, p = 0.4): the analysis scales its success kernel by
//! the delivery probability `q = 1 − λ`, the simulator draws per-link coins
//! from the dedicated `faults` RNG stream. Part B thins the deployment to
//! an alive fraction `a` and asks how the *optimal* broadcast probability
//! shifts: dead relays remove redundancy, so p* climbs as `a` drops.

use crate::common::{heading, Ctx};
use nss_analysis::ring_model::{RingModel, RingModelConfig};
use nss_model::deployment::Deployment;
use nss_model::faults::FaultPlan;
use nss_sim::runner::Replication;
use nss_sim::slotted::GossipConfig;

/// Latency budget (phases) shared by both parts.
const LATENCY: f64 = 10.0;

/// Density / base probability of the Part A loss sweep.
const RHO: f64 = 60.0;
const PROB: f64 = 0.4;

pub fn run(ctx: &Ctx) {
    heading("Ext R: fault injection — link loss and dead-node sweeps");
    part_a_link_loss(ctx);
    part_b_alive_fraction(ctx);
}

/// Part A: reachability degradation under per-link loss.
fn part_a_link_loss(ctx: &Ctx) {
    let lambdas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let mut csv = Vec::new();
    let mut anal_pts = Vec::new();
    let mut sim_pts = Vec::new();
    for (li, &lambda) in lambdas.iter().enumerate() {
        let mut cfg = RingModelConfig::paper(RHO, PROB);
        cfg.quad_points = ctx.quad_points();
        cfg.link_q = 1.0 - lambda;
        let anal = RingModel::cached(cfg)
            .run()
            .phase_series()
            .reachability_at_latency(LATENCY);

        let plan = FaultPlan::lossy(lambda);
        let rep = Replication::paper(
            Deployment::disk(5, 1.0, RHO),
            GossipConfig::pb_cam(PROB),
            ctx.seed.wrapping_add(0xFA01).wrapping_add(li as u64),
        )
        .with_runs(ctx.sim_runs())
        .with_threads(ctx.threads)
        .with_faults(plan);
        let sim = rep.run().reachability_at_latency(LATENCY);
        csv.push(format!("{lambda},{anal},{},{}", sim.mean, sim.ci95));
        anal_pts.push((lambda, anal));
        sim_pts.push((lambda, sim.mean));
    }
    ctx.write_csv(
        "ext_faults_loss.csv",
        "loss,analysis_reach,sim_reach,sim_ci95",
        &csv,
    );
    let chart = nss_plot::Chart::new(
        "Reachability vs link loss (rho=60, p=0.4)",
        "link loss probability",
        "reachability within 10 phases",
    )
    .with_series(nss_plot::Series::new("analysis (q = 1 - loss)", anal_pts))
    .with_series(nss_plot::Series::new("simulation (FaultPlan)", sim_pts));
    ctx.write_svg("ext_faults_loss.svg", &chart);
    nss_obs::status!("\nexpected shape: monotone degradation; analysis tracks the sim curve");
}

/// Part B: how the optimal probability shifts as nodes die.
fn part_b_alive_fraction(ctx: &Ctx) {
    let alive_fracs: &[f64] = if ctx.fast {
        &[1.0, 0.6]
    } else {
        &[1.0, 0.9, 0.75, 0.6]
    };
    // A coarse grid keeps the simulated argmax affordable; the analysis
    // reuses one interned kernel across every (a, p) cell.
    let probs: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
    let mut csv = Vec::new();
    let mut anal_opt = Vec::new();
    let mut sim_opt = Vec::new();
    for (ai, &alive) in alive_fracs.iter().enumerate() {
        let (mut pa, mut ra) = (probs[0], f64::MIN);
        for &p in &probs {
            let mut cfg = RingModelConfig::paper(RHO, p);
            cfg.quad_points = ctx.quad_points();
            cfg.alive_frac = alive;
            let reach = RingModel::cached(cfg)
                .run()
                .phase_series()
                .reachability_at_latency(LATENCY);
            if reach > ra {
                (pa, ra) = (p, reach);
            }
        }

        let plan = FaultPlan::thinned(1.0 - alive);
        let (mut ps, mut rs) = (probs[0], f64::MIN);
        for (pi, &p) in probs.iter().enumerate() {
            let rep = Replication::paper(
                Deployment::disk(5, 1.0, RHO),
                GossipConfig::pb_cam(p),
                ctx.seed
                    .wrapping_add(0xFB00)
                    .wrapping_add((ai as u64) << 16)
                    .wrapping_add(pi as u64),
            )
            .with_runs(ctx.sim_runs())
            .with_threads(ctx.threads)
            .with_faults(plan.clone());
            let reach = rep.run().reachability_at_latency(LATENCY).mean;
            if reach > rs {
                (ps, rs) = (p, reach);
            }
        }

        csv.push(format!("{alive},{pa},{ra},{ps},{rs}"));
        anal_opt.push((alive, pa));
        sim_opt.push((alive, ps));
    }
    ctx.write_csv(
        "ext_faults_alive.csv",
        "alive_frac,analysis_p_opt,analysis_reach,sim_p_opt,sim_reach",
        &csv,
    );
    let chart = nss_plot::Chart::new(
        "Optimal broadcast probability vs alive fraction (rho=60)",
        "alive fraction",
        "optimal p",
    )
    .with_series(nss_plot::Series::new("analysis (alive_frac)", anal_opt))
    .with_series(nss_plot::Series::new("simulation (thinned plan)", sim_opt));
    ctx.write_svg("ext_faults_alive.svg", &chart);
    nss_obs::status!("\nexpected shape: fewer live relays push the optimal probability upward");
}
