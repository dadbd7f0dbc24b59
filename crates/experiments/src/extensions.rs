//! Extension experiments beyond the paper's figures (see DESIGN.md §4,
//! Ext A–E): carrier sensing, the CFM/CAM prediction gap, grid-deployment
//! percolation, adaptive tuning, ACK-based reliable flooding, and the
//! synchronous-vs-asynchronous execution comparison.

use crate::common::{heading, Ctx};
use crate::sec41::LATENCY_BUDGET;
use nss_analysis::mu::MuMode;
use nss_analysis::optimize::{Objective, ProbabilitySweep};
use nss_analysis::ring_model::RingModelConfig;
use nss_core::adaptive::{evaluate_adaptive, AdaptiveController};
use nss_core::network::NetworkModel;
use nss_core::prediction::flooding_gap;
use nss_model::comm::CollisionRule;
use nss_model::deployment::{Deployment, GridDeployment};
use nss_model::faults::FaultPlan;
use nss_model::rng::{SeedFactory, Stream};
use nss_sim::executor::Executor;
use nss_sim::protocols::ack_flood::{run_ack_flood, AckFloodConfig};
use nss_sim::protocols::async_gossip::{run_async_gossip, AsyncGossipConfig};
use nss_sim::runner::Replication;
use nss_sim::slotted::GossipConfig;
use nss_sim::stats::Summary;

/// `runs` fields of `deployment` under `gossip`, seeded from the master
/// seed and replicated on `--threads` workers.
fn replication(ctx: &Ctx, deployment: Deployment, gossip: GossipConfig, runs: u32) -> Replication {
    Replication::paper(deployment, gossip, ctx.seed)
        .with_runs(runs)
        .with_threads(ctx.threads)
}

/// Ext A — Appendix-A carrier-sense variant of Fig. 4(b).
#[expect(
    clippy::unwrap_used,
    reason = "a max objective is feasible at every grid point, so the optimum exists"
)]
pub fn ext_carrier_sense(ctx: &Ctx) {
    heading("Ext A: carrier-sense (2r) optimal probability vs transmission-range");
    let obj = Objective::MaxReachAtLatency {
        phases: LATENCY_BUDGET,
    };
    let grid = ctx.analysis_grid();
    let mut csv = Vec::new();
    for rho in ctx.rhos() {
        let mut base = ctx.ring_base();
        base.rho = rho;
        let tr = ProbabilitySweep::run(base, &grid).optimum(obj).unwrap();
        let mut cs_cfg = base;
        cs_cfg.collision = CollisionRule::CARRIER_SENSE_2R;
        let cs = ProbabilitySweep::run(cs_cfg, &grid).optimum(obj).unwrap();
        csv.push(format!(
            "{rho},{},{},{},{}",
            tr.prob, tr.value, cs.prob, cs.value
        ));
    }
    ctx.write_csv(
        "ext_carrier_sense.csv",
        "rho,p_opt_tr,reach_tr,p_opt_cs,reach_cs",
        &csv,
    );
    nss_obs::status!("\nexpected shape: carrier sensing lowers reachability and pushes p* down");
}

/// Ext B — the CFM-vs-CAM flooding prediction gap (§1.2 motivation).
pub fn ext_cfm_gap(ctx: &Ctx) {
    heading("Ext B: CFM prediction vs CAM measurement for simple flooding");
    let runs = if ctx.fast { 5 } else { 15 };
    let mut csv = Vec::new();
    for rho in ctx.rhos() {
        let report = flooding_gap(&NetworkModel::paper(rho), runs, ctx.seed, ctx.threads);
        csv.push(format!(
            "{rho},{},{},{},{},{}",
            report.cfm.reachability,
            report.cam.reachability_at_cfm_latency.mean,
            report.cam.final_reachability.mean,
            report.cfm.latency_phases,
            report.cam.latency_phases.mean,
        ));
    }
    ctx.write_csv(
        "ext_cfm_gap.csv",
        "rho,cfm_reach,cam_reach_at_cfm_latency,cam_final_reach,cfm_latency,cam_latency",
        &csv,
    );
    nss_obs::status!("\nexpected shape: the CFM promise breaks progressively with density");
}

/// Ext C — grid-deployment CFM gossip percolation (ref. 32: threshold
/// ≈ 0.59 for bond/site-percolation-like behavior on the grid).
pub fn ext_grid_percolation(ctx: &Ctx) {
    heading("Ext C: CFM gossip on a grid — percolation-style threshold");
    let side = if ctx.fast { 21 } else { 41 };
    let runs = if ctx.fast { 5 } else { 20 };
    let probs: Vec<f64> = (1..=20).map(|i| f64::from(i) / 20.0).collect();
    // Every p runs on each field; run i (p = i/20) of field k takes the
    // protocol seed of index k ^ (i << 8).
    let factory = SeedFactory::new(ctx.seed);
    let dep = Deployment::Grid(GridDeployment::new(side, 1.0, 1.0));
    let reach = replication(ctx, dep, GossipConfig::gossip_cfm(1.0), runs).map(|f| {
        (1..)
            .zip(&probs)
            .map(|(i, &p)| {
                let seed = factory.seed(Stream::Protocol, f.index ^ (i << 8));
                f.executor().prob(p).run(seed).final_reachability()
            })
            .collect::<Vec<_>>()
    });
    let mut csv = Vec::new();
    let mut series = Vec::new();
    for (pi, &p) in probs.iter().enumerate() {
        let total: f64 = reach.iter().map(|r| r[pi]).sum();
        let mean = total / f64::from(runs);
        csv.push(format!("{p},{mean}"));
        series.push((p, mean));
    }
    ctx.write_csv("ext_grid_percolation.csv", "p,mean_reach", &csv);
    // Report the crossing of 50% reachability as the empirical threshold.
    let threshold = series
        .windows(2)
        .find(|w| w[0].1 < 0.5 && w[1].1 >= 0.5)
        .map(|w| w[1].0);
    nss_obs::status!(
        "\nempirical 50%-reach threshold: {:?} (ref. 32 reports ~0.59 for grids)",
        threshold
    );
}

/// Ext D — the §6 adaptive rule (p ≈ ratio · measured success rate) vs the
/// density-aware oracle.
pub fn ext_adaptive(ctx: &Ctx) {
    heading("Ext D: adaptive success-rate-driven probability vs oracle");
    let mut base = ctx.ring_base();
    base.prob = 1.0;
    let controller = AdaptiveController::calibrate(base, &[40.0, 80.0, 120.0], LATENCY_BUDGET);
    nss_obs::status!("calibrated ratio p*/sr = {:.2}", controller.ratio);
    let runs = if ctx.fast { 3 } else { 10 };
    let mut csv = Vec::new();
    for rho in ctx.rhos() {
        let out = evaluate_adaptive(
            &NetworkModel::paper(rho),
            &controller,
            LATENCY_BUDGET,
            runs,
            ctx.seed,
            ctx.threads,
        );
        csv.push(format!(
            "{rho},{},{},{},{},{},{}",
            out.measured_success_rate,
            out.adaptive_prob,
            out.adaptive_reach,
            out.oracle_prob,
            out.oracle_reach,
            out.efficiency()
        ));
    }
    ctx.write_csv(
        "ext_adaptive.csv",
        "rho,measured_sr,p_adaptive,reach_adaptive,p_oracle,reach_oracle,efficiency",
        &csv,
    );
    nss_obs::status!("\nexpected shape: efficiency stays near 1 without knowing the density");
}

/// Ext E — ACK-based reliable flooding (the §3.2.1 naive CFM
/// implementation) vs plain CAM flooding.
pub fn ext_ack_flood(ctx: &Ctx) {
    heading("Ext E: ACK-based reliable flooding cost vs plain flooding");
    let runs = if ctx.fast { 2 } else { 5 };
    let mut csv = Vec::new();
    for rho in [20.0, 40.0, 60.0, 80.0] {
        let dep = Deployment::disk(4, 1.0, rho);
        let fields = replication(ctx, dep, GossipConfig::flooding_cam(), runs).map(|f| {
            let plain = f.executor().run(f.seed(Stream::Protocol));
            let rel = run_ack_flood(&f.topo, &AckFloodConfig::default(), f.seed(Stream::Jitter));
            (
                plain.total_broadcasts() as f64,
                rel.total_tx() as f64,
                rel.reachability(),
                rel.gave_up,
            )
        });
        let plain = Summary::of(&fields.iter().map(|r| r.0).collect::<Vec<_>>());
        let rel = Summary::of(&fields.iter().map(|r| r.1).collect::<Vec<_>>());
        let reach = Summary::of(&fields.iter().map(|r| r.2).collect::<Vec<_>>());
        let gave_up: usize = fields.iter().map(|r| r.3).sum();
        let overhead = rel.mean / plain.mean.max(1.0);
        csv.push(format!(
            "{rho},{},{},{},{},{}",
            plain.mean, rel.mean, overhead, reach.mean, gave_up
        ));
    }
    ctx.write_csv(
        "ext_ack_flood.csv",
        "rho,plain_tx,reliable_tx,overhead,reliable_reach,gave_up",
        &csv,
    );
    nss_obs::status!(
        "\nexpected shape: reliable broadcast costs an order of magnitude more traffic"
    );
}

/// Ext F — synchronous (slotted) vs asynchronous (continuous-time) PB_CAM:
/// quantifies the paper's "optimistic perfect synchronization" assumption.
pub fn ext_async(ctx: &Ctx) {
    heading("Ext F: slotted (analysis assumption) vs asynchronous execution");
    let runs = if ctx.fast { 3 } else { 10 };
    let mut csv = Vec::new();
    for rho in [20.0f64, 60.0, 100.0, 140.0] {
        // Use a sensible probability for each density (from the Fig. 4 rule
        // of thumb p* ≈ 13/rho).
        let p = (13.0 / rho).clamp(0.05, 1.0);
        let dep = Deployment::disk(5, 1.0, rho);
        let fields = replication(ctx, dep, GossipConfig::pb_cam(p), runs).map(|f| {
            let seed = f.seed(Stream::Protocol);
            let sync = f.executor().run(seed);
            let asynchronous = run_async_gossip(&f.topo, &AsyncGossipConfig::paper(p), seed);
            [sync, asynchronous].map(|t| t.phase_series().reachability_at_latency(LATENCY_BUDGET))
        });
        let sync_mean = fields.iter().map(|r| r[0]).sum::<f64>() / f64::from(runs);
        let async_mean = fields.iter().map(|r| r[1]).sum::<f64>() / f64::from(runs);
        csv.push(format!("{rho},{p},{sync_mean},{async_mean}"));
    }
    ctx.write_csv("ext_async.csv", "rho,p,sync_reach,async_reach", &csv);
    nss_obs::status!(
        "\nnote: async trades slot-alignment (collision prob 1/s) for interval overlap\n\
         (higher), but pipelines across phase boundaries — under a wall-clock latency\n\
         bound it can even lead; final reachability stays comparable"
    );
}

/// Ext H — Galton–Watson extinction correction: mean-field vs adjusted vs
/// simulated reachability at small probabilities.
pub fn ext_survival(ctx: &Ctx) {
    use nss_analysis::ring_model::RingModel;
    use nss_analysis::survival::survival_estimate;
    heading("Ext H: extinction-corrected analytical reachability at small p");
    let runs = if ctx.fast { 5 } else { 20 };
    let mut csv = Vec::new();
    // Each density's fields run every probability listed for it.
    let points: [(f64, &[f64]); 3] = [
        (40.0, &[0.03, 0.10]),
        (80.0, &[0.02, 0.05]),
        (140.0, &[0.02]),
    ];
    for (rho, probs) in points {
        let dep = Deployment::disk(5, 1.0, rho);
        let reach = replication(ctx, dep, GossipConfig::pb_cam(1.0), runs).map(|f| {
            let seed = f.seed(Stream::Protocol);
            probs
                .iter()
                .map(|&p| f.executor().prob(p).run(seed).final_reachability())
                .collect::<Vec<_>>()
        });
        for (pi, &p) in probs.iter().enumerate() {
            let mut cfg = ctx.ring_base();
            cfg.rho = rho;
            cfg.prob = p;
            let est = survival_estimate(&RingModel::new(cfg).run());
            let sim = reach.iter().map(|r| r[pi]).sum::<f64>() / f64::from(runs);
            csv.push(format!(
                "{rho},{p},{},{},{},{sim}",
                est.cascade_survival, est.mean_field_reachability, est.adjusted_reachability
            ));
        }
    }
    ctx.write_csv(
        "ext_survival.csv",
        "rho,p,survival,mean_field_reach,adjusted_reach,simulated_reach",
        &csv,
    );
    nss_obs::status!(
        "\nexpected shape: the adjusted value is closer to the simulated mean than\n\
         the raw mean-field value at every small-p operating point (it remains\n\
         approximate: offspring means are collapsed to the earliest generation)"
    );
}

/// Ext I — density-aware CFM costs (§6 future work): naive vs refined
/// latency predictions against CAM reality.
pub fn ext_cfm_cost(ctx: &Ctx) {
    use nss_analysis::cfm_cost::RefinedCfm;
    heading("Ext I: density-aware CFM cost functions vs naive CFM vs CAM");
    let mut base = ctx.ring_base();
    base.prob = 1.0;
    let refined = RefinedCfm::calibrate(base, &ctx.rhos());
    let runs = if ctx.fast { 3 } else { 10 };
    let mut csv = Vec::new();
    for rho in ctx.rhos() {
        let report = flooding_gap(&NetworkModel::paper(rho), runs, ctx.seed, ctx.threads);
        // Naive CFM: one phase per hop. Refined: expected attempts per hop.
        let naive = report.cfm.latency_phases;
        let attempts = refined.expected_attempts(rho);
        let refined_lat = naive * attempts;
        csv.push(format!(
            "{rho},{naive},{refined_lat},{},{attempts}",
            report.cam.latency_phases.mean
        ));
    }
    ctx.write_csv(
        "ext_cfm_cost.csv",
        "rho,naive_latency,refined_latency,cam_latency,expected_attempts",
        &csv,
    );
    nss_obs::status!(
        "\nexpected shape: naive CFM underestimates CAM latency with a gap that\n\
         grows with density; the density-aware refinement restores the trend\n\
         (it overestimates because flooding amortizes retries across neighbors)"
    );
}

/// Ext J — broadcast-scheme shootout: PB_CAM vs counter-based vs
/// distance-based under identical CAM semantics.
pub fn ext_schemes(ctx: &Ctx) {
    use nss_sim::protocols::counter::{run_counter_broadcast, CounterConfig};
    use nss_sim::protocols::distance::{run_distance_broadcast, DistanceConfig};
    heading("Ext J: PB_CAM vs counter-based vs distance-based (final reach / broadcasts)");
    let runs = if ctx.fast { 3 } else { 10 };
    let mut csv = Vec::new();
    for rho in [20.0f64, 60.0, 100.0, 140.0] {
        let p = (13.0 / rho).clamp(0.05, 1.0);
        let dep = Deployment::disk(5, 1.0, rho);
        let fields = replication(ctx, dep, GossipConfig::pb_cam(p), runs).map(|f| {
            let seed = f.seed(Stream::Protocol);
            [
                f.executor().run(seed),
                run_counter_broadcast(&f.topo, &CounterConfig::paper(3), seed),
                run_distance_broadcast(&f.topo, &DistanceConfig::paper(0.4), seed),
            ]
            .map(|t| (t.final_reachability(), t.total_broadcasts()))
        });
        let mut acc = [(0.0f64, 0u64); 3];
        for field in fields {
            for (a, (reach, tx)) in acc.iter_mut().zip(field) {
                a.0 += reach;
                a.1 += tx;
            }
        }
        let mut row = format!("{rho}");
        for (reach, tx) in acc {
            row.push_str(&format!(
                ",{},{}",
                reach / runs as f64,
                tx as f64 / runs as f64
            ));
        }
        csv.push(row);
    }
    ctx.write_csv(
        "ext_schemes.csv",
        "rho,pbcam_reach,pbcam_tx,counter_reach,counter_tx,distance_reach,distance_tx",
        &csv,
    );
    nss_obs::status!(
        "\nnote: under Assumption-6 CAM, duplicate receptions mostly COLLIDE, so\n\
         duplicate-driven suppression (counter/distance) rarely triggers and both\n\
         schemes spend nearly flooding-level traffic — PB_CAM's coin flip is the\n\
         only thinning that needs no clean duplicates. (Under CFM the suppression\n\
         schemes shine; see their unit tests.)"
    );
}

/// Ext K — unicast convergecast: data gathering up the BFS tree under CAM.
pub fn ext_convergecast(ctx: &Ctx) {
    use nss_sim::protocols::convergecast::{run_convergecast, ConvergecastConfig};
    heading("Ext K: unicast convergecast (data gathering) under CAM");
    let runs = if ctx.fast { 2 } else { 5 };
    let mut csv = Vec::new();
    for rho in [20.0f64, 40.0, 60.0] {
        let dep = Deployment::disk(4, 1.0, rho);
        let outs = replication(ctx, dep, GossipConfig::flooding_cam(), runs).map(|f| {
            run_convergecast(
                &f.topo,
                &ConvergecastConfig::default(),
                f.seed(Stream::Protocol),
            )
        });
        let reach: usize = outs.iter().map(|o| o.reachable).sum();
        let deliv: usize = outs.iter().map(|o| o.delivered).sum();
        let tx: u64 = outs.iter().map(|o| o.transmissions).sum();
        let phases: usize = outs.iter().map(|o| o.phases).sum();
        csv.push(format!(
            "{rho},{},{},{},{}",
            reach / runs as usize,
            deliv / runs as usize,
            tx / u64::from(runs),
            phases / runs as usize
        ));
    }
    ctx.write_csv(
        "ext_convergecast.csv",
        "rho,reports,delivered,transmissions,phases",
        &csv,
    );
    nss_obs::status!("\nexpected shape: full delivery; transmissions grow superlinearly with\ndensity (funnel contention near the source forces retries)");
}

/// Ext L — failure injection: PB_CAM reachability under per-phase node
/// deaths (sensitivity to the paper's stable-snapshot Assumption 5). A
/// per-phase hazard `q` is a fault plan of permanent crashes at geometric
/// times ([`FaultPlan::per_phase_crashes`]), so it runs on any engine.
pub fn ext_failures(ctx: &Ctx) {
    heading("Ext L: PB_CAM under per-phase node failures");
    let runs = if ctx.fast { 3 } else { 10 };
    let hazards = [0.0, 0.02, 0.05, 0.1, 0.2];
    // `reach[rho][field][q]`: every hazard runs on each field.
    let reach: Vec<Vec<Vec<f64>>> = [40.0f64, 80.0, 140.0]
        .into_iter()
        .map(|rho| {
            let p = (13.0 / rho).clamp(0.05, 1.0);
            let dep = Deployment::disk(5, 1.0, rho);
            replication(ctx, dep, GossipConfig::pb_cam(p), runs).map(|f| {
                hazards
                    .iter()
                    .map(|&q| {
                        #[expect(
                            clippy::expect_used,
                            reason = "every hazard q in the sweep is a probability"
                        )]
                        let plan =
                            FaultPlan::per_phase_crashes(f.topo.len(), q, f.seed(Stream::Faults))
                                .expect("hazards in the sweep are probabilities");
                        f.executor()
                            .faults(plan)
                            .run(f.seed(Stream::Protocol))
                            .final_reachability()
                    })
                    .collect()
            })
        })
        .collect();
    let mut csv = Vec::new();
    for (qi, q) in hazards.iter().enumerate() {
        let mut row = format!("{q}");
        for fields in &reach {
            let total: f64 = fields.iter().map(|r| r[qi]).sum();
            row.push_str(&format!(",{}", total / f64::from(runs)));
        }
        csv.push(row);
    }
    ctx.write_csv(
        "ext_failures.csv",
        "q_fail,reach_rho40,reach_rho80,reach_rho140",
        &csv,
    );
    nss_obs::status!("\nexpected shape: graceful degradation; denser networks tolerate more\nfailure (redundant relays), validating Assumption 5 as a mild idealization");
}

/// Ext M — TDMA (CFM via time diversity, §3.2.1) vs CSMA-style CAM
/// flooding: reliability vs latency, quantified.
pub fn ext_tdma(ctx: &Ctx) {
    use nss_sim::tdma::TdmaSchedule;
    heading("Ext M: TDMA-implemented CFM flooding vs CAM flooding");
    let runs = if ctx.fast { 2 } else { 5 };
    let cam = GossipConfig::flooding_cam();
    let mut csv = Vec::new();
    for rho in [20.0f64, 60.0, 100.0, 140.0] {
        let dep = Deployment::disk(4, 1.0, rho);
        let fields = replication(ctx, dep, cam, runs).map(|f| {
            let out = f.executor().run_tdma(&TdmaSchedule::build(&f.topo));
            assert_eq!(out.collisions, 0, "schedule must be collision-free");
            let trace = f.executor().run(f.seed(Stream::Protocol));
            (
                out,
                trace.phases() as u64 * u64::from(cam.s),
                trace.final_reachability(),
            )
        });
        let mut frame = 0u64;
        let mut tdma_slots = 0u64;
        let mut tdma_reach = 0.0;
        let mut cam_slots = 0u64;
        let mut cam_reach = 0.0;
        for (out, slots, reach) in fields {
            frame += u64::from(out.frame_len);
            tdma_slots += out.slots_elapsed;
            tdma_reach += out.reachability();
            cam_slots += slots;
            cam_reach += reach;
        }
        let r = runs as f64;
        csv.push(format!(
            "{rho},{},{},{},{},{}",
            frame as f64 / r,
            tdma_slots as f64 / r,
            tdma_reach / r,
            cam_slots as f64 / r,
            cam_reach / r
        ));
    }
    ctx.write_csv(
        "ext_tdma.csv",
        "rho,frame_len,tdma_slots,tdma_reach,cam_slots,cam_reach",
        &csv,
    );
    nss_obs::status!(
        "\nexpected shape: TDMA reaches the full component with zero collisions but\n\
         its frame (≈ distance-2 degree ≈ 4ρ) makes dense-network latency explode —\n\
         the affordability warning of §3.2.1, quantified"
    );
}

/// Ext N — jitter-slot ablation: how the optimum depends on `s` (the paper
/// fixes s = 3 without comment).
#[expect(
    clippy::unwrap_used,
    reason = "a max objective is feasible at every grid point, so the optimum exists"
)]
pub fn ext_slots(ctx: &Ctx) {
    heading("Ext N: jitter-slot count ablation (analysis, rho = 80)");
    let obj = Objective::MaxReachAtLatency {
        phases: LATENCY_BUDGET,
    };
    let grid = ctx.analysis_grid();
    let mut csv = Vec::new();
    for s in [1u32, 2, 3, 4, 6, 8] {
        let mut cfg = ctx.ring_base();
        cfg.rho = 80.0;
        cfg.s = s;
        let sweep = ProbabilitySweep::run(cfg, &grid);
        let opt = sweep.optimum(obj).unwrap();
        let flooding = {
            let mut f = cfg;
            f.prob = 1.0;
            nss_analysis::ring_model::RingModel::new(f)
                .run()
                .phase_series()
                .reachability_at_latency(LATENCY_BUDGET)
        };
        csv.push(format!("{s},{},{},{flooding}", opt.prob, opt.value));
    }
    ctx.write_csv("ext_slots.csv", "s,p_opt,reach_opt,flooding_reach", &csv);
    nss_obs::status!(
        "\nexpected shape: more jitter slots absorb more contention, raising both\n\
         the optimal probability and the flooding baseline; the p*-vs-s trend\n\
         shows s=3 is a middling choice, not a special one"
    );
}

/// Ext O — heterogeneous density (§6's motivating scenario): clustered
/// hotspots over a sparse background. Compares a single fixed probability,
/// the globally-adaptive rule, and the per-node spatially-adaptive rule.
pub fn ext_hetero(ctx: &Ctx) {
    use nss_core::adaptive::{per_node_probabilities, AdaptiveController};
    use nss_model::deployment::ClusterDeployment;
    use nss_sim::probe::probe_per_node_success;

    heading("Ext O: clustered density — fixed vs global-adaptive vs per-node adaptive");
    let mut base = ctx.ring_base();
    base.prob = 1.0;
    let controller = AdaptiveController::calibrate(base, &[40.0, 80.0, 120.0], LATENCY_BUDGET);
    nss_obs::status!("calibrated ratio = {:.2}", controller.ratio);

    let runs = if ctx.fast { 3 } else { 10 };
    let probe_rounds = if ctx.fast { 1 } else { 2 };
    let mut csv = Vec::new();
    // Sweep hotspot contrast: children per cluster grows, background thins.
    for &(children, bg) in &[(40.0, 3.0), (80.0, 2.0), (160.0, 1.0)] {
        let cdep = ClusterDeployment::new(5, 1.0, 6, children, 1.0, bg);
        let dep = Deployment::Cluster(cdep);
        let fields = replication(ctx, dep, GossipConfig::pb_cam(0.5), runs).map(|f| {
            let seed = f.seed(Stream::Protocol);
            // (reach@5, final) of one run.
            let eval = |exec: Executor<'_>| {
                let s = exec.run(seed).phase_series();
                (
                    s.reachability_at_latency(LATENCY_BUDGET),
                    s.final_reachability(),
                )
            };

            // (a) fixed p tuned for the MEAN density via the 13/rho rule.
            let p_fixed = (13.0 / f.topo.mean_degree().max(1.0)).clamp(0.02, 1.0);
            let fixed = eval(f.executor().prob(p_fixed));

            // (b) global adaptive: one measured success rate for everyone.
            let rates = probe_per_node_success(&f.topo, 3, probe_rounds, f.seed(Stream::Jitter));
            let global_sr = rates.iter().sum::<f64>() / rates.len() as f64;
            let global = eval(f.executor().prob(controller.probability(global_sr)));

            // (c) per-node adaptive: each node from its own measured rate.
            let probs = per_node_probabilities(&controller, &rates);
            let local = eval(f.executor().per_node_probs(probs));
            (f.topo.mean_degree(), [fixed, global, local])
        });
        let mut deg_sum = 0.0;
        let mut sums = [(0.0, 0.0); 3]; // fixed, global, local
        for (deg, evals) in fields {
            deg_sum += deg;
            for (sum, (reach5, fin)) in sums.iter_mut().zip(evals) {
                sum.0 += reach5;
                sum.1 += fin;
            }
        }
        let r = f64::from(runs);
        let mut row = format!("{children},{bg},{}", deg_sum / r);
        for (reach5, fin) in sums {
            row.push_str(&format!(",{},{}", reach5 / r, fin / r));
        }
        csv.push(row);
    }
    ctx.write_csv(
        "ext_hetero.csv",
        "children_per_cluster,background_density,mean_degree,fixed_reach5,fixed_final,global_reach5,global_final,pernode_reach5,pernode_final",
        &csv,
    );
    nss_obs::status!(
        "\nmeasured shape: on FINAL coverage the per-node rule dominates (hotspot\n\
         nodes throttle down, sparse bridges keep relaying), while staying\n\
         competitive within the 5-phase budget — the practical payoff §6 claims\n\
         for success-rate-driven tuning under density variation"
    );
}

/// Ext P — field-size ablation: the paper fixes P = 5; how do the optimal
/// probability and the plateau depend on the field radius?
#[expect(
    clippy::unwrap_used,
    reason = "a max objective is feasible at every grid point, so the optimum exists"
)]
pub fn ext_fieldsize(ctx: &Ctx) {
    heading("Ext P: field-size ablation (analysis, rho = 80)");
    let grid = ctx.analysis_grid();
    let mut csv = Vec::new();
    for p_rings in [3u32, 5, 8, 10] {
        let mut cfg = ctx.ring_base();
        cfg.rho = 80.0;
        cfg.p = p_rings;
        // Budget scaled with the field: the wave needs ≥ P phases to cross.
        let budget = f64::from(p_rings) + 1.0;
        let sweep = ProbabilitySweep::run(cfg, &grid);
        let opt = sweep
            .optimum(Objective::MaxReachAtLatency { phases: budget })
            .unwrap();
        csv.push(format!(
            "{p_rings},{},{},{}",
            cfg.n_total(),
            opt.prob,
            opt.value
        ));
    }
    ctx.write_csv("ext_fieldsize.csv", "P,N,p_opt,reach_opt", &csv);
    nss_obs::status!(
        "
measured shape: the optimal probability is set by the LOCAL contention
         (rho), not the field size — p* is flat in P; achievable reachability
         even ticks up with P as the under-covered border shrinks relatively"
    );
}

/// Ext G — μ-mode ablation: the paper's interpolation vs the Poisson
/// mixture at the optimum.
#[expect(
    clippy::unwrap_used,
    reason = "a max objective is feasible at every grid point, so the optimum exists"
)]
pub fn ext_mu_mode(ctx: &Ctx) {
    heading("Ext G: mu-evaluation ablation (interpolated vs Poisson mixture)");
    let obj = Objective::MaxReachAtLatency {
        phases: LATENCY_BUDGET,
    };
    let grid = ctx.analysis_grid();
    let mut csv = Vec::new();
    for rho in ctx.rhos() {
        let mut interp: RingModelConfig = ctx.ring_base();
        interp.rho = rho;
        let a = ProbabilitySweep::run(interp, &grid).optimum(obj).unwrap();
        let mut pois = interp;
        pois.mu_mode = MuMode::Poisson;
        let b = ProbabilitySweep::run(pois, &grid).optimum(obj).unwrap();
        csv.push(format!(
            "{rho},{},{},{},{}",
            a.prob, a.value, b.prob, b.value
        ));
    }
    ctx.write_csv(
        "ext_mu_mode.csv",
        "rho,p_opt_interp,reach_interp,p_opt_poisson,reach_poisson",
        &csv,
    );
    nss_obs::status!("\nexpected shape: both modes agree on the trend; levels differ slightly");
}
