//! Property-based tests (proptest) over the core invariants of every layer.

use nss::analysis::prelude::*;
use nss::model::prelude::*;
use nss::sim::prelude::*;
use nss_analysis::mu::mu_closed_form;
use nss_analysis::mu_cs::mu_cs_closed_form;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------- geometry ----------

    #[test]
    fn lens_area_bounded_and_symmetric(
        r1 in 0.1f64..10.0,
        r2 in 0.1f64..10.0,
        d in 0.0f64..25.0,
    ) {
        let a = lens_area(r1, r2, d);
        let min_disk = disk_area(r1.min(r2));
        prop_assert!(a >= 0.0);
        prop_assert!(a <= min_disk + 1e-9);
        prop_assert!((a - lens_area(r2, r1, d)).abs() < 1e-9);
    }

    #[test]
    fn lens_area_monotone_in_distance(
        r1 in 0.1f64..5.0,
        r2 in 0.1f64..5.0,
        d in 0.0f64..10.0,
        step in 0.001f64..1.0,
    ) {
        prop_assert!(lens_area(r1, r2, d + step) <= lens_area(r1, r2, d) + 1e-9);
    }

    #[test]
    fn ring_partition_never_exceeds_disk(
        p in 2u32..8,
        j in 1u32..8,
        x in 0.0f64..1.0,
        r in 0.2f64..3.0,
    ) {
        let j = j.min(p);
        let geom = RingGeometry::new(p, r);
        let x = x * r;
        let total: f64 = (1..=p).map(|k| geom.a_area(j, x, k)).sum();
        prop_assert!(total <= disk_area(r) + 1e-8);
        // Deep-interior nodes tile the whole disk.
        if j >= 2 && j < p {
            prop_assert!((total - disk_area(r)).abs() < 1e-8,
                "interior partition should tile: {total} vs {}", disk_area(r));
        }
    }

    // ---------- contention probabilities ----------

    #[test]
    fn mu_is_a_probability(k in 0u64..400, s in 1u32..10) {
        let v = mu_closed_form(k, s);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn mu_recursion_equals_closed_form(k in 0u64..120, s in 1u32..7) {
        let table = MuTable::new(s);
        prop_assert!((table.mu(k) - mu_closed_form(k, s)).abs() < 1e-10);
    }

    #[test]
    fn mu_cs_never_exceeds_mu(k1 in 0u64..80, k2 in 0u64..80, s in 1u32..7) {
        let with = mu_cs_closed_form(k1, k2, s);
        let without = mu_closed_form(k1, s);
        prop_assert!(with <= without + 1e-12);
        prop_assert!((mu_cs_closed_form(k1, 0, s) - without).abs() < 1e-12);
    }

    #[test]
    fn mu_evaluator_continuous_at_lattice(k in 0u64..50, s in 1u32..6) {
        let ev = MuEvaluator::new(s, MuMode::Interpolate);
        let kf = k as f64;
        let eps = 1e-9;
        let at = ev.eval(kf);
        prop_assert!((ev.eval(kf + eps) - at).abs() < 1e-6);
        if k > 0 {
            prop_assert!((ev.eval(kf - eps) - at).abs() < 1e-6);
        }
    }

    // ---------- metrics ----------

    #[test]
    fn phase_series_inverse_properties(
        increments in proptest::collection::vec(0.0f64..20.0, 1..12),
        bc_increments in proptest::collection::vec(0.0f64..10.0, 1..12),
        target_frac in 0.01f64..0.99,
    ) {
        let n = increments.len().min(bc_increments.len());
        let mut informed = Vec::new();
        let mut broadcasts = Vec::new();
        let mut acc = 1.0;
        let mut bacc = 1.0;
        for i in 0..n {
            acc += increments[i];
            bacc += bc_increments[i];
            informed.push(acc);
            broadcasts.push(bacc);
        }
        let series = PhaseSeries {
            n_total: acc + 1.0, // ensure informed ≤ n_total
            informed_cum: informed,
            broadcasts_cum: broadcasts,
        };
        prop_assert!(series.validate().is_ok());
        let target = target_frac * series.final_reachability();
        if target > 0.0 {
            if let Some(t) = series.latency_to_reach(target) {
                let back = series.reachability_at_latency(t);
                prop_assert!((back - target).abs() < 1e-6,
                    "inverse broken: target {target}, back {back}");
                let b = series.broadcasts_to_reach(target).unwrap();
                prop_assert!(series.reachability_under_budget(b) >= target - 1e-6);
            }
        }
        // Monotonicity of reachability in latency.
        let quarter = series.phases() as f64 / 4.0;
        prop_assert!(series.reachability_at_latency(quarter)
            <= series.reachability_at_latency(2.0 * quarter) + 1e-12);
    }

    // ---------- simulator ----------

    #[test]
    fn gossip_trace_invariants(
        rho in 5.0f64..40.0,
        prob in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let topo = Topology::build(&Deployment::disk(3, 1.0, rho).sample(seed));
        let trace = Executor::new(&topo).gossip(GossipConfig::pb_cam(prob)).run(seed ^ 0xABCD);
        // Source always informed; it always transmits once.
        prop_assert_eq!(trace.first_rx_phase[0], 0);
        prop_assert!(trace.total_broadcasts() >= 1);
        // Each node transmits at most once.
        prop_assert!(trace.total_broadcasts() <= trace.informed_count() as u64);
        // Reachability can't exceed the connected component.
        let bound = topo.reachable_fraction(NodeId::SOURCE);
        prop_assert!(trace.final_reachability() <= bound + 1e-12);
        // Phase series is well-formed.
        prop_assert!(trace.phase_series().validate().is_ok());
        // No reception earlier than hop distance allows.
        let levels = topo.bfs_levels(NodeId::SOURCE);
        for (v, &phase) in trace.first_rx_phase.iter().enumerate() {
            if phase != NEVER && v != 0 {
                prop_assert!(phase >= levels[v],
                    "node {v} informed in phase {phase} but is {} hops away",
                    levels[v]);
            }
        }
    }

    #[test]
    fn cfm_flooding_exactly_matches_bfs(
        rho in 5.0f64..30.0,
        seed in 0u64..500,
    ) {
        let topo = Topology::build(&Deployment::disk(3, 1.0, rho).sample(seed));
        let mut cfg = GossipConfig::flooding_cam();
        cfg.model = CommunicationModel::Cfm;
        let trace = Executor::new(&topo).gossip(cfg).run(seed);
        let levels = topo.bfs_levels(NodeId::SOURCE);
        for (v, &phase) in trace.first_rx_phase.iter().enumerate() {
            let level = levels[v];
            if level == u32::MAX {
                prop_assert_eq!(phase, NEVER);
            } else {
                prop_assert_eq!(phase, level, "node {} at hop {}", v, level);
            }
        }
    }

    // ---------- spatial index ----------

    #[test]
    fn grid_index_matches_brute_force(
        pts in proptest::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 0..120),
        qx in -9.0f64..9.0,
        qy in -9.0f64..9.0,
        radius in 0.1f64..4.0,
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let idx = GridIndex::build(&points, 1.5).unwrap();
        let q = Point2::new(qx, qy);
        let mut got = idx.within(&q, radius);
        got.sort_unstable();
        let mut expect: Vec<NodeId> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(&q) <= radius * radius)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    // ---------- ring model ----------

    #[test]
    fn ring_model_profiles_always_valid(
        rho in 5.0f64..150.0,
        prob in 0.0f64..1.0,
        s in 1u32..6,
        p_rings in 2u32..7,
    ) {
        let mut cfg = RingModelConfig::paper(rho, prob);
        cfg.s = s;
        cfg.p = p_rings;
        cfg.quad_points = 16;
        cfg.max_phases = 40;
        let profile = RingModel::new(cfg).run();
        let series = profile.phase_series();
        prop_assert!(series.validate().is_ok());
        prop_assert!(series.final_reachability() <= 1.0 + 1e-9);
        // Broadcast accounting: phase i+1 broadcasts = prob · phase i news.
        for i in 1..profile.broadcasts_by_phase.len() {
            let expect = prob * profile.new_in_phase(i);
            prop_assert!((profile.broadcasts_by_phase[i] - expect).abs() < 1e-6);
        }
    }
}
