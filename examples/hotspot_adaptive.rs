//! Spatially-adaptive tuning on a clustered deployment (§6's motivating
//! scenario: "node density exhibits large spatio-temporal variation").
//!
//! Each node probes its own per-broadcast success rate and sets its own
//! rebroadcast probability; hotspot nodes throttle down while sparse
//! bridges stay aggressive. Also renders the comparison to
//! `results/hotspot_adaptive.svg` using the bundled SVG plotter.
//!
//! ```sh
//! cargo run --release --example hotspot_adaptive
//! ```

use nss::analysis::prelude::*;
use nss::core::prelude::*;
use nss::model::prelude::*;
use nss::plot::{Chart, Series};
use nss::sim::prelude::*;

fn main() {
    // Calibrate the success-rate→probability ratio once, on uniform disks.
    let mut base = RingModelConfig::paper(60.0, 1.0);
    base.quad_points = 48;
    let controller = AdaptiveController::calibrate(base, &[40.0, 80.0, 120.0], 5.0);
    println!("calibrated ratio p*/sr = {:.2}\n", controller.ratio);

    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12}",
        "clusters", "mean_deg", "fixed", "global", "per-node"
    );
    let mut fixed_series = Vec::new();
    let mut global_series = Vec::new();
    let mut local_series = Vec::new();
    for children in [30.0, 60.0, 120.0, 200.0] {
        let dep = Deployment::Cluster(ClusterDeployment::new(5, 1.0, 6, children, 1.0, 2.0));
        let runs = 6;
        // Per field: final reachability of the fixed, global and per-node
        // rules, then the field's mean degree.
        let fields = Replication::paper(dep, GossipConfig::pb_cam(0.5), 77)
            .with_runs(runs)
            .map(|f| {
                let final_reach =
                    |exec: Executor<'_>| exec.run(f.seed(Stream::Protocol)).final_reachability();
                let p_fixed = (13.0 / f.topo.mean_degree().max(1.0)).clamp(0.02, 1.0);
                let fixed = final_reach(f.executor().prob(p_fixed));

                let rates = probe_per_node_success(&f.topo, 3, 2, f.seed(Stream::Jitter));
                let global_sr = rates.iter().sum::<f64>() / rates.len() as f64;
                let global = final_reach(f.executor().prob(controller.probability(global_sr)));

                let probs = per_node_probabilities(&controller, &rates);
                let local = final_reach(f.executor().per_node_probs(probs));
                [fixed, global, local, f.topo.mean_degree()]
            });
        let r = f64::from(runs);
        let mean = |k: usize| fields.iter().map(|v| v[k]).sum::<f64>() / r;
        let (fixed, global, local, degree) = (mean(0), mean(1), mean(2), mean(3));
        println!("{children:>10.0} {degree:>10.1} {fixed:>12.3} {global:>12.3} {local:>12.3}");
        fixed_series.push((children, fixed));
        global_series.push((children, global));
        local_series.push((children, local));
    }

    let chart = Chart::new(
        "Final reachability on clustered deployments",
        "children per cluster (hotspot intensity)",
        "final reachability",
    )
    .with_series(Series::new("fixed p (mean-density rule)", fixed_series))
    .with_series(Series::new("global adaptive", global_series))
    .with_series(Series::new("per-node adaptive", local_series));
    std::fs::create_dir_all("results").expect("create results dir");
    chart
        .save("results/hotspot_adaptive.svg")
        .expect("write SVG");
    println!("\nwrote results/hotspot_adaptive.svg");
    println!(
        "per-node adaptation wins on coverage: hotspot nodes suppress their own\n\
         collisions without starving the sparse bridges between clusters."
    );
}
