//! Density-oblivious adaptive tuning (§6 / Fig. 12 of the paper).
//!
//! A node cannot know the global density ρ, but it *can* measure the local
//! per-broadcast success rate. The paper observes `p*/success_rate` is
//! nearly constant across densities; this example calibrates that ratio
//! once, then tunes `p` on networks of unknown density and compares
//! against the density-aware oracle.
//!
//! ```sh
//! cargo run --release --example adaptive_gossip
//! ```

use nss::analysis::prelude::*;
use nss::core::prelude::*;

fn main() {
    // One-time calibration on the analytical model (no density knowledge is
    // needed at run time afterwards).
    let mut base = RingModelConfig::paper(60.0, 1.0);
    base.quad_points = 48;
    let controller = AdaptiveController::calibrate(base, &[40.0, 80.0, 120.0], 5.0);
    println!(
        "calibrated ratio p*/success_rate = {:.2} (paper reports ~constant across rho)\n",
        controller.ratio
    );

    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>10} {:>12} {:>6}",
        "rho", "measured_sr", "p_adapt", "reach_adapt", "p_oracle", "reach_oracle", "eff"
    );
    for rho in [20.0, 60.0, 100.0, 140.0] {
        let out = evaluate_adaptive(&NetworkModel::paper(rho), &controller, 5.0, 6, 11, 0);
        println!(
            "{rho:>6.0} {:>12.4} {:>10.2} {:>12.3} {:>10.2} {:>12.3} {:>6.2}",
            out.measured_success_rate,
            out.adaptive_prob,
            out.adaptive_reach,
            out.oracle_prob,
            out.oracle_reach,
            out.efficiency()
        );
    }
    println!("\nefficiency ≈ 1: the rule tracks the oracle without knowing rho.");
}
