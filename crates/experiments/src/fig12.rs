//! Fig. 12 — flooding per-broadcast success rate vs the latency-optimal
//! probability (§6).
//!
//! Paper finding: the ratio p*/success_rate is nearly constant (~11)
//! across densities, suggesting density-oblivious adaptive tuning. We
//! compute the correlation analytically (as the paper does) *and* measure
//! the success rate in simulation.

use crate::common::{heading, Ctx};
use crate::sec41::LATENCY_BUDGET;
use nss_analysis::flooding::success_rate_correlation;
use nss_core::adaptive::measure_success_rate;
use nss_model::deployment::Deployment;
use nss_model::topology::Topology;

/// Runs the Fig. 12 reproduction.
pub fn run(ctx: &Ctx) {
    heading("Fig 12: flooding success rate vs latency-optimal probability");
    let rows = success_rate_correlation(
        ctx.ring_base(),
        &ctx.rhos(),
        &ctx.analysis_grid(),
        LATENCY_BUDGET,
    );
    let mut csv = Vec::new();
    let mut ratios = Vec::new();
    for row in &rows {
        // Measured counterpart: probe flooding on sampled topologies.
        let probes = if ctx.fast { 2 } else { 5 };
        let topo = Topology::build(
            &Deployment::disk(5, 1.0, row.rho).sample(ctx.seed.wrapping_add(row.rho as u64)),
        );
        let sim_sr = measure_success_rate(&topo, 3, probes, ctx.seed);
        csv.push(format!(
            "{},{},{},{},{}",
            row.rho, row.success_rate, row.optimal_prob, row.ratio, sim_sr
        ));
        ratios.push(row.ratio);
    }
    ctx.write_csv(
        "fig12_success_rate.csv",
        "rho,success_rate,p_opt,ratio,sim_success_rate",
        &csv,
    );

    let sr_series: Vec<(f64, f64)> = rows.iter().map(|r| (r.rho, r.success_rate)).collect();
    let p_series: Vec<(f64, f64)> = rows.iter().map(|r| (r.rho, r.optimal_prob)).collect();
    let ratio_series: Vec<(f64, f64)> = rows.iter().map(|r| (r.rho, r.ratio)).collect();
    ctx.write_svg(
        "fig12.svg",
        &nss_plot::Chart::new(
            "Fig 12: flooding success rate vs optimal probability",
            "node density rho",
            "value",
        )
        .with_series(nss_plot::Series::new("flooding success rate", sr_series))
        .with_series(nss_plot::Series::new("optimal p (Fig 4b)", p_series)),
    );
    ctx.write_svg(
        "fig12_ratio.svg",
        &nss_plot::Chart::new("Fig 12: ratio p*/success-rate", "node density rho", "ratio")
            .with_series(nss_plot::Series::new("ratio", ratio_series)),
    );

    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    nss_obs::status!(
        "\nratio p*/success_rate: mean {mean:.2}, range [{min:.2}, {max:.2}] (paper: ~11, near-constant)"
    );
}
