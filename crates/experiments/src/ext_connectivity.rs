//! Ext — Monte-Carlo connectivity thresholds for random unit-disk fields.
//!
//! Gupta–Kumar give the critical communication radius for asymptotic
//! connectivity of `n` nodes uniform in a unit-area disk as
//! `r_crit(n) = sqrt(ln n / (π n))`. This experiment measures the
//! probability that the sampled unit-disk graph is connected at radii
//! `f · r_crit(n)` for factors around 1, across a geometric ladder of
//! field sizes — an empirical radius-vs-n connectivity curve that bounds
//! when the paper's "connected w.h.p." regime (Assumption 1 plus the
//! ρ ≥ 20 density floor) actually holds for finite fields.
//!
//! Output: `ext_connectivity.csv` (one row per `(n, factor)` cell) and
//! `ext_connectivity.svg` (one series per factor over the `n` axis). The
//! expected shape: the `f < 1` curves decay toward 0 with `n`, the
//! `f > 1` curves climb toward 1, and `f = 1` lags below 1 at finite `n`
//! (the Gupta–Kumar guarantee is asymptotic: connectivity w.h.p. needs
//! `π n r² = ln n + c_n` with `c_n → ∞`, so the bare critical radius is
//! the lower edge of the transition, not its midpoint).

use crate::common::{heading, Ctx};
use nss_model::deployment::DeployedNetwork;
use nss_model::geometry::Point2;
use nss_model::rng::{SeedFactory, Stream};
use nss_model::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Radius multipliers applied to `r_crit(n)`.
const FACTORS: [f64; 5] = [0.7, 0.85, 1.0, 1.15, 1.3];

/// The Gupta–Kumar critical radius for `n` nodes in a unit-area disk.
fn r_crit(n: usize) -> f64 {
    ((n as f64).ln() / (PI * n as f64)).sqrt()
}

/// Samples `n` points uniform in the unit-area disk (radius 1/√π).
fn sample_unit_disk(n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let field_r = 1.0 / PI.sqrt();
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            let theta: f64 = rng.random_range(0.0..(2.0 * PI));
            Point2::from_polar(field_r * u.sqrt(), theta)
        })
        .collect()
}

/// Fraction of `trials` deployments whose unit-disk graph is connected.
fn connectivity_rate(n: usize, radius: f64, trials: u32, factory: &SeedFactory) -> f64 {
    let mut connected = 0u32;
    for t in 0..trials {
        let key = ((n as u64) << 20) | u64::from(t);
        let positions = sample_unit_disk(n, factory.seed(Stream::Deployment, key));
        #[expect(
            clippy::expect_used,
            reason = "trial fields of at most a few thousand nodes cannot overflow u32 ids"
        )]
        let net = DeployedNetwork::try_from_positions(positions, radius)
            .expect("unit-disk trial fields are far below u32 capacity");
        let topo = Topology::build(&net);
        // Connected ⟺ the component containing node 0 spans the field;
        // component_sizes() reports sizes in discovery order from node 0.
        if topo.component_sizes().first() == Some(&n) {
            connected += 1;
        }
    }
    f64::from(connected) / f64::from(trials)
}

/// Ext — empirical connectivity probability vs `n` at radii `f·r_crit(n)`.
pub fn run(ctx: &Ctx) {
    heading("Ext: Monte-Carlo connectivity threshold (radius vs n)");
    let ns: &[usize] = if ctx.fast {
        &[250, 500, 1000]
    } else {
        &[250, 500, 1000, 2000, 4000]
    };
    let trials = if ctx.fast { 10 } else { 50 };
    let factory = SeedFactory::new(ctx.seed);
    let mut csv = Vec::new();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); FACTORS.len()];
    for &n in ns {
        let rc = r_crit(n);
        for (fi, &f) in FACTORS.iter().enumerate() {
            let rate = connectivity_rate(n, f * rc, trials, &factory);
            series[fi].push((n as f64, rate));
            csv.push(format!("{n},{rc},{f},{},{rate}", f * rc));
        }
    }
    ctx.write_csv(
        "ext_connectivity.csv",
        "n,r_crit,factor,radius,p_connected",
        &csv,
    );

    let mut chart = nss_plot::Chart::new(
        "connectivity probability at f * r_crit(n)",
        "field size n",
        "P(connected)",
    );
    for (fi, &f) in FACTORS.iter().enumerate() {
        chart = chart.with_series(nss_plot::Series::new(format!("f={f}"), series[fi].clone()));
    }
    ctx.write_svg("ext_connectivity.svg", &chart);
    nss_obs::status!(
        "\nexpected shape: f<1 stays near 0, f>1 climbs toward 1; f=1 lags at \
         finite n (the Gupta-Kumar guarantee is asymptotic)"
    );
}
