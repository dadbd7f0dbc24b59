//! The figure registry: every artifact the `repro` binary can produce is a
//! [`FigureDef`] entry here, dispatched in declaration order.
//!
//! Declaration order matters: earlier figures deposit calibration values
//! (each source's §4.1 reachability target and broadcast budget) into the
//! shared [`crate::common::Ctx`] state that later figures consume — exactly
//! the paper's "analyze, then refine the target" workflow. A name-sorted
//! dispatch (`fig10` < `fig4` lexicographically) would silently break that
//! threading, which is why the registry is a slice, not a sorted map.

use crate::common::Ctx;
use crate::{ext_connectivity, ext_faults, ext_sinr, extensions, fig12, report, sec41};

/// One reproducible artifact of the harness.
pub struct FigureDef {
    /// CLI name (`fig4`, `ext-faults`, …).
    pub name: &'static str,
    /// Selection group (`analysis`, `sim`, `ext`, `misc`).
    pub group: &'static str,
    /// One-line description for `repro list`.
    pub describe: &'static str,
    runner: fn(&Ctx),
}

impl FigureDef {
    /// Produces the figure's artifacts.
    pub fn run(&self, ctx: &Ctx) {
        (self.runner)(ctx);
    }
}

/// A registry entry whose runner is timed by its own `repro.<name>` span.
macro_rules! fig {
    ($name:literal, $group:literal, $desc:literal, $runner:expr) => {
        FigureDef {
            name: $name,
            group: $group,
            describe: $desc,
            runner: |ctx| {
                let _span = nss_obs::trace_span!(concat!("repro.", $name));
                ($runner)(ctx)
            },
        }
    };
}

/// All figures, in dispatch order.
pub static REGISTRY: &[FigureDef] = &[
    fig!(
        "fig4",
        "analysis",
        "analytical reachability vs p, optimal p vs rho",
        |ctx| sec41::run(ctx, 4)
    ),
    fig!(
        "fig5",
        "analysis",
        "analytical latency to the plateau target",
        |ctx| sec41::run(ctx, 5)
    ),
    fig!(
        "fig6",
        "analysis",
        "analytical energy to the plateau target",
        |ctx| sec41::run(ctx, 6)
    ),
    fig!(
        "fig7",
        "analysis",
        "analytical reachability under an energy budget",
        |ctx| sec41::run(ctx, 7)
    ),
    fig!(
        "fig8",
        "sim",
        "simulated reachability vs p, optimal p vs rho",
        |ctx| sec41::run(ctx, 8)
    ),
    fig!(
        "fig9",
        "sim",
        "simulated latency to the plateau target",
        |ctx| sec41::run(ctx, 9)
    ),
    fig!(
        "fig10",
        "sim",
        "simulated broadcasts to the plateau target",
        |ctx| sec41::run(ctx, 10)
    ),
    fig!(
        "fig11",
        "sim",
        "simulated reachability under a broadcast budget",
        |ctx| sec41::run(ctx, 11)
    ),
    fig!(
        "fig12",
        "misc",
        "per-broadcast success-rate correlation",
        fig12::run
    ),
    fig!(
        "ext-cs",
        "ext",
        "carrier-sense (2r) vs transmission-range optima",
        extensions::ext_carrier_sense
    ),
    fig!(
        "ext-cfmgap",
        "ext",
        "CFM prediction vs CAM measurement gap",
        extensions::ext_cfm_gap
    ),
    fig!(
        "ext-grid",
        "ext",
        "grid-deployment percolation threshold",
        extensions::ext_grid_percolation
    ),
    fig!(
        "ext-adaptive",
        "ext",
        "adaptive density-aware probability control",
        extensions::ext_adaptive
    ),
    fig!(
        "ext-ack",
        "ext",
        "ACK-based reliable flooding cost",
        extensions::ext_ack_flood
    ),
    fig!(
        "ext-async",
        "ext",
        "synchronous vs asynchronous execution",
        extensions::ext_async
    ),
    fig!(
        "ext-mumode",
        "ext",
        "mu interpolation vs Poisson closure",
        extensions::ext_mu_mode
    ),
    fig!(
        "ext-survival",
        "ext",
        "per-node survival-time distribution",
        extensions::ext_survival
    ),
    fig!(
        "ext-cfmcost",
        "ext",
        "CFM cost accounting",
        extensions::ext_cfm_cost
    ),
    fig!(
        "ext-schemes",
        "ext",
        "broadcast-scheme comparison",
        extensions::ext_schemes
    ),
    fig!(
        "ext-converge",
        "ext",
        "convergecast under CAM",
        extensions::ext_convergecast
    ),
    fig!(
        "ext-failures",
        "ext",
        "PB_CAM under per-phase node failures",
        extensions::ext_failures
    ),
    fig!(
        "ext-tdma",
        "ext",
        "TDMA-implemented CFM vs CAM flooding",
        extensions::ext_tdma
    ),
    fig!(
        "ext-slots",
        "ext",
        "slot-count sensitivity",
        extensions::ext_slots
    ),
    fig!(
        "ext-hetero",
        "ext",
        "heterogeneous-radio deployments",
        extensions::ext_hetero
    ),
    fig!(
        "ext-fieldsize",
        "ext",
        "field-size (ring count) sensitivity",
        extensions::ext_fieldsize
    ),
    fig!(
        "ext-faults",
        "ext",
        "deterministic fault injection: loss + dead-node sweeps, analysis vs sim",
        ext_faults::run
    ),
    fig!(
        "ext-connectivity",
        "ext",
        "Monte-Carlo connectivity probability at f * r_crit(n)",
        ext_connectivity::run
    ),
    fig!(
        "ext-sinr",
        "ext",
        "SINR vs unit-disk backends: reachability overlay, transmit-only uplink",
        ext_sinr::run
    ),
    fig!(
        "report",
        "misc",
        "compose results/REPORT.md from the CSVs",
        report::run
    ),
];

/// Looks a figure up by CLI name.
pub fn find(name: &str) -> Option<&'static FigureDef> {
    REGISTRY.iter().find(|f| f.name == name)
}

/// Whether `name` is a selection group with at least one member.
pub fn is_group(name: &str) -> bool {
    REGISTRY.iter().any(|f| f.group == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn calibrating_figures_precede_consumers() {
        let pos = |n: &str| {
            REGISTRY
                .iter()
                .position(|f| f.name == n)
                .expect("registered")
        };
        assert!(pos("fig4") < pos("fig5"));
        assert!(pos("fig6") < pos("fig7"));
        assert!(pos("fig8") < pos("fig9"));
        assert!(pos("fig10") < pos("fig11"));
        assert_eq!(pos("report"), REGISTRY.len() - 1, "report composes last");
    }

    #[test]
    fn lookup_and_groups() {
        assert!(find("fig4").is_some());
        assert!(find("ext-faults").is_some());
        assert!(find("fig99").is_none());
        assert!(is_group("analysis") && is_group("sim") && is_group("ext"));
        assert!(!is_group("fig4"), "a figure name is not a group");
    }
}
