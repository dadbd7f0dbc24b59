//! Figs. 4–11 — the four §4.1 metrics, each optimised over the broadcast
//! probability `p`, from the ring model (Figs. 4–7) and from the simulator
//! (Figs. 8–11: run means, the paper's GloMoSim experiment of §5).
//!
//! Every figure is the same program: write the (ρ × p) panel-(a) CSV, take
//! each density's optimum, write the panel-(b) CSV and draw both panels.
//! [`METRICS`] holds what differs between metrics and [`SOURCES`] what
//! differs between the model and the simulator.
//!
//! Paper findings, analytical / simulated:
//! - Figs. 4/8, reachability within 5 phases: bell-shaped curves, p*
//!   falling fast with ρ, reach* ≈ constant (72% / 63%), flooding far below
//!   the optimum at high ρ.
//! - Figs. 5/9, latency to that plateau: the latency-optimal p matches
//!   Fig. 4(b)/8(b), at ≈ 5 phases (the §4.1 duality).
//! - Figs. 6/10, broadcasts to the plateau: the energy-optimal p stays
//!   within ~0.1 / 0.2; M* ≤ ~40 / ≈ 80, far below flooding at high ρ.
//! - Figs. 7/11, reachability under a broadcast budget (35 / 80, ≈ the
//!   Fig. 6/10 optimum): p* near Fig. 6(b)/10(b), reach* ≈ 70% against
//!   < 20% for flooding.
//!
//! The paper takes the Fig. 5–7 constraints from its own Fig. 4 and 6
//! optima. Each source does the same on our numbers: its metric-1 figure
//! sets the reachability target to min(reach*) × 0.999, its metric-4 figure
//! sets the broadcast budget to the mean M*, and its metric-5 figure uses
//! that budget rounded. A figure run without its calibrating figure uses
//! the paper's values.

use crate::common::{heading, panel_a_chart, panel_b_chart, Ctx};
use nss_analysis::optimize::{Objective, Optimum};
use nss_sim::stats::Summary;

/// Latency budget of metric 1 (and of Fig. 12): the paper's 5 phases.
pub const LATENCY_BUDGET: f64 = 5.0;

/// The constraints one source threads from figure to figure.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Reachability target of metrics 3 and 4 (set by metric 1).
    target: f64,
    /// Broadcast budget of metric 5 (set by metric 4, used rounded).
    budget: f64,
}

/// What one §4.1 metric writes and plots; the same for both sources.
struct Metric {
    objective: fn(Calibration) -> Objective,
    /// CSV column stem: `{stem}_rho20`, `{stem}_opt`.
    stem: &'static str,
    /// Panel-(a) CSV name after `figNNa_` (and the source infix).
    file: &'static str,
    /// Decimal places of panel-(a) CSV values.
    csv_prec: usize,
    /// Panel-(a) y axis.
    y_label: &'static str,
    /// Panel-(b) label of the value at p*.
    value_label: &'static str,
    /// Panel-(b) title after `Fig N(b): `.
    optimal: &'static str,
}

/// Metrics 1, 3, 4 and 5 of §4.1, in figure order.
static METRICS: [Metric; 4] = [
    Metric {
        objective: |_| Objective::MaxReachAtLatency {
            phases: LATENCY_BUDGET,
        },
        stem: "reach",
        file: "reachability",
        csv_prec: 6,
        y_label: "reachability",
        value_label: "reachability at p*",
        optimal: "optimal probability",
    },
    Metric {
        objective: |c| Objective::MinLatencyForReach { target: c.target },
        stem: "latency",
        file: "latency",
        csv_prec: 4,
        y_label: "latency (phases)",
        value_label: "latency at p*",
        optimal: "optimal probability",
    },
    Metric {
        objective: |c| Objective::MinBroadcastsForReach { target: c.target },
        stem: "broadcasts",
        file: "broadcasts",
        csv_prec: 3,
        y_label: "broadcast count M",
        value_label: "M at p*",
        optimal: "energy-optimal probability",
    },
    Metric {
        objective: |c| Objective::MaxReachUnderBudget {
            budget: c.budget.round(),
        },
        stem: "reach",
        file: "reach_budget",
        csv_prec: 6,
        y_label: "reachability",
        value_label: "reachability at p*",
        optimal: "optimal probability",
    },
];

/// Where a figure's (ρ × p) grid comes from.
struct Source {
    /// Panel-(a) title word.
    adjective: &'static str,
    /// Panel-(b) title prefix.
    title_prefix: &'static str,
    /// CSV name infix after `figNNa_` / `figNNb_`.
    infix: &'static str,
    /// Constraints when the calibrating figure did not run (the paper's).
    defaults: Calibration,
    read: fn(&Ctx, Objective) -> Grid,
    /// Whether the figure prints its shape findings.
    findings: bool,
}

/// The ring model (Figs. 4–7), then the simulator (Figs. 8–11).
static SOURCES: [Source; 2] = [
    Source {
        adjective: "analytical",
        title_prefix: "",
        infix: "",
        defaults: Calibration {
            target: 0.72,
            budget: 35.0,
        },
        read: analysis_grid,
        findings: true,
    },
    Source {
        adjective: "simulated",
        title_prefix: "simulated ",
        infix: "sim_",
        defaults: Calibration {
            target: 0.63,
            budget: 80.0,
        },
        read: sim_grid,
        findings: false,
    },
];

/// One metric over the (ρ × p) grid.
struct Grid {
    rhos: Vec<f64>,
    probs: Vec<f64>,
    /// `values[ri][pi]`; `None` is a gap in the curve.
    values: Vec<Vec<Option<f64>>>,
    /// The simulator's second CSV column per ρ: its name and cells.
    extra: Option<(&'static str, Vec<Vec<String>>)>,
}

fn analysis_grid(ctx: &Ctx, obj: Objective) -> Grid {
    let sweep = ctx.analysis();
    Grid {
        rhos: sweep.rhos.clone(),
        probs: sweep.probs.clone(),
        values: sweep.evaluate(obj),
        extra: None,
    }
}

/// Each cell is the mean over the runs that meet the constraint. Max
/// metrics always do, and add the runs' standard deviation (`std_`). Min
/// metrics add the fraction of runs that meet it (`feasible_`) and show the
/// cell only when at least half do.
fn sim_grid(ctx: &Ctx, obj: Objective) -> Grid {
    let sweep = ctx.sim();
    let mut values = Vec::new();
    let mut extra = Vec::new();
    for row in &sweep.grid {
        let cells = row.iter().map(|traces| {
            let runs: Vec<Option<f64>> = traces.series().iter().map(|s| obj.evaluate(s)).collect();
            let (s, frac) = Summary::of_feasible(&runs);
            if obj.is_max() {
                (Some(s.mean), format!("{:.6}", s.std_dev))
            } else {
                ((frac >= 0.5).then_some(s.mean), format!("{frac:.3}"))
            }
        });
        let (v, e): (Vec<_>, Vec<_>) = cells.unzip();
        values.push(v);
        extra.push(e);
    }
    let column = if obj.is_max() { "std" } else { "feasible" };
    Grid {
        rhos: sweep.rhos.clone(),
        probs: sweep.probs.clone(),
        values,
        extra: Some((column, extra)),
    }
}

/// Runs Fig. `fig` (4–11).
pub fn run(ctx: &Ctx, fig: usize) {
    let si = (fig - 4) / 4;
    let (src, metric) = (&SOURCES[si], &METRICS[(fig - 4) % 4]);
    let mut cal = ctx.calibration(si).unwrap_or(src.defaults);
    let obj = (metric.objective)(cal);
    let grid = (src.read)(ctx, obj);
    let csv_prec = metric.csv_prec;

    // Panel (a): one column per density.
    let title_a = format!("Fig {fig}(a): {} {}", src.adjective, subject(obj));
    heading(&title_a);
    let mut csv = Vec::new();
    for (pi, &p) in grid.probs.iter().enumerate() {
        let mut row = format!("{p}");
        for (ri, values) in grid.values.iter().enumerate() {
            row.push(',');
            if let Some(x) = values[pi] {
                row.push_str(&format!("{x:.csv_prec$}"));
            }
            if let Some((_, extra)) = &grid.extra {
                row.push_str(&format!(",{}", extra[ri][pi]));
            }
        }
        csv.push(row);
    }
    let stem = metric.stem;
    let columns: Vec<String> = grid
        .rhos
        .iter()
        .map(|r| match &grid.extra {
            Some((extra, _)) => format!("{stem}_rho{r:.0},{extra}_rho{r:.0}"),
            None => format!("{stem}_rho{r:.0}"),
        })
        .collect();
    let name = |panel: char| format!("fig{fig:02}{panel}");
    let (infix, file) = (src.infix, metric.file);
    let header = format!("p,{}", columns.join(","));
    ctx.write_csv(&format!("{}_{infix}{file}.csv", name('a')), &header, &csv);

    // Panel (b): the optimal probability and the value it achieves.
    let title_b = format!("Fig {fig}(b): {}{}", src.title_prefix, metric.optimal);
    heading(&format!("{title_b} and {}", metric.value_label));
    let mut optima = Vec::new();
    let mut csv = Vec::new();
    for (values, &rho) in grid.values.iter().zip(&grid.rhos) {
        match obj.best(grid.probs.iter().copied().zip(values.iter().copied())) {
            Some(Optimum { prob, value }) => {
                csv.push(format!("{rho},{prob},{value}"));
                optima.push((rho, prob, value));
            }
            None => csv.push(format!("{rho},,")),
        }
    }
    let header = format!("rho,p_opt,{stem}_opt");
    ctx.write_csv(&format!("{}_{infix}optimal.csv", name('b')), &header, &csv);
    let chart = panel_a_chart(
        &title_a,
        metric.y_label,
        &grid.probs,
        &grid.rhos,
        &grid.values,
    );
    ctx.write_svg(&format!("{}.svg", name('a')), &chart);
    let chart = panel_b_chart(&title_b, metric.value_label, &optima);
    ctx.write_svg(&format!("{}.svg", name('b')), &chart);

    if src.findings {
        if let Some(line) = finding(obj, &grid, &optima) {
            nss_obs::status!("\n{line}");
        }
    }

    // Hand the calibration on to the source's later figures.
    if optima.is_empty() {
        return;
    }
    let achieved = optima.iter().map(|o| o.2);
    match obj {
        Objective::MaxReachAtLatency { .. } => {
            cal.target = achieved.fold(f64::MAX, f64::min) * 0.999;
        }
        Objective::MinBroadcastsForReach { .. } => {
            cal.budget = achieved.sum::<f64>() / optima.len() as f64;
        }
        _ => return,
    }
    ctx.set_calibration(si, cal);
}

/// The panel-(a) subject: "reachability within 5 phases", …
fn subject(obj: Objective) -> String {
    match obj {
        Objective::MaxReachAtLatency { phases } => {
            format!("reachability within {phases:.0} phases")
        }
        Objective::MinLatencyForReach { target } => {
            format!("latency to {:.0}% reachability", target * 100.0)
        }
        Objective::MinBroadcastsForReach { target } => {
            format!("broadcasts to {:.0}% reachability", target * 100.0)
        }
        Objective::MaxReachUnderBudget { budget } => {
            format!("reachability within {budget:.0} broadcasts")
        }
    }
}

/// The shape the paper reports for an analytical metric, on our numbers.
fn finding(obj: Objective, grid: &Grid, optima: &[(f64, f64, f64)]) -> Option<String> {
    let (first, last) = (optima.first()?, optima.last()?);
    let achieved = || optima.iter().map(|o| o.2);
    let max = achieved().fold(f64::MIN, f64::max);
    match obj {
        Objective::MaxReachAtLatency { .. } => Some(format!(
            "shape: p* {:.2} -> {:.2} (decreasing: {}), plateau spread {:.3}",
            first.1,
            last.1,
            last.1 < first.1,
            max - achieved().fold(f64::MAX, f64::min)
        )),
        Objective::MinBroadcastsForReach { .. } => Some(format!(
            "shape: energy-optimal p stays small ({:.2} -> {:.2}); M* max {max:.0}",
            first.1, last.1
        )),
        Objective::MaxReachUnderBudget { .. } => {
            // Flooding under the same budget (paper: < 20%).
            let pi = grid.probs.iter().position(|&p| (p - 1.0).abs() < 1e-9)?;
            let flooding: Vec<f64> = grid
                .values
                .iter()
                .map(|row| (row[pi].unwrap_or(0.0) * 1000.0).round() / 1000.0)
                .collect();
            Some(format!(
                "flooding (p=1) under the same budget: {flooding:?}"
            ))
        }
        Objective::MinLatencyForReach { .. } => None,
    }
}
