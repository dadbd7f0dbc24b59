//! Shared infrastructure for the figure-reproduction harness.

use crate::sec41::Calibration;
use nss_analysis::optimize::ProbabilitySweep;
use nss_analysis::ring_model::RingModelConfig;
use nss_analysis::sweep::DensitySweep;
use nss_model::comm::MediumBackend;
use nss_model::deployment::Deployment;
use nss_model::faults::FaultPlan;
use nss_obs::sync::Mutex;
use nss_sim::runner::{ReplicatedTraces, Replication};
use nss_sim::slotted::GossipConfig;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Harness-wide options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Fast mode: fewer replications / coarser grids for smoke runs.
    pub fast: bool,
    /// Simulation replications per parameter point.
    pub runs: u32,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Master seed for all simulations.
    pub seed: u64,
    /// Fault scenario applied to every simulated sweep (`--faults SPEC`);
    /// the empty plan reproduces the fault-free figures bit-for-bit.
    pub faults: FaultPlan,
    /// Physical-layer backend for every simulated sweep (`--medium SPEC`);
    /// the unit-disk default reproduces the paper figures bit-for-bit.
    pub medium: MediumBackend,
    /// Live `/metrics` scrape endpoint for the run (`--metrics-addr`).
    pub metrics_addr: Option<String>,
    /// Flight-recorder dump path (`--trace-out`, Chrome `trace_event` JSON).
    pub trace_out: Option<PathBuf>,
    /// Every artifact written this run (shared across clones so the final
    /// manifest sees all of them).
    artifacts: Arc<Mutex<Vec<PathBuf>>>,
    /// The analytical sweep (Figs. 4–7), computed at most once per run.
    analysis: Arc<OnceLock<DensitySweep>>,
    /// The simulated sweep (Figs. 8–11), computed at most once per run.
    sim: Arc<OnceLock<SimSweep>>,
    /// Each §4.1 source's calibration, once a figure has set it.
    calibrations: Arc<Mutex<[Option<Calibration>; 2]>>,
}

impl Ctx {
    /// Default harness options (paper-fidelity settings).
    pub fn new() -> Self {
        Ctx {
            out_dir: PathBuf::from("results"),
            fast: false,
            runs: 30,
            threads: 0,
            seed: 2005,
            faults: FaultPlan::none(),
            medium: MediumBackend::UnitDisk,
            metrics_addr: None,
            trace_out: None,
            artifacts: Arc::default(),
            analysis: Arc::default(),
            sim: Arc::default(),
            calibrations: Arc::default(),
        }
    }

    /// The shared analytical sweep (Figs. 4–7), computed on first use.
    pub fn analysis(&self) -> &DensitySweep {
        self.analysis.get_or_init(|| {
            nss_obs::status_err!("running analytical sweep...");
            let _span = nss_obs::trace_span!("repro.analysis_sweep");
            analysis_sweep(self)
        })
    }

    /// The shared simulated sweep (Figs. 8–11), computed on first use.
    pub fn sim(&self) -> &SimSweep {
        self.sim.get_or_init(|| {
            nss_obs::status_err!(
                "running simulated sweep ({} runs per point)...",
                self.sim_runs()
            );
            let _span = nss_obs::trace_span!("repro.sim_sweep");
            sim_sweep(self, false)
        })
    }

    /// The §4.1 calibration of source `si` (indexed like `sec41`'s source
    /// table), once a figure has set it.
    pub fn calibration(&self, si: usize) -> Option<Calibration> {
        self.calibrations.lock()[si]
    }

    /// Records source `si`'s §4.1 calibration for the figures after it.
    pub fn set_calibration(&self, si: usize, cal: Calibration) {
        self.calibrations.lock()[si] = Some(cal);
    }

    /// Paths of every artifact written through this context so far.
    pub fn artifacts(&self) -> Vec<PathBuf> {
        self.artifacts.lock().clone()
    }

    fn record_artifact(&self, path: &Path) {
        self.artifacts.lock().push(path.to_path_buf());
    }

    /// The density axis (always the paper's 20..140).
    pub fn rhos(&self) -> Vec<f64> {
        DensitySweep::paper_rhos()
    }

    /// The analysis probability grid (fast mode coarsens 0.01 → 0.05).
    pub fn analysis_grid(&self) -> Vec<f64> {
        if self.fast {
            ProbabilitySweep::sim_grid()
        } else {
            ProbabilitySweep::paper_grid()
        }
    }

    /// The simulation probability grid (the paper's 0.05..1.00).
    pub fn sim_grid(&self) -> Vec<f64> {
        ProbabilitySweep::sim_grid()
    }

    /// Simulation replications (fast mode: 5).
    pub fn sim_runs(&self) -> u32 {
        if self.fast {
            5
        } else {
            self.runs
        }
    }

    /// Quadrature points for the analysis (fast mode: 32).
    pub fn quad_points(&self) -> usize {
        if self.fast {
            32
        } else {
            64
        }
    }

    /// Base analytical configuration (the paper's P = 5, s = 3).
    pub fn ring_base(&self) -> RingModelConfig {
        let mut cfg = RingModelConfig::paper(20.0, 0.0);
        cfg.quad_points = self.quad_points();
        cfg
    }

    /// Writes a CSV file into the output directory and prints it as the
    /// table REPORT.md shows for it.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        let mut text = format!("{header}\n");
        for row in rows {
            text.push_str(row);
            text.push('\n');
        }
        nss_obs::status!("\n{}", csv_to_markdown(&text).trim_end());
        self.save(name, |path| fs::write(path, text));
    }

    /// Renders a figure to SVG in the output directory.
    pub fn write_svg(&self, name: &str, chart: &nss_plot::Chart) {
        self.save(name, |path| chart.save(path));
    }

    fn save(&self, name: &str, write: impl FnOnce(&Path) -> io::Result<()>) {
        let path = self.out_dir.join(name);
        write_or_exit(&path, write);
        self.record_artifact(&path);
        nss_obs::status!("  wrote {}", display_path(&path));
    }
}

/// Writes `path` through `write`, creating its directory first. An I/O
/// failure ends the run with exit status 1 and the path, never a panic.
pub fn write_or_exit(path: &Path, write: impl FnOnce(&Path) -> io::Result<()>) {
    let dir = path.parent().unwrap_or(Path::new(""));
    if let Err(e) = fs::create_dir_all(dir).and_then(|()| write(path)) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

fn display_path(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The analytical sweep shared by Figs. 4–7 (computed once per invocation).
pub fn analysis_sweep(ctx: &Ctx) -> DensitySweep {
    DensitySweep::run(
        ctx.ring_base(),
        &ctx.rhos(),
        &ctx.analysis_grid(),
        ctx.threads,
    )
}

/// A full simulated sweep: `grid[rho_idx][p_idx]` of replicated traces.
#[derive(Debug)]
pub struct SimSweep {
    /// Density axis.
    pub rhos: Vec<f64>,
    /// Probability axis.
    pub probs: Vec<f64>,
    /// Replicated traces per cell.
    pub grid: Vec<Vec<ReplicatedTraces>>,
}

/// Runs the paper's simulation protocol over the (ρ × p) grid.
pub fn sim_sweep(ctx: &Ctx, track_success_rate: bool) -> SimSweep {
    let rhos = ctx.rhos();
    let probs = ctx.sim_grid();
    let mut grid = Vec::with_capacity(rhos.len());
    for (ri, &rho) in rhos.iter().enumerate() {
        let mut row = Vec::with_capacity(probs.len());
        for (pi, &p) in probs.iter().enumerate() {
            let mut gossip = GossipConfig::pb_cam(p);
            gossip.track_success_rate = track_success_rate;
            // Independent seeds per cell, deterministic per master seed.
            let cell_seed = ctx
                .seed
                .wrapping_add((ri as u64) << 32)
                .wrapping_add(pi as u64);
            let rep = Replication::paper(Deployment::disk(5, 1.0, rho), gossip, cell_seed)
                .with_runs(ctx.sim_runs())
                .with_threads(ctx.threads)
                .with_faults(ctx.faults.clone())
                .with_medium(ctx.medium);
            row.push(rep.run());
        }
        grid.push(row);
        nss_obs::status_err!("  simulated rho = {rho}");
    }
    SimSweep { rhos, probs, grid }
}

/// Builds the paper's panel-(a) chart: one series per density over the
/// probability axis; infeasible cells become gaps, as in the paper.
pub fn panel_a_chart(
    title: &str,
    y_label: &str,
    probs: &[f64],
    rhos: &[f64],
    values: &[Vec<Option<f64>>],
) -> nss_plot::Chart {
    let mut chart = nss_plot::Chart::new(title, "broadcast probability p", y_label);
    for (ri, &rho) in rhos.iter().enumerate() {
        let pts: Vec<(f64, Option<f64>)> = probs
            .iter()
            .zip(&values[ri])
            .map(|(&p, &v)| (p, v))
            .collect();
        chart = chart.with_series(nss_plot::Series::with_gaps(format!("rho={rho:.0}"), pts));
    }
    chart
}

/// Builds the paper's panel-(b) chart: the optimal probability (and, when
/// it shares the [0, 1] scale, the achieved metric value) versus density.
pub fn panel_b_chart(
    title: &str,
    value_label: &str,
    optima: &[(f64, f64, f64)],
) -> nss_plot::Chart {
    let popt: Vec<(f64, f64)> = optima.iter().map(|&(rho, p, _)| (rho, p)).collect();
    let vals: Vec<(f64, f64)> = optima.iter().map(|&(rho, _, v)| (rho, v)).collect();
    let mut chart = nss_plot::Chart::new(title, "node density rho", "value")
        .with_series(nss_plot::Series::new("optimal p", popt));
    let vmax = vals.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
    if vmax <= 1.2 {
        chart = chart.with_series(nss_plot::Series::new(value_label, vals));
    }
    chart
}

/// Prints a section header (suppressed under `--quiet`).
pub fn heading(title: &str) {
    nss_obs::status!("\n=== {title} ===");
}

/// Renders CSV text as a GitHub-flavored markdown table: the header row, a
/// separator row, then one row per non-blank line with every cell passed
/// through [`shorten`]. REPORT.md and the console both show tables this way.
pub fn csv_to_markdown(csv: &str) -> String {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return String::new();
    };
    let cols: Vec<&str> = header.split(',').collect();
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", cols.join(" | ")));
    out.push_str(&format!("|{}\n", " --- |".repeat(cols.len())));
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<String> = line.split(',').map(shorten).collect();
        out.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
    out
}

/// One table cell: a number written with a decimal point is rounded to 4
/// decimal places with trailing zeros trimmed, an empty cell becomes `—`,
/// and anything else passes through.
fn shorten(cell: &str) -> String {
    match cell.parse::<f64>() {
        Ok(v) if cell.contains('.') => {
            let s = format!("{v:.4}");
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        }
        _ => {
            if cell.is_empty() {
                "—".to_string()
            } else {
                cell.to_string()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_separator_rows() {
        assert_eq!(
            csv_to_markdown("rho,p_opt,reach_opt\n"),
            "| rho | p_opt | reach_opt |\n| --- | --- | --- |\n"
        );
        assert_eq!(csv_to_markdown(""), "");
    }

    #[test]
    fn cells_are_shortened_and_blank_lines_skipped() {
        let csv = "rho,p_opt,reach_opt,backend\n20,0.25,0.723456,sinr\n\n140,,,unit-disk\n";
        assert_eq!(
            csv_to_markdown(csv),
            "| rho | p_opt | reach_opt | backend |\n\
             | --- | --- | --- | --- |\n\
             | 20 | 0.25 | 0.7235 | sinr |\n\
             | 140 | — | — | unit-disk |\n"
        );
    }

    #[test]
    fn shorten_rounds_to_four_decimal_places() {
        assert_eq!(shorten(""), "—");
        assert_eq!(shorten("42"), "42");
        assert_eq!(shorten("1e-7"), "1e-7");
        assert_eq!(shorten("inf"), "inf");
        assert_eq!(shorten("unit-disk"), "unit-disk");
        assert_eq!(shorten("0.123456"), "0.1235");
        assert_eq!(shorten("12.5000"), "12.5");
        assert_eq!(shorten("3.00001"), "3");
        assert_eq!(shorten("0.00004"), "0");
        assert_eq!(shorten("1234.56789"), "1234.5679");
    }
}
