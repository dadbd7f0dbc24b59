//! Execution traces recorded by the simulator.
//!
//! A [`SimTrace`] captures one protocol execution at slot granularity:
//! when each node was first informed, how many transmissions happened per
//! phase, and per-broadcast delivery statistics (for the Fig. 12 measured
//! success rate). It collapses to the metric-ready
//! [`nss_model::metrics::PhaseSeries`] shared with the analytical model.

use nss_model::metrics::PhaseSeries;

/// Phase/slot timestamp of a node's first reception.
pub const NEVER: u32 = u32::MAX;

/// One simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    /// Total node count (including the source).
    pub n_total: usize,
    /// Phase (1-based) in which each node was first informed; the source is
    /// 0; [`NEVER`] marks nodes never informed.
    pub first_rx_phase: Vec<u32>,
    /// Transmissions performed in each phase (phase 1 = the source's).
    pub broadcasts_by_phase: Vec<u32>,
    /// Clean packet deliveries in each phase (for full energy accounting:
    /// every delivery costs `e_a` at the receiver).
    pub deliveries_by_phase: Vec<u64>,
    /// Receiver-slot pairs garbled by ≥ 2 concurrent in-range transmissions
    /// in each phase (CAM Assumption 6). Empty for executors that predate
    /// collision accounting; always empty under CFM.
    pub collisions_by_phase: Vec<u64>,
    /// Receptions destroyed by carrier-annulus interference in each phase
    /// (Appendix A collision rule only).
    pub cs_deferrals_by_phase: Vec<u64>,
    /// Per-phase sums of per-broadcast delivery ratios and broadcast counts
    /// with at least one neighbor: `(Σ delivered/deg, count)`. Aggregated
    /// per phase to keep traces compact.
    pub success_rate_by_phase: Vec<(f64, u32)>,
    /// Clean receptions destroyed by the fault plan's link-loss coin, per
    /// phase. Empty for fault-free executions.
    pub losses_by_phase: Vec<u64>,
    /// Clean receptions addressed to fault-killed nodes, per phase. Empty
    /// for fault-free executions.
    pub dead_drops_by_phase: Vec<u64>,
    /// Effectively-alive node count at each phase under the fault plan.
    /// Empty for fault-free executions (everyone is alive).
    pub alive_by_phase: Vec<u32>,
    /// Sole-candidate receptions rejected by the SINR threshold test per
    /// phase (signal present, no concurrent in-range transmitter, but
    /// out-of-range interference pushed SINR below β). Empty under the
    /// unit-disk backend.
    pub sinr_rejects_by_phase: Vec<u64>,
}

impl SimTrace {
    /// Creates an empty trace for `n_total` nodes (source pre-informed).
    pub fn new(n_total: usize) -> Self {
        let mut first_rx_phase = vec![NEVER; n_total];
        if n_total > 0 {
            first_rx_phase[0] = 0; // the source knows the packet at t = 0
        }
        SimTrace {
            n_total,
            first_rx_phase,
            broadcasts_by_phase: Vec::new(),
            deliveries_by_phase: Vec::new(),
            collisions_by_phase: Vec::new(),
            cs_deferrals_by_phase: Vec::new(),
            success_rate_by_phase: Vec::new(),
            losses_by_phase: Vec::new(),
            dead_drops_by_phase: Vec::new(),
            alive_by_phase: Vec::new(),
            sinr_rejects_by_phase: Vec::new(),
        }
    }

    /// Number of executed phases.
    pub fn phases(&self) -> usize {
        self.broadcasts_by_phase.len()
    }

    /// Number of informed nodes (including the source).
    pub fn informed_count(&self) -> usize {
        self.first_rx_phase.iter().filter(|&&p| p != NEVER).count()
    }

    /// Final reachability (informed fraction of all nodes).
    pub fn final_reachability(&self) -> f64 {
        self.informed_count() as f64 / self.n_total as f64
    }

    /// Total transmissions over the execution (the paper's energy proxy M).
    pub fn total_broadcasts(&self) -> u64 {
        self.broadcasts_by_phase.iter().map(|&b| u64::from(b)).sum()
    }

    /// Total clean deliveries (receiver-side energy accounting).
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries_by_phase.iter().sum()
    }

    /// Total collided receiver-slot pairs over the execution.
    pub fn total_collisions(&self) -> u64 {
        self.collisions_by_phase.iter().sum()
    }

    /// Total carrier-sense deferrals over the execution.
    pub fn total_cs_deferrals(&self) -> u64 {
        self.cs_deferrals_by_phase.iter().sum()
    }

    /// Total link-loss drops over the execution (fault injection only).
    pub fn total_losses(&self) -> u64 {
        self.losses_by_phase.iter().sum()
    }

    /// Total dead-receiver drops over the execution (fault injection only).
    pub fn total_dead_drops(&self) -> u64 {
        self.dead_drops_by_phase.iter().sum()
    }

    /// Total SINR-threshold rejects over the execution (SINR backend only).
    pub fn total_sinr_rejects(&self) -> u64 {
        self.sinr_rejects_by_phase.iter().sum()
    }

    /// Smallest per-phase alive count, if fault tracking recorded any.
    pub fn min_alive(&self) -> Option<u32> {
        self.alive_by_phase.iter().copied().min()
    }

    /// Total energy in cost units: `e · (transmissions + receptions)`,
    /// per Assumption 1's symmetric send/receive cost.
    pub fn total_energy(&self, e_per_packet: f64) -> f64 {
        e_per_packet * (self.total_broadcasts() + self.total_deliveries()) as f64
    }

    /// Broadcast-weighted mean per-broadcast delivery success rate, if any
    /// broadcast had neighbors.
    pub fn mean_success_rate(&self) -> Option<f64> {
        let (num, den) = self
            .success_rate_by_phase
            .iter()
            .fold((0.0f64, 0u64), |(n, d), &(s, c)| (n + s, d + u64::from(c)));
        if den > 0 {
            Some(num / den as f64)
        } else {
            None
        }
    }

    /// Collapses to the shared phase-granular series used by all metrics.
    pub fn phase_series(&self) -> PhaseSeries {
        let phases = self.phases();
        let mut informed = vec![0u32; phases + 1]; // index = phase, 0 = start
        for &p in &self.first_rx_phase {
            if p != NEVER {
                let idx = (p as usize).min(phases);
                informed[idx] += 1;
            }
        }
        // prefix sums: informed[i] = informed by end of phase i
        let mut informed_cum = Vec::with_capacity(phases);
        let mut acc = informed[0]; // source (phase 0)
        for &x in informed.iter().take(phases + 1).skip(1) {
            acc += x;
            informed_cum.push(f64::from(acc));
        }
        let mut broadcasts_cum = Vec::with_capacity(phases);
        let mut b = 0.0;
        for &x in &self.broadcasts_by_phase {
            b += f64::from(x);
            broadcasts_cum.push(b);
        }
        PhaseSeries {
            n_total: self.n_total as f64,
            informed_cum,
            broadcasts_cum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> SimTrace {
        let mut t = SimTrace::new(6);
        // source = node 0; nodes 1,2 informed phase 1; node 3 phase 2.
        t.first_rx_phase[1] = 1;
        t.first_rx_phase[2] = 1;
        t.first_rx_phase[3] = 2;
        t.broadcasts_by_phase = vec![1, 2, 1];
        t.deliveries_by_phase = vec![2, 1, 0];
        t.collisions_by_phase = vec![0, 1, 2];
        t.cs_deferrals_by_phase = vec![0, 0, 1];
        t.success_rate_by_phase = vec![(1.0, 1), (0.5, 2), (0.0, 1)];
        t
    }

    #[test]
    fn counting() {
        let t = sample_trace();
        assert_eq!(t.informed_count(), 4);
        assert!((t.final_reachability() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(t.total_broadcasts(), 4);
        assert_eq!(t.total_deliveries(), 3);
        assert_eq!(t.total_collisions(), 3);
        assert_eq!(t.total_cs_deferrals(), 1);
        assert!((t.total_energy(2.0) - 14.0).abs() < 1e-12);
        assert_eq!(t.phases(), 3);
    }

    #[test]
    fn fault_accounting() {
        let mut t = sample_trace();
        // Fault-free traces leave the fault series empty.
        assert_eq!(t.total_losses(), 0);
        assert_eq!(t.total_dead_drops(), 0);
        assert_eq!(t.min_alive(), None);
        t.losses_by_phase = vec![0, 2, 1];
        t.dead_drops_by_phase = vec![1, 0, 0];
        t.alive_by_phase = vec![6, 5, 5];
        assert_eq!(t.total_losses(), 3);
        assert_eq!(t.total_dead_drops(), 1);
        assert_eq!(t.min_alive(), Some(5));
        assert_eq!(t.total_sinr_rejects(), 0);
        t.sinr_rejects_by_phase = vec![0, 1, 2];
        assert_eq!(t.total_sinr_rejects(), 3);
    }

    #[test]
    fn phase_series_conversion() {
        let t = sample_trace();
        let s = t.phase_series();
        s.validate().unwrap();
        assert_eq!(s.n_total, 6.0);
        assert_eq!(s.informed_cum, vec![3.0, 4.0, 4.0]);
        assert_eq!(s.broadcasts_cum, vec![1.0, 3.0, 4.0]);
    }

    #[test]
    fn source_informed_at_start() {
        let t = SimTrace::new(3);
        assert_eq!(t.first_rx_phase[0], 0);
        assert_eq!(t.informed_count(), 1);
        // No phases yet → empty series.
        let s = t.phase_series();
        assert!(s.informed_cum.is_empty());
    }

    #[test]
    fn success_rate_weighting() {
        let t = sample_trace();
        // (1.0 + 0.5 + 0.0) / 4 broadcasts-with-neighbors
        let m = t.mean_success_rate().unwrap();
        assert!((m - 1.5 / 4.0).abs() < 1e-12);
        let empty = SimTrace::new(2);
        assert_eq!(empty.mean_success_rate(), None);
    }

    #[test]
    fn reception_after_last_phase_clamped() {
        // Defensive: a first_rx_phase beyond the recorded phases lands in
        // the final cumulative bucket rather than panicking.
        let mut t = SimTrace::new(3);
        t.first_rx_phase[1] = 9;
        t.broadcasts_by_phase = vec![1, 1];
        t.deliveries_by_phase = vec![0, 0];
        let s = t.phase_series();
        assert_eq!(s.informed_cum, vec![1.0, 2.0]);
    }
}
