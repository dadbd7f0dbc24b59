//! The phase recursion for PB_CAM (Eq. 4, and Eq. A.3 for carrier sense).
//!
//! The field is viewed as `P` concentric rings; `n_j^i` is the expected
//! number of nodes in ring `R_j` that receive the broadcast during phase
//! `T_i`. Phase 1 informs exactly ring `R_1` (only the source transmits, so
//! no collisions). For `i ≥ 2`, a yet-uninformed node at offset `x` in
//! ring `R_j` hears an expected `g(x)` nodes informed in the previous phase
//! (Eq. 3), of which an expected `g(x)·p` transmit in one of the `s` jitter
//! slots; the node is informed with probability `μ(g(x)·p, s)`. Integrating
//! over the ring (Eq. 4):
//!
//! `n_j^i = ∫₀^{2π}∫₀^r (r(j−1)+x) · μ(g(x)p, s) · (δC_j − Σ_{i'<i} n_j^{i'})/C_j dx dθ`
//!
//! Under the carrier-sense rule the success probability becomes
//! `μ'(g(x)·p, h(x)·p, s)` with `h(x)` the expected informed count in the
//! carrier annulus (Eq. A.2/A.3).

use crate::mu::MuMode;
use crate::tables::{KernelCache, MuCsMemo, MuMemo, SharedKernel};
use nss_model::comm::CollisionRule;
use nss_model::error::ConfigError;
use nss_model::metrics::PhaseSeries;
use std::f64::consts::PI;
use std::sync::Arc;

/// Configuration of one analytical PB_CAM evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingModelConfig {
    /// Number of rings `P` (field radius `P·r`). The paper uses 5.
    pub p: u32,
    /// Jitter slots per phase `s`. The paper uses 3.
    pub s: u32,
    /// Node density as expected neighbors per node, `ρ = δπr²`.
    pub rho: f64,
    /// Transmission radius `r` (scale-free; results depend only on `ρ`, `P`).
    pub r: f64,
    /// Broadcast probability `p` of PB_CAM (1.0 = simple flooding).
    pub prob: f64,
    /// How `μ` is evaluated at real-valued contender counts.
    pub mu_mode: MuMode,
    /// Collision scope (transmission range, or carrier sense per Appendix A).
    pub collision: CollisionRule,
    /// Simpson quadrature points per ring integral.
    pub quad_points: usize,
    /// Hard cap on simulated phases.
    pub max_phases: usize,
    /// Convergence threshold: stop once a phase informs fewer than this
    /// many (expected) nodes.
    pub min_new: f64,
    /// Per-link delivery probability `q` (1.0 = lossless). Mirrors the
    /// simulator's `FaultPlan::link_loss` (`q = 1 − λ`): a clean slot still
    /// delivers only with probability `q`, independently per receiver.
    pub link_q: f64,
    /// Fraction of deployed nodes that are alive (1.0 = all). Mirrors the
    /// simulator's crash thinning (`a = 1 − dead_frac`): ring capacities
    /// shrink to `a·δ·C_j` while reachability stays normalised by the full
    /// `N = ρP²`, so a dead fraction caps attainable reachability at `a`.
    pub alive_frac: f64,
}

impl RingModelConfig {
    /// The paper's evaluation configuration (`P = 5`, `s = 3`) for a given
    /// density `ρ` and broadcast probability `p`.
    pub fn paper(rho: f64, prob: f64) -> Self {
        RingModelConfig {
            p: 5,
            s: 3,
            rho,
            r: 1.0,
            prob,
            mu_mode: MuMode::Interpolate,
            collision: CollisionRule::TransmissionRange,
            quad_points: 64,
            max_phases: 200,
            min_new: 1e-3,
            link_q: 1.0,
            alive_frac: 1.0,
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.p < 1 {
            return Err(ConfigError::TooSmall {
                field: "P",
                min: 1,
                value: u64::from(self.p),
            });
        }
        if self.s < 1 {
            return Err(ConfigError::TooSmall {
                field: "s",
                min: 1,
                value: u64::from(self.s),
            });
        }
        if !self.rho.is_finite() || self.rho <= 0.0 {
            return Err(ConfigError::NotPositive {
                field: "rho",
                value: self.rho,
            });
        }
        if !self.r.is_finite() || self.r <= 0.0 {
            return Err(ConfigError::NotPositive {
                field: "r",
                value: self.r,
            });
        }
        if !(0.0..=1.0).contains(&self.prob) {
            return Err(ConfigError::OutOfUnitRange {
                field: "broadcast probability",
                value: self.prob,
            });
        }
        if self.quad_points < 2 {
            return Err(ConfigError::TooSmall {
                field: "quad_points",
                min: 2,
                value: self.quad_points as u64,
            });
        }
        if self.max_phases < 1 {
            return Err(ConfigError::TooSmall {
                field: "max_phases",
                min: 1,
                value: self.max_phases as u64,
            });
        }
        if !(0.0..=1.0).contains(&self.link_q) {
            return Err(ConfigError::OutOfUnitRange {
                field: "link_q",
                value: self.link_q,
            });
        }
        if !(0.0..=1.0).contains(&self.alive_frac) {
            return Err(ConfigError::OutOfUnitRange {
                field: "alive_frac",
                value: self.alive_frac,
            });
        }
        Ok(())
    }

    /// Node density `δ = ρ / (πr²)`.
    pub fn delta(&self) -> f64 {
        self.rho / (PI * self.r * self.r)
    }

    /// Total expected node count `N = δπ(Pr)² = ρP²`.
    pub fn n_total(&self) -> f64 {
        self.rho * f64::from(self.p) * f64::from(self.p)
    }
}

/// Result of running the ring recursion: per-phase, per-ring expected
/// newly-informed counts plus broadcast accounting.
#[derive(Debug, Clone)]
pub struct RingProfile {
    /// The configuration that produced this profile.
    pub config: RingModelConfig,
    /// `new_by_phase[i][j-1]` = `n_j^{i+1}` (phase `i+1`, ring `j`).
    pub new_by_phase: Vec<Vec<f64>>,
    /// Expected broadcasts performed in each phase (phase 1 = the source).
    pub broadcasts_by_phase: Vec<f64>,
    /// Per-phase per-broadcast delivery success rate and its weight
    /// (number of broadcasts), when tracked — used for Fig. 12.
    pub success_rate_by_phase: Vec<(f64, f64)>,
}

impl RingProfile {
    /// Total expected nodes informed (excluding the source).
    pub fn total_informed(&self) -> f64 {
        self.new_by_phase.iter().flatten().sum()
    }

    /// Expected newly informed nodes in a given phase (1-based).
    pub fn new_in_phase(&self, phase: usize) -> f64 {
        self.new_by_phase
            .get(phase.wrapping_sub(1))
            .map_or(0.0, |v| v.iter().sum())
    }

    /// Number of executed phases.
    pub fn phases(&self) -> usize {
        self.new_by_phase.len()
    }

    /// Collapses the profile into the metric-ready [`PhaseSeries`].
    ///
    /// The informed count includes the source (the `+1`); it is clamped to
    /// `N` to absorb the source's double-counting within ring `R_1`'s
    /// expectation (a ≤ 0.2% effect at the paper's scales).
    pub fn phase_series(&self) -> PhaseSeries {
        let n = self.config.n_total();
        let mut informed = Vec::with_capacity(self.new_by_phase.len());
        let mut cum = 1.0; // the source
        for per_ring in &self.new_by_phase {
            cum += per_ring.iter().sum::<f64>();
            informed.push(cum.min(n));
        }
        let mut bc = Vec::with_capacity(self.broadcasts_by_phase.len());
        let mut b = 0.0;
        for &x in &self.broadcasts_by_phase {
            b += x;
            bc.push(b);
        }
        PhaseSeries {
            n_total: n,
            informed_cum: informed,
            broadcasts_cum: bc,
        }
    }

    /// Broadcast-weighted average per-broadcast success rate over the whole
    /// execution (empty tracking → `None`).
    pub fn mean_success_rate(&self) -> Option<f64> {
        let (num, den) = self
            .success_rate_by_phase
            .iter()
            .fold((0.0, 0.0), |(n, d), &(rate, w)| (n + rate * w, d + w));
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    }
}

/// The analytical PB_CAM model.
///
/// All ρ/p-independent state (geometry tables, μ evaluators) lives in a
/// [`SharedKernel`] interned in the process-wide [`KernelCache`], so every
/// cell of a parameter sweep shares one kernel. The kernel's tables store
/// the exact values the closure-driven seed implementation recomputed per
/// call, so runs are **bitwise identical** to it.
#[derive(Debug, Clone)]
pub struct RingModel {
    config: RingModelConfig,
    kernel: Arc<SharedKernel>,
    track_success_rate: bool,
}

impl RingModel {
    /// Creates a model for the given configuration (panics on invalid
    /// configurations; use [`RingModelConfig::validate`] to check first).
    /// The first model per `(P, r, quad_points, s, mode, cs_factor)`
    /// fingerprint builds the kernel; every later one, from any thread,
    /// reuses it.
    pub fn new(config: RingModelConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented contract: the constructor panics on invalid configs; `validate()` is the fallible path"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid RingModelConfig: {e}"));
        RingModel {
            config,
            kernel: KernelCache::global().get(&config),
            track_success_rate: false,
        }
    }

    /// Enables per-phase success-rate tracking (costs one extra integral
    /// per ring per phase; needed only for the Fig. 12 analysis).
    pub fn with_success_rate_tracking(mut self) -> Self {
        self.track_success_rate = true;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &RingModelConfig {
        &self.config
    }

    /// Runs the recursion to convergence (or the phase cap) and returns the
    /// execution profile.
    ///
    /// ```
    /// use nss_analysis::ring_model::{RingModel, RingModelConfig};
    ///
    /// let profile = RingModel::new(RingModelConfig::paper(60.0, 0.2)).run();
    /// // Phase 1 informs exactly ring R1 (rho nodes).
    /// assert!((profile.new_in_phase(1) - 60.0).abs() < 1e-9);
    /// let reach = profile.phase_series().final_reachability();
    /// assert!(reach > 0.5 && reach <= 1.0);
    /// ```
    pub fn run(&self) -> RingProfile {
        let (mut mu, mut mu_cs) = self.memos();
        self.run_with(&mut mu, &mut mu_cs)
    }

    /// Empty μ and μ′ lattices for this model's evaluators.
    pub(crate) fn memos(&self) -> (MuMemo, MuCsMemo) {
        (
            MuMemo::new(self.kernel.mu),
            MuCsMemo::new(self.kernel.mu_cs),
        )
    }

    /// [`RingModel::run`] over μ and μ′ lattices that outlive the run. The
    /// lattice values depend only on `s` and the μ mode, so every run of a
    /// [`crate::optimize::ProbabilitySweep`] shares one pair of memos; they
    /// must come from [`RingModel::memos`] of a model with the same two.
    pub(crate) fn run_with(&self, mu_memo: &mut MuMemo, mu_cs_memo: &mut MuCsMemo) -> RingProfile {
        let cfg = &self.config;
        let kernel = &*self.kernel;
        let tables = &kernel.tables;
        let p_rings = cfg.p as usize;
        let delta = cfg.delta();
        let ring_areas: &[f64] = &kernel.ring_areas;
        // Dead nodes never receive: each ring only has `a·δ·C_j` live slots.
        // (×1.0 is IEEE-exact, so the default plan is bitwise unchanged.)
        let capacity: Vec<f64> = ring_areas
            .iter()
            .map(|&c| delta * c * cfg.alive_frac)
            .collect();

        let stats_before = (mu_memo.stats(), mu_cs_memo.stats());
        // Per-abscissa scratch, reused across rings and phases: transmitter
        // counts g(x_i)·p, carrier-annulus counts h(x_i)·p, and μ at each.
        let n_abs = tables.abscissae().len();
        let mut gtx = vec![0.0f64; n_abs];
        let mut hcs = vec![0.0f64; n_abs];
        let mut success = vec![0.0f64; n_abs];

        // Phase 1: the source's broadcast informs all of (the live part of)
        // ring R_1, thinned by the per-link delivery probability.
        let mut first = vec![0.0; p_rings];
        first[0] = capacity[0] * cfg.link_q;
        let mut cum: Vec<f64> = first.clone();
        let mut new_by_phase = vec![first];
        let mut broadcasts = vec![1.0f64];
        let mut success_rates: Vec<(f64, f64)> = Vec::new();
        if self.track_success_rate {
            // Phase 1: single transmitter, no contention → success rate 1.
            success_rates.push((1.0, 1.0));
        }

        for _phase in 2..=cfg.max_phases {
            #[expect(
                clippy::expect_used,
                reason = "loop starts at phase 2, so phase 1 was pushed unconditionally above"
            )]
            let prev = new_by_phase.last().expect("at least phase 1 exists");
            let prev_total: f64 = prev.iter().sum();
            // Transmitters this phase: last phase's newly informed, thinned
            // by the broadcast probability.
            let tx_total = cfg.prob * prev_total;
            broadcasts.push(tx_total);
            if tx_total <= 0.0 {
                new_by_phase.push(vec![0.0; p_rings]);
                if self.track_success_rate {
                    success_rates.push((0.0, 0.0));
                }
                break;
            }

            let mut new = vec![0.0; p_rings];
            let mut sr_num = 0.0f64;
            let mut sr_den = 0.0f64;
            for j in 1..=cfg.p {
                let ji = j as usize - 1;
                let remaining = (capacity[ji] - cum[ji]).max(0.0);
                let inner_radius = (f64::from(j) - 1.0) * cfg.r;

                let need_main = remaining > 1e-12;
                if !need_main && !self.track_success_rate {
                    continue;
                }

                // Expected informed-in-previous-phase neighbors of a node at
                // each quadrature offset x_i in ring j, thinned to expected
                // transmitters: g(x_i)·p. Accumulated per point in ascending
                // k order — the same term order as the seed's closure, with
                // A(x, k) read from the table instead of recomputed.
                let lo = j.saturating_sub(1).max(1);
                let hi = (j + 1).min(cfg.p);
                gtx.fill(0.0);
                for k in lo..=hi {
                    let ki = k as usize - 1;
                    if prev[ki] > 0.0 {
                        let (pk, area) = (prev[ki], ring_areas[ki]);
                        for (g, &a) in gtx.iter_mut().zip(tables.a_row(j, k)) {
                            *g += pk * a / area;
                        }
                    }
                }
                for g in gtx.iter_mut() {
                    *g *= cfg.prob;
                }

                if need_main {
                    // μ at every abscissa in one pass over the lattice.
                    match cfg.collision {
                        CollisionRule::TransmissionRange => mu_memo.eval_into(&gtx, &mut success),
                        CollisionRule::CarrierSense { .. } => {
                            // Carrier sense also needs h(x_i)·p: the expected
                            // informed count in the carrier annulus (one ring
                            // further each way), thinned like g.
                            let lo = j.saturating_sub(2).max(1);
                            let hi = (j + 2).min(cfg.p);
                            hcs.fill(0.0);
                            for k in lo..=hi {
                                let ki = k as usize - 1;
                                if prev[ki] > 0.0 {
                                    let (pk, area) = (prev[ki], ring_areas[ki]);
                                    for (h, &b) in hcs.iter_mut().zip(tables.b_row(j, k)) {
                                        *h += pk * b / area;
                                    }
                                }
                            }
                            for h in hcs.iter_mut() {
                                *h *= cfg.prob;
                            }
                            mu_cs_memo.eval_into(&gtx, &hcs, &mut success);
                        }
                    }
                    // A collision-free slot still delivers only w.p. q.
                    let integral =
                        tables.integrate(|i, x| (inner_radius + x) * (success[i] * cfg.link_q));
                    new[ji] = (2.0 * PI * integral * remaining / ring_areas[ji]).min(remaining);
                }

                if self.track_success_rate {
                    // Per-(sender, neighbor) delivery probability aggregated
                    // over all potential receivers in ring j (density δ):
                    //   num += δ ∫ w(x) K(x) q^{K(x)−1} dx,  den += δ ∫ w(x) K(x) dx
                    // with K(x) the expected transmitter count in range and
                    // q = (s−1)/s the per-slot avoidance probability.
                    let q = (f64::from(cfg.s) - 1.0) / f64::from(cfg.s);
                    // nss-lint: allow(float-safety) — q = (s−1)/s is exactly 0.0 iff s = 1; an exact branch, not a tolerance test
                    let single_slot = q == 0.0;
                    let num = tables.integrate(|i, x| {
                        let k = gtx[i];
                        let clean = if k <= 0.0 {
                            0.0
                        } else if single_slot {
                            // s = 1: only an uncontended sender delivers.
                            if k <= 1.0 {
                                k
                            } else {
                                0.0
                            }
                        } else {
                            k * q.powf((k - 1.0).max(0.0))
                        };
                        (inner_radius + x) * (clean * cfg.link_q)
                    });
                    let den = tables.integrate(|i, x| (inner_radius + x) * gtx[i]);
                    sr_num += 2.0 * PI * delta * num;
                    sr_den += 2.0 * PI * delta * den;
                }
            }

            for (c, n) in cum.iter_mut().zip(&new) {
                *c += n;
            }
            let total_new: f64 = new.iter().sum();
            new_by_phase.push(new);
            if self.track_success_rate {
                let rate = if sr_den > 0.0 { sr_num / sr_den } else { 0.0 };
                success_rates.push((rate, tx_total));
            }
            if total_new < cfg.min_new {
                break;
            }
        }

        // Flush this run's memo statistics into the global registry once —
        // the inner loop only touches plain (non-atomic) fields.
        if nss_obs::enabled() {
            let ((h0, m0), (ch0, cm0)) = stats_before;
            let ((h, m), (ch, cm)) = (mu_memo.stats(), mu_cs_memo.stats());
            nss_obs::counter!("analysis.ring_runs").inc();
            nss_obs::counter!("analysis.mu_memo.hit").add(h - h0);
            nss_obs::counter!("analysis.mu_memo.miss").add(m - m0);
            nss_obs::counter!("analysis.mu_cs_memo.hit").add(ch - ch0);
            nss_obs::counter!("analysis.mu_cs_memo.miss").add(cm - cm0);
        }

        RingProfile {
            config: *self.config(),
            new_by_phase,
            broadcasts_by_phase: broadcasts,
            success_rate_by_phase: success_rates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring_geometry::RingGeometry;
    use crate::tables::KernelKey;

    fn run(rho: f64, prob: f64) -> RingProfile {
        RingModel::new(RingModelConfig::paper(rho, prob)).run()
    }

    #[test]
    fn phase_one_informs_exactly_ring_one() {
        let prof = run(60.0, 0.5);
        assert!((prof.new_by_phase[0][0] - 60.0).abs() < 1e-9);
        for j in 1..5 {
            assert_eq!(prof.new_by_phase[0][j], 0.0);
        }
        assert_eq!(prof.broadcasts_by_phase[0], 1.0);
    }

    #[test]
    fn zero_probability_stops_after_phase_one() {
        let prof = run(60.0, 0.0);
        assert_eq!(prof.phases(), 2); // phase 2 records 0 broadcasts, stops
        assert!((prof.total_informed() - 60.0).abs() < 1e-9);
        assert_eq!(prof.broadcasts_by_phase[1], 0.0);
    }

    #[test]
    fn ring_capacities_never_exceeded() {
        for &(rho, p) in &[(20.0, 1.0), (60.0, 0.3), (140.0, 0.05), (140.0, 1.0)] {
            let prof = run(rho, p);
            let cfg = prof.config;
            let delta = cfg.delta();
            let geom = RingGeometry::new(cfg.p, cfg.r);
            let mut cum = vec![0.0; cfg.p as usize];
            for per_ring in &prof.new_by_phase {
                for (j, &v) in per_ring.iter().enumerate() {
                    assert!(v >= -1e-12, "negative reception count");
                    cum[j] += v;
                    let cap = delta * geom.ring_area(j as u32 + 1);
                    assert!(
                        cum[j] <= cap * (1.0 + 1e-9),
                        "ring {} overfilled: {} > {}",
                        j + 1,
                        cum[j],
                        cap
                    );
                }
            }
        }
    }

    #[test]
    fn information_travels_at_most_one_ring_per_phase() {
        let prof = run(60.0, 0.5);
        for (i, per_ring) in prof.new_by_phase.iter().enumerate() {
            for (j, &v) in per_ring.iter().enumerate() {
                if j > i {
                    assert!(
                        v < 1e-9,
                        "ring {} informed in phase {} (faster than 1 ring/phase)",
                        j + 1,
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn flooding_dense_network_suffers_collisions() {
        // At rho = 140 and p = 1 collisions should strongly suppress
        // progress relative to a well-tuned probability.
        let flood = run(140.0, 1.0);
        let tuned = run(140.0, 0.1);
        let sf = flood.phase_series();
        let st = tuned.phase_series();
        let rf = sf.reachability_at_latency(5.0);
        let rt = st.reachability_at_latency(5.0);
        assert!(
            rt > rf + 0.1,
            "tuned p should beat flooding at high density: {rt} vs {rf}"
        );
    }

    #[test]
    fn moderate_probability_reaches_most_of_sparse_network() {
        let prof = run(20.0, 0.6);
        let reach = prof.phase_series().final_reachability();
        assert!(reach > 0.5, "expected decent reachability, got {reach}");
    }

    #[test]
    fn phase_series_is_valid_and_monotone() {
        for &(rho, p) in &[(20.0, 0.2), (80.0, 0.6), (140.0, 1.0)] {
            let s = run(rho, p).phase_series();
            s.validate().expect("invalid PhaseSeries from ring model");
        }
    }

    #[test]
    fn broadcast_accounting_consistent() {
        let prof = run(40.0, 0.5);
        // broadcasts in phase i+1 = p · new receptions in phase i
        for i in 1..prof.broadcasts_by_phase.len() {
            let expect = 0.5 * prof.new_in_phase(i);
            assert!(
                (prof.broadcasts_by_phase[i] - expect).abs() < 1e-9,
                "phase {}: {} vs {}",
                i + 1,
                prof.broadcasts_by_phase[i],
                expect
            );
        }
    }

    #[test]
    fn higher_density_same_prob_more_collisions_per_node() {
        // Within a 5-phase budget, reachability at p=1 should *drop* as the
        // network gets denser (the paper's headline motivation).
        let r20 = run(20.0, 1.0).phase_series().reachability_at_latency(5.0);
        let r140 = run(140.0, 1.0).phase_series().reachability_at_latency(5.0);
        assert!(
            r140 < r20,
            "flooding should degrade with density: rho=140 {r140} vs rho=20 {r20}"
        );
    }

    #[test]
    fn carrier_sense_reduces_reachability() {
        let base = RingModelConfig::paper(60.0, 0.3);
        let mut cs = base;
        cs.collision = CollisionRule::CARRIER_SENSE_2R;
        let r_base = RingModel::new(base)
            .run()
            .phase_series()
            .reachability_at_latency(5.0);
        let r_cs = RingModel::new(cs)
            .run()
            .phase_series()
            .reachability_at_latency(5.0);
        assert!(
            r_cs < r_base,
            "carrier sensing must not help: cs {r_cs} vs base {r_base}"
        );
        assert!(r_cs > 0.0, "carrier-sense run should still make progress");
    }

    #[test]
    fn success_rate_tracked_and_sane() {
        let prof = RingModel::new(RingModelConfig::paper(60.0, 1.0))
            .with_success_rate_tracking()
            .run();
        assert_eq!(prof.success_rate_by_phase.len(), prof.phases());
        assert_eq!(prof.success_rate_by_phase[0], (1.0, 1.0));
        for &(rate, w) in &prof.success_rate_by_phase {
            assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
            assert!(w >= 0.0);
        }
        let mean = prof.mean_success_rate().unwrap();
        assert!(mean > 0.0 && mean < 1.0, "mean success rate {mean}");
    }

    #[test]
    fn success_rate_drops_with_density() {
        let sr = |rho: f64| {
            RingModel::new(RingModelConfig::paper(rho, 1.0))
                .with_success_rate_tracking()
                .run()
                .mean_success_rate()
                .unwrap()
        };
        let lo = sr(20.0);
        let hi = sr(140.0);
        assert!(hi < lo, "denser flooding must collide more: {hi} !< {lo}");
    }

    #[test]
    fn quadrature_resolution_converged() {
        let mut coarse_cfg = RingModelConfig::paper(80.0, 0.4);
        coarse_cfg.quad_points = 32;
        let mut fine_cfg = coarse_cfg;
        fine_cfg.quad_points = 256;
        let a = RingModel::new(coarse_cfg).run().phase_series();
        let b = RingModel::new(fine_cfg).run().phase_series();
        let ra = a.reachability_at_latency(5.0);
        let rb = b.reachability_at_latency(5.0);
        assert!(
            (ra - rb).abs() < 1e-3,
            "quadrature not converged: 32pt {ra} vs 256pt {rb}"
        );
    }

    #[test]
    fn config_validation() {
        let mut c = RingModelConfig::paper(60.0, 0.5);
        assert!(c.validate().is_ok());
        c.prob = 1.5;
        assert!(c.validate().is_err());
        c = RingModelConfig::paper(60.0, 0.5);
        c.rho = 0.0;
        assert!(c.validate().is_err());
        c = RingModelConfig::paper(60.0, 0.5);
        c.s = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn link_loss_degrades_reachability_monotonically() {
        let mut prev = f64::INFINITY;
        for q in [1.0, 0.9, 0.7, 0.5, 0.3] {
            let mut cfg = RingModelConfig::paper(60.0, 0.4);
            cfg.link_q = q;
            let reach = RingModel::new(cfg)
                .run()
                .phase_series()
                .reachability_at_latency(10.0);
            assert!(
                reach <= prev + 1e-12,
                "q={q}: reachability {reach} rose above lossless-er {prev}"
            );
            prev = reach;
        }
        assert!(prev > 0.0, "even q=0.3 should inform someone");
    }

    #[test]
    fn alive_fraction_caps_reachability() {
        let mut cfg = RingModelConfig::paper(60.0, 0.6);
        cfg.alive_frac = 0.5;
        let s = RingModel::new(cfg).run().phase_series();
        let reach = s.final_reachability();
        assert!(
            reach <= 0.5 + 1e-9,
            "half-dead field cannot exceed 0.5 reachability: {reach}"
        );
        assert!(reach > 0.2, "live half should still mostly be reached");
        s.validate().expect("lossy profile still a valid series");
    }

    #[test]
    fn default_fault_fields_are_bitwise_no_ops() {
        // A config carrying explicit `link_q = 1.0, alive_frac = 1.0` must
        // take the exact multiplication-by-one path: same kernel, same bits
        // as the paper defaults.
        let cfg = RingModelConfig::paper(80.0, 0.4);
        assert_eq!(cfg.link_q, 1.0);
        assert_eq!(cfg.alive_frac, 1.0);
        let a = RingModel::new(cfg).run();
        let mut lossy = cfg;
        lossy.link_q = 0.8;
        // Fault fields are not part of the kernel fingerprint: the lossy
        // config shares the interned kernel with the lossless one.
        assert_eq!(KernelKey::of(&cfg), KernelKey::of(&lossy));
        let b = RingModel::new(lossy).run();
        assert!(
            a.total_informed() > b.total_informed(),
            "20% loss must shrink expected informed count"
        );
    }

    #[test]
    fn fault_field_validation() {
        let mut c = RingModelConfig::paper(60.0, 0.5);
        c.link_q = 1.2;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfUnitRange {
                field: "link_q",
                ..
            })
        ));
        c = RingModelConfig::paper(60.0, 0.5);
        c.alive_frac = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn n_total_matches_paper_counts() {
        // rho=20..140, P=5 → N = 500..3500
        assert!((RingModelConfig::paper(20.0, 0.1).n_total() - 500.0).abs() < 1e-9);
        assert!((RingModelConfig::paper(140.0, 0.1).n_total() - 3500.0).abs() < 1e-9);
    }
}
