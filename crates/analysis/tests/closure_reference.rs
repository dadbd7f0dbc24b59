//! The table-driven ring model against the closure-driven reference.
//!
//! `legacy_phase_series` is the seed's Eq. 4 recursion, kept as an
//! oracle: geometry and μ evaluators are built per call, and every
//! integrand evaluation recomputes the `A`/`B` lens areas through
//! `a_area`/`b_area` closures integrated by [`simpson`]. The production
//! path (`RingModel` over one interned `SharedKernel`) reads the same
//! areas from precomputed tables and replays `simpson`'s accumulation
//! order, so the two must agree **bitwise**, not merely to a tolerance:
//!
//! * on the full Fig. 4 grid (7 ρ × 100 p) under `TransmissionRange`;
//! * on 7 ρ × 10 p under `CARRIER_SENSE_2R` (the full carrier-sense grid
//!   takes about 15 s in a debug build, the subgrid under 2 s).

use nss_analysis::mu::MuEvaluator;
use nss_analysis::mu_cs::MuCsEvaluator;
use nss_analysis::quadrature::simpson;
use nss_analysis::ring_geometry::RingGeometry;
use nss_analysis::ring_model::{RingModel, RingModelConfig};
use nss_model::comm::CollisionRule;
use nss_model::metrics::PhaseSeries;
use std::f64::consts::PI;

/// The seed implementation of the Eq. 4 recursion.
fn legacy_phase_series(cfg: RingModelConfig) -> PhaseSeries {
    let geom = RingGeometry::new(cfg.p, cfg.r);
    let mu = MuEvaluator::new(cfg.s, cfg.mu_mode);
    let mu_cs = MuCsEvaluator::new(cfg.s, cfg.mu_mode);
    let p_rings = cfg.p as usize;
    let delta = cfg.delta();
    let ring_areas: Vec<f64> = (1..=cfg.p).map(|j| geom.ring_area(j)).collect();
    let capacity: Vec<f64> = ring_areas.iter().map(|&c| delta * c).collect();

    let mut first = vec![0.0; p_rings];
    first[0] = capacity[0];
    let mut cum: Vec<f64> = first.clone();
    let mut new_by_phase = vec![first];
    let mut broadcasts = vec![1.0f64];

    for _phase in 2..=cfg.max_phases {
        let prev = &new_by_phase[new_by_phase.len() - 1];
        let prev_total: f64 = prev.iter().sum();
        let tx_total = cfg.prob * prev_total;
        broadcasts.push(tx_total);
        if tx_total <= 0.0 {
            new_by_phase.push(vec![0.0; p_rings]);
            break;
        }

        let mut new = vec![0.0; p_rings];
        for j in 1..=cfg.p {
            let ji = j as usize - 1;
            let remaining = (capacity[ji] - cum[ji]).max(0.0);
            let inner_radius = (f64::from(j) - 1.0) * cfg.r;

            let g_tx = |x: f64| -> f64 {
                let lo = j.saturating_sub(1).max(1);
                let hi = (j + 1).min(cfg.p);
                let mut g = 0.0;
                for k in lo..=hi {
                    let ki = k as usize - 1;
                    if prev[ki] > 0.0 {
                        g += prev[ki] * geom.a_area(j, x, k) / ring_areas[ki];
                    }
                }
                g * cfg.prob
            };

            if remaining > 1e-12 {
                let integrand = |x: f64| -> f64 {
                    let k_tx = g_tx(x);
                    let success = match cfg.collision {
                        CollisionRule::TransmissionRange => mu.eval(k_tx),
                        CollisionRule::CarrierSense { factor } => {
                            let lo = j.saturating_sub(2).max(1);
                            let hi = (j + 2).min(cfg.p);
                            let mut h = 0.0;
                            for k in lo..=hi {
                                let ki = k as usize - 1;
                                if prev[ki] > 0.0 {
                                    h += prev[ki] * geom.b_area(j, x, k, factor) / ring_areas[ki];
                                }
                            }
                            mu_cs.eval(k_tx, h * cfg.prob)
                        }
                    };
                    (inner_radius + x) * success
                };
                let integral = simpson(integrand, 0.0, cfg.r, cfg.quad_points);
                new[ji] = (2.0 * PI * integral * remaining / ring_areas[ji]).min(remaining);
            }
        }

        for (c, n) in cum.iter_mut().zip(&new) {
            *c += n;
        }
        let total_new: f64 = new.iter().sum();
        new_by_phase.push(new);
        if total_new < cfg.min_new {
            break;
        }
    }

    // Collapse to PhaseSeries exactly as RingProfile::phase_series does.
    let n = cfg.n_total();
    let mut informed = Vec::with_capacity(new_by_phase.len());
    let mut c = 1.0;
    for per_ring in &new_by_phase {
        c += per_ring.iter().sum::<f64>();
        informed.push(c.min(n));
    }
    let mut bc = Vec::with_capacity(broadcasts.len());
    let mut b = 0.0;
    for &x in &broadcasts {
        b += x;
        bc.push(b);
    }
    PhaseSeries {
        n_total: n,
        informed_cum: informed,
        broadcasts_cum: bc,
    }
}

/// Asserts `RingModel` over one shared kernel equals the closure
/// reference bit for bit on every (ρ, p) cell under `collision`.
fn assert_grid_bitwise_equal(collision: CollisionRule, probs: &[f64]) {
    let mut base = RingModelConfig::paper(20.0, 0.5);
    base.collision = collision;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for rho in (1..=7).map(|i| f64::from(i) * 20.0) {
        for &prob in probs {
            let cfg = RingModelConfig { rho, prob, ..base };
            let legacy = legacy_phase_series(cfg);
            let table = RingModel::new(cfg).run().phase_series();
            let cell = format!("{collision:?} rho={rho} p={prob}");
            assert_eq!(
                legacy.n_total.to_bits(),
                table.n_total.to_bits(),
                "n_total @ {cell}"
            );
            assert_eq!(
                bits(&legacy.informed_cum),
                bits(&table.informed_cum),
                "informed_cum @ {cell}"
            );
            assert_eq!(
                bits(&legacy.broadcasts_cum),
                bits(&table.broadcasts_cum),
                "broadcasts_cum @ {cell}"
            );
        }
    }
}

#[test]
fn transmission_range_matches_closure_reference_on_fig4_grid() {
    let probs: Vec<f64> = (1..=100).map(|i| f64::from(i) / 100.0).collect();
    assert_grid_bitwise_equal(CollisionRule::TransmissionRange, &probs);
}

#[test]
fn carrier_sense_matches_closure_reference_on_fig4_subgrid() {
    let probs: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
    assert_grid_bitwise_equal(CollisionRule::CARRIER_SENSE_2R, &probs);
}
