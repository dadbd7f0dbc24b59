//! Service answers against the analysis oracle.
//!
//! `QueryService::optimal_p` must name exactly the grid point that
//! `ProbabilitySweep::optimum` names for the same density and objective:
//! the same `p` and `value` bit for bit, the same feasibility, and the same
//! tie rule (`Objective::best`: the first strictly best point, i.e. the
//! lowest `p`).

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] bodies; a failed step must fail the test"
)]

use nss_analysis::optimize::{Objective, Optimum, ProbabilitySweep};
use nss_analysis::ring_model::RingModelConfig;
use nss_obs::jsonval::Json;
use nss_serve::QueryService;

/// A metric's name, a feasible constraint, a second constraint, and the
/// objective the analysis names for a constraint.
type Case = (&'static str, f64, f64, fn(f64) -> Objective);

/// Small quadrature keeps the 100-point sweeps fast in debug builds.
const QUAD: usize = 32;

fn oracle(rho: f64, obj: Objective) -> Option<Optimum> {
    let mut base = RingModelConfig::paper(rho, 0.0);
    base.quad_points = QUAD;
    ProbabilitySweep::run(base, &ProbabilitySweep::paper_grid()).optimum(obj)
}

/// The `(feasible, p, value)` fields of one `optimal_p` answer, with `p`
/// and `value` as raw bits.
fn answer(
    service: &QueryService,
    rho: f64,
    metric: &str,
    constraint: f64,
) -> (bool, Option<(u64, u64)>) {
    let body = service
        .optimal_p(rho, metric, constraint)
        .unwrap_or_else(|e| panic!("{metric} {constraint} at rho={rho}: {e:?}"));
    let doc = Json::parse(&body).unwrap_or_else(|e| panic!("invalid JSON {e}: {body}"));
    let feasible = doc
        .get("feasible")
        .and_then(Json::as_bool)
        .expect("feasible");
    let point = doc.get("p").and_then(Json::as_f64).map(|p| {
        let value = doc.get("value").and_then(Json::as_f64).expect("value");
        (p.to_bits(), value.to_bits())
    });
    (feasible, point)
}

#[test]
fn optimal_p_equals_probability_sweep_optimum() {
    let service = QueryService::new(4, 256 << 20, QUAD);
    // (metric, feasible constraint, second constraint). The max metrics
    // are feasible at every constraint, so their second one is a tight
    // budget. The min metrics' second one is a 90% target: at ρ ∈ {20, 60,
    // 140} some grid p reaches even 100% (the informed count is clamped at
    // N), but at ρ = 2 no p gets past 83%, so there it is infeasible.
    let cases: [Case; 4] = [
        ("reach-at-latency", 5.0, 1.5, |c| {
            Objective::MaxReachAtLatency { phases: c }
        }),
        ("latency-for-reach", 0.5, 0.9, |c| {
            Objective::MinLatencyForReach { target: c }
        }),
        ("broadcasts-for-reach", 0.5, 0.9, |c| {
            Objective::MinBroadcastsForReach { target: c }
        }),
        ("reach-under-budget", 40.0, 3.0, |c| {
            Objective::MaxReachUnderBudget { budget: c }
        }),
    ];
    let mut infeasible = 0;
    for rho in [2.0, 20.0, 60.0, 140.0] {
        for &(metric, feasible, second, objective) in &cases {
            for (constraint, surely_feasible) in [(feasible, true), (second, false)] {
                let expect = oracle(rho, objective(constraint));
                if surely_feasible {
                    assert!(expect.is_some(), "{metric} {constraint} at rho={rho}");
                }
                if expect.is_none() {
                    infeasible += 1;
                }
                let want = (
                    expect.is_some(),
                    expect.map(|o| (o.prob.to_bits(), o.value.to_bits())),
                );
                assert_eq!(
                    answer(&service, rho, metric, constraint),
                    want,
                    "{metric} {constraint} at rho={rho}: oracle {expect:?}"
                );
            }
        }
    }
    // Both min metrics miss the 90% target at ρ = 2, and only there.
    assert_eq!(infeasible, 2);
}

#[test]
fn tied_points_resolve_to_the_lowest_p() {
    // A budget of one broadcast is the source's alone, which informs ring
    // R1 and nothing else at every p: all 100 grid points tie, so the
    // answer is the first, p = 0.01.
    let rho = 60.0;
    let obj = Objective::MaxReachUnderBudget { budget: 1.0 };
    let mut base = RingModelConfig::paper(rho, 0.0);
    base.quad_points = QUAD;
    let sweep = ProbabilitySweep::run(base, &ProbabilitySweep::paper_grid());
    let values: Vec<u64> = sweep
        .series
        .iter()
        .map(|s| obj.evaluate(s).expect("max metric").to_bits())
        .collect();
    assert!(values.iter().all(|&v| v == values[0]), "{values:?}");
    let best = sweep.optimum(obj).expect("feasible");
    assert_eq!(best.prob, ProbabilitySweep::paper_grid()[0]);

    let service = QueryService::new(4, 256 << 20, QUAD);
    assert_eq!(
        answer(&service, rho, "reach-under-budget", 1.0),
        (true, Some((best.prob.to_bits(), best.value.to_bits())))
    );
}
