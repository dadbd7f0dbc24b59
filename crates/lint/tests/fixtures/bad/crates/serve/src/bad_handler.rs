//! The seeded case behind `blocking-in-handler`: the `/v1/reachability`
//! route keeps a memo of its last sweep and recomputes it while holding
//! the memo lock, so every other request on the route waits out a full
//! `ProbabilitySweep::run`. Responses are unchanged, so no test, trace
//! digest or output diff notices.

pub fn router(service: std::sync::Arc<QueryService>) -> Router {
    let memo = std::sync::Arc::new(std::sync::Mutex::new(None));
    Router::new().get("/v1/reachability", move |req| {
        respond((|| {
            let rho = float_param(req, "rho")?;
            let mut last = memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut base = service.base;
            base.rho = rho;
            *last = Some(ProbabilitySweep::run(base, &ProbabilitySweep::paper_grid()));
            drop(last);
            service.reachability(rho, float_param(req, "p")?)
        })())
    })
}
