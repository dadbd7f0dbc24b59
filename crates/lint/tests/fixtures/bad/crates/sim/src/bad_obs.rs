//! Fixture: `feature-hygiene` violations — unqualified obs macros and
//! effectful macro arguments.

pub fn record_unqualified(n: u64) {
    counter!("sim.events").add(n); // unqualified: breaks --no-default-features
}

pub fn effectful_argument(v: Option<u64>) {
    nss_obs::counter!("sim.events").add(v.unwrap()); // arg vanishes when obs is off
}
