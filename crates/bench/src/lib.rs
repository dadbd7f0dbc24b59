//! Shared fixtures for the nss Criterion micro-benchmarks.

use nss_analysis::ring_model::RingModelConfig;
use nss_model::deployment::Deployment;
use nss_model::topology::Topology;

/// A paper-configuration analytical setup (`P = 5`, `s = 3`).
pub fn ring_cfg(rho: f64, prob: f64) -> RingModelConfig {
    RingModelConfig::paper(rho, prob)
}

/// Builds a deployed unit-disk topology at the paper's scale.
pub fn topo(rho: f64, seed: u64) -> Topology {
    Topology::build(&Deployment::disk(5, 1.0, rho).sample(seed))
}
