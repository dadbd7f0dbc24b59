//! # nss-analysis — the paper's analytical framework for PB_CAM
//!
//! Implements §4 and Appendix A of Yu, Hong & Prasanna (2005): an
//! analytical model of **probability-based broadcasting under the
//! Collision Aware Model** that predicts reachability, latency, and energy
//! (broadcast count) as functions of the broadcast probability `p`, the
//! node density `ρ`, the jitter slot count `s`, and the field size `P`.
//!
//! Pipeline:
//!
//! 1. [`mu`] / [`mu_cs`] — slot-contention success probabilities
//!    `μ(K, s)` (Eq. 2) and the carrier-sense `μ'(K1, K2, s)` (Eq. A.1),
//!    each with the paper's recursion *and* an independently derived
//!    closed form cross-validated in tests.
//! 2. [`ring_geometry`] — the concentric-ring decomposition and the lens
//!    partitions `A(x, k)`, `B(x, k)` (§4.2.2, Appendix A).
//! 3. [`ring_model`] — the phase recursion for `n_j^i` (Eq. 4 / A.3),
//!    producing phase-granular execution profiles.
//! 4. [`tables`] — precomputed geometry/μ kernels ([`tables::GeometryTables`],
//!    [`tables::KernelCache`]) shared across every cell of a sweep; bitwise
//!    equivalent to direct evaluation, ~an order of magnitude cheaper.
//! 5. [`optimize`] / [`sweep`] — probability sweeps and their optima for
//!    the four §4.1 metrics (the Fig. 4–7 machinery).
//! 6. [`flooding`] — the Fig. 12 success-rate correlation.
//!
//! ```
//! use nss_analysis::prelude::*;
//!
//! // Reachability of PB_CAM within 5 phases at rho = 60, p = 0.2.
//! let cfg = RingModelConfig::paper(60.0, 0.2);
//! let series = RingModel::new(cfg).run().phase_series();
//! let reach = series.reachability_at_latency(5.0);
//! assert!(reach > 0.3 && reach <= 1.0);
//! ```

#![deny(missing_docs)]

pub mod cfm_cost;
pub mod combinatorics;
pub mod flooding;
pub mod mu;
pub mod mu_cs;
pub mod optimize;
pub mod quadrature;
pub mod ring_geometry;
pub mod ring_model;
pub mod sharded;
pub mod survival;
pub mod sweep;
pub mod tables;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::cfm_cost::RefinedCfm;
    pub use crate::flooding::{flooding_success_rate, success_rate_correlation, SuccessRateRow};
    pub use crate::mu::{mu_closed_form, MuEvaluator, MuMode, MuTable};
    pub use crate::mu_cs::{mu_cs_closed_form, mu_cs_poisson, MuCsEvaluator, MuCsTable};
    pub use crate::optimize::{Objective, Optimum, ProbabilitySweep};
    pub use crate::ring_geometry::RingGeometry;
    pub use crate::ring_model::{RingModel, RingModelConfig, RingProfile};
    pub use crate::sharded::{CacheWeight, Fingerprint, ShardedCache};
    pub use crate::survival::{poisson_extinction, survival_estimate, SurvivalEstimate};
    pub use crate::sweep::DensitySweep;
    pub use crate::tables::{GeometryTables, KernelCache, KernelKey, SharedKernel};
}

pub use prelude::*;
