//! # nss-core — the algorithm-design methodology layer
//!
//! The top of the paper's Fig. 1 stack: algorithms are specified against an
//! abstract [`network::NetworkModel`] (deployment + communication model +
//! primitives + cost functions), their tunable parameters are optimized
//! against the analytical framework, and the result is validated on the
//! packet-level simulator.
//!
//! * [`network`] — the abstract network model bundle.
//! * [`algorithm`] — broadcast algorithm specifications with tunable
//!   parameters.
//! * [`optimizer`] — the design loop: choose `p` analytically, validate by
//!   simulation (Fig. 1b).
//! * [`adaptive`] — the §6/Fig. 12 density-oblivious tuning rule
//!   (`p ≈ ratio · success_rate`).
//! * [`prediction`] — the CFM-vs-CAM flooding gap that motivates the paper.
//!
//! ```
//! use nss_core::prelude::*;
//!
//! let model = NetworkModel::paper(60.0);
//! let optimizer = DesignOptimizer::new(model)
//!     .unwrap()
//!     .with_grid((1..=10).map(|i| f64::from(i) / 10.0).collect())
//!     .with_quad_points(24);
//! let best = optimizer
//!     .choose(Objective::MaxReachAtLatency { phases: 5.0 })
//!     .unwrap();
//! assert!(best.prob < 1.0); // flooding is not optimal at rho = 60
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod algorithm;
pub mod network;
pub mod optimizer;
pub mod prediction;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::adaptive::{
        evaluate_adaptive, measure_success_rate, per_node_probabilities, AdaptiveController,
        AdaptiveOutcome,
    };
    pub use crate::algorithm::BroadcastAlgorithm;
    pub use crate::network::NetworkModel;
    pub use crate::optimizer::{DesignOptimizer, DesignReport};
    pub use crate::prediction::{flooding_gap, CfmPrediction, GapReport};
    pub use nss_analysis::optimize::Objective;
}

pub use prelude::*;
