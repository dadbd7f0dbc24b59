//! # nss-model — abstract network model substrate
//!
//! Implements the "network model" layer of Yu, Hong & Prasanna's algorithm
//! design methodology for networked sensor systems (Fig. 1 of the paper):
//!
//! * **Network deployment** ([`deployment`]) — uniform disk (the paper's
//!   layout), square grid, and explicit-position networks; all reproducible
//!   from a seed.
//! * **Communication model** ([`comm`]) — the Collision Free Model (CFM)
//!   and the Collision Aware Model (CAM), with transmission-range or
//!   carrier-sense collision scope, plus the per-packet cost parameters
//!   `t_f, e_f, t_a, e_a`.
//! * **Topology** ([`topology`]) — the induced symmetric unit-disk graph
//!   `G(V, E)` with CSR adjacency, BFS levels, and component analysis.
//! * Supporting **geometry** ([`geometry`]), a grid **spatial index**
//!   ([`spatial`]), node **ids** ([`ids`]), and deterministic **seed
//!   derivation** ([`rng`]).
//! * The workspace's one thread **fan-out** ([`par`]): work-stealing over
//!   indexed items and one thread per pre-split unit, with per-unit stage
//!   telemetry.
//!
//! Higher layers build on this crate: `nss-analysis` evaluates the paper's
//! analytical framework against the same geometric definitions, and
//! `nss-sim` executes protocols over sampled topologies under either
//! communication model.
//!
//! ## Example
//!
//! ```
//! use nss_model::prelude::*;
//!
//! // The paper's evaluation network: P = 5 rings, rho = 60 neighbors.
//! let spec = Deployment::disk(5, 1.0, 60.0);
//! let net = spec.sample(42);
//! let topo = Topology::build(&net);
//! assert_eq!(net.len(), 1500); // round(rho * P^2)
//! assert!(topo.mean_degree() > 40.0);
//! ```

#![deny(missing_docs)]

pub mod comm;
pub mod deployment;
pub mod error;
pub mod faults;
pub mod geometry;
pub mod ids;
pub mod io;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod spatial;
pub mod topology;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::comm::{CollisionRule, CommunicationModel, CostParams, Primitive};
    pub use crate::deployment::{
        ClusterDeployment, DeployedNetwork, Deployment, DiskDeployment, GridDeployment,
    };
    pub use crate::error::ConfigError;
    pub use crate::faults::{DutyCycle, FaultPlan, NodeOutage};
    pub use crate::geometry::{annulus_area, disk_area, lens_area, lens_area_border, Point2};
    pub use crate::ids::NodeId;
    pub use crate::metrics::PhaseSeries;
    pub use crate::rng::{SeedFactory, Stream};
    pub use crate::spatial::GridIndex;
    pub use crate::topology::Topology;
}

pub use prelude::*;
