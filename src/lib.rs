//! # nss — networked sensor system communication models & broadcasting
//!
//! Facade crate re-exporting the whole workspace: the abstract network
//! model ([`model`]), the analytical framework for probability-based
//! broadcasting under the Collision Aware Model ([`analysis`]), the
//! packet-level simulator ([`sim`]), the algorithm-design methodology
//! layer ([`core`]), and the zero-cost instrumentation facade ([`obs`]).
//!
//! This reproduces Yu, Hong & Prasanna, *"On Communication Models for
//! Algorithm Design in Networked Sensor Systems: A Case Study"* (2005).
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]
// The workspace's library panic policy (`[workspace.lints]` in Cargo.toml),
// as crate attributes: opting the package in would also hold its
// examples, which print, to the library print ban.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub use nss_analysis as analysis;
pub use nss_core as core;
pub use nss_model as model;
pub use nss_obs as obs;
pub use nss_plot as plot;
pub use nss_sim as sim;

/// One-stop prelude for examples and downstream users.
pub mod prelude {
    pub use nss_analysis::prelude::*;
    pub use nss_core::prelude::*;
    pub use nss_model::prelude::*;
    pub use nss_sim::prelude::*;
}
