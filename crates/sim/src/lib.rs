//! # nss-sim — packet-level simulator for CFM/CAM networks
//!
//! The GloMoSim substitute: a from-scratch wireless-network simulator
//! implementing exactly the paper's link-layer semantics.
//!
//! * [`medium`] — per-slot arbitration under CFM (reliable) or CAM
//!   (Assumption 6 collisions; optional Appendix-A carrier sensing).
//! * [`slotted`] — the one slot-synchronous PB_CAM phase loop, running
//!   probability-based gossip (PB_CAM, simple flooding, CFM gossip), the
//!   suppression schemes and the per-node [`probe`].
//! * [`sharded`] — the sharded engine's stateless coins and atomic slot
//!   arbiter, which run that loop on many threads with a thread-count
//!   invariant trace.
//! * [`protocols`] — richer protocol variants: ACK-based reliable flooding
//!   (the naive CFM implementation of §3.2.1) and the counter-based scheme
//!   (Williams et al., the paper's future-work family).
//! * [`engine`] — a generic discrete-event core for asynchronous (non
//!   phase-aligned) executions.
//! * [`executor`] — the unified [`Executor`] builder that selects the
//!   engine, medium backend, fault plan, and probability axis for a run.
//! * [`trace`] / [`runner`] / [`stats`] — execution records, seeded
//!   parallel replication, and the 30-run aggregation the paper reports.
//!
//! ```
//! use nss_sim::prelude::*;
//! use nss_model::prelude::*;
//!
//! let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(1));
//! let trace = Executor::new(&topo)
//!     .gossip(GossipConfig::pb_cam(0.2))
//!     .run(7);
//! assert!(trace.final_reachability() > 0.2);
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod engine;
pub mod events;
pub mod exact;
pub mod executor;
pub mod faults;
pub mod medium;
pub mod probe;
pub mod protocols;
pub mod runner;
pub mod sharded;
pub mod slotted;
pub mod stats;
pub mod tdma;
pub mod trace;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::bits::{AtomicBitSet, BitSet};
    pub use crate::events::{run_event_delivery, EventDeliveryReport};
    pub use crate::exact::{exact_expected_informed, exact_expected_reachability};
    pub use crate::executor::Executor;
    pub use crate::faults::{FaultState, SlotFaults};
    pub use crate::medium::{Medium, MediumScratch};
    pub use crate::probe::probe_per_node_success;
    pub use crate::runner::{ReplicatedTraces, Replication};
    pub use crate::slotted::GossipConfig;
    pub use crate::stats::Summary;
    pub use crate::tdma::{TdmaOutcome, TdmaSchedule};
    pub use crate::trace::{SimTrace, NEVER};
}

pub use prelude::*;
