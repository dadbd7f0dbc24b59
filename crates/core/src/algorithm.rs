//! Algorithm specification with tunable parameters (Fig. 1's "algorithm
//! specification" box).
//!
//! The paper's methodology separates *what* the algorithm does (its
//! specification against the network model's primitives) from *how its
//! parameters are set* (design-time optimization against cost functions).
//! This module captures that separation for the broadcasting family: a
//! [`BroadcastAlgorithm`] names the scheme and its tunable parameter, and
//! [`BroadcastAlgorithm::instantiate`] lowers it onto the simulator.

use nss_model::comm::{CommunicationModel, MediumBackend};
use nss_model::error::ConfigError;
use nss_sim::slotted::GossipConfig;
use serde::{Deserialize, Serialize};

/// The broadcasting schemes studied by the paper (§4) and its cited
/// taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BroadcastAlgorithm {
    /// Simple flooding: every informed node rebroadcasts exactly once.
    SimpleFlooding,
    /// Probability-based broadcasting with tunable probability `p`.
    ProbabilityBased {
        /// The broadcast probability — the design parameter the paper's
        /// case study optimizes.
        prob: f64,
    },
    /// Counter-based suppression with threshold `C` (future-work family).
    CounterBased {
        /// Duplicate-count threshold.
        threshold: u32,
    },
}

impl BroadcastAlgorithm {
    /// The tunable parameter's value, if the scheme has one.
    pub fn parameter(&self) -> Option<f64> {
        match *self {
            BroadcastAlgorithm::SimpleFlooding => None,
            BroadcastAlgorithm::ProbabilityBased { prob } => Some(prob),
            BroadcastAlgorithm::CounterBased { threshold } => Some(f64::from(threshold)),
        }
    }

    /// Validates the parameterization.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            BroadcastAlgorithm::ProbabilityBased { prob } => {
                if !(0.0..=1.0).contains(&prob) {
                    return Err(ConfigError::OutOfUnitRange {
                        field: "broadcast probability",
                        value: prob,
                    });
                }
            }
            BroadcastAlgorithm::CounterBased { threshold } => {
                if threshold == 0 {
                    return Err(ConfigError::TooSmall {
                        field: "counter threshold",
                        min: 1,
                        value: u64::from(threshold),
                    });
                }
            }
            BroadcastAlgorithm::SimpleFlooding => {}
        }
        Ok(())
    }

    /// Lowers the specification onto the slotted simulator for gossip-style
    /// schemes. Counter-based uses its own executor
    /// ([`nss_sim::protocols::counter`]), so it returns `None` here.
    pub fn instantiate(&self, model: CommunicationModel, s: u32) -> Option<GossipConfig> {
        match *self {
            BroadcastAlgorithm::SimpleFlooding => Some(GossipConfig {
                s,
                prob: 1.0,
                model,
                max_phases: 10_000,
                track_success_rate: false,
                backend: MediumBackend::UnitDisk,
            }),
            BroadcastAlgorithm::ProbabilityBased { prob } => Some(GossipConfig {
                s,
                prob,
                model,
                max_phases: 10_000,
                track_success_rate: false,
                backend: MediumBackend::UnitDisk,
            }),
            BroadcastAlgorithm::CounterBased { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters() {
        assert_eq!(BroadcastAlgorithm::SimpleFlooding.parameter(), None);
        assert_eq!(
            BroadcastAlgorithm::ProbabilityBased { prob: 0.3 }.parameter(),
            Some(0.3)
        );
        assert_eq!(
            BroadcastAlgorithm::CounterBased { threshold: 4 }.parameter(),
            Some(4.0)
        );
    }

    #[test]
    fn validation() {
        assert!(BroadcastAlgorithm::SimpleFlooding.validate().is_ok());
        assert!(BroadcastAlgorithm::ProbabilityBased { prob: 0.5 }
            .validate()
            .is_ok());
        assert!(BroadcastAlgorithm::ProbabilityBased { prob: 1.5 }
            .validate()
            .is_err());
        assert!(BroadcastAlgorithm::CounterBased { threshold: 0 }
            .validate()
            .is_err());
    }

    #[test]
    fn instantiation() {
        let cam = CommunicationModel::CAM;
        let cfg = BroadcastAlgorithm::SimpleFlooding
            .instantiate(cam, 3)
            .unwrap();
        assert_eq!(cfg.prob, 1.0);
        let cfg = BroadcastAlgorithm::ProbabilityBased { prob: 0.2 }
            .instantiate(cam, 4)
            .unwrap();
        assert_eq!(cfg.prob, 0.2);
        assert_eq!(cfg.s, 4);
        assert!(BroadcastAlgorithm::CounterBased { threshold: 3 }
            .instantiate(cam, 3)
            .is_none());
    }
}
