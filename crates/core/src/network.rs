//! The abstract network model of Fig. 1: deployment + communication
//! model + primitives + cost functions, bundled as the single object that
//! algorithm design is performed against.

use nss_model::comm::{CommunicationModel, CostParams, Primitive};
use nss_model::deployment::Deployment;
use nss_model::error::ConfigError;

/// The abstract network model an algorithm is designed and optimized
/// against (the middle layer of the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Network deployment (the paper's circle of radius `P·r`, density δ).
    pub deployment: Deployment,
    /// Link-wise communication model (CFM or CAM).
    pub comm: CommunicationModel,
    /// Jitter slots per phase available to algorithms (`s`).
    pub slots: u32,
    /// Per-packet time/energy cost parameters.
    pub costs: CostParams,
}

impl NetworkModel {
    /// The paper's case-study model: disk deployment with `P = 5`, CAM,
    /// `s = 3`, unit costs.
    pub fn paper(rho: f64) -> Self {
        NetworkModel {
            deployment: Deployment::disk(5, 1.0, rho),
            comm: CommunicationModel::CAM,
            slots: 3,
            costs: CostParams::UNIT,
        }
    }

    /// The primitives this model exposes to algorithms (§3.2: broadcast
    /// and unicast at the link layer).
    pub fn primitives(&self) -> &'static [Primitive] {
        &[Primitive::Broadcast, Primitive::Unicast]
    }

    /// Density ρ when the deployment is the paper's disk; `None` for
    /// layouts without a meaningful uniform density (grids, clusters).
    pub fn rho(&self) -> Option<f64> {
        match self.deployment {
            Deployment::Disk(d) => Some(d.rho()),
            Deployment::Grid(_) | Deployment::Cluster(_) => None,
        }
    }

    /// Validates the model's internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.costs.validate()?;
        if self.slots < 1 {
            return Err(ConfigError::TooSmall {
                field: "slots",
                min: 1,
                value: u64::from(self.slots),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_shape() {
        let m = NetworkModel::paper(60.0);
        assert!(m.validate().is_ok());
        assert!((m.rho().unwrap() - 60.0).abs() < 1e-9);
        assert_eq!(m.slots, 3);
        assert!(m.comm.collisions_possible());
        assert_eq!(m.primitives().len(), 2);
    }

    #[test]
    fn grid_model_has_no_rho() {
        let m = NetworkModel {
            deployment: Deployment::Grid(nss_model::deployment::GridDeployment::new(10, 1.0, 1.2)),
            ..NetworkModel::paper(1.0)
        };
        assert!(m.rho().is_none());
    }

    #[test]
    fn invalid_costs_rejected() {
        let mut m = NetworkModel::paper(20.0);
        m.costs.t_a = 5.0; // violates t_a ≤ t_f
        assert!(m.validate().is_err());
        let mut m = NetworkModel::paper(20.0);
        m.slots = 0;
        assert!(m.validate().is_err());
    }
}
