//! Link-wise communication models: CFM and CAM (§3.2 of the paper).
//!
//! * **CFM (Collision Free Model)** — every packet transmission is an atomic
//!   operation guaranteed to succeed, with time cost `t_f` and energy cost
//!   `e_f` charged to the sender and to each receiver.
//! * **CAM (Collision Aware Model)** — transmissions are not guaranteed:
//!   when a node is the target of concurrent transmissions from multiple
//!   neighbors, *none* of them succeeds (Assumption 6). Time/energy costs
//!   are `t_a ≤ t_f`, `e_a ≤ e_f`.
//!
//! The collision scope is configurable: the base model collides concurrent
//! transmissions within the *transmission range* `r`; the Appendix-A variant
//! additionally treats any concurrent transmission within the *carrier-sense
//! range* (typically `2r`) as destructive interference.

use crate::error::ConfigError;

/// Which concurrent transmissions destroy a reception (CAM only).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CollisionRule {
    /// A reception at `v` succeeds iff exactly one node within distance `r`
    /// of `v` transmits during the reception (the paper's Assumption 6).
    #[default]
    TransmissionRange,
    /// Additionally, any concurrent transmitter within `factor · r` of `v`
    /// (but beyond `r`) destroys the reception (Appendix A; the paper uses
    /// `factor = 2`).
    CarrierSense {
        /// Carrier-sense range as a multiple of the transmission range.
        factor: f64,
    },
}

impl CollisionRule {
    /// The paper's Appendix-A default: carrier-sense range `2r`.
    pub const CARRIER_SENSE_2R: CollisionRule = CollisionRule::CarrierSense { factor: 2.0 };

    /// The interference radius (in units of `r`) within which a concurrent
    /// transmitter invalidates a reception.
    pub fn interference_factor(&self) -> f64 {
        match self {
            CollisionRule::TransmissionRange => 1.0,
            CollisionRule::CarrierSense { factor } => *factor,
        }
    }
}

/// Per-packet time and energy costs (Assumption 1: identical for sending
/// and receiving a unit-size packet).
///
/// Kept symbolic: the paper's evaluation reports latency in *time phases*
/// and energy as *broadcast count*, so these enter only when converting to
/// physical units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Time cost of a guaranteed (CFM) transmission, `t_f`.
    pub t_f: f64,
    /// Energy cost of a guaranteed (CFM) transmission, `e_f`.
    pub e_f: f64,
    /// Time cost of a best-effort (CAM) transmission, `t_a ≤ t_f`.
    pub t_a: f64,
    /// Energy cost of a best-effort (CAM) transmission, `e_a ≤ e_f`.
    pub e_a: f64,
}

impl CostParams {
    /// Unit costs: one abstract time unit and energy unit per packet in both
    /// models. The paper's evaluation is insensitive to these values.
    pub const UNIT: CostParams = CostParams {
        t_f: 1.0,
        e_f: 1.0,
        t_a: 1.0,
        e_a: 1.0,
    };

    /// Validates the model constraint `t_a ≤ t_f ∧ e_a ≤ e_f` and positivity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("t_f", self.t_f),
            ("e_f", self.e_f),
            ("t_a", self.t_a),
            ("e_a", self.e_a),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(ConfigError::NotPositive { field, value });
            }
        }
        if self.t_a > self.t_f {
            return Err(ConfigError::Exceeds {
                field: "t_a",
                bound: "t_f",
                value: self.t_a,
                limit: self.t_f,
            });
        }
        if self.e_a > self.e_f {
            return Err(ConfigError::Exceeds {
                field: "e_a",
                bound: "e_f",
                value: self.e_a,
                limit: self.e_f,
            });
        }
        Ok(())
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::UNIT
    }
}

/// The link-wise communication model an algorithm is designed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommunicationModel {
    /// Collision Free Model: transmissions are atomic and always succeed.
    Cfm,
    /// Collision Aware Model with the given collision scope.
    Cam(CollisionRule),
}

impl CommunicationModel {
    /// The paper's default CAM (transmission-range collisions).
    pub const CAM: CommunicationModel = CommunicationModel::Cam(CollisionRule::TransmissionRange);

    /// Whether concurrent transmissions can destroy receptions.
    pub fn collisions_possible(&self) -> bool {
        matches!(self, CommunicationModel::Cam(_))
    }

    /// Per-packet time cost under this model.
    pub fn time_cost(&self, costs: &CostParams) -> f64 {
        match self {
            CommunicationModel::Cfm => costs.t_f,
            CommunicationModel::Cam(_) => costs.t_a,
        }
    }

    /// Per-packet energy cost under this model.
    pub fn energy_cost(&self, costs: &CostParams) -> f64 {
        match self {
            CommunicationModel::Cfm => costs.e_f,
            CommunicationModel::Cam(_) => costs.e_a,
        }
    }
}

/// Parameters of the SINR (physical / signal-to-interference-plus-noise)
/// reception model from *Towards Tight Bounds for Local Broadcasting*.
///
/// Powers are **normalized**: a transmitter at distance `d ≤ r` from a
/// receiver arrives with power `(r²/d²)^(α/2)`, so the weakest in-range
/// link (at `d = r`) has power exactly 1 and `noise` is expressed in the
/// same units. A packet from the strongest in-range transmitter decodes
/// iff
///
/// ```text
///   signal / (noise + Σ interference) ≥ β
/// ```
///
/// where the interference sum ranges over every *other* concurrent
/// transmitter within `interference_factor · r` of the receiver (the
/// truncation the spatial grid makes cheap; contributions beyond it are
/// below `interference_factor^-α` per transmitter and are dropped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinrParams {
    /// Path-loss exponent `α` (free space ≈ 2, urban 3–4). Must be > 0.
    pub alpha: f64,
    /// Decode threshold `β` ≥ 0. `β ≥ 1` forbids capture-free ties;
    /// `β → 0` accepts any nonzero-SINR reception.
    pub beta: f64,
    /// Ambient noise floor in normalized power units (≥ 0; 0 = the
    /// interference-limited regime).
    pub noise: f64,
    /// Interference truncation radius as a multiple of the transmission
    /// range `r` (≥ 1).
    pub interference_factor: f64,
}

impl SinrParams {
    /// A conventional default: `α = 3`, `β = 1`, no noise, interference
    /// truncated at `3r`.
    pub const DEFAULT: SinrParams = SinrParams {
        alpha: 3.0,
        beta: 1.0,
        noise: 0.0,
        interference_factor: 3.0,
    };

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err(ConfigError::NotPositive {
                field: "sinr.alpha",
                value: self.alpha,
            });
        }
        for (field, value) in [("sinr.beta", self.beta), ("sinr.noise", self.noise)] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(ConfigError::NotPositive { field, value });
            }
        }
        if !(self.interference_factor >= 1.0 && self.interference_factor.is_finite()) {
            return Err(ConfigError::TooSmall {
                field: "sinr.interference_factor",
                min: 1,
                value: self.interference_factor as u64,
            });
        }
        Ok(())
    }
}

impl Default for SinrParams {
    fn default() -> Self {
        SinrParams::DEFAULT
    }
}

/// Which physical-layer arbitration backend resolves concurrent CAM
/// transmissions.
///
/// The backend refines *how* Assumption 6's "concurrent transmissions
/// interfere" is decided; CFM is reliable by definition and ignores it.
/// [`MediumBackend::UnitDisk`] (the default) is the paper's boolean
/// unit-disk rule and is guaranteed byte-identical to the pre-backend
/// code path; [`MediumBackend::Sinr`] replaces the boolean rule with
/// received-power sums (and in particular models the *capture effect*:
/// the strongest of several colliding transmitters may still decode).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MediumBackend {
    /// Boolean unit-disk interference (Assumption 6 / Appendix A).
    #[default]
    UnitDisk,
    /// SINR reception with the given parameters.
    Sinr(SinrParams),
}

impl MediumBackend {
    /// Validates backend parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            MediumBackend::UnitDisk => Ok(()),
            MediumBackend::Sinr(p) => p.validate(),
        }
    }

    /// Serializes to the compact spec accepted by
    /// [`MediumBackend::parse_spec`] (and the `repro --medium` flag).
    pub fn to_spec(&self) -> String {
        match self {
            MediumBackend::UnitDisk => "unit-disk".to_string(),
            MediumBackend::Sinr(p) => format!(
                "sinr:alpha={},beta={},noise={},kappa={}",
                p.alpha, p.beta, p.noise, p.interference_factor
            ),
        }
    }

    /// Parses the compact spec format:
    ///
    /// * `unit-disk` — the default boolean backend
    /// * `sinr` — SINR with [`SinrParams::DEFAULT`]
    /// * `sinr:alpha=A,beta=B,noise=N,kappa=K` — SINR with overrides
    ///   (each key optional, in any order)
    ///
    /// ```
    /// use nss_model::comm::{MediumBackend, SinrParams};
    ///
    /// assert_eq!(
    ///     MediumBackend::parse_spec("unit-disk").unwrap(),
    ///     MediumBackend::UnitDisk
    /// );
    /// let b = MediumBackend::parse_spec("sinr:alpha=4,beta=0.5").unwrap();
    /// assert_eq!(
    ///     b,
    ///     MediumBackend::Sinr(SinrParams { alpha: 4.0, beta: 0.5, ..SinrParams::DEFAULT })
    /// );
    /// assert_eq!(MediumBackend::parse_spec(&b.to_spec()).unwrap(), b);
    /// assert!(MediumBackend::parse_spec("sinr:alpha=-1").is_err());
    /// ```
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "unit-disk" {
            return Ok(MediumBackend::UnitDisk);
        }
        let rest = spec
            .strip_prefix("sinr")
            .ok_or_else(|| format!("unknown medium backend `{spec}` (unit-disk | sinr[:...])"))?;
        let mut p = SinrParams::DEFAULT;
        if let Some(kvs) = rest.strip_prefix(':') {
            for part in kvs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let (key, value) = part
                    .split_once('=')
                    .ok_or_else(|| format!("medium spec item `{part}` is not key=value"))?;
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad medium value `{value}` for `{key}`"))?;
                match key {
                    "alpha" => p.alpha = v,
                    "beta" => p.beta = v,
                    "noise" => p.noise = v,
                    "kappa" => p.interference_factor = v,
                    other => return Err(format!("unknown medium spec key `{other}`")),
                }
            }
        } else if !rest.is_empty() {
            return Err(format!("unknown medium backend `{spec}`"));
        }
        let backend = MediumBackend::Sinr(p);
        backend.validate().map_err(|e| e.to_string())?;
        Ok(backend)
    }
}

/// The communication primitives the link-layer models expose (§3.2).
///
/// Both primitives obey the same collision semantics; they differ only in
/// intended recipients. Algorithm-level code declares which primitive it
/// uses so cost accounting can distinguish them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// One-to-all-neighbors transmission.
    Broadcast,
    /// One-to-one transmission (still overheard/collided per the model).
    Unicast,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_factors() {
        assert_eq!(CollisionRule::TransmissionRange.interference_factor(), 1.0);
        assert_eq!(CollisionRule::CARRIER_SENSE_2R.interference_factor(), 2.0);
        assert_eq!(
            CollisionRule::CarrierSense { factor: 3.5 }.interference_factor(),
            3.5
        );
    }

    #[test]
    fn cost_validation() {
        assert!(CostParams::UNIT.validate().is_ok());
        let bad = CostParams {
            t_f: 1.0,
            e_f: 1.0,
            t_a: 2.0,
            e_a: 1.0,
        };
        assert!(bad.validate().is_err());
        let bad = CostParams {
            t_f: 1.0,
            e_f: 0.5,
            t_a: 1.0,
            e_a: 0.9,
        };
        assert!(bad.validate().is_err());
        let bad = CostParams {
            t_f: 0.0,
            e_f: 1.0,
            t_a: 0.0,
            e_a: 1.0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn model_costs_select_correct_params() {
        let costs = CostParams {
            t_f: 2.0,
            e_f: 3.0,
            t_a: 1.0,
            e_a: 1.5,
        };
        assert_eq!(CommunicationModel::Cfm.time_cost(&costs), 2.0);
        assert_eq!(CommunicationModel::Cfm.energy_cost(&costs), 3.0);
        assert_eq!(CommunicationModel::CAM.time_cost(&costs), 1.0);
        assert_eq!(CommunicationModel::CAM.energy_cost(&costs), 1.5);
    }

    #[test]
    fn sinr_validation() {
        assert!(SinrParams::DEFAULT.validate().is_ok());
        assert!(MediumBackend::UnitDisk.validate().is_ok());
        let mut p = SinrParams::DEFAULT;
        p.alpha = 0.0;
        assert!(p.validate().is_err());
        let mut p = SinrParams::DEFAULT;
        p.beta = -0.5;
        assert!(p.validate().is_err());
        let mut p = SinrParams::DEFAULT;
        p.noise = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = SinrParams::DEFAULT;
        p.interference_factor = 0.5;
        assert!(MediumBackend::Sinr(p).validate().is_err());
    }

    #[test]
    fn medium_spec_roundtrip() {
        // No serializer is in the tree, so the durable wire format is the
        // spec string; round-trip both variants through it.
        for backend in [
            MediumBackend::UnitDisk,
            MediumBackend::Sinr(SinrParams::DEFAULT),
            MediumBackend::Sinr(SinrParams {
                alpha: 2.5,
                beta: 0.25,
                noise: 0.01,
                interference_factor: 4.0,
            }),
        ] {
            let spec = backend.to_spec();
            assert_eq!(MediumBackend::parse_spec(&spec).unwrap(), backend, "{spec}");
        }
        // Defaults and shorthand.
        assert_eq!(
            MediumBackend::parse_spec("").unwrap(),
            MediumBackend::UnitDisk
        );
        assert_eq!(
            MediumBackend::parse_spec("sinr").unwrap(),
            MediumBackend::Sinr(SinrParams::DEFAULT)
        );
        assert_eq!(MediumBackend::default(), MediumBackend::UnitDisk);
    }

    #[test]
    fn medium_spec_errors() {
        assert!(MediumBackend::parse_spec("laser").is_err());
        assert!(MediumBackend::parse_spec("sinrx").is_err());
        assert!(MediumBackend::parse_spec("sinr:alpha").is_err());
        assert!(MediumBackend::parse_spec("sinr:alpha=x").is_err());
        assert!(MediumBackend::parse_spec("sinr:wat=1").is_err());
        assert!(MediumBackend::parse_spec("sinr:beta=-1").is_err()); // fails validate
    }

    #[test]
    fn collision_possibility() {
        assert!(!CommunicationModel::Cfm.collisions_possible());
        assert!(CommunicationModel::CAM.collisions_possible());
        assert!(CommunicationModel::Cam(CollisionRule::CARRIER_SENSE_2R).collisions_possible());
    }
}
