//! Deterministic fault injection: what can go wrong, specified up front.
//!
//! The paper's Assumption 5 fixes a stable network snapshot — every node
//! alive, every collision-free in-range transmission delivered. A
//! [`FaultPlan`] relaxes that assumption along the axes practitioners ask
//! about (node death, sleep schedules, lossy links, energy exhaustion)
//! while preserving the repository's reproducibility contract: every
//! random fault decision is derived from the dedicated
//! [`Stream::Faults`](crate::rng::Stream::Faults) seed by **stateless
//! hashing**, so executions are bit-identical regardless of thread
//! scheduling, and an empty plan provably draws no randomness at all.
//!
//! The plan is a pure description; the simulator (`nss-sim::faults`)
//! interprets it per phase, and the analytical model mirrors its
//! expectation through `link_q` / `alive_frac` (see `nss-analysis`).

use crate::error::ConfigError;
use crate::rng::splitmix64;
use serde::{Deserialize, Serialize};

/// A scheduled outage window for one node: the node is down from
/// `from_phase` (inclusive) until `until_phase` (exclusive), or forever if
/// `until_phase` is `None`. Phases are 1-based, matching the executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeOutage {
    /// Node index (0 is the source; scheduling an outage for it is legal
    /// but executors keep the source alive — a dead source is degenerate).
    pub node: u32,
    /// First phase of the outage (1-based, inclusive).
    pub from_phase: u32,
    /// First phase after recovery (exclusive); `None` = never recovers.
    pub until_phase: Option<u32>,
}

impl NodeOutage {
    /// A permanent crash starting at `from_phase`.
    pub fn crash(node: u32, from_phase: u32) -> Self {
        NodeOutage {
            node,
            from_phase,
            until_phase: None,
        }
    }

    /// True when the outage covers `phase`.
    pub fn covers(&self, phase: u32) -> bool {
        phase >= self.from_phase && self.until_phase.is_none_or(|u| phase < u)
    }
}

/// A periodic sleep schedule applied to every non-source node: a node is
/// awake for the first `on_phases` of every `period` phases. Nodes are
/// staggered deterministically by their index so the whole network never
/// sleeps in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DutyCycle {
    /// Cycle length in phases (≥ 1).
    pub period: u32,
    /// Awake phases per cycle (1 ..= period).
    pub on_phases: u32,
}

impl DutyCycle {
    /// True when node `node` is awake during `phase` (1-based).
    pub fn awake(&self, node: u32, phase: u32) -> bool {
        if self.on_phases >= self.period {
            return true;
        }
        // Stagger by node index so neighborhoods stay partially covered.
        let shifted = phase.wrapping_add(node) % self.period;
        shifted < self.on_phases
    }
}

/// Run-level hardware capability of one node, sampled per node from the
/// faults stream (see [`FaultPlan::capability_of`]).
///
/// Generalizes dead-receiver thinning to the heterogeneous deployments of
/// *On Performance of Event-to-Sink Transport in Transmit-Only Sensor
/// Networks*: a transmit-only node has no receiver chain — it can source
/// and send packets but never hears, so it is unreachable by broadcast
/// and never relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Capability {
    /// Full transceiver: transmits and receives.
    #[default]
    Normal,
    /// Transmitter only: sources/sends packets but never receives.
    TransmitOnly,
    /// Dead for the whole run: neither transmits nor receives.
    Dead,
}

impl Capability {
    /// Whether this class can receive packets.
    pub fn can_receive(&self) -> bool {
        matches!(self, Capability::Normal)
    }

    /// Whether this class can transmit packets.
    pub fn can_transmit(&self) -> bool {
        !matches!(self, Capability::Dead)
    }
}

/// A complete fault scenario for one execution.
///
/// The default ([`FaultPlan::none`]) injects nothing and is guaranteed to
/// leave every executor's output bit-identical to the fault-free code path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Explicit per-node outage windows.
    pub outages: Vec<NodeOutage>,
    /// Optional periodic sleep schedule for all non-source nodes.
    pub duty_cycle: Option<DutyCycle>,
    /// Independent per-(link, slot) packet-loss probability in `[0, 1]`,
    /// applied to otherwise-clean deliveries (lost packets still occupied
    /// the channel, so they collide like any other transmission).
    pub link_loss: f64,
    /// Probability that a non-source node is dead for the entire run
    /// (sampled per node from the faults stream); the
    /// [`Capability::Dead`] class fraction.
    pub dead_frac: f64,
    /// Optional per-node broadcast quota: a node that has transmitted this
    /// many times runs out of energy and dies (stops relaying *and*
    /// receiving).
    pub energy_budget: Option<u32>,
    /// Probability that a non-source node is transmit-only for the entire
    /// run (the [`Capability::TransmitOnly`] class fraction). Sampled from
    /// the *same* per-node draw as `dead_frac`, so adding transmit-only
    /// nodes to a plan never changes *which* nodes the dead fraction
    /// kills. `dead_frac + tx_only_frac` must stay ≤ 1.
    #[serde(default)]
    pub tx_only_frac: f64,
}

impl FaultPlan {
    /// The empty plan: no faults, no randomness consumed.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan that only drops links, each delivery independently with
    /// probability `loss`.
    pub fn lossy(loss: f64) -> Self {
        FaultPlan {
            link_loss: loss,
            ..FaultPlan::default()
        }
    }

    /// A plan that kills each non-source node for the whole run with
    /// probability `frac`.
    pub fn thinned(frac: f64) -> Self {
        FaultPlan {
            dead_frac: frac,
            ..FaultPlan::default()
        }
    }

    /// A plan that assigns each non-source node to capability `class` with
    /// probability `frac` (the remainder stay [`Capability::Normal`]).
    ///
    /// `capability(Capability::Dead, f)` is exactly [`FaultPlan::thinned`];
    /// `capability(Capability::Normal, _)` is the empty plan.
    pub fn capability(class: Capability, frac: f64) -> Self {
        match class {
            Capability::Normal => FaultPlan::none(),
            Capability::TransmitOnly => FaultPlan {
                tx_only_frac: frac,
                ..FaultPlan::default()
            },
            Capability::Dead => FaultPlan::thinned(frac),
        }
    }

    /// A plan that makes each non-source node transmit-only for the whole
    /// run with probability `frac`.
    pub fn transmit_only(frac: f64) -> Self {
        FaultPlan::capability(Capability::TransmitOnly, frac)
    }

    /// A plan of permanent crashes under a per-phase death hazard `q`:
    /// each non-source node independently crashes at the start of phase
    /// `T ~ Geometric(q)`, so `P(T ≤ k) = 1 − (1 − q)^k` — the node is
    /// dead in phase `k` with the probability it would have by then under
    /// an independent coin per phase. `T` is an inverse-CDF draw from a
    /// stateless hash of `(faults_seed, node)`, so the plan is a pure
    /// function of its arguments. `q = 0` gives the empty plan; crash
    /// phases beyond `u32::MAX` are omitted (the node never crashes).
    ///
    /// ```
    /// use nss_model::faults::FaultPlan;
    ///
    /// let plan = FaultPlan::per_phase_crashes(100, 1.0, 7).unwrap();
    /// assert_eq!(plan.outages.len(), 99); // every non-source node, phase 1
    /// assert!(plan.outages.iter().all(|o| o.node != 0 && o.from_phase == 1));
    /// assert!(FaultPlan::per_phase_crashes(100, 0.0, 7).unwrap().is_empty());
    /// assert!(FaultPlan::per_phase_crashes(100, 1.5, 7).is_err());
    /// ```
    pub fn per_phase_crashes(n: usize, q: f64, faults_seed: u64) -> Result<Self, ConfigError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(ConfigError::OutOfUnitRange {
                field: "per-phase crash probability",
                value: q,
            });
        }
        let mut plan = FaultPlan::none();
        if q == 0.0 {
            return Ok(plan);
        }
        // ln(1 − q); −∞ at q = 1, which puts every crash at phase 1.
        let log_survive = (-q).ln_1p();
        // Node ids are `u32`; a field can never hold more nodes than that.
        for node in (1..n).map_while(|u| u32::try_from(u).ok()) {
            let u = hash_unit(faults_seed ^ CRASH_SALT, u64::from(node));
            let phase = ((-u).ln_1p() / log_survive).floor() + 1.0;
            if phase <= f64::from(u32::MAX) {
                plan.outages.push(NodeOutage::crash(node, phase as u32));
            }
        }
        Ok(plan)
    }

    /// True when the plan injects nothing; executors take the exact
    /// fault-free code path in that case.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.duty_cycle.is_none()
            && self.link_loss == 0.0
            && self.dead_frac == 0.0
            && self.energy_budget.is_none()
            && self.tx_only_frac == 0.0
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.link_loss) {
            return Err(ConfigError::OutOfUnitRange {
                field: "link_loss",
                value: self.link_loss,
            });
        }
        if !(0.0..=1.0).contains(&self.dead_frac) {
            return Err(ConfigError::OutOfUnitRange {
                field: "dead_frac",
                value: self.dead_frac,
            });
        }
        if !(0.0..=1.0).contains(&self.tx_only_frac) {
            return Err(ConfigError::OutOfUnitRange {
                field: "tx_only_frac",
                value: self.tx_only_frac,
            });
        }
        if self.dead_frac + self.tx_only_frac > 1.0 {
            return Err(ConfigError::Exceeds {
                field: "dead_frac + tx_only_frac",
                bound: "1",
                value: self.dead_frac + self.tx_only_frac,
                limit: 1.0,
            });
        }
        if let Some(d) = self.duty_cycle {
            if d.period < 1 {
                return Err(ConfigError::TooSmall {
                    field: "duty_cycle.period",
                    min: 1,
                    value: u64::from(d.period),
                });
            }
            if d.on_phases < 1 {
                return Err(ConfigError::TooSmall {
                    field: "duty_cycle.on_phases",
                    min: 1,
                    value: u64::from(d.on_phases),
                });
            }
            if d.on_phases > d.period {
                return Err(ConfigError::Exceeds {
                    field: "duty_cycle.on_phases",
                    bound: "duty_cycle.period",
                    value: f64::from(d.on_phases),
                    limit: f64::from(d.period),
                });
            }
        }
        if let Some(b) = self.energy_budget {
            if b < 1 {
                return Err(ConfigError::TooSmall {
                    field: "energy_budget",
                    min: 1,
                    value: u64::from(b),
                });
            }
        }
        for (i, o) in self.outages.iter().enumerate() {
            if o.from_phase < 1 {
                return Err(ConfigError::Inconsistent {
                    what: "outage from_phase must be ≥ 1, outage",
                    at: Some(i),
                });
            }
            if let Some(u) = o.until_phase {
                if u <= o.from_phase {
                    return Err(ConfigError::Inconsistent {
                        what: "outage until_phase must exceed from_phase, outage",
                        at: Some(i),
                    });
                }
            }
        }
        Ok(())
    }

    /// True when node `node` is scheduled awake in `phase` (1-based) by the
    /// deterministic (non-random, non-stateful) parts of the plan: outages
    /// and duty cycling. The source (node 0) is always awake.
    pub fn scheduled_awake(&self, node: u32, phase: u32) -> bool {
        if node == 0 {
            return true;
        }
        if self
            .outages
            .iter()
            .any(|o| o.node == node && o.covers(phase))
        {
            return false;
        }
        if let Some(d) = self.duty_cycle {
            if !d.awake(node, phase) {
                return false;
            }
        }
        true
    }

    /// True when node `node` survives the run-level `dead_frac` thinning
    /// under `faults_seed`. Stateless: a pure hash of `(seed, node)`, so
    /// any thread can evaluate it in any order. The source always survives.
    pub fn survives_thinning(&self, node: u32, faults_seed: u64) -> bool {
        if node == 0 || self.dead_frac <= 0.0 {
            return true;
        }
        if self.dead_frac >= 1.0 {
            return false;
        }
        hash_unit(faults_seed ^ 0xD1E5_F00D, u64::from(node)) >= self.dead_frac
    }

    /// The run-level [`Capability`] class of node `node` under `faults_seed`.
    ///
    /// Stateless, like [`FaultPlan::survives_thinning`], and built on the
    /// *same* per-node draw: the unit interval is partitioned as
    /// `[0, dead_frac)` → [`Capability::Dead`],
    /// `[dead_frac, dead_frac + tx_only_frac)` → [`Capability::TransmitOnly`],
    /// rest → [`Capability::Normal`]. So for every node and seed,
    /// `survives_thinning(n, s) == (capability_of(n, s) != Capability::Dead)`
    /// bit-exactly, and raising `tx_only_frac` never changes which nodes
    /// die. The source (node 0) is always [`Capability::Normal`].
    pub fn capability_of(&self, node: u32, faults_seed: u64) -> Capability {
        if node == 0 {
            return Capability::Normal;
        }
        if self.dead_frac >= 1.0 {
            return Capability::Dead;
        }
        if self.dead_frac <= 0.0 && self.tx_only_frac <= 0.0 {
            return Capability::Normal;
        }
        let u = hash_unit(faults_seed ^ 0xD1E5_F00D, u64::from(node));
        if self.dead_frac > 0.0 && u < self.dead_frac {
            return Capability::Dead;
        }
        if self.tx_only_frac > 0.0 && u < self.dead_frac.max(0.0) + self.tx_only_frac {
            return Capability::TransmitOnly;
        }
        Capability::Normal
    }

    /// Serializes the plan to the compact single-line spec format accepted
    /// by [`FaultPlan::parse_spec`] (and the `repro --faults` flag).
    pub fn to_spec(&self) -> String {
        let mut parts = Vec::new();
        if self.link_loss > 0.0 {
            parts.push(format!("loss={}", self.link_loss));
        }
        if self.dead_frac > 0.0 {
            parts.push(format!("dead={}", self.dead_frac));
        }
        if self.tx_only_frac > 0.0 {
            parts.push(format!("txonly={}", self.tx_only_frac));
        }
        if let Some(d) = self.duty_cycle {
            parts.push(format!("duty={}/{}", d.on_phases, d.period));
        }
        if let Some(b) = self.energy_budget {
            parts.push(format!("budget={b}"));
        }
        for o in &self.outages {
            match o.until_phase {
                Some(u) => parts.push(format!("out={}:{}-{}", o.node, o.from_phase, u)),
                None => parts.push(format!("out={}:{}-", o.node, o.from_phase)),
            }
        }
        parts.join(",")
    }

    /// Parses the compact spec format: comma-separated `key=value` pairs.
    ///
    /// * `loss=F` — per-link loss probability
    /// * `dead=F` — dead-from-start node fraction
    /// * `txonly=F` — transmit-only node fraction
    /// * `duty=ON/PERIOD` — duty cycle
    /// * `budget=N` — per-node broadcast quota
    /// * `out=NODE:FROM-UNTIL` — outage window (`UNTIL` empty = forever)
    ///
    /// An empty string parses to the empty plan. The result is validated.
    ///
    /// ```
    /// use nss_model::faults::FaultPlan;
    ///
    /// let plan = FaultPlan::parse_spec("loss=0.2,dead=0.1,duty=3/5").unwrap();
    /// assert_eq!(plan.link_loss, 0.2);
    /// assert_eq!(plan.dead_frac, 0.1);
    /// assert_eq!(plan.to_spec(), "loss=0.2,dead=0.1,duty=3/5");
    /// assert!(FaultPlan::parse_spec("").unwrap().is_empty());
    /// assert!(FaultPlan::parse_spec("loss=2.0").is_err()); // out of range
    /// ```
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{part}` is not key=value"))?;
            match key {
                "loss" => {
                    plan.link_loss = value
                        .parse()
                        .map_err(|_| format!("bad loss probability `{value}`"))?;
                }
                "dead" => {
                    plan.dead_frac = value
                        .parse()
                        .map_err(|_| format!("bad dead fraction `{value}`"))?;
                }
                "txonly" => {
                    plan.tx_only_frac = value
                        .parse()
                        .map_err(|_| format!("bad transmit-only fraction `{value}`"))?;
                }
                "duty" => {
                    let (on, period) = value
                        .split_once('/')
                        .ok_or_else(|| format!("duty must be ON/PERIOD, got `{value}`"))?;
                    plan.duty_cycle = Some(DutyCycle {
                        on_phases: on.parse().map_err(|_| format!("bad duty `{value}`"))?,
                        period: period.parse().map_err(|_| format!("bad duty `{value}`"))?,
                    });
                }
                "budget" => {
                    plan.energy_budget =
                        Some(value.parse().map_err(|_| format!("bad budget `{value}`"))?);
                }
                "out" => {
                    let (node, window) = value
                        .split_once(':')
                        .ok_or_else(|| format!("out must be NODE:FROM-UNTIL, got `{value}`"))?;
                    let (from, until) = window
                        .split_once('-')
                        .ok_or_else(|| format!("out window must be FROM-UNTIL, got `{value}`"))?;
                    plan.outages.push(NodeOutage {
                        node: node.parse().map_err(|_| format!("bad node `{value}`"))?,
                        from_phase: from.parse().map_err(|_| format!("bad phase `{value}`"))?,
                        until_phase: if until.is_empty() {
                            None
                        } else {
                            Some(until.parse().map_err(|_| format!("bad phase `{value}`"))?)
                        },
                    });
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        plan.validate().map_err(|e| e.to_string())?;
        Ok(plan)
    }
}

/// Salt keying [`FaultPlan::per_phase_crashes`]'s draws apart from the
/// thinning/capability draw (`0xD1E5_F00D`) on the same faults seed.
const CRASH_SALT: u64 = 0xC7A5_4ED0;

/// Stateless uniform draw in `[0, 1)` from `(seed, payload)` via SplitMix64
/// whitening. The top 53 bits give a dyadic rational, so results are exact
/// and platform-independent.
pub fn hash_unit(seed: u64, payload: u64) -> f64 {
    let mut s = seed ^ payload.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let bits = splitmix64(&mut s);
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_detected() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::lossy(0.1).is_empty());
        assert!(!FaultPlan::thinned(0.2).is_empty());
        let mut p = FaultPlan::none();
        p.energy_budget = Some(3);
        assert!(!p.is_empty());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(FaultPlan::lossy(1.5).validate().is_err());
        assert!(FaultPlan::lossy(-0.1).validate().is_err());
        assert!(FaultPlan::thinned(2.0).validate().is_err());
        let mut p = FaultPlan::none();
        p.duty_cycle = Some(DutyCycle {
            period: 2,
            on_phases: 3,
        });
        assert!(matches!(p.validate(), Err(ConfigError::Exceeds { .. })));
        p.duty_cycle = Some(DutyCycle {
            period: 0,
            on_phases: 0,
        });
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.energy_budget = Some(0);
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.outages.push(NodeOutage {
            node: 1,
            from_phase: 3,
            until_phase: Some(2),
        });
        assert!(p.validate().is_err());
        assert!(FaultPlan::lossy(0.3).validate().is_ok());
    }

    #[test]
    fn outage_windows() {
        let o = NodeOutage {
            node: 4,
            from_phase: 2,
            until_phase: Some(5),
        };
        assert!(!o.covers(1));
        assert!(o.covers(2));
        assert!(o.covers(4));
        assert!(!o.covers(5));
        let crash = NodeOutage::crash(4, 3);
        assert!(crash.covers(3));
        assert!(crash.covers(1000));
        assert!(!crash.covers(2));
    }

    #[test]
    fn duty_cycle_staggered() {
        let d = DutyCycle {
            period: 3,
            on_phases: 1,
        };
        // Each node is awake exactly 1 in 3 phases, staggered by index.
        for node in 0..6u32 {
            let awake: Vec<bool> = (1..=6).map(|ph| d.awake(node, ph)).collect();
            assert_eq!(awake.iter().filter(|&&a| a).count(), 2, "node {node}");
        }
        // Full duty: always awake.
        let full = DutyCycle {
            period: 4,
            on_phases: 4,
        };
        assert!((1..=8).all(|ph| full.awake(3, ph)));
    }

    #[test]
    fn scheduled_awake_composes_sources_of_downtime() {
        let mut p = FaultPlan::none();
        p.outages.push(NodeOutage::crash(2, 3));
        assert!(p.scheduled_awake(2, 2));
        assert!(!p.scheduled_awake(2, 3));
        // The source ignores every schedule.
        p.outages.push(NodeOutage::crash(0, 1));
        assert!(p.scheduled_awake(0, 100));
    }

    #[test]
    fn thinning_is_deterministic_and_proportional() {
        let p = FaultPlan::thinned(0.3);
        let seed = 987;
        let dead: Vec<u32> = (1..=5000)
            .filter(|&u| !p.survives_thinning(u, seed))
            .collect();
        // Deterministic (stateless hash).
        let dead2: Vec<u32> = (1..=5000)
            .filter(|&u| !p.survives_thinning(u, seed))
            .collect();
        assert_eq!(dead, dead2);
        // Roughly 30% die.
        let frac = dead.len() as f64 / 5000.0;
        assert!((0.25..=0.35).contains(&frac), "dead fraction {frac}");
        // Different seeds give different victims.
        let other: Vec<u32> = (1..=5000)
            .filter(|&u| !p.survives_thinning(u, seed + 1))
            .collect();
        assert_ne!(dead, other);
        // The source always survives; extreme fractions behave.
        assert!(p.survives_thinning(0, seed));
        assert!(!FaultPlan::thinned(1.0).survives_thinning(7, seed));
        assert!(FaultPlan::thinned(0.0).survives_thinning(7, seed));
    }

    #[test]
    fn spec_roundtrip() {
        // The vendored serde is a marker-only shim, so the durable wire
        // format is the spec string; round-trip every field through it.
        let mut plan = FaultPlan {
            outages: vec![
                NodeOutage {
                    node: 3,
                    from_phase: 2,
                    until_phase: Some(5),
                },
                NodeOutage::crash(9, 4),
            ],
            duty_cycle: Some(DutyCycle {
                period: 5,
                on_phases: 3,
            }),
            link_loss: 0.25,
            dead_frac: 0.1,
            energy_budget: Some(2),
            tx_only_frac: 0.15,
        };
        let spec = plan.to_spec();
        let parsed = FaultPlan::parse_spec(&spec).expect("roundtrip parse");
        assert_eq!(parsed, plan);
        // Empty plan round-trips through the empty string.
        plan = FaultPlan::none();
        assert_eq!(plan.to_spec(), "");
        assert_eq!(FaultPlan::parse_spec("").unwrap(), plan);
    }

    #[test]
    fn spec_parse_errors() {
        assert!(FaultPlan::parse_spec("loss").is_err());
        assert!(FaultPlan::parse_spec("loss=x").is_err());
        assert!(FaultPlan::parse_spec("loss=1.5").is_err()); // fails validate
        assert!(FaultPlan::parse_spec("duty=3").is_err());
        assert!(FaultPlan::parse_spec("out=3").is_err());
        assert!(FaultPlan::parse_spec("wat=1").is_err());
        let p = FaultPlan::parse_spec(" loss=0.2 , dead=0.1 ").unwrap();
        assert_eq!(p.link_loss, 0.2);
        assert_eq!(p.dead_frac, 0.1);
    }

    #[test]
    fn capability_partitions_the_same_draw_as_thinning() {
        let seed = 987;
        let dead_only = FaultPlan::thinned(0.3);
        let mixed = FaultPlan {
            dead_frac: 0.3,
            tx_only_frac: 0.4,
            ..FaultPlan::default()
        };
        for node in 0..5000u32 {
            // Bit-exact agreement between the legacy predicate and the class.
            assert_eq!(
                dead_only.survives_thinning(node, seed),
                dead_only.capability_of(node, seed) != Capability::Dead,
                "node {node}"
            );
            // Adding a transmit-only fraction never changes who dies.
            assert_eq!(
                mixed.capability_of(node, seed) == Capability::Dead,
                dead_only.capability_of(node, seed) == Capability::Dead,
                "node {node}"
            );
        }
        // Class fractions come out roughly proportional.
        let classes: Vec<Capability> = (1..=5000).map(|u| mixed.capability_of(u, seed)).collect();
        let frac = |c: Capability| {
            classes.iter().filter(|&&x| x == c).count() as f64 / classes.len() as f64
        };
        assert!((0.25..=0.35).contains(&frac(Capability::Dead)));
        assert!((0.35..=0.45).contains(&frac(Capability::TransmitOnly)));
        assert!((0.25..=0.35).contains(&frac(Capability::Normal)));
        // The source is always a full transceiver; no draw → all Normal.
        assert_eq!(mixed.capability_of(0, seed), Capability::Normal);
        assert_eq!(
            FaultPlan::none().capability_of(42, seed),
            Capability::Normal
        );
        // Extremes saturate.
        assert_eq!(
            FaultPlan::thinned(1.0).capability_of(7, seed),
            Capability::Dead
        );
        assert_eq!(
            FaultPlan::transmit_only(1.0).capability_of(7, seed),
            Capability::TransmitOnly
        );
    }

    #[test]
    fn capability_constructors_and_predicates() {
        assert!(FaultPlan::capability(Capability::Normal, 0.5).is_empty());
        assert_eq!(
            FaultPlan::capability(Capability::Dead, 0.2),
            FaultPlan::thinned(0.2)
        );
        let tx = FaultPlan::transmit_only(0.3);
        assert!(!tx.is_empty());
        assert_eq!(tx.tx_only_frac, 0.3);
        assert!(tx.validate().is_ok());
        // Fractions must fit in the unit interval together.
        assert!(FaultPlan::transmit_only(1.5).validate().is_err());
        assert!(FaultPlan::transmit_only(-0.1).validate().is_err());
        let mut p = FaultPlan::thinned(0.7);
        p.tx_only_frac = 0.5;
        assert!(matches!(p.validate(), Err(ConfigError::Exceeds { .. })));
        // Class predicates.
        assert!(Capability::Normal.can_receive() && Capability::Normal.can_transmit());
        assert!(!Capability::TransmitOnly.can_receive());
        assert!(Capability::TransmitOnly.can_transmit());
        assert!(!Capability::Dead.can_receive() && !Capability::Dead.can_transmit());
    }

    #[test]
    fn txonly_spec_roundtrip() {
        let plan = FaultPlan::parse_spec("dead=0.1,txonly=0.2").unwrap();
        assert_eq!(plan.dead_frac, 0.1);
        assert_eq!(plan.tx_only_frac, 0.2);
        assert_eq!(plan.to_spec(), "dead=0.1,txonly=0.2");
        assert!(FaultPlan::parse_spec("txonly=x").is_err());
        assert!(FaultPlan::parse_spec("dead=0.6,txonly=0.6").is_err());
        // Old specs (no txonly key) still parse to tx_only_frac = 0.
        let legacy = FaultPlan::parse_spec("loss=0.2,dead=0.1").unwrap();
        assert_eq!(legacy.tx_only_frac, 0.0);
    }

    #[test]
    fn per_phase_crashes_never_list_the_source() {
        for seed in 0..20 {
            let plan = FaultPlan::per_phase_crashes(50, 0.3, seed).unwrap();
            assert!(plan.outages.iter().all(|o| o.node != 0), "seed {seed}");
            assert_eq!(
                plan.outages.len(),
                49,
                "q = 0.3 crashes every node eventually"
            );
        }
        let all = FaultPlan::per_phase_crashes(10, 1.0, 3).unwrap();
        let nodes: Vec<u32> = all.outages.iter().map(|o| o.node).collect();
        assert_eq!(nodes, (1..10).collect::<Vec<_>>());
        assert!(all
            .outages
            .iter()
            .all(|o| *o == NodeOutage::crash(o.node, 1)));
        assert!(FaultPlan::per_phase_crashes(1, 1.0, 3).unwrap().is_empty());
        assert!(FaultPlan::per_phase_crashes(0, 1.0, 3).unwrap().is_empty());
    }

    #[test]
    fn per_phase_crash_times_are_geometric() {
        let n = 20_001;
        for q in [0.02, 0.1, 0.5] {
            let plan = FaultPlan::per_phase_crashes(n, q, 11).unwrap();
            let crashes: Vec<u32> = plan.outages.iter().map(|o| o.from_phase).collect();
            for k in [1u32, 2, 5, 10, 30] {
                let empirical = crashes.iter().filter(|&&t| t <= k).count() as f64 / (n - 1) as f64;
                let expected = 1.0 - (1.0 - q).powi(k as i32);
                assert!(
                    (empirical - expected).abs() < 0.015,
                    "q {q}, k {k}: P(T ≤ k) {empirical} vs {expected}"
                );
            }
        }
        // Deterministic per seed; a different seed picks different times.
        let a = FaultPlan::per_phase_crashes(500, 0.1, 5).unwrap();
        assert_eq!(a, FaultPlan::per_phase_crashes(500, 0.1, 5).unwrap());
        assert_ne!(a, FaultPlan::per_phase_crashes(500, 0.1, 6).unwrap());
        // A vanishing hazard puts crash times past u32::MAX: omitted.
        assert!(FaultPlan::per_phase_crashes(500, 1e-300, 5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn per_phase_crashes_reject_bad_hazards() {
        for q in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    FaultPlan::per_phase_crashes(10, q, 0),
                    Err(ConfigError::OutOfUnitRange { .. })
                ),
                "q {q}"
            );
        }
        assert!(FaultPlan::per_phase_crashes(10, 0.0, 0).unwrap().is_empty());
    }

    #[test]
    fn per_phase_crashes_roundtrip_through_spec() {
        let plan = FaultPlan::per_phase_crashes(300, 0.05, 9).unwrap();
        assert!(plan.validate().is_ok());
        assert_eq!(FaultPlan::parse_spec(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn hash_unit_in_range_and_spread() {
        let vals: Vec<f64> = (0..1000).map(|i| hash_unit(42, i)).collect();
        assert!(vals.iter().all(|&v| (0.0..1.0).contains(&v)));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((0.45..=0.55).contains(&mean), "mean {mean}");
    }
}
