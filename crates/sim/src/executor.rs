//! Unified entry point for every simulator execution.
//!
//! Historically each scenario axis grew its own free function —
//! `run_gossip`, `run_gossip_faulty`, `run_gossip_per_node`,
//! `run_gossip_sharded`, `run_gossip_sharded_faulty`, `run_tdma_flooding`,
//! `run_tdma_flooding_faulty` — a 2×2×2 matrix that could only get worse
//! with every new axis (the SINR backend would have doubled it again). The
//! [`Executor`] builder collapses the matrix: pick a topology, then chain
//! whichever axes the experiment needs.
//!
//! ```
//! use nss_model::prelude::*;
//! use nss_sim::executor::Executor;
//! use nss_sim::slotted::GossipConfig;
//!
//! let topo = Topology::build(&Deployment::disk(5, 1.0, 60.0).sample(1));
//! let trace = Executor::new(&topo)
//!     .gossip(GossipConfig::pb_cam(0.2))
//!     .run(7);
//! assert!(trace.final_reachability() > 0.2);
//! ```
//!
//! Both engines run the one PB_CAM phase loop, `slotted::run_gossip_with`;
//! the builder only picks its coin source and slot arbiter. The
//! sequential engine (the default) draws from one `SmallRng` and resolves
//! slots through [`crate::medium::Medium`]; [`Executor::threads`] switches
//! to the sharded engine's stateless coins and receiver-range arbiter
//! (thread-count-invariant, but a distinct coin stream — see
//! [`crate::sharded`]). The tests here pin the builder bitwise against
//! the loop, so the removed legacy free functions stay reproducible
//! through the builder.

use crate::slotted::{run_gossip_with, Coins, GossipConfig, SlotArbiter};
use crate::tdma::{TdmaOutcome, TdmaSchedule};
use crate::trace::SimTrace;
use nss_model::comm::{CommunicationModel, MediumBackend};
use nss_model::faults::FaultPlan;
use nss_model::topology::Topology;

/// Which engine executes the phase loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// One `SmallRng` stream and the plain [`crate::medium::Medium`]
    /// arbiter, on one thread.
    Sequential,
    /// Stateless coins and the receiver-range arbiter ([`crate::sharded`]) on
    /// this many workers; `0` uses all available cores.
    Sharded(usize),
}

/// Builder for one simulator execution over a borrowed [`Topology`].
///
/// Defaults: CAM flooding (`p = 1`, `s = 3`), unit-disk backend, no
/// faults, sequential engine.
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    topo: &'a Topology,
    cfg: GossipConfig,
    plan: FaultPlan,
    faults_seed: u64,
    engine: Engine,
    probs: Option<Vec<f64>>,
}

impl<'a> Executor<'a> {
    /// Starts a builder over `topo` with the default configuration.
    pub fn new(topo: &'a Topology) -> Self {
        Executor {
            topo,
            cfg: GossipConfig::flooding_cam(),
            plan: FaultPlan::none(),
            faults_seed: 0,
            engine: Engine::Sequential,
            probs: None,
        }
    }

    /// Replaces the whole gossip configuration (probability, slots, model,
    /// backend, phase cap, …).
    pub fn gossip(mut self, cfg: GossipConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the communication model (CFM, or CAM with a collision rule).
    pub fn model(mut self, model: CommunicationModel) -> Self {
        self.cfg.model = model;
        self
    }

    /// Sets the physical-layer backend resolving CAM slots.
    pub fn medium(mut self, backend: MediumBackend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Sets the rebroadcast probability `p`.
    pub fn prob(mut self, prob: f64) -> Self {
        self.cfg.prob = prob;
        self
    }

    /// Installs a fault plan (see [`Executor::faults_seed`] for the seed
    /// discipline). An empty plan keeps the exact fault-free code path.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Seeds the plan's random decisions; derive it from
    /// [`Stream::Faults`](nss_model::rng::Stream::Faults) so the protocol
    /// and jitter streams stay untouched.
    pub fn faults_seed(mut self, seed: u64) -> Self {
        self.faults_seed = seed;
        self
    }

    /// Selects the engine by worker count, mirroring
    /// [`Replication::with_intra_threads`](crate::runner::Replication):
    /// `0` keeps the sequential executor; any other value runs the sharded
    /// engine with that many workers (bitwise-invariant across counts).
    pub fn threads(self, threads: usize) -> Self {
        match threads {
            0 => self.sequential(),
            t => self.sharded(t),
        }
    }

    /// Forces the sequential engine (the default).
    pub fn sequential(mut self) -> Self {
        self.engine = Engine::Sequential;
        self
    }

    /// Forces the sharded engine; `threads = 0` uses all available cores.
    pub fn sharded(mut self, threads: usize) -> Self {
        self.engine = Engine::Sharded(threads);
        self
    }

    /// Uses a per-node rebroadcast probability vector (the §6 adaptive
    /// extension); `cfg.prob` is ignored.
    pub fn per_node_probs(mut self, probs: Vec<f64>) -> Self {
        self.probs = Some(probs);
        self
    }

    fn checked_faults(&self) -> Option<(&FaultPlan, u64)> {
        if self.plan.is_empty() {
            None
        } else {
            #[expect(
                clippy::panic,
                reason = "documented contract: entry points panic on invalid configs; `validate()` is the fallible path"
            )]
            self.plan
                .validate()
                .unwrap_or_else(|e| panic!("invalid FaultPlan: {e}"));
            Some((&self.plan, self.faults_seed))
        }
    }

    /// Runs one gossip execution and returns its trace.
    ///
    /// # Panics
    ///
    /// On invalid configurations or plans, on per-node probability vectors
    /// that don't match the topology, and on success-rate tracking under
    /// the sharded engine.
    pub fn run(&self, seed: u64) -> SimTrace {
        let faults = self.checked_faults();
        let (topo, cfg, n) = (self.topo, &self.cfg, self.topo.len());
        let (coins, arbiter) = match self.engine {
            Engine::Sequential => (Coins::rng(seed), SlotArbiter::plain(cfg, n)),
            Engine::Sharded(threads) => (
                Coins::Stateless(seed),
                SlotArbiter::sharded(cfg, n, threads),
            ),
        };
        match self.probs.as_deref() {
            None => run_gossip_with(topo, cfg, &mut |_| cfg.prob, coins, arbiter, faults),
            Some(probs) => {
                assert_eq!(probs.len(), n, "one probability per node");
                assert!(
                    probs.iter().all(|p| (0.0..=1.0).contains(p)),
                    "per-node probabilities must lie in [0,1]"
                );
                run_gossip_with(topo, cfg, &mut |u| probs[u], coins, arbiter, faults)
            }
        }
    }

    /// Floods the network over a TDMA `schedule` through the CAM medium,
    /// honoring the builder's backend and fault plan. Under a SINR backend
    /// the outcome's `collisions` field counts every interference-garbled
    /// reception (in-range concurrency and SINR rejects alike).
    pub fn run_tdma(&self, schedule: &TdmaSchedule) -> TdmaOutcome {
        let faults = self.checked_faults();
        crate::tdma::run_tdma_with(self.topo, schedule, faults, self.cfg.backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nss_model::comm::SinrParams;
    use nss_model::deployment::Deployment;

    fn topo() -> Topology {
        Topology::build(&Deployment::disk(4, 1.0, 50.0).sample(3))
    }

    // The builder must reproduce the phase loop bit-for-bit with each
    // engine's coins and arbiter: these pins are what kept the removed
    // legacy free functions honest, and they now guard the builder's own
    // plumbing (validation defaults, axis wiring) against drift.
    fn sequential_loop(
        topo: &Topology,
        cfg: &GossipConfig,
        mut prob: impl Fn(usize) -> f64,
        seed: u64,
        faults: Option<(&FaultPlan, u64)>,
    ) -> SimTrace {
        let arbiter = SlotArbiter::plain(cfg, topo.len());
        run_gossip_with(topo, cfg, &mut prob, Coins::rng(seed), arbiter, faults)
    }

    fn sharded_loop(
        topo: &Topology,
        cfg: &GossipConfig,
        seed: u64,
        faults: Option<(&FaultPlan, u64)>,
        threads: usize,
    ) -> SimTrace {
        let arbiter = SlotArbiter::sharded(cfg, topo.len(), threads);
        let coins = Coins::Stateless(seed);
        run_gossip_with(topo, cfg, &mut |_| cfg.prob, coins, arbiter, faults)
    }

    #[test]
    fn matches_sequential_core_loop() {
        let topo = topo();
        let cfg = GossipConfig::pb_cam(0.4);
        let core = sequential_loop(&topo, &cfg, |_| cfg.prob, 21, None);
        let built = Executor::new(&topo).gossip(cfg).run(21);
        assert_eq!(core, built);
    }

    #[test]
    fn matches_sequential_core_loop_with_faults() {
        let topo = topo();
        let cfg = GossipConfig::pb_cam(0.4);
        let mut plan = FaultPlan::lossy(0.3);
        plan.dead_frac = 0.1;
        let core = sequential_loop(&topo, &cfg, |_| cfg.prob, 21, Some((&plan, 77)));
        let built = Executor::new(&topo)
            .gossip(cfg)
            .faults(plan)
            .faults_seed(77)
            .run(21);
        assert_eq!(core, built);
    }

    #[test]
    fn matches_per_node_core_loop() {
        let topo = topo();
        let cfg = GossipConfig::pb_cam(0.0);
        let probs: Vec<f64> = (0..topo.len()).map(|u| (u % 3) as f64 * 0.3).collect();
        let core = sequential_loop(&topo, &cfg, |u| probs[u], 9, None);
        let built = Executor::new(&topo)
            .gossip(cfg)
            .per_node_probs(probs)
            .run(9);
        assert_eq!(core, built);
    }

    #[test]
    fn matches_sharded_core_loop() {
        let topo = topo();
        let cfg = GossipConfig::pb_cam(0.5);
        let core = sharded_loop(&topo, &cfg, 5, None, 3);
        let built = Executor::new(&topo).gossip(cfg).threads(3).run(5);
        assert_eq!(core, built);
        // threads(0) keeps the sequential engine (intra_threads semantics).
        let seq = Executor::new(&topo).gossip(cfg).threads(0).run(5);
        assert_eq!(seq, sequential_loop(&topo, &cfg, |_| cfg.prob, 5, None));
        // sharded(0) = sharded engine on all cores.
        let auto = Executor::new(&topo).gossip(cfg).sharded(0).run(5);
        assert_eq!(auto, core);
    }

    #[test]
    fn matches_sharded_core_loop_with_faults() {
        let topo = topo();
        let cfg = GossipConfig::pb_cam(0.5);
        let plan = FaultPlan::thinned(0.2);
        let core = sharded_loop(&topo, &cfg, 5, Some((&plan, 50)), 2);
        let built = Executor::new(&topo)
            .gossip(cfg)
            .faults(plan)
            .faults_seed(50)
            .threads(2)
            .run(5);
        assert_eq!(core, built);
    }

    #[test]
    fn matches_tdma_core_loop() {
        let topo = topo();
        let schedule = TdmaSchedule::build(&topo);
        let core = crate::tdma::run_tdma_with(&topo, &schedule, None, MediumBackend::UnitDisk);
        let built = Executor::new(&topo).run_tdma(&schedule);
        assert_eq!(core, built);
    }

    #[test]
    fn matches_tdma_core_loop_with_faults() {
        let topo = topo();
        let schedule = TdmaSchedule::build(&topo);
        let plan = FaultPlan::lossy(0.4);
        let core =
            crate::tdma::run_tdma_with(&topo, &schedule, Some((&plan, 9)), MediumBackend::UnitDisk);
        let built = Executor::new(&topo)
            .faults(plan)
            .faults_seed(9)
            .run_tdma(&schedule);
        assert_eq!(core, built);
    }

    #[test]
    fn axis_helpers_compose() {
        let topo = topo();
        let a = Executor::new(&topo)
            .gossip(GossipConfig::pb_cam(0.3))
            .medium(MediumBackend::Sinr(SinrParams::DEFAULT))
            .run(4);
        let b = Executor::new(&topo)
            .prob(0.3)
            .medium(MediumBackend::Sinr(SinrParams::DEFAULT))
            .run(4);
        // pb_cam(0.3) differs from flooding_cam only in prob.
        assert_eq!(a, b);
        assert_eq!(a.sinr_rejects_by_phase.len(), a.phases());
        // model() switches to CFM (backend then ignored).
        let cfm = Executor::new(&topo)
            .model(CommunicationModel::Cfm)
            .prob(0.3)
            .run(4);
        assert!(cfm.sinr_rejects_by_phase.is_empty());
    }

    #[test]
    fn per_node_probs_run_on_the_sharded_engine() {
        let topo = topo();
        let n = topo.len();
        let cfg = GossipConfig::pb_cam(0.4);
        let probs: Vec<f64> = (0..n).map(|u| (u % 4) as f64 * 0.25).collect();
        let run = |probs: Vec<f64>, threads: usize| {
            Executor::new(&topo)
                .gossip(cfg)
                .per_node_probs(probs)
                .sharded(threads)
                .run(6)
        };
        let base = run(probs.clone(), 1);
        assert!(base.informed_count() > 1);
        for threads in [2, 4] {
            assert_eq!(run(probs.clone(), threads), base, "{threads} workers");
        }
        // A uniform vector replays the scalar sharded run exactly.
        let scalar = Executor::new(&topo).gossip(cfg).sharded(2).run(6);
        assert_eq!(run(vec![0.4; n], 2), scalar);
    }

    #[test]
    fn cfm_ignores_the_sinr_backend_on_both_engines() {
        // CFM resolves every slot without the physical layer, so a SINR
        // backend adds no SINR series on either engine.
        let topo = topo();
        let cfm = Executor::new(&topo)
            .model(CommunicationModel::Cfm)
            .medium(MediumBackend::Sinr(SinrParams::DEFAULT))
            .prob(0.5);
        for built in [cfm.clone().sequential(), cfm.sharded(2)] {
            let t = built.run(3);
            assert!(t.phases() > 1);
            assert!(t.sinr_rejects_by_phase.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn invalid_plan_rejected_at_run() {
        let topo = topo();
        let _ = Executor::new(&topo).faults(FaultPlan::lossy(1.5)).run(1);
    }
}
