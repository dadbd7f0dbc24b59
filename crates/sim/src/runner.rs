//! Seeded, parallel replication of simulated executions.
//!
//! The paper's simulation results average 30 random runs per parameter
//! point. Each replication gets an independent deployment and protocol RNG
//! stream derived from one master seed ([`nss_model::rng::SeedFactory`]),
//! so results are bit-reproducible regardless of thread scheduling.
//!
//! [`Replication::map`] is the one per-field loop: it samples and builds
//! replication `i`'s field from the `Stream::Deployment` seed for `i` and
//! hands it to a closure as a [`Field`]. [`Replication::run`] is the
//! paper's protocol on it; experiments that run several protocols or
//! parameter values on each field map their own closure.

use crate::executor::Executor;
use crate::slotted::GossipConfig;
use crate::stats::Summary;
use crate::trace::SimTrace;
use nss_model::deployment::Deployment;
use nss_model::faults::FaultPlan;
use nss_model::metrics::PhaseSeries;
use nss_model::par;
use nss_model::rng::{SeedFactory, Stream};
use nss_model::topology::Topology;

/// A replicated experiment: one deployment spec, one protocol config,
/// `replications` independent runs.
///
/// Construct with [`Replication::paper`] and refine with the builder
/// methods ([`with_runs`](Replication::with_runs),
/// [`with_threads`](Replication::with_threads),
/// [`with_faults`](Replication::with_faults)) rather than mutating fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// Deployment specification (re-sampled each run).
    pub deployment: Deployment,
    /// Protocol configuration.
    pub gossip: GossipConfig,
    /// Number of independent runs (the paper uses 30).
    pub replications: u32,
    /// Master seed.
    pub master_seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Fault scenario; [`FaultPlan::none`] (the default) takes the exact
    /// fault-free code path.
    pub faults: FaultPlan,
    /// Threads *inside* each replication (0 = off, the default). Non-zero
    /// routes runs through the sharded engine
    /// ([`crate::sharded`], via `Executor::sharded`), whose stateless-coin RNG
    /// discipline differs from the sequential engine's — traces are
    /// reproducible per seed and thread count but not comparable across
    /// the two engines. Meant for few huge fields, where replication-level
    /// parallelism has nothing left to amortize.
    pub intra_threads: usize,
}

impl Replication {
    /// The paper's simulation protocol: 30 runs.
    pub fn paper(deployment: Deployment, gossip: GossipConfig, master_seed: u64) -> Self {
        Replication {
            deployment,
            gossip,
            replications: 30,
            master_seed,
            threads: 0,
            faults: FaultPlan::none(),
            intra_threads: 0,
        }
    }

    /// Sets the number of independent runs.
    pub fn with_runs(mut self, runs: u32) -> Self {
        self.replications = runs;
        self
    }

    /// Sets the worker-thread count (0 = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the fault scenario applied to every run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables intra-replication sharding with the given thread count per
    /// run (see the [`intra_threads`](Replication::intra_threads) field);
    /// `0` restores the sequential engine.
    pub fn with_intra_threads(mut self, intra_threads: usize) -> Self {
        self.intra_threads = intra_threads;
        self
    }

    /// Sets the physical-layer backend every run resolves CAM slots with
    /// (mirrors [`Executor::medium`]).
    pub fn with_medium(mut self, backend: nss_model::comm::MediumBackend) -> Self {
        self.gossip.backend = backend;
        self
    }

    /// Runs all replications and collects their traces (ordered by
    /// replication index).
    pub fn run(&self) -> ReplicatedTraces {
        nss_obs::set_label!("sim.master_seed", self.master_seed);
        nss_obs::set_label!(
            "sim.rng_streams",
            format!(
                "{}/{}/{}/{}/{}",
                Stream::Deployment.label(),
                Stream::Protocol.label(),
                Stream::Jitter.label(),
                Stream::Faults.label(),
                Stream::Misc.label()
            )
        );
        ReplicatedTraces {
            traces: self.map(|field| {
                let trace = field.executor().run(field.seed(Stream::Protocol));
                field.observe(&trace);
                trace
            }),
        }
    }

    /// Samples and builds every replication's field and applies `f` to
    /// each, on [`threads`](Replication::threads) workers. Results come
    /// back in replication order at any thread count.
    pub fn map<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Field<'_>) -> T + Sync,
    {
        let factory = SeedFactory::new(self.master_seed);
        let n = self.replications as usize;
        par::map_indexed(n, par::workers(self.threads, n), |i| {
            let started = nss_obs::enabled().then(std::time::Instant::now);
            let index = i as u64;
            let net = self
                .deployment
                .sample(factory.seed(Stream::Deployment, index));
            f(&Field {
                index,
                topo: Topology::build(&net),
                replication: self,
                started,
            })
        })
    }
}

/// One replication's sampled field, as [`Replication::map`] hands it out.
#[derive(Debug)]
pub struct Field<'a> {
    /// Replication index (`0..replications`).
    pub index: u64,
    /// The field's topology, built from the `Stream::Deployment` seed for
    /// [`index`](Field::index).
    pub topo: Topology,
    replication: &'a Replication,
    started: Option<std::time::Instant>,
}

impl Field<'_> {
    /// This replication's seed for `stream`.
    pub fn seed(&self, stream: Stream) -> u64 {
        SeedFactory::new(self.replication.master_seed).seed(stream, self.index)
    }

    /// An executor over this field with the replication's gossip config,
    /// fault plan, `Stream::Faults` seed and engine.
    pub fn executor(&self) -> Executor<'_> {
        let rep = self.replication;
        Executor::new(&self.topo)
            .gossip(rep.gossip)
            .faults(rep.faults.clone())
            .faults_seed(self.seed(Stream::Faults))
            .threads(rep.intra_threads)
    }

    /// Publishes the replication's wall time (sampling included) and
    /// node-phase throughput; a no-op unless instrumentation is live.
    fn observe(&self, trace: &SimTrace) {
        let Some(started) = self.started else {
            return;
        };
        let secs = started.elapsed().as_secs_f64();
        nss_obs::observe!("sim.replication_seconds", secs);
        nss_obs::counter!("sim.replications").inc();
        // Throughput in node-phases per second: the scale-engine figure
        // of merit.
        let node_phases = (self.topo.len() as u64) * trace.phases() as u64;
        nss_obs::counter!("sim.node_phases").add(node_phases);
        if secs > 0.0 {
            nss_obs::observe!("sim.nodes_per_sec", node_phases as f64 / secs);
        }
    }
}

/// The traces of all replications, with metric aggregation.
#[derive(Debug, Clone)]
pub struct ReplicatedTraces {
    /// One trace per replication, in replication order.
    pub traces: Vec<SimTrace>,
}

impl ReplicatedTraces {
    /// Phase series of every replication.
    pub fn series(&self) -> Vec<PhaseSeries> {
        self.traces.iter().map(SimTrace::phase_series).collect()
    }

    /// Mean reachability within a latency budget (phases).
    pub fn reachability_at_latency(&self, phases: f64) -> Summary {
        let vals: Vec<f64> = self
            .series()
            .iter()
            .map(|s| s.reachability_at_latency(phases))
            .collect();
        Summary::of(&vals)
    }

    /// Mean latency to a reachability target over the runs that achieve it,
    /// plus the achieving fraction.
    pub fn latency_to_reach(&self, target: f64) -> (Summary, f64) {
        let vals: Vec<Option<f64>> = self
            .series()
            .iter()
            .map(|s| s.latency_to_reach(target))
            .collect();
        Summary::of_feasible(&vals)
    }

    /// Mean broadcasts to a reachability target over achieving runs, plus
    /// the achieving fraction.
    pub fn broadcasts_to_reach(&self, target: f64) -> (Summary, f64) {
        let vals: Vec<Option<f64>> = self
            .series()
            .iter()
            .map(|s| s.broadcasts_to_reach(target))
            .collect();
        Summary::of_feasible(&vals)
    }

    /// Mean reachability under a broadcast budget.
    pub fn reachability_under_budget(&self, budget: f64) -> Summary {
        let vals: Vec<f64> = self
            .series()
            .iter()
            .map(|s| s.reachability_under_budget(budget))
            .collect();
        Summary::of(&vals)
    }

    /// Mean final reachability.
    pub fn final_reachability(&self) -> Summary {
        let vals: Vec<f64> = self
            .series()
            .iter()
            .map(PhaseSeries::final_reachability)
            .collect();
        Summary::of(&vals)
    }

    /// Mean total broadcasts.
    pub fn total_broadcasts(&self) -> Summary {
        let vals: Vec<f64> = self
            .traces
            .iter()
            .map(|t| t.total_broadcasts() as f64)
            .collect();
        Summary::of(&vals)
    }

    /// Mean per-broadcast success rate over runs that recorded one.
    pub fn mean_success_rate(&self) -> (Summary, f64) {
        let vals: Vec<Option<f64>> = self
            .traces
            .iter()
            .map(SimTrace::mean_success_rate)
            .collect();
        Summary::of_feasible(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_replication(threads: usize) -> Replication {
        Replication::paper(
            Deployment::disk(4, 1.0, 30.0),
            GossipConfig::pb_cam(0.4),
            42,
        )
        .with_runs(8)
        .with_threads(threads)
    }

    #[test]
    fn reproducible_across_thread_counts() {
        let seq = small_replication(1).run();
        let par = small_replication(4).run();
        assert_eq!(seq.traces.len(), 8);
        for (a, b) in seq.traces.iter().zip(&par.traces) {
            assert_eq!(a.first_rx_phase, b.first_rx_phase);
            assert_eq!(a.broadcasts_by_phase, b.broadcasts_by_phase);
        }
        // `map` hands out the same fields in the same order at any worker
        // count, and `run` is `map` over each field's executor.
        let field = |f: &Field<'_>| {
            (
                f.index,
                f.topo.len(),
                f.seed(Stream::Jitter),
                f.executor().run(f.seed(Stream::Protocol)),
            )
        };
        let mapped = small_replication(1).map(field);
        for threads in [2, 4] {
            assert_eq!(small_replication(threads).map(field), mapped);
        }
        for (k, (index, _, _, trace)) in mapped.iter().enumerate() {
            assert_eq!(*index, k as u64);
            assert_eq!(trace, &seq.traces[k]);
        }
    }

    #[test]
    fn faulty_replication_reproducible_across_thread_counts() {
        let plan = FaultPlan::lossy(0.2);
        let seq = small_replication(1).with_faults(plan.clone()).run();
        let par = small_replication(4).with_faults(plan).run();
        for (a, b) in seq.traces.iter().zip(&par.traces) {
            assert_eq!(a.first_rx_phase, b.first_rx_phase);
            assert_eq!(a.broadcasts_by_phase, b.broadcasts_by_phase);
            assert_eq!(a.losses_by_phase, b.losses_by_phase);
            assert_eq!(a.alive_by_phase, b.alive_by_phase);
        }
        assert!(
            seq.traces.iter().any(|t| t.total_losses() > 0),
            "a 20% lossy plan over 8 runs should lose at least one packet"
        );
    }

    #[test]
    fn empty_fault_plan_matches_plain_replication() {
        let plain = small_replication(0).run();
        let faulted = small_replication(0).with_faults(FaultPlan::none()).run();
        for (a, b) in plain.traces.iter().zip(&faulted.traces) {
            assert_eq!(a, b, "FaultPlan::none must be a bitwise no-op");
        }
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = small_replication(0).run();
        let mut rep = small_replication(0);
        rep.master_seed = 43;
        let b = rep.run();
        assert_ne!(
            a.traces[0].first_rx_phase, b.traces[0].first_rx_phase,
            "different master seeds should give different runs"
        );
    }

    #[test]
    fn replications_are_independent() {
        let r = small_replication(0).run();
        // At least two runs should differ (independent deployments).
        let distinct = r
            .traces
            .windows(2)
            .any(|w| w[0].first_rx_phase != w[1].first_rx_phase);
        assert!(distinct, "replications look identical");
    }

    #[test]
    fn aggregation_shapes() {
        let r = small_replication(0).run();
        let reach = r.reachability_at_latency(5.0);
        assert_eq!(reach.n, 8);
        assert!(reach.mean > 0.0 && reach.mean <= 1.0);
        let (lat, frac) = r.latency_to_reach(0.2);
        assert!(frac > 0.0, "some run should reach 20%");
        assert!(lat.n >= 1);
        let bc = r.total_broadcasts();
        assert!(bc.mean >= 1.0);
        let budget = r.reachability_under_budget(10.0);
        assert!(budget.mean <= reach.mean + 1.0);
    }

    #[test]
    fn intra_sharding_reproducible_across_intra_thread_counts() {
        let one = small_replication(1).with_intra_threads(1).run();
        let four = small_replication(1).with_intra_threads(4).run();
        for (a, b) in one.traces.iter().zip(&four.traces) {
            assert_eq!(a, b, "sharded traces must be thread-count invariant");
        }
        let plan = FaultPlan::lossy(0.2);
        let fone = small_replication(1)
            .with_intra_threads(1)
            .with_faults(plan.clone())
            .run();
        let ffour = small_replication(1)
            .with_intra_threads(4)
            .with_faults(plan)
            .run();
        for (a, b) in fone.traces.iter().zip(&ffour.traces) {
            assert_eq!(a, b, "faulty sharded traces must be invariant too");
        }
    }

    #[test]
    fn sinr_backend_reproducible_across_intra_thread_counts() {
        use nss_model::comm::{MediumBackend, SinrParams};
        let sinr = MediumBackend::Sinr(SinrParams {
            alpha: 3.0,
            beta: 0.8,
            noise: 0.02,
            interference_factor: 3.0,
        });
        let one = small_replication(1)
            .with_medium(sinr)
            .with_intra_threads(1)
            .run();
        let four = small_replication(1)
            .with_medium(sinr)
            .with_intra_threads(4)
            .run();
        for (a, b) in one.traces.iter().zip(&four.traces) {
            assert_eq!(a, b, "SINR traces must be thread-count invariant");
        }
        assert!(
            one.traces
                .iter()
                .any(|t| !t.sinr_rejects_by_phase.is_empty()),
            "SINR runs must record the reject series"
        );
    }

    #[test]
    fn paper_protocol_is_30_runs() {
        let rep = Replication::paper(Deployment::disk(4, 1.0, 20.0), GossipConfig::pb_cam(0.2), 7);
        assert_eq!(rep.replications, 30);
    }

    #[test]
    fn success_rate_aggregation() {
        let mut rep = small_replication(0);
        rep.gossip.track_success_rate = true;
        rep.gossip.prob = 1.0;
        let r = rep.run();
        let (sr, frac) = r.mean_success_rate();
        assert!(frac > 0.99);
        assert!(sr.mean > 0.0 && sr.mean <= 1.0);
    }
}
